"""Quartic del Pezzo line configurations and W(D5).

The 16 lines as Picard classes paired with spin weight vectors, signed
permutation actions, orbits, conjugacy, and H^1 of an integral lattice with
finite-order automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product

from .errors import NotFiniteOrder, OddParity
from .matrices import Mat
from .smith import invariant_factors, smith_normal_form


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation of 5 coordinates: e_j -> signs[j] * e_{perm[j]}.

    perm holds 1-indexed images; parity is the count of -1 signs mod 2 and
    membership in W(D5) means even parity."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        if sorted(self.perm) != [1, 2, 3, 4, 5]:
            raise ValueError("perm must be a permutation of 1..5")
        if len(self.signs) != 5 or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be five entries of +-1")

    @classmethod
    def identity(cls):
        return cls((1, 2, 3, 4, 5), (1, 1, 1, 1, 1))

    @property
    def parity(self):
        return self.signs.count(-1) % 2

    def __mul__(self, other):
        # (self*other)(e_j) = self(other(e_j))
        perm = tuple(self.perm[other.perm[j] - 1] for j in range(5))
        signs = tuple(
            other.signs[j] * self.signs[other.perm[j] - 1] for j in range(5)
        )
        return SignedPerm(perm, signs)

    def inverse(self):
        perm = [0] * 5
        signs = [0] * 5
        for j in range(5):
            perm[self.perm[j] - 1] = j + 1
            signs[self.perm[j] - 1] = self.signs[j]
        return SignedPerm(tuple(perm), tuple(signs))

    def order(self):
        k = 1
        cur = self
        ident = SignedPerm.identity()
        while cur != ident:
            cur = cur * self
            k += 1
            if k > 40:
                raise NotFiniteOrder("unexpected: signed perms have order <= 12")
        return k

    def act_weight(self, w):
        """Action on a weight vector of five signs."""
        out = [0] * 5
        for j in range(5):
            out[self.perm[j] - 1] = self.signs[j] * w[j]
        return tuple(out)

    def cycle_type(self):
        """Cycle type of the underlying permutation in S5, sorted
        descending."""
        seen = [False] * 5
        sizes = []
        for i in range(5):
            if seen[i]:
                continue
            j, size = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.perm[j] - 1
                size += 1
            sizes.append(size)
        return tuple(sorted(sizes, reverse=True))


# the 16 lines: Pic class in basis {L, E1..E5} paired with its weight
def lines16():
    """The 16 line classes with the fixed weight dictionary.

    E_i -> (+ at i, - elsewhere); L-E_i-E_j -> (- exactly at i and j);
    2L-E_1-...-E_5 -> all +.  Every weight has an even number of minus
    signs; the list is ordered E_i, then L-E_i-E_j by (i,j), then the
    conic class."""
    out = []
    for i in range(5):
        pic = (0,) + tuple(1 if k == i else 0 for k in range(5))
        w = tuple(1 if k == i else -1 for k in range(5))
        out.append((pic, w))
    for i, j in combinations(range(5), 2):
        pic = (1,) + tuple(-1 if k in (i, j) else 0 for k in range(5))
        w = tuple(-1 if k in (i, j) else 1 for k in range(5))
        out.append((pic, w))
    out.append(((2, -1, -1, -1, -1, -1), (1, 1, 1, 1, 1)))
    return out


_LINES = lines16()
_WEIGHT_INDEX = {w: k for k, (_, w) in enumerate(_LINES)}

CANONICAL_CLASS = (-3, 1, 1, 1, 1, 1)


def intersection(a, b):
    """Intersection number in the form diag(1, -1, -1, -1, -1, -1)."""
    return a[0] * b[0] - sum(a[k] * b[k] for k in range(1, 6))


def line_permutation(s: SignedPerm):
    """Permutation of the 16 line indices induced by the weight action."""
    if s.parity:
        raise OddParity("signed permutation is not in W(D5)")
    return tuple(_WEIGHT_INDEX[s.act_weight(w)] for _, w in _LINES)


def pic_action(s: SignedPerm) -> Mat:
    """The induced action on Pic = Z L + Z E_1 + ... + Z E_5, an integer Mat.

    Determined by the images of the E_i under the line permutation together
    with L = (L - E_1 - E_2) + E_1 + E_2."""
    lp = line_permutation(s)
    cols = []
    for i in range(5):
        cols.append(_LINES[lp[i]][0])
    idx12 = _WEIGHT_INDEX[tuple(-1 if k in (0, 1) else 1 for k in range(5))]
    l_img = tuple(
        _LINES[lp[idx12]][0][k] + cols[0][k] + cols[1][k] for k in range(6)
    )
    mat = Mat(
        [[l_img[r]] + [cols[i][r] for i in range(5)] for r in range(6)]
    )
    # sanity: fixes K and preserves the intersection form
    k_img = tuple(
        sum(mat.data[r][c] * CANONICAL_CLASS[c] for c in range(6))
        for r in range(6)
    )
    assert k_img == CANONICAL_CLASS, "canonical class not fixed"
    j = Mat([[1 if r == c == 0 else (-1 if r == c else 0) for c in range(6)] for r in range(6)])
    assert mat.transpose() * j * mat == j, "intersection form not preserved"
    return mat


def invariant_lines(s: SignedPerm):
    lp = line_permutation(s)
    return [_LINES[k][0] for k in range(16) if lp[k] == k]


def orbits(elements):
    """Orbit partition of the 16 lines under the subgroup generated by the
    given signed permutations: a search from each line no orbit holds yet,
    along every element's line permutation (the group is finite, so each
    inverse is a power)."""
    perms = [line_permutation(s) for s in elements]
    assigned = [False] * 16
    parts = []
    for k in range(16):
        if assigned[k]:
            continue
        assigned[k] = True
        orbit = [k]
        for x in orbit:  # grows while it is read
            for p in perms:
                if not assigned[p[x]]:
                    assigned[p[x]] = True
                    orbit.append(p[x])
        parts.append(tuple(sorted(orbit)))
    return parts


@cache
def wd5_elements():
    """All 1920 elements of W(D5), in the order the conjugacy search
    relies on: the permutations in lexicographic order, and for each one
    its 16 even sign vectors in ``product((1, -1))`` order."""
    return [
        SignedPerm(perm, signs)
        for perm in permutations(range(1, 6))
        for signs in product((1, -1), repeat=5)
        if signs.count(-1) % 2 == 0
    ]


def conjugate_in_WD5(a: SignedPerm, b: SignedPerm):
    """The first g of `wd5_elements` with g a g^-1 = b, as (True, g), or
    (False, None).  Then g's permutation p has p a.perm = b.perm p, a test on
    tuples, so only the 16 elements of a p that passes it are multiplied,
    as g a = b g."""
    if a.parity or b.parity:
        raise OddParity("both elements must lie in W(D5)")
    pa, pb = a.perm, b.perm
    elements = wd5_elements()
    for start in range(0, len(elements), 16):
        p = elements[start].perm
        if all(p[pa[j] - 1] == pb[p[j] - 1] for j in range(5)):
            for g in elements[start:start + 16]:
                if g * a == b * g:
                    return (True, g)
    return (False, None)


def lattice_h1(a: Mat, n: int):
    """Invariant factors of H^1 = ker(Norm) / im(A - I) for A of order
    dividing n, with Norm = I + A + ... + A^{n-1}.

    Returns the invariant factor tuple of the quotient with entries 1
    dropped; a 0 entry marks a free summand (rank not exhausted by the
    image)."""
    ident = Mat.identity(a.rows)
    if a**n != ident:
        raise NotFiniteOrder(f"A^{n} is not the identity")
    norm = ident
    power = ident
    for _ in range(n - 1):
        power = power * a
        norm = norm + power
    dn, _, v = smith_normal_form(norm)
    r = sum(1 for i in range(a.rows) if dn.data[i][i])
    k = a.rows - r  # columns r.. of V are a basis of ker(Norm)
    if not k:
        return ()
    # by U Norm V = D, rows r.. of V^-1 x are the coordinates of x in ker(Norm)
    # in that basis; Norm (A - I) = A^n - I = 0 puts the image of A - I there
    rel = Mat((v.inverse() * (a - ident)).data[r:])
    facts = list(invariant_factors(rel))
    rank = sum(1 for d in facts if d != 0)
    quotient = [d for d in facts if d not in (0, 1)]
    quotient += [0] * (k - rank)  # free summands, reported not truncated
    return tuple(quotient)
