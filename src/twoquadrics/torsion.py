"""Two-torsion combinatorics of hyperelliptic curves.

Classes of J(C)[2] and of the two-torsion translates in Pic^1 are subsets
of the branch labels {1, ..., 2g+2} modulo complement; addition is
symmetric difference.  Also the counting identities used for sections and
excess computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import GenusMismatch


def _canonical(g, subset):
    n = 2 * g + 2
    s = tuple(sorted(subset))
    if any(i < 1 or i > n for i in s) or len(set(s)) != len(s):
        raise ValueError(f"subset must be within 1..{n} without repeats")
    comp = tuple(i for i in range(1, n + 1) if i not in subset)
    if len(comp) < len(s) or (len(comp) == len(s) and comp < s):
        return comp
    return s


@dataclass(frozen=True)
class TorsionClass:
    """Subset of branch labels modulo complement.

    The stored representative is the lexicographically smaller of S and its
    complement (shorter one first); parity |S| mod 2 is well defined since
    the total number of labels is even."""

    g: int
    subset: tuple

    def __post_init__(self):
        object.__setattr__(self, "subset", _canonical(self.g, self.subset))

    def __repr__(self):
        return f"[{{{','.join(map(str, self.subset))}}}]"


def torsion_classes(g, parity):
    """All 2^{2g} classes of the given parity ('even'/'odd' or 0/1),
    sorted canonically."""
    if parity in ("even", "odd"):
        parity = 0 if parity == "even" else 1
    n = 2 * g + 2
    seen = set()
    out = []
    for mask in range(1 << n):
        subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if len(subset) % 2 != parity:
            continue
        c = TorsionClass(g, subset)
        if c.subset not in seen:
            seen.add(c.subset)
            out.append(c)
    out.sort(key=lambda c: (len(c.subset), c.subset))
    return out


def act(perm, c: TorsionClass) -> TorsionClass:
    """Relabel a class by a permutation given as a tuple of 1-indexed
    images."""
    if len(perm) != 2 * c.g + 2:
        raise GenusMismatch("permutation degree must be 2g+2")
    return TorsionClass(c.g, tuple(perm[i - 1] for i in c.subset))


def fixed_classes(perms, parity, g):
    """Classes of the given parity fixed by every listed permutation."""
    return [
        c
        for c in torsion_classes(g, parity)
        if all(act(p, c) == c for p in perms)
    ]


def section_count_identity(g):
    """The parity-appropriate counting identity for 4^g.

    Even g:  4^g = C(2g+2, g) + sum_{j=0}^{g/2-1} C(2g+2, 2j).
    Odd g:   4^g = C(2g+2, g) + sum_{j=1}^{(g-1)/2} C(2g+2, 2j-1).
    """
    n = 2 * g + 2
    lhs = 4**g
    main = comb(n, g)
    if g % 2 == 0:
        residual = [comb(n, 2 * j) for j in range(g // 2)]
    else:
        residual = [comb(n, 2 * j - 1) for j in range(1, (g - 1) // 2 + 1)]
    rhs = main + sum(residual)
    return {
        "g": g,
        "lhs": lhs,
        "main": main,
        "residual": residual,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


def excess_identity(g):
    """Three exact evaluations of the same excess count.

    series:   coefficient of t^{g-2} in (1+3t)^g * (1+2t)^{-2}
    bilinear: sum over j+k = g-2 of C(g,k) 3^k (j+1) (-2)^j
    closed:   (3^g - 2g - 1)/4
    """
    if g < 2:
        raise ValueError("need g >= 2")
    m = g - 2
    # truncated series product
    top = [Fraction(comb(g, k) * 3**k) for k in range(m + 1)]
    bot = [Fraction((j + 1) * (-2) ** j) for j in range(m + 1)]
    series = sum(top[k] * bot[m - k] for k in range(m + 1))
    bilinear = sum(
        comb(g, k) * 3**k * (j + 1) * (-2) ** j
        for k in range(m + 1)
        for j in (m - k,)
    )
    closed = Fraction(3**g - 2 * g - 1, 4)
    return {
        "g": g,
        "series": series,
        "bilinear": Fraction(bilinear),
        "closed": closed,
        "equal": series == bilinear == closed,
    }
