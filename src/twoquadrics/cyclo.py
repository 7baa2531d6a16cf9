"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNum, the scalar type, is (order, num, den) with value (sum_j num[j]
z^j) / den, z = zeta_N: num holds phi(N) ints, den > 0 and gcd(den, *num) =
1, so a value has one form per order and equality at one order compares
tuples.  The arithmetic lives in helpers on bare int vectors, which the
matrix kernels share without making a CycNum (see matrices): `_dot_num`
(sums of products: schoolbook int products folded once through a table of
x^k mod Phi_N built on first use), `_map_num` (embeddings of Q(zeta_d) in
Q(zeta_N), d | N, and Galois conjugates, from the same table; Cohen, GTM
138, 4.2), `_inverse_num` (a product of conjugates and the norm),
`_descend_num` (descent to a subfield: an int product with a cached left
inverse of the embedding, checked exactly by embedding back) and
`_least_field` (the least field of a list of vectors, by descents through
maximal subfields, behind canonical forms, hashing and `Mat`).  Each CycNum
keeps its own order: a rational (order 1) operand scales the other, and
only operands of two different orders meet in the lcm field.  Values are
immutable; all operations are pure.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count, islice, product
from math import gcd, isqrt, lcm

from .errors import IncompatibleOrder, UnsupportedCase


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_div_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Coefficients of Phi_n, ascending, as a tuple of ints (monic)."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_table(n: int):
    """x^k mod Phi_n for 0 <= k < max(n, 2 phi(n) - 1), as the (index,
    coefficient) pairs of each row's nonzero entries.  Rows phi..2phi-2 fold
    products; row k is zeta_n^k, which gives embeddings and conjugates."""
    phi = euler_phi(n)
    mod = cyclotomic_poly(n)
    cur = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(max(n, 2 * phi - 1)):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[-1]  # multiply by x, then replace x^phi by x^phi - Phi_n
        cur = [0] + cur[:-1]
        for j in range(phi):
            cur[j] -= top * mod[j]
    return tuple(rows)


def _dot_num(n, pairs):
    """sum a*b over pairs of int coefficient vectors of Q(zeta_n), as a list:
    one schoolbook accumulation for all pairs, folded once."""
    phi = len(pairs[0][0])
    prod = [0] * (2 * phi - 1)
    for a, b in pairs:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
    out = prod[:phi]
    table = power_table(n)
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            for j, t in table[k]:
                out[j] += c * t
    return out


def _map_num(n, num, step):
    """sum_i num[i] * zeta_n^(i*step) as an int vector of length phi(n)."""
    table = power_table(n)
    out = [0] * euler_phi(n)
    for i, c in enumerate(num):
        if c:
            for j, t in table[i * step % n]:
                out[j] += c * t
    return out


def _power(n, k):
    """zeta_n^k as a dense int vector of length phi(n)."""
    out = [0] * euler_phi(n)
    for j, c in power_table(n)[k % n]:
        out[j] = c
    return out


@lru_cache(maxsize=None)
def _descent_map(n, m):
    """(coordinates, A, d) for m | n: A / d inverts the embedding of Q(zeta_m)
    in Q(zeta_n) restricted to phi(m) independent coordinates of Q(zeta_n)."""
    from .matrices import _rref  # matrices imports this module

    phi = euler_phi(m)
    # the rref of [E^T | I] is S^-T [E^T | I], S = E on the pivot coordinates
    rows, coords, d = _rref(1, [
        _power(n, j * (n // m)) + [int(i == j) for i in range(phi)]
        for j in range(phi)
    ])
    inv = tuple(tuple(row[i - phi] for row in rows) for i in range(phi))
    return tuple(coords), inv, d


def _descend_num(n, m, num):
    """The element num of Q(zeta_n) in Q(zeta_m), m | n, as ints c over the
    d of _descent_map(n, m), or None when it does not lie in Q(zeta_m): the
    candidate is the value iff it embeds back to it.  When m has every prime
    of n, zeta_m^j = zeta_n^(jn/m) needs no reduction: the value is a slice."""
    step = n // m
    if euler_phi(n) == step * euler_phi(m):
        return None if any(num[i] for i in range(len(num)) if i % step) else list(num[::step])
    coords, inv, d = _descent_map(n, m)
    picked = [num[i] for i in coords]
    cand = [sum(a * x for a, x in zip(row, picked)) for row in inv]
    if _map_num(n, cand, n // m) != [d * x for x in num]:
        return None
    return cand


def _least_field(n, nums):
    """(m, low, d): the least order m with every int vector of nums (0 for
    zero) in Q(zeta_m), and the vectors there, over the int d.  Rational ones
    go straight to 1; else the order steps from n to n/p, p prime, while all
    descend: Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a, b)), so it ends at m."""
    if all(not x or not any(x[1:]) for x in nums):
        return 1, [x[:1] if x else x for x in nums], 1
    d = 1
    while True:
        for m in (n // p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
            low = []
            for x in nums:
                c = _descend_num(n, m, x) if x else x
                if c is None:
                    break
                low.append(c)
            else:
                n, nums, d = m, low, d * _descent_map(n, m)[2]
                break
        else:
            return n, nums, d


def _inverse_num(n, num):
    """(P, N) with num * P = N, a nonzero int, for a nonzero int vector num
    of Q(zeta_n): P is the product of the Galois conjugates of num other
    than num itself, and N is the norm of num."""
    if len(num) == 1:
        return (1,), num[0]
    prod = None
    for k in range(2, n):
        if gcd(k, n) == 1:
            conj = _map_num(n, num, k)
            prod = conj if prod is None else _dot_num(n, ((prod, conj),))
    return prod, _dot_num(n, ((num, prod),))[0]


def _make(order, num, den):
    """The element num / den of Q(zeta_order), brought to its normal form."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [x // g for x in num]
        den //= g
    x = _alloc(CycNum)
    _set_order(x, order)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


class CycNum:
    """An element of Q(zeta_N): int numerators over one denominator."""

    __slots__ = ("order", "num", "den", "_canon")

    def __new__(cls, order, coeffs):
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(
                f"need {phi} coefficients for order {order}, got {len(coeffs)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        return _make(order, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_rational(cls, q) -> "CycNum":
        if isinstance(q, int):
            return _make(1, (q,), 1)
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @classmethod
    def _coerce(cls, x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")

    def embed(self, m: int) -> "CycNum":
        """Re-express the value in Q(zeta_m); requires order | m."""
        if m % self.order != 0:
            raise IncompatibleOrder(f"order {self.order} does not divide {m}")
        if m == self.order:
            return self
        return _make(m, _map_num(m, self.num, m // self.order), self.den)

    @staticmethod
    def _pair(a, b):
        a = CycNum._coerce(a)
        b = CycNum._coerce(b)
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return a.embed(m), b.embed(m)

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        da, db = a.den, b.den
        return _make(a.order, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        da, db = a.den, b.den
        return _make(a.order, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            b = CycNum._coerce(other)
        except TypeError:
            return NotImplemented
        a = self
        if a.order == 1:
            a, b = b, a
        if b.order == 1:  # a rational factor scales the coefficients
            c = b.num[0]
            return _make(a.order, [x * c for x in a.num], a.den * b.den)
        if a.order != b.order:
            a, b = CycNum._pair(a, b)
        return _make(a.order, _dot_num(a.order, ((a.num, b.num),)), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        1 / (num / den) = den * P / N, where P is the product of the Galois
        conjugates of num other than num itself and N = num * P is the norm
        of num, an integer."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        prod, norm = _inverse_num(self.order, self.num)
        return _make(self.order, [self.den * x for x in prod], norm)

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycNum._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and self.is_rational()

    # -- canonical form, equality, hashing ------------------------------
    def canonical(self) -> "CycNum":
        """The same value expressed in Q(zeta_M) for the smallest M | order."""
        best = getattr(self, "_canon", None)
        if best is not None:
            return best
        m, (num,), d = _least_field(self.order, [self.num])
        best = self if m == self.order else _make(m, num, d * self.den)
        _set_canon(self, best)
        if best is not self:
            _set_canon(best, best)
        return best

    def __eq__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash(self.key())

    def key(self):
        c = self.canonical()
        return (c.order, c.num, c.den)

    # -- display ---------------------------------------------------------
    def __repr__(self):
        c = self.canonical()
        if c.is_rational():
            return str(c.as_rational())
        terms = []
        for i, x in enumerate(c.coeffs):
            if not x:
                continue
            if i == 0:
                terms.append(str(x))
            else:
                mono = f"z{c.order}" if i == 1 else f"z{c.order}^{i}"
                terms.append(mono if x == 1 else f"{x}*{mono}")
        return " + ".join(terms)


_alloc = object.__new__
_set_order = CycNum.order.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__
_set_canon = CycNum._canon.__set__


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k."""
    return _make(n, _power(n, k), 1)


ZERO = CycNum.from_rational(0)
ONE = CycNum.from_rational(1)


def imaginary_unit() -> CycNum:
    return zeta(4)


_MAX_SQRT_PHI = 10


def cyc_sqrt(a) -> CycNum | None:
    """A square root of `a` inside Q(zeta_M), or None if there is none.

    M is lcm(order(a), 24).  With a = num / den, a root x gives c =
    den x in Z[zeta_M] with c^2 = s = num den, whose coefficients are at most
    B = phi sqrt(|s|_1) max_j |beta_j|_1 for the trace-dual basis beta.  At
    the least prime p = 1 mod M where no embedding of s vanishes, a
    non-square image proves there is no root.  Otherwise the images' square
    roots are Newton-lifted to p^e > 2B (Cohen, GTM 138, 1.5; von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 15), and each sign pattern
    is mapped back through beta and checked exactly.  None is thus a proof.
    """
    a = CycNum._coerce(a)
    if a.is_zero():
        return ZERO
    if a.is_rational():
        # num and den are coprime: a is a square up to sign iff both are
        n, d = abs(a.num[0]), a.den
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return (ONE if a.num[0] > 0 else imaginary_unit()) * Fraction(rn, rd)
    m = lcm(a.order, 24)
    phi = euler_phi(m)
    if phi > _MAX_SQRT_PHI:
        raise UnsupportedCase(f"square-root search not supported for phi({m}) = {phi}")
    a = a.embed(m)
    s = [x * a.den for x in a.num]
    basis, d = _dual_basis(m)
    bound = phi * (isqrt(sum(map(abs, s))) + 1) * max(sum(map(abs, row)) for row in basis) // d + 1
    for p in count(1 + lcm(m, 2), lcm(m, 2)):
        if d % p and all(p % k for k in range(3, isqrt(p) + 1, 2)):
            roots, squares = _roots_mod(m, p)
            images = [_horner(s, r, p) for r in roots]
            if all(images):
                break
    if any(x not in squares for x in images):
        return None
    q = p ** next(e for e in count(1) if p**e > 2 * bound)
    lifted = []  # (y / d, w): w the Teichmueller lift of r, y^2 = s(w) mod q
    for r, x in zip(roots, images):
        w = pow(r, q // p, q)
        target, y, k = _horner(s, w, q), squares[x], p
        while k < q:  # y <- (y + target / y) / 2
            k = min(k * k, q)
            y = (y + target * pow(y, -1, k)) * ((k + 1) // 2) % k
        lifted.append((y * pow(d, -1, q), w))
    rows = [[y * _horner(row, w, q) % q for y, w in lifted] for row in basis]
    for signs in islice(product((1, -1), repeat=phi), 1 << (phi - 1)):  # c or -c: first sign +
        c = []
        for row in rows:
            c.append((sum(e * t for e, t in zip(signs, row)) + q // 2) % q - q // 2)
            if abs(c[-1]) > bound:
                break
        if abs(c[-1]) <= bound and _dot_num(m, ((c, c),)) == s:  # no coefficient out of range
            # of c and -c, the principal root at zeta -> exp(2 pi i / m), as before
            scale = sum(map(abs, c))
            z = sum(x / scale * cmath.exp(2j * cmath.pi * k / m) for k, x in enumerate(c))
            return _make(m, c if (round(z.real, 9), z.imag) >= (0, 0) else [-x for x in c], a.den)
    return None


@lru_cache(maxsize=None)
def _dual_basis(m):
    """(A, d): row j of A / d holds the coefficients of beta_j, the basis of
    Q(zeta_m) trace-dual to the power basis: Tr(zeta^i beta_j) = [i == j]."""
    from .matrices import _rref  # matrices imports this module

    phi = euler_phi(m)
    trace = [sum(_power(m, n * k)[0] for k in range(m) if gcd(k, m) == 1) for n in range(2 * phi - 1)]
    rows, _, d = _rref(1, [trace[i:i + phi] + [int(i == j) for j in range(phi)] for i in range(phi)])
    return tuple(tuple(row[phi:]) for row in rows), d


@lru_cache(maxsize=None)
def _roots_mod(m, p):
    """The roots of Phi_m mod p, and {y^2 mod p: y} for square roots mod p."""
    poly = cyclotomic_poly(m)
    return tuple(x for x in range(1, p) if _horner(poly, x, p) == 0), {y * y % p: y for y in range(1, p)}


def _horner(num, x, q):
    """num(x) mod q for an int vector num."""
    return reduce(lambda acc, c: (acc * x + c) % q, reversed(num), 0)
