"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial, with arbitrary-precision rational coefficients
(fractions.Fraction).  Values are immutable; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath

from .errors import IncompatibleOrder, UnsupportedCase


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


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


def _reduce_mod_cyclotomic(coeffs, n):
    """Reduce a Fraction coefficient list modulo Phi_n; returns tuple of
    length phi(n)."""
    phi = euler_phi(n)
    mod = cyclotomic_poly(n)
    work = list(coeffs)
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            for j in range(phi + 1):
                work[i - phi + j] -= c * mod[j]
        work.pop()
    while len(work) < phi:
        work.append(Fraction(0))
    return tuple(Fraction(c) for c in work)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


class CycNum:
    """An element of Q(zeta_N) in the power basis modulo Phi_N."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order, coeffs):
        phi = euler_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(
                f"need {phi} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_rational(cls, q) -> "CycNum":
        return cls(1, (Fraction(q),))

    @classmethod
    def _coerce(cls, x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} to CycNum")

    def embed(self, m: int) -> "CycNum":
        """Re-express the value in Q(zeta_m); requires order | m."""
        if m % self.order != 0:
            raise IncompatibleOrder(f"order {self.order} does not divide {m}")
        if m == self.order:
            return self
        step = m // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycNum(m, _reduce_mod_cyclotomic(out, m))

    @staticmethod
    def _pair(a, b):
        a = CycNum._coerce(a)
        b = CycNum._coerce(b)
        m = lcm(a.order, b.order)
        return a.embed(m), b.embed(m)

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        return CycNum(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        return CycNum(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            a, b = CycNum._pair(self, other)
        except TypeError:
            return NotImplemented
        prod = _poly_mul(a.coeffs, b.coeffs)
        return CycNum(a.order, _reduce_mod_cyclotomic(prod, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        mod = [Fraction(c) for c in cyclotomic_poly(n)]
        # extended Euclid: find u with u*self = gcd = nonzero constant mod Phi_n
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            qs1 = _poly_mul(q, s1)
            new_s = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs1):
                new_s[i] -= c
            s0, s1 = s1, new_s
        c = r1[0]
        inv = [x / c for x in s1]
        return CycNum(n, _reduce_mod_cyclotomic(inv, n))

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
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_one(self) -> bool:
        return self.is_rational() and self.coeffs[0] == 1

    # -- canonical form, equality, hashing ------------------------------
    def canonical(self) -> "CycNum":
        """The same value expressed in Q(zeta_M) for the smallest M | order."""
        if self._canon is not None:
            return self._canon
        n = self.order
        best = self
        for m in sorted(d for d in range(1, n) if n % d == 0):
            desc = self._descend(m)
            if desc is not None:
                best = desc
                break
        object.__setattr__(self, "_canon", best)
        if best is not self:
            object.__setattr__(best, "_canon", best)
        return best

    def _descend(self, m):
        """Express the value in Q(zeta_m) (m | order) if possible."""
        from .matrices import solve  # matrices imports this module

        n = self.order
        phi_m = euler_phi(m)
        step = n // m
        # columns: embeddings of zeta_m^j into order n; solve for coefficients
        cols = []
        for j in range(phi_m):
            poly = [Fraction(0)] * (j * step + 1)
            poly[j * step] = Fraction(1)
            cols.append(_reduce_mod_cyclotomic(poly, n))
        sol = solve(cols, self.coeffs)
        if sol is None:
            return None
        return CycNum(m, sol)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        elif not isinstance(other, CycNum):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = CycNum._pair(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        c = self.canonical()
        return hash((c.order, c.coeffs))

    def key(self):
        c = self.canonical()
        return (c.order, c.coeffs)

    # -- display ---------------------------------------------------------
    def __repr__(self):
        c = self.canonical()
        if c.is_rational():
            return str(c.coeffs[0])
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


def _poly_divmod(num, den):
    """Polynomial division with remainder over Fraction coefficients."""
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    rem = num[: len(den) - 1]
    return q, rem


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k."""
    k %= n
    poly = [Fraction(0)] * (k + 1)
    poly[k] = Fraction(1)
    return CycNum(n, _reduce_mod_cyclotomic(poly, n))


ZERO = CycNum.from_rational(0)
ONE = CycNum.from_rational(1)


def imaginary_unit() -> CycNum:
    return zeta(4)


_MAX_SQRT_PHI = 10


def cyc_sqrt(a, field_order: int | None = None) -> CycNum | None:
    """A square root of `a` inside Q(zeta_M), or None if there is none.

    M defaults to lcm(order(a), 24).  The candidate is reconstructed from
    high-precision embeddings (one sign choice per conjugate pair) and then
    verified exactly, so a returned value is always correct; completeness
    relies on 60-digit precision, ample for the coefficient sizes here.
    """
    a = CycNum._coerce(a)
    if a.is_zero():
        return ZERO
    if a.is_rational():
        q = a.as_rational()
        for sgn, mul in ((1, ONE), (-1, imaginary_unit())):
            v = sgn * q
            if v > 0:
                rn = _isqrt_exact(v.numerator)
                rd = _isqrt_exact(v.denominator)
                if rn is not None and rd is not None:
                    root = mul * Fraction(rn, rd)
                    if field_order is None or field_order % root.order == 0:
                        return root
    m = field_order if field_order is not None else lcm(a.order, 24)
    if m % a.order != 0:
        raise IncompatibleOrder(f"order {a.order} does not divide {m}")
    phi = euler_phi(m)
    if phi > _MAX_SQRT_PHI:
        raise UnsupportedCase(f"square-root search not supported for phi({m}) = {phi}")
    return _sqrt_by_embeddings(a.embed(m))


def _isqrt_exact(n: int) -> int | None:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def _sqrt_by_embeddings(a: CycNum) -> CycNum | None:
    m = a.order
    units = [k for k in range(1, m) if gcd(k, m) == 1]
    if m <= 2:
        half = units
        pairs = {}
    else:
        half = [k for k in units if k <= m // 2]
        pairs = {k: m - k for k in half}
    with mpmath.workdps(60):
        omega = mpmath.exp(2j * mpmath.pi / m)
        phi = euler_phi(m)
        # embedding matrix: row per unit k, column per power j
        embaps = {k: [omega ** (j * k) for j in range(phi)] for k in units}
        targets = {
            k: mpmath.sqrt(sum(
                mpmath.mpf(c.numerator) / c.denominator * embaps[k][j]
                for j, c in enumerate(a.coeffs)
            ))
            for k in half
        }
        nfree = len(half) - 1
        for mask in range(1 << max(nfree, 0)):
            vals = {}
            for idx, k in enumerate(half):
                sgn = 1 if idx == 0 or not (mask >> (idx - 1)) & 1 else -1
                vals[k] = sgn * targets[k]
                if k in pairs and pairs[k] != k:
                    vals[pairs[k]] = mpmath.conj(vals[k])
            rows = [embaps[k] for k in units]
            rhs = [vals[k] for k in units]
            try:
                sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
            except ZeroDivisionError:
                continue
            coeffs = []
            ok = True
            for j in range(phi):
                x = sol[j]
                if abs(mpmath.im(x)) > mpmath.mpf(10) ** -20:
                    ok = False
                    break
                scaled = int(mpmath.floor(mpmath.re(x) * 10**30 + mpmath.mpf("0.5")))
                coeffs.append(Fraction(scaled, 10**30).limit_denominator(10**12))
            if not ok:
                continue
            cand = CycNum(m, _reduce_mod_cyclotomic(coeffs, m))
            if cand * cand == a:
                return cand
    return None
