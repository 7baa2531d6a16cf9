import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from twoquadrics.cyclo import (
    CycNum,
    ONE,
    ZERO,
    _descend_num,
    _descent_map,
    _map_num,
    _power,
    cyc_sqrt,
    cyclotomic_poly,
    euler_phi,
    imaginary_unit,
    power_table,
    zeta,
)
from twoquadrics.errors import IncompatibleOrder
from twoquadrics.matrices import solve


ORDERS = [1, 2, 3, 4, 6, 8, 12]


@st.composite
def cycnums(draw):
    order = draw(st.sampled_from(ORDERS))
    phi = euler_phi(order)
    coeffs = [
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        for _ in range(phi)
    ]
    return CycNum(order, coeffs)


@settings(max_examples=150, deadline=None)
@given(cycnums(), cycnums(), cycnums())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not a.is_zero():
        assert a * a.inverse() == ONE


@settings(max_examples=80, deadline=None)
@given(cycnums())
def test_embed_preserves_value(a):
    m = a.order * 5
    assert a.embed(m) == a
    assert hash(a.embed(m)) == hash(a)


def test_embed_requires_divisibility():
    with pytest.raises(IncompatibleOrder):
        zeta(8).embed(12)


def test_zeta_orders():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = zeta(n)
        assert z**n == ONE
        for k in range(1, n):
            assert z**k != ONE


def test_cyclotomic_sum():
    # sum of all primitive n-th roots is the Moebius function
    for n, mu in [(1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (8, 0), (12, 0)]:
        total = ZERO
        import math

        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                total = total + zeta(n, k)
        assert total == CycNum.from_rational(mu)


def test_cyclotomic_poly_degrees():
    for n in (1, 2, 3, 4, 8, 9, 12, 15):
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1


def test_canonical_descends():
    # an order-8 expression that is really rational
    x = zeta(8) * zeta(8, 7)
    assert x.canonical().order == 1
    assert x == ONE
    # i expressed at order 12
    i = imaginary_unit().embed(12)
    assert i.canonical().order == 4


@settings(max_examples=40, deadline=None)
@given(cycnums())
def test_sqrt_of_square(a):
    sq = a * a
    r = cyc_sqrt(sq)
    assert r is not None
    assert r * r == sq


def test_sqrt_failures():
    assert cyc_sqrt(ONE + imaginary_unit()) is None
    assert cyc_sqrt(CycNum.from_rational(4)) == 2


def test_sqrt_examples():
    i = imaginary_unit()
    r = cyc_sqrt(-2 * i)
    assert r is not None and r * r == -2 * i
    r = cyc_sqrt(CycNum.from_rational(2))
    assert r is not None and r * r == CycNum.from_rational(2)


def _large_height(order, rng):
    """An element of Q(zeta_order) with numerators about 10^30 over one
    denominator about 10^13."""
    den = rng.randint(10**12, 10**13)
    return CycNum(order, [Fraction(rng.randint(-10**30, 10**30), den) for _ in range(euler_phi(order))])


def test_sqrt_finds_large_height_roots():
    # a search rounding 60-digit embeddings missed all 15 of these
    rng = random.Random(2026)
    for order in (8, 12, 24):
        for _ in range(5):
            x = _large_height(order, rng)
            assert cyc_sqrt(x * x) in (x, -x)


def _images_mod(m, num, p):
    """num(r) mod p at every root r of Phi_m mod p, by brute force."""
    phi_m = cyclotomic_poly(m)
    roots = [r for r in range(1, p) if sum(c * pow(r, j, p) for j, c in enumerate(phi_m)) % p == 0]
    return [sum(c * pow(r, j, p) for j, c in enumerate(num)) % p for r in roots]


def _primes_1_mod(m):
    return (p for p in range(m + 1, 10**4, m) if all(p % k for k in range(2, int(p**0.5) + 1)))


def _is_residue(x, p):
    return pow(x, (p - 1) // 2, p) == 1


def test_sqrt_non_square_past_the_residue_test():
    # -11 + i has a square root mod 73 at every embedding of Q(zeta_24), so
    # the first prime does not decide; None comes from the sign search
    a = -11 + imaginary_unit()
    num = list(a.embed(24).num)
    admissible = (p for p in _primes_1_mod(24) if all(_images_mod(24, num, p)))
    first = next(admissible)
    assert all(_is_residue(x, first) for x in _images_mod(24, num, first))
    assert cyc_sqrt(a) is None
    # a non-residue at a later prime proves that a is not a square
    assert any(not _is_residue(x, p) for p in admissible for x in _images_mod(24, num, p))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 4, 6, 8, 12, 24]),
    st.lists(st.integers(-10**30, 10**30), min_size=8, max_size=8),
    st.integers(1, 10**30),
)
def test_sqrt_of_square_is_plus_or_minus_the_root(order, nums, den):
    x = CycNum(order, [Fraction(c, den) for c in nums[: euler_phi(order)]])
    assert cyc_sqrt(x * x) in (x, -x)


def test_rational_detection():
    assert (zeta(3) + zeta(3, 2)).as_rational() == Fraction(-1)
    assert not zeta(8).is_rational()


# -- the integer-vector representation against a Fraction-tuple reference ----


def _ref_reduce(poly, n):
    """Fraction coefficients of a polynomial modulo Phi_n, by long division."""
    mod = cyclotomic_poly(n)
    phi = len(mod) - 1
    work = [Fraction(c) for c in poly] + [Fraction(0)] * phi
    for k in range(len(work) - 1, phi - 1, -1):
        c = work[k]
        if c:
            for j, m in enumerate(mod):
                work[k - phi + j] -= c * m
    return tuple(work[:phi])


def _ref_embed(order, coeffs, n):
    step = n // order
    poly = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        poly[i * step] = c
    return _ref_reduce(poly, n)


def _ref_mul(a, b, n):
    poly = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            poly[i + j] += x * y
    return _ref_reduce(poly, n)


def _assert_normal(x):
    assert len(x.num) == euler_phi(x.order)
    assert all(isinstance(c, int) for c in x.num)
    assert x.den > 0 and gcd(x.den, *x.num) == 1


def test_power_table_matches_long_division():
    for n in range(1, 61):
        table = power_table(n)
        phi = euler_phi(n)
        assert len(table) == max(n, 2 * phi - 1)
        for k, row in enumerate(table):
            dense = [0] * phi
            for j, c in row:
                dense[j] = c
            assert tuple(dense) == _ref_reduce([0] * k + [1], n), (n, k)


def test_embed_from_every_divisor():
    # includes Q(zeta_5) -> Q(zeta_60): degree 3 * 12 = 36 > 2 * phi(60) - 2
    rng = random.Random(5)
    for n in range(1, 61):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(d))]
            x = CycNum(d, coeffs)
            y = x.embed(n)
            _assert_normal(y)
            assert y.order == n and y.coeffs == _ref_embed(d, x.coeffs, n), (d, n)
            assert y == x and hash(y) == hash(x)


def _ref_canonical(x):
    """(m, coefficients) for the least m | order with x in Q(zeta_m), by a
    Fraction solve against the embedded power basis of each divisor."""
    n = x.order
    for m in (m for m in range(1, n + 1) if n % m == 0):
        basis = [_ref_embed(m, [Fraction(int(i == j)) for i in range(euler_phi(m))], n) for j in range(euler_phi(m))]
        sol = solve(basis, x.coeffs)
        if sol is not None:
            return m, sol


def test_canonical_matches_fraction_solve():
    rng = random.Random(17)
    for n in range(1, 61):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else 0 for _ in range(euler_phi(d))]
            x = CycNum(d, coeffs).embed(n)
            c = x.canonical()
            assert (c.order, c.coeffs) == _ref_canonical(x), (d, n)
            assert hash(x) == hash(c) == hash(CycNum(d, coeffs))


def test_descent_between_orders_of_the_same_primes_reads_every_step_th_coefficient():
    # m | n with the primes of n: zeta_m^j = zeta_n^(j n/m) with no reduction,
    # so the descent is a slice with denominator 1, checked against the
    # embedding; off the slice an element is outside Q(zeta_m)
    rng = random.Random(23)
    pairs = [(n, m) for n in range(2, 121) for m in range(2, n) if n % m == 0 and euler_phi(n) == n // m * euler_phi(m)]
    assert (8, 4) in pairs and (120, 30) in pairs and (12, 6) in pairs and (24, 12) in pairs
    for n, m in pairs:
        num = [rng.randint(-9, 9) for _ in range(euler_phi(m))]
        assert _descent_map(n, m)[2] == 1
        assert _descend_num(n, m, _map_num(n, num, n // m)) == num, (n, m)
        assert _descend_num(n, m, _power(n, 1)) is None, (n, m)


def test_element_of_no_proper_subfield_keeps_its_order():
    rng = random.Random(19)
    for n in (n for n in range(3, 61) if n % 4 != 2):  # Q(zeta_2k) = Q(zeta_k) for odd k
        x = zeta(n) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert x.canonical().order == n and x.key()[0] == n
        assert hash(x) == hash(x.embed(2 * n))


DIFF_ORDERS = [1, 2, 3, 4, 5, 8, 12, 15, 24]


def _random_cycnum(rng):
    order = rng.choice(DIFF_ORDERS)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else Fraction(0)
        for _ in range(euler_phi(order))
    ]
    return CycNum(order, coeffs)


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(11)
    for _ in range(300):
        a, b = _random_cycnum(rng), _random_cycnum(rng)
        m = lcm(a.order, b.order)
        ra, rb = _ref_embed(a.order, a.coeffs, m), _ref_embed(b.order, b.coeffs, m)
        total, prod = a + b, a * b
        for r in (a, b, total, prod, a - b, -a):
            _assert_normal(r)
        assert total.order == prod.order == m
        assert total.coeffs == tuple(x + y for x, y in zip(ra, rb))
        assert prod.coeffs == _ref_mul(ra, rb, m)
        assert (a == b) == (ra == rb)
        assert a == CycNum(m, ra) and hash(a) == hash(CycNum(m, ra))
        assert hash(a) == hash(a.embed(a.order * 6))
        if not a.is_zero():
            inv = a.inverse()
            _assert_normal(inv)
            assert inv.order == a.order
            assert _ref_mul(inv.coeffs, a.coeffs, a.order) == _ref_reduce([1], a.order)
