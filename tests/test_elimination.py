"""Properties of the one elimination routine behind det, inverse, rank,
kernel, solve and cyclotomic descent, over Q and Q(zeta_8), with sympy as
an independent oracle where it is installed."""

import random
from fractions import Fraction

import pytest

from twoquadrics.cyclo import CycNum, ONE, ZERO, zeta
from twoquadrics.errors import Singular
from twoquadrics.matrices import Mat, Quadric, Subspace, kernel, solve
from twoquadrics.pencils import Pencil, degeneracy_form


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _element(rng, order):
    if order == 1:
        return CycNum.from_rational(_rational(rng))
    return CycNum(order, [_rational(rng) for _ in range(4)])


def _matrix(rng, order, rows, cols):
    return Mat([[_element(rng, order) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("order", [1, 8])
def test_det_multiplicative_and_inverse(order):
    rng = random.Random(order)
    for _ in range(3):
        a, b = _matrix(rng, order, 4, 4), _matrix(rng, order, 4, 4)
        assert (a * b).det() == a.det() * b.det()
        swap = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert swap.det() == -1 and (swap * a).det() == -a.det()
        if not a.det().is_zero():
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()
            assert a.rank() == 4


@pytest.mark.parametrize("order", [1, 8])
def test_singular_matrix(order):
    rng = random.Random(10 + order)
    rows = [list(r) for r in _matrix(rng, order, 3, 4).entries]
    c = _element(rng, order)
    rows.append([x + c * y for x, y in zip(rows[0], rows[2])])
    m = Mat(rows)
    assert m.det().is_zero()
    assert m.rank() == 3
    with pytest.raises(Singular):
        m.inverse()


@pytest.mark.parametrize("order", [1, 8])
def test_kernel_vectors_are_annihilated(order):
    rng = random.Random(20 + order)
    for rows, cols in ((3, 5), (4, 4)):
        m = _matrix(rng, order, rows, cols)
        if rows == cols:  # force a two-dimensional kernel
            m = Mat([m.entries[0], m.entries[1], m.entries[0], m.entries[1]])
        k = kernel(m)
        assert k.dim == cols - m.rank()
        for v in k.basis:
            assert all(x.is_zero() for x in m.apply(v))


@pytest.mark.parametrize("order", [1, 8])
def test_solve_reproduces_target_or_reports_none(order):
    rng = random.Random(30 + order)
    cols = [[_element(rng, order) for _ in range(5)] for _ in range(3)]
    x = [_element(rng, order) for _ in range(3)]
    target = [sum((xj * col[i] for xj, col in zip(x, cols)), ZERO) for i in range(5)]
    assert solve(cols, target) == tuple(x)
    # a dependent column leaves an unknown free; the target is still reached
    sol = solve(cols + [cols[0]], target)
    assert [sum((s * col[i] for s, col in zip(sol, cols + [cols[0]])), ZERO) for i in range(5)] == target
    off = list(target)
    off[0] = off[0] + 1
    if Mat([list(r) for r in zip(*cols, off)]).rank() > 3:
        assert solve(cols, off) is None


def test_solve_over_fractions():
    cols = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    assert solve(cols, [Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)]) == (Fraction(1, 2), Fraction(1, 2))
    assert solve(cols, [Fraction(1), Fraction(0), Fraction(0)]) is None


@pytest.mark.parametrize("small", [3, 4])
def test_canonical_descends_from_order_24(small):
    rng = random.Random(small)
    for _ in range(5):
        x = CycNum(small, [_rational(rng) for _ in range(2)])
        c = CycNum(24, x.embed(24).coeffs).canonical()
        assert c.coeffs == x.canonical().coeffs
        assert c.order == (small if x.coeffs[1] else 1)


# -- zero skipping: sparse matrices, zeros stored at different orders ------

_ZEROS = (ZERO, CycNum(8, [0] * 4), CycNum(24, [0] * 8), 0)


def _sparse_entry(rng):
    """About 80% zeros (stored at orders 1, 8 and 24); otherwise +-1, a
    small rational or a power of zeta8 or zeta24."""
    if rng.random() < 0.8:
        return rng.choice(_ZEROS)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((1, -1))
    if kind == 1:
        return _rational(rng)
    if kind == 2:
        return zeta(8, rng.randrange(8))
    return _rational(rng) * zeta(24, rng.randrange(24))


def _sparse_matrix(rng, n=6):
    rows = [[_sparse_entry(rng) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:  # a scaled permutation on top: mostly invertible
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] = rng.choice((1, -1, 2, zeta(8), zeta(24, 5)))
    return Mat(rows)


def _dense_product(a, b):
    return Mat([[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b.entries)] for row in a.entries])


def _dense_apply(a, vec):
    return [sum((x * CycNum._coerce(y) for x, y in zip(row, vec)), ZERO) for row in a.entries]


def _laplace_det(rows):
    """Cofactor expansion along the first row, over its nonzero entries."""
    if not rows:
        return ONE
    return sum(
        ((-1) ** j * x * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]]) for j, x in enumerate(rows[0]) if x),
        ZERO,
    )


def test_sparse_product_and_apply_match_dense_sums():
    rng = random.Random(41)
    for _ in range(40):
        a, b = _sparse_matrix(rng), _sparse_matrix(rng)
        assert a * b == _dense_product(a, b)
        vec = [_sparse_entry(rng) for _ in range(6)]
        assert list(a.apply(vec)) == _dense_apply(a, vec)
        q = Quadric(a + a.transpose())
        w = [_sparse_entry(rng) for _ in range(6)]
        assert q.polar(vec, w) == sum((x * CycNum._coerce(y) for x, y in zip(vec, _dense_apply(q.gram, w))), ZERO)


def test_sparse_det_inverse_rank_kernel_identities():
    rng = random.Random(42)
    invertible = singular = 0
    for _ in range(30):
        a = _sparse_matrix(rng)
        det = a.det()
        assert det == _laplace_det([list(r) for r in a.entries])
        assert a.rank() == a.transpose().rank()
        k = kernel(a)
        assert k.dim == 6 - a.rank()
        for v in k.basis:
            assert all(x.is_zero() for x in a.apply(v))
        if det:
            invertible += 1
            assert a.rank() == 6
            assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
        else:
            singular += 1
            with pytest.raises(Singular):
                a.inverse()
    assert invertible and singular


def test_zero_storage_order_is_invisible():
    z8 = CycNum(8, [0] * 4)
    a, b = Mat([[ZERO, 1], [2, ZERO]]), Mat([[z8, 1], [2, z8]])
    assert a == b and a.key() == b.key() and hash(a) == hash(b)
    # an all-zero product is stored at order 1, the same matrix at order 8
    zero = Mat([[zeta(8), 0], [0, 0]]) * Mat([[0, 0], [0, 1]])
    for z in (Mat([[z8, z8], [z8, z8]]), Mat([[0, 0], [0, 0]])):
        assert zero == z and zero.key() == z.key() and hash(zero) == hash(z)
    # rows whose zeros are stored at orders 1, 8 and 24 span the same spaces
    vecs = [[ZERO, z8, zeta(8), 1], [CycNum(24, [0] * 8), 1, ZERO, z8]]
    same = [[z8, z8, zeta(8), ONE], [z8, ONE, z8, z8]]
    assert Subspace(4, vecs) == Subspace(4, same)
    assert hash(Subspace(4, vecs)) == hash(Subspace(4, same))


def _sympy_matrix(sympy, m):
    return sympy.Matrix(
        [[sympy.Rational(x.as_rational().numerator, x.as_rational().denominator) for x in row] for row in m.entries]
    )


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def test_det_and_degeneracy_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(7)
    t = sympy.Symbol("t")
    ring = sympy.QQ[t]
    for _ in range(3):
        grams = []
        for _ in range(2):
            a = [[_rational(rng) for _ in range(6)] for _ in range(6)]
            grams.append(Mat([[a[i][j] + a[j][i] for j in range(6)] for i in range(6)]))
        g1, g2 = grams
        assert g1.det().as_rational() == _fraction(_sympy_matrix(sympy, g1).det())
        f = degeneracy_form(Pencil(2, Quadric(g1), Quadric(g2)))
        pencil = _sympy_matrix(sympy, g1) + t * _sympy_matrix(sympy, g2)
        det = sympy.Poly(ring.to_sympy(DomainMatrix.from_Matrix(pencil).convert_to(ring).det()), t)
        want = [_fraction(det.coeff_monomial(t**k)) for k in range(7)]
        assert [c.as_rational() for c in f.coeffs] == want
