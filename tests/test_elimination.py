"""Properties of the one elimination routine behind det, inverse, rank,
kernel, solve and cyclotomic descent, over Q and Q(zeta_8), with sympy as
an independent oracle where it is installed; and the integer-row kernels
(products, Bareiss over Q, content-reduced rows over Q(zeta_N)) against an
entrywise CycNum reference at orders 1, 8 and 24."""

import random
from fractions import Fraction

import pytest

from twoquadrics.cyclo import CycNum, ONE, ZERO, euler_phi, zeta
from twoquadrics import matrices
from twoquadrics.errors import Singular
from twoquadrics.matrices import Mat, Subspace, kernel, solve
from twoquadrics.pencils import Pencil, _interpolated_det_form, degeneracy_form


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
    for dense in (True, True, True, False):  # a diagonal pencil's form is multiplied out
        grams = []
        for _ in range(2):
            a = [[_rational(rng) if dense or i == j else 0 for j in range(6)] for i in range(6)]
            grams.append(Mat([[a[i][j] + a[j][i] for j in range(6)] for i in range(6)]))
        g1, g2 = grams
        assert g1.det().as_rational() == _fraction(_sympy_matrix(sympy, g1).det())
        f = degeneracy_form(Pencil(2, g1, g2))
        pencil = _sympy_matrix(sympy, g1) + t * _sympy_matrix(sympy, g2)
        det = sympy.Poly(ring.to_sympy(DomainMatrix.from_Matrix(pencil).convert_to(ring).det()), t)
        want = [_fraction(det.coeff_monomial(t**k)) for k in range(7)]
        assert [c.as_rational() for c in f.coeffs] == want


# -- int-row kernels against an entrywise CycNum reference -----------------


def _reference_rref(rows):
    """Gauss-Jordan over CycNum entries, pivots scaled to 1: the reference
    for the int kernels.  Returns (reduced rows, pivot columns, determinant
    of a square input)."""
    rows = [[CycNum._coerce(x) for x in r] for r in rows]
    pivots, det = [], ONE
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        det = det * rows[r][c]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, det if len(pivots) == len(rows) else ZERO


def _reference_kernel(rows):
    """The reduced basis of the null space, from the reference."""
    red, pivots, _ = _reference_rref(rows)
    n = len(rows[0])
    vecs = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        vecs.append(v)
    return _reference_rref(vecs)[0] if vecs else []


def _entry_of_height(rng, order, height, zeros):
    """Zero with probability `zeros`; else a value of Q(zeta_order) with
    integer coefficients below `height` over a small denominator."""
    if rng.random() < zeros:
        return ZERO
    phi = euler_phi(order)
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, 6)) for _ in range(phi)]
    if order > 1 and rng.random() < 0.3:  # sometimes a rational entry stored at the full order
        coeffs[1:] = [0] * (phi - 1)
    return CycNum(order, coeffs)


def _height_matrix(rng, order, n, height, zeros, common=1):
    return Mat([[_entry_of_height(rng, order, height, zeros) * common for _ in range(n)] for _ in range(n)])


def _nonzero_of_height(rng, order, height):
    while True:
        x = _entry_of_height(rng, order, height, 0)
        if x:
            return x


def _shaped_matrix(rng, shape, order, n, height, zeros, common=1):
    """_height_matrix with a pattern of zeros: "diagonal", "upper", "lower"
    and "blocks" (diagonal blocks of sizes 2, 3, 1) keep the entries inside
    the pattern; "monomial" is a random permutation of nonzero entries;
    "cleared" makes column 2 the sum of a random combination of the columns
    before it and a nonzero multiple of e_2, so elimination finds that column
    already cleared below its pivot, with three columns after it."""
    if shape == "dense":
        return _height_matrix(rng, order, n, height, zeros, common)
    rows = [list(r) for r in _height_matrix(rng, order, n, height, zeros, common).entries]
    block = [0, 0, 1, 1, 1, 2][:n]
    keep = {
        "diagonal": lambda i, j: i == j,
        "upper": lambda i, j: i <= j,
        "lower": lambda i, j: i >= j,
        "blocks": lambda i, j: block[i] == block[j],
    }
    if shape in keep:
        return Mat([[x if keep[shape](i, j) else ZERO for j, x in enumerate(r)] for i, r in enumerate(rows)])
    if shape == "monomial":
        perm = rng.sample(range(n), n)
        return Mat([[_nonzero_of_height(rng, order, height) * common if j == perm[i] else ZERO for j in range(n)]
                    for i in range(n)])
    assert shape == "cleared"
    k = 2
    x = [_entry_of_height(rng, order, height, zeros) for _ in range(k)]
    c = _nonzero_of_height(rng, order, height) * common
    for i, r in enumerate(rows):
        r[k] = sum((r[j] * x[j] for j in range(k)), c if i == k else ZERO)
    return Mat(rows)


def _check_against_reference(a, b, rng):
    rows = [list(r) for r in a.entries]
    n = a.rows
    # product
    want = [[sum((x * y for x, y in zip(r, c)), ZERO) for c in zip(*b.entries)] for r in a.entries]
    assert a * b == Mat(want)
    assert all(x == y for r, w in zip((a * b).entries, want) for x, y in zip(r, w))
    # det, rank
    red, pivots, det = _reference_rref(rows)
    assert a.det() == det
    assert a.rank() == len(pivots)
    # inverse
    if det:
        inv = _reference_rref([r + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)])[0]
        assert a.inverse() == Mat([r[n:] for r in inv])
    else:
        with pytest.raises(Singular):
            a.inverse()
    # kernel, in canonical reduced form
    want_kernel = _reference_kernel(rows)
    assert [list(v) for v in kernel(a).basis] == want_kernel
    # solve: a target in the column span is reached; the reference unknowns are one solution
    x = [_entry_of_height(rng, max(e.order for r in rows for e in r), 5, 0.3) for _ in range(n)]
    target = [sum((e * xi for e, xi in zip(r, x)), ZERO) for r in rows]
    sol = solve([list(c) for c in zip(*rows)], target)
    assert [sum((e * s for e, s in zip(r, sol)), ZERO) for r in rows] == target
    if det:
        assert list(sol) == x


KERNEL_CASES = [
    # (order, size, coefficient height, share of zeros, common factor, shape)
    (1, 6, 9, 0.8, 1, "dense"),
    (1, 6, 9, 0.2, 1, "dense"),
    (1, 5, 10**30, 0.2, 1, "dense"),
    (1, 5, 9, 0.2, 10**30 + 3, "dense"),
    (8, 6, 9, 0.8, 1, "dense"),
    (8, 4, 9, 0.2, 1, "dense"),
    (8, 4, 10**30, 0.3, 1, "dense"),
    (8, 4, 9, 0.3, 10**30 + 3, "dense"),
    (24, 6, 9, 0.8, 1, "dense"),
    (24, 3, 9, 0.2, 1, "dense"),
    (24, 3, 10**30, 0.3, 1, "dense"),
    # columns with nothing to clear, where _echelon skips the whole step
    (1, 6, 9, 0, 1, "diagonal"),
    (1, 6, 9, 0.2, 1, "upper"),
    (1, 6, 9, 0.2, 1, "lower"),
    (1, 6, 9, 0, 1, "monomial"),
    (1, 6, 9, 0.2, 1, "blocks"),
    (1, 6, 9, 0, 1, "cleared"),
]


def _case_id(case):
    """The case's name, also its seed: the fields joined, a dense shape left out."""
    return "-".join(map(str, case[:5] if case[5] == "dense" else case))


@pytest.mark.parametrize("order, n, height, zeros, common, shape", KERNEL_CASES, ids=map(_case_id, KERNEL_CASES))
def test_int_kernels_match_entrywise_reference(order, n, height, zeros, common, shape):
    rng = random.Random(_case_id((order, n, height, zeros, common, shape)))
    for _ in range(4):
        a = _shaped_matrix(rng, shape, order, n, height, zeros, common)
        b = _height_matrix(rng, order, n, height, zeros)
        _check_against_reference(a, b, rng)


def test_columns_with_nothing_to_clear_skip_clear_column(monkeypatch):
    # an elimination step whose column is zero in every target row changes
    # no row, so _echelon skips it without calling _clear_column
    calls = []
    real = matrices._clear_column

    def spy(*args):
        calls.append(args[4])  # the target rows
        return real(*args)

    signs = Mat.diagonal([1, -1, 1, 1, -1, -1])
    # a signed permutation times rationals
    perm, values = (3, 0, 4, 1, 5, 2), (Fraction(-3, 2), 2, -1, Fraction(1, 3), 5, -1)
    monomial = Mat([[values[i] if j == perm[i] else 0 for j in range(6)] for i in range(6)])
    # the interpolation of a diagonal pencil's form (which pencil_det_form
    # multiplies out instead) samples seven diagonal members, among them the
    # singular G1 + G2
    grams = Mat.diagonal([1] * 6), Mat.diagonal([-1, 2, 3, 4, 5, 6])
    form = _interpolated_det_form(*grams)  # also builds the cached Vandermonde inverse
    monkeypatch.setattr(matrices, "_clear_column", spy)
    assert (signs.det(), signs.rank(), signs.inverse()) == (-1, 6, signs)
    assert (monomial.det(), monomial.rank(), monomial * monomial.inverse()) == (-5, 6, Mat.identity(6))
    assert _interpolated_det_form(*grams) == form
    assert calls == []  # the parent of this skip made 18 calls for signs and 41 per form
    dense = Mat([[1, 2], [3, 4]])
    assert dense.det() == -2 and calls == [range(1, 2)]


@pytest.mark.parametrize("order", [1, 8, 24])
def test_zero_pivot_forces_row_swap_and_singular_matrix(order):
    rng = random.Random(order)
    z = zeta(order) if order > 1 else CycNum.from_rational(Fraction(3, 2))
    swap = Mat([[0, 1, z], [2, z, 0], [z * z, 0, 1]])  # first pivot from the second row
    assert swap.det() == _reference_rref([list(r) for r in swap.entries])[2] != 0
    _check_against_reference(swap, swap.transpose(), rng)
    rows = [list(r) for r in _height_matrix(rng, order, 4, 10**30, 0.2).entries]
    rows[3] = [x + z * y for x, y in zip(rows[0], rows[2])]
    singular = Mat(rows)
    assert singular.det() == 0 and singular.rank() == 3 and kernel(singular).dim == 1
    _check_against_reference(singular, singular, rng)


def test_rational_matrix_keys_alike_at_every_storage_order():
    rng = random.Random(9)
    values = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
    at1 = Mat(values)
    at24 = Mat([[CycNum(24, [q] + [0] * 7) for q in row] for row in values])
    assert at24.order == at1.order == 1
    assert at24 == at1 and at24.key() == at1.key() and hash(at24) == hash(at1)
    # an order-8 matrix whose entries lie in Q(zeta_4) keys as one built at order 4
    i8 = zeta(8, 2)
    assert Mat([[i8, 1], [0, i8]]) == Mat([[zeta(4), 1], [0, zeta(4)]])
    assert hash(Mat([[i8, 1], [0, i8]])) == hash(Mat([[zeta(4), 1], [0, zeta(4)]]))


def test_rational_times_order_8_product():
    rng = random.Random(10)
    for _ in range(5):
        r = _height_matrix(rng, 1, 5, 10**30, 0.5)
        m = _height_matrix(rng, 8, 5, 9, 0.5)
        for a, b in ((r, m), (m, r)):
            want = [[sum((x * y for x, y in zip(row, c)), ZERO) for c in zip(*b.entries)] for row in a.entries]
            assert a * b == Mat(want)
            assert (a * b).order in (1, 2, 4, 8)
