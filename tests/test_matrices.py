import random
from fractions import Fraction

import pytest

from twoquadrics import matrices
from twoquadrics.cyclo import ONE, ZERO, imaginary_unit, zeta
from twoquadrics.errors import NotFiniteOrder, Singular
from twoquadrics.matrices import (
    Mat,
    Subspace,
    eigen_multiplicities,
    eigenspaces_finite_order,
    kernel,
    operator_order,
    point_action,
)
from twoquadrics.pencils import Pencil

i = imaginary_unit()


def test_inverse_and_det():
    m = Mat([[ONE, i], [ZERO, zeta(8)]])
    assert (m * m.inverse()).is_identity()
    assert m.det() == zeta(8)
    with pytest.raises(Singular):
        Mat([[ONE, ONE], [ONE, ONE]]).inverse()


def test_operator_order():
    assert operator_order(Mat.diagonal([zeta(8), 1])).order == 8
    assert operator_order(Mat.diagonal([i, -i])).order == 4
    with pytest.raises(NotFiniteOrder, match="no power up to 360 equal to the identity"):
        operator_order(Mat([[ONE, ONE], [ZERO, ONE]]))
    # a determinant that is not a root of unity is refused before any power
    for d in (2, 0):
        with pytest.raises(NotFiniteOrder, match=f"determinant {d}, not a root of unity: infinite order"):
            operator_order(Mat.diagonal([d, 1]))


def random_monomial_conjugate(rng, n=4):
    """A finite-order matrix: monomial with root-of-unity entries,
    conjugated by a random small unimodular integer matrix."""
    perm = list(range(n))
    rng.shuffle(perm)
    mono = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        mono[perm[j]][j] = zeta(12, rng.randrange(12))
    mono = Mat(mono)
    u = Mat.identity(n)
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        elem = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
        elem[a][b] = ONE * rng.choice([1, -1])
        u = u * Mat(elem)
    return u * mono * u.inverse()


def test_eigenspace_completeness_random():
    rng = random.Random(5)
    for _ in range(15):
        m = random_monomial_conjugate(rng)
        spaces = eigenspaces_finite_order(m)
        assert sum(s.dim for _, s in spaces) == 4
        for lam, s in spaces:
            for v in s.basis:
                assert m.apply(v) == tuple(lam * x for x in v)


def test_eigenspaces_of_an_order_120_matrix_over_zeta24():
    # a 5-cycle with zeta24 on one edge (a block of order 5 * 24) and zeta8
    # beside it, in the coordinates of a random invertible integer matrix:
    # its eigenvalues are powers of zeta120, outside the field of its entries
    m = [[0] * 6 for _ in range(6)]
    for j in range(5):
        m[(j + 1) % 5][j] = 1
    m[1][0], m[5][5] = zeta(24), zeta(8)
    rng = random.Random(1)
    while (a := Mat([[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)])).det().is_zero():
        pass
    big = a * Mat(m) * a.inverse()
    n, mults = eigen_multiplicities(big)
    assert n == 120 and big.order == 24
    spaces = eigenspaces_finite_order(big)
    assert [s.dim for _, s in spaces] == [d for d in mults if d]
    assert sum(s.dim for _, s in spaces) == 6
    for lam, s in spaces:
        for v in s.basis:
            assert big.apply(v) == tuple(lam * x for x in v)


def test_eigenspaces_rejects_nonsemisimple():
    with pytest.raises(NotFiniteOrder):
        eigenspaces_finite_order(Mat([[ONE, ONE], [ZERO, ONE]]))


def test_eigenspaces_check_the_multiplicities():
    # forged multiplicities stand in for a wrong trace count, which a
    # finite-order matrix cannot give
    m = Mat.diagonal([1, 1, -1])
    object.__setattr__(m, "_powers", operator_order(m).powers[1:])
    object.__setattr__(m, "_mults", (2, (1, 1)))
    with pytest.raises(NotFiniteOrder, match="eigenvalue multiplicities add up to 2, not 3"):
        eigenspaces_finite_order(m)
    object.__setattr__(m, "_mults", (2, (1, 2)))
    with pytest.raises(NotFiniteOrder, match=r"eigenspace of 1 has dimension 2, not its multiplicity 1"):
        eigenspaces_finite_order(m)


def test_kernel_and_subspace():
    m = Mat([[ONE, ONE, ZERO], [ZERO, ZERO, ONE]])
    k = kernel(m)
    assert k.dim == 1
    assert k.intersect(Subspace(3, [[ONE, -ONE, ZERO]])).dim == 1
    full = Subspace(3, [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
    assert k.intersect(full) == k
    other = Subspace(3, [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    meet = k.intersect(other)
    assert meet.dim == 1
    zero = Subspace(3, [])
    assert zero.intersect(full).dim == 0
    assert full.intersect(zero).dim == 0


def test_subspace_canonical_equality():
    a = Subspace(3, [[ONE, ONE, ZERO], [ZERO, ONE, ONE]])
    b = Subspace(3, [[ONE, ZERO, -ONE], [ONE, 2 * ONE, ONE]])
    assert a == b
    assert hash(a) == hash(b)


def test_quadric():
    q = Mat.diagonal([1, 1, -1])
    plane = Subspace(3, [[ONE, ZERO, ONE], [ZERO, ONE, ZERO]])
    b = Mat(plane.basis)
    assert (b * q * b.transpose()).entries[0][0].is_zero()  # Q restricted to the plane
    nonsymmetric = Mat([[1 if i == j or (i, j) == (0, 1) else 0 for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError, match="Gram matrix must be symmetric"):
        Pencil(1, Mat.diagonal([1, 2, 3, 4]), nonsymmetric)


def test_point_action_antihomomorphism():
    # (ab)^-T = a^-T b^-T, on a monomial group over Q(zeta8) and on the
    # dihedral group of order 12 in GL2(Z)
    pairs = [(Mat([[ZERO, ONE], [ONE, ZERO]]), Mat([[zeta(8), ZERO], [ZERO, i]])),
             (Mat([[0, -1], [1, 1]]), Mat([[0, 1], [1, 0]]))]
    for a, b in pairs:
        ab = point_action(a * b)
        assert ab == point_action(a) * point_action(b) == (a * b).inverse().transpose()
        assert eigen_multiplicities(ab) == eigen_multiplicities(Mat(ab.entries))  # kept, and as a fresh copy's


def test_diagonal_reads_only_its_values(monkeypatch):
    seen, rows_of = [], matrices._rows_of

    def spy(values):
        values = [list(row) for row in values]
        seen.append(sum(map(len, values)))
        return rows_of(values)

    monkeypatch.setattr(matrices, "_rows_of", spy)
    Mat.diagonal([1, 2, zeta(8), 0, Fraction(1, 3), 6])
    assert seen == [6]  # n values, not the n^2 entries


@pytest.mark.parametrize(
    "values",
    [[1, -2, 3], [Fraction(1, 2), Fraction(3, 4), 0], [zeta(8), zeta(8, 2), 1, 0],
     [2 * zeta(12, 3), zeta(4) / 3], [0, 0, 0], [ZERO, ZERO]],
    ids=["int", "fraction", "zeta8", "zeta12", "zero", "cycnum-zero"],
)
def test_diagonal_equals_the_full_matrix(values):
    full = Mat([[x if i == j else 0 for j in range(len(values))] for i, x in enumerate(values)])
    assert Mat.diagonal(values).key() == full.key()
