"""The degeneracy form, the eigenspaces and the character spaces against the
plainer code they replaced, kept here as references: interpolation through
the generic `solve`, kernels of m - lam * identity built from Mat
operations, and the refinement of the whole space by every generator."""

import random
from fractions import Fraction
from importlib import resources

import pytest

from twoquadrics.binforms import BinaryForm
from twoquadrics.cyclo import CycNum, euler_phi, zeta
from twoquadrics.groups import MatrixGroup, character_spaces
from twoquadrics.jsonio import parse_job
from twoquadrics.matrices import Mat, Subspace, _minus_scalar, contragredient, eigenspaces_finite_order, kernel, solve
from twoquadrics.pencils import pencil_det_form


def _entry(rng, order, zeros=0.3):
    if rng.random() < zeros:
        return 0
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(order))]
    return CycNum(order, coeffs)


def _det_form_by_solve(g1, g2):
    d = g1.rows
    nodes = range(d + 1)
    coeffs = solve(
        [[CycNum.from_rational(x**j) for x in nodes] for j in range(d + 1)],
        [(g1 + x * g2).det() for x in nodes],
    )
    return BinaryForm(d, coeffs)


@pytest.mark.parametrize("order", [1, 4, 8])
def test_pencil_det_form_matches_solve_interpolation(order):
    rng = random.Random(order)
    for n in range(4, 9):  # n = 5 is the del Pezzo check of stage 3
        grams = []
        for _ in range(2):
            a = [[_entry(rng, order) for _ in range(n)] for _ in range(n)]
            grams.append(Mat([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]))
        f, want = pencil_det_form(*grams), _det_form_by_solve(*grams)
        assert f.degree == want.degree == n
        assert f.coeffs == want.coeffs
        assert [c.key() for c in f.coeffs] == [c.key() for c in want.coeffs]


def _invertible(rng, n):
    """A random invertible integer matrix with entries in -2..2."""
    while (u := Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])).det().is_zero():
        pass
    return u


def _root(rng, order):
    return rng.choice([1, -1]) if order == 1 else zeta(order, rng.randrange(order))


def _finite_order_matrix(rng, order, n=6):
    """At order 1 a signed permutation matrix; above it a diagonal of powers
    of zeta_order whose first two coordinates are swapped instead.  Then
    conjugated by a random invertible integer matrix, which gives it a
    denominator."""
    if order == 1:
        perm = rng.sample(range(n), n)
        mono = Mat([[_root(rng, 1) if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    else:
        diag = [_root(rng, order) for _ in range(n)]
        mono = Mat([[1 if {i, j} == {0, 1} else diag[i] if i == j > 1 else 0 for j in range(n)] for i in range(n)])
    u = _invertible(rng, n)
    return u * mono * u.inverse()


@pytest.mark.parametrize("order", [1, 8, 24])
def test_eigenspaces_match_kernel_of_shifted_matrix(order):
    rng = random.Random(order)
    for _ in range(4):
        m = _finite_order_matrix(rng, order)
        spaces = eigenspaces_finite_order(m)
        for lam, space in spaces:
            shifted = m - Mat.identity(m.rows) * lam
            assert _minus_scalar(m, lam).key() == shifted.key()
            assert space == kernel(shifted)
        assert sum(s.dim for _, s in spaces) == m.rows
        # a scalar with a denominator scales the rows first
        c = Fraction(-2, 3) * zeta(order, 1)
        assert _minus_scalar(m, c).key() == (m - Mat.identity(m.rows) * c).key()


def _refined_from_whole_space(group):
    n = group.dimension
    current = [(Subspace(n, [[int(i == j) for j in range(n)] for i in range(n)]), ())]
    for _, g in group.generators:
        eig = eigenspaces_finite_order(g)
        current = [
            (space.intersect(espace), char + (lam,))
            for space, char in current
            for lam, espace in eig
            if space.intersect(espace).dim
        ]
    return current


@pytest.mark.parametrize("order", [1, 8, 24])
def test_character_spaces_of_one_generator_are_its_eigenspaces(order):
    rng = random.Random(100 + order)
    for _ in range(2):
        m = _finite_order_matrix(rng, order)
        group = MatrixGroup([("a", m)])
        got = character_spaces(group)
        assert got == [(s, (lam,)) for lam, s in eigenspaces_finite_order(m)]
        assert got == _refined_from_whole_space(group)


@pytest.mark.parametrize("order", [1, 8, 24])
def test_character_spaces_of_commuting_generators_match_refinement(order):
    rng = random.Random(200 + order)
    n = 6
    for _ in range(2):
        u = _invertible(rng, n)
        a, b = (u * Mat.diagonal([_root(rng, order) for _ in range(n)]) * u.inverse() for _ in range(2))
        assert a * b == b * a
        group = MatrixGroup([("a", a), ("b", b)])
        assert character_spaces(group) == _refined_from_whole_space(group)


@pytest.mark.parametrize("name", ["example_7_3.json", "example_7_5.json", "example_7_5_full.json"])
def test_character_spaces_of_shipped_point_groups_match_refinement(name):
    job = parse_job((resources.files("twoquadrics") / "fixtures" / name).read_text())
    gens = [(lab, contragredient(m)) for lab, m in job.group.generators]
    for group in [MatrixGroup(gens)] + [MatrixGroup([gen]) for gen in gens]:
        if all(a * b == b * a for _, a in group.generators for _, b in group.generators):
            assert character_spaces(group) == _refined_from_whole_space(group)
