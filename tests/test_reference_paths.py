"""The degeneracy form, the eigenspaces, the character spaces and the fixed
locus, H^1 of the Picard lattice and the report's stages 3 and 4 against the
plainer code they replaced, kept here as references: interpolation through
the generic `solve`, kernels of m - lam * identity built from Mat operations,
the refinement of the whole space by every generator, the fixed locus
filtered to maximal, distinct components, image coordinates in the kernel of
the norm by `solve`, a stage 3 that searches every generator, and a stage 4
that reads the signs off the diagonal of diagonal elements, and the eager
closure loop that the breadth-first stream replaced.  The pencil action of
a word is checked against `equivariance` of its element.  Equivariance with
one solve per transformed Gram, and branch roots checked and matched by
pairwise cross products (the deleted `binforms.proj_equal`), are the
references of the action read off the pencil's 2x2 minor, also in dense
coordinates, and of the keyed roots.  The divisor scan of
the old `matrices._mat` is the reference of the least-field walk, and the
stage 3 and fixed-point search that formed p G vᵀ on ambient vectors (the
deleted `Quadric.polar`) is the reference of the one that reads blocks of
E G Eᵀ, and the stage 3 and fixed-point search that read those blocks as
CycNum entries is the reference of the one on the int rows.  The scan of
all of W(D5) is the reference of the conjugacy search that multiplies only
where the permutations conjugate.  Interpolation from sampled determinants,
in dense coordinates, is the reference of a diagonal pencil's product of
linear factors, and the inverse transpose the reference of the point action
read off a generator's powers.  The recursive schema walk (`_walk`, `_choose`)
is the reference of the compiled checkers, on one-node mutations of the
shipped inputs and a sign-group job, and the CycNum of an order entry's
Fractions the reference of the one made from its ints."""

import functools
import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from importlib import resources
from itertools import accumulate, permutations, product
from operator import floordiv, mul
from pathlib import Path

import pytest

from twoquadrics import cli, cyclo, groups, jsonio, matrices, pencils
from twoquadrics.binforms import BinaryForm, Roots, bform_discriminant, checked_roots, quadratic_roots, root_images
from twoquadrics.cyclo import ONE, ZERO, CycNum, euler_phi, zeta
from twoquadrics.dp4 import SignedPerm, conjugate_in_WD5, lattice_h1, pic_action, wd5_elements
from twoquadrics.errors import NotAbelian, NotARoot, NotASymmetry, NotClosed, SchemaError, UnsupportedCase
from twoquadrics.groups import MatrixGroup, breadth_first, character_spaces, projective_fixed_locus
from twoquadrics.jsonio import _NAMES, SCHEMA, _expect, _kind, _OneOf, dp4_input_from_json, lift_input_from_json, parse_job
from twoquadrics.matrices import (
    Mat,
    Subspace,
    _coefs,
    _dot,
    _embed,
    _int,
    _mat,
    _rows_of,
    eigen_multiplicities,
    eigenspaces_finite_order,
    kernel,
    operator_order,
    point_action,
    solve,
)
from twoquadrics.pencils import (
    FixedOnX,
    LineSearchReport,
    Pencil,
    _common_roots,
    _point,
    equivariance,
    fixed_points_on_X,
    invariant_lines_abelian,
    pencil_det_form,
    proj_point_equal,
)
from twoquadrics.smith import invariant_factors, smith_normal_form


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


def _diagonal_pencils():
    """(kind, name, pencil) of the report fixtures, the report jobs of the
    sign_groups and paper_jobs rounds of seeds 0-1, and the Q(zeta12)
    dihedral and the C5 jobs: all diagonal."""
    tool = _digest_tool()
    import workloads  # on the path once the tool is loaded

    for name in workloads.PAPER_FIXTURES:
        yield "fixture", name, parse_job(workloads.load_fixture(name)).pencil
    for workload in ("sign_groups", "paper_jobs"):
        make = workloads.WORKLOAD_SPECS[workload][0]
        for seed in range(2):
            for k, (_, text, _) in enumerate(make(workloads.seeded_rng(workload, seed))):
                yield workload, f"{workload}{seed}-{k}", parse_job(text).pencil
    for name, obj in tool.EXTRA_JOBS:
        yield name, name, parse_job(obj).pencil


def _form_key(f):
    return f.degree, [(c.order, c.num, c.den) for c in f.coeffs]


def test_diagonal_form_is_the_interpolation_in_dense_coordinates():
    # A G Aᵀ with det A = 1 has the same degeneracy form, found by interpolation
    tool, rng, kinds = _digest_tool(), random.Random(28), set()
    for kind, name, pencil in _diagonal_pencils():
        g1, g2 = pencil.q1, pencil.q2
        assert g1.is_diagonal() and g2.is_diagonal(), name
        a, _ = tool._unimodular(rng)
        a = Mat(a)
        dense = [a * g * a.transpose() for g in (g1, g2)]
        assert not all(g.is_diagonal() for g in dense), name
        got, want = pencil_det_form(g1, g2), pencils._interpolated_det_form(*dense)
        assert _form_key(got) == _form_key(want), name
        assert repr(got) == repr(want) and got == pencil_det_form(*dense), name
        kinds.add(kind)
    assert kinds == {"fixture", "sign_groups", "paper_jobs", "dihedral", "c5"}


def test_the_form_of_a_diagonal_pencil_takes_no_determinant(monkeypatch):
    pencil = parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text()).pencil
    g1, g2 = pencil.q1, pencil.q2
    a = Mat([[int(j in (i, i + 1)) for j in range(6)] for i in range(6)])
    dense = [a * g * a.transpose() for g in (g1, g2)]
    dets = _counted(monkeypatch, Mat, "det")
    assert pencil_det_form(g1, g2) == pencil_det_form(*dense)
    assert len(dets) == 7  # the dense pencil's seven sampled members, and none for the diagonal one


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


def _minus_scalar(m, lam):
    """The deleted matrices._minus_scalar: m - lam I, made on the int rows at
    lcm(m.order, lam.order): the rows scaled by lam's denominator, lam times
    m's taken off the diagonal."""
    order = math.lcm(m.order, lam.order)
    ((c,),) = _embed(lam.order, [[lam.num[0] if lam.order == 1 else lam.num]], order)
    one, d = _int(order, 1), _int(order, -m.den)
    rows = [_coefs(order, row, mul, lam.den) for row in _embed(m.order, m.data, order)]
    for i, row in enumerate(rows):
        row[i] = _dot(order, ((row[i], one), (c, d)))
    return _mat(order, m.den * lam.den, rows, m.cols)


def _eigenspaces_by_kernel(m):
    """The deleted eigenspaces_finite_order: the kernel of m - lam I for each
    eigenvalue lam = zeta_n^k of nonzero multiplicity."""
    n, mults = eigen_multiplicities(m)
    return [(zeta(n, k), kernel(_minus_scalar(m, zeta(n, k)))) for k, d in enumerate(mults) if d]


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


@pytest.mark.parametrize("order", [1, 8, 24])
def test_multiplicities_are_the_eigenspace_dimensions(order):
    rng = random.Random(500 + order)
    for _ in range(4):
        m = _finite_order_matrix(rng, order)
        n, mults = eigen_multiplicities(m)
        assert mults == tuple(kernel(_minus_scalar(m, zeta(n, k))).dim for k in range(n))
        assert sum(mults) == m.rows
        assert [(lam, s.dim) for lam, s in eigenspaces_finite_order(m)] == [
            (zeta(n, k), d) for k, d in enumerate(mults) if d
        ]


def _searched_paper_generators():
    """The generators whose eigenspaces stage 3 takes on the paper_jobs
    rounds of seeds 5000-5009, each the one generator of a searched group."""
    tool = _digest_tool()
    import workloads  # on the path once the tool is loaded

    searched = []
    real = cli.invariant_lines_abelian
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "invariant_lines_abelian", lambda p, g: searched.append(g.generators[0][1]) or real(p, g))
        for seed in range(5000, 5010):
            for _, text, _ in workloads.paper_round(workloads.seeded_rng("paper_jobs", seed)):
                cli.run_report(parse_job(text))
    return tool, searched


def _cycle(n, signs=()):
    """The permutation matrix of x_i -> x_(i+1 mod n), entry (i+1, i) negated for i in signs."""
    return Mat([[(-1 if j in signs else 1) if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)])


def _zeta12_order_24(rng, n=6):
    """Coordinates 0 and 1 swapped with factors 1 and zeta12^u, u a unit,
    whose square is zeta12^u on that plane, and powers of zeta12 on the
    diagonal after them: of order 24."""
    u = rng.choice((1, 5, 7, 11))
    head = {(0, 1): 1, (1, 0): zeta(12, u)}
    return Mat([[head.get((i, j), 0) if i < 2 else zeta(12, rng.randrange(12)) if i == j else 0
                 for j in range(n)] for i in range(n)])


def test_eigenspaces_by_projection_match_the_kernels():
    tool, searched = _searched_paper_generators()
    assert len(searched) == 20
    rng = random.Random(24)
    dense = []
    for g in searched:
        a, inv = tool._unimodular(rng)
        dense.append(Mat(a) * g * Mat(inv))
    rational = [_cycle(5), _cycle(6), _cycle(4, signs=(0,))]
    signs = [Mat.diagonal(d) for d in ([1, 1, 1, -1, -1, -1], [1, 1, 1, 1, -1, -1], [-1, -1, -1, -1, -1, 1], [-1] * 5)]
    cyclotomic = [_zeta12_order_24(rng) for _ in range(3)]
    assert [operator_order(m).order for m in rational] == [5, 6, 8]
    assert all(operator_order(m).order == 24 for m in cyclotomic)
    moved = [_invertible(rng, m.rows) for m in rational + signs + cyclotomic]
    cases = searched + dense + rational + signs + cyclotomic
    cases += [u * m * u.inverse() for u, m in zip(moved, rational + signs + cyclotomic)]
    for m in cases:
        got, want = eigenspaces_finite_order(m), _eigenspaces_by_kernel(m)
        assert got == want, m
        assert [(lam.key(), s._rows.key()) for lam, s in got] == [(lam.key(), s._rows.key()) for lam, s in want]
    assert all(max(eigen_multiplicities(m)[1]) >= 3 for m in signs)


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


def _commuting_pair(rng, order, n=6):
    u = _invertible(rng, n)
    a, b = (u * Mat.diagonal([_root(rng, order) for _ in range(n)]) * u.inverse() for _ in range(2))
    assert a * b == b * a
    return MatrixGroup([("a", a), ("b", b)])


@pytest.mark.parametrize("order", [1, 8, 24])
def test_character_spaces_of_commuting_generators_match_refinement(order):
    rng = random.Random(200 + order)
    for _ in range(2):
        group = _commuting_pair(rng, order)
        assert character_spaces(group) == _refined_from_whole_space(group)


def _shipped_point_groups(name):
    """The point group of a shipped report fixture, and each of its generators alone."""
    job = parse_job((resources.files("twoquadrics") / "fixtures" / name).read_text())
    gens = [(lab, m.inverse().transpose()) for lab, m in job.group.generators]
    return [MatrixGroup(gens)] + [MatrixGroup([gen]) for gen in gens]


@pytest.mark.parametrize("name", ["example_7_3.json", "example_7_5.json", "example_7_5_full.json"])
def test_character_spaces_of_shipped_point_groups_match_refinement(name):
    for group in _shipped_point_groups(name):
        if all(a * b == b * a for _, a in group.generators for _, b in group.generators):
            assert character_spaces(group) == _refined_from_whole_space(group)


def _maximal_distinct_components(group):
    """The fixed locus as first computed: character spaces not inside a larger
    one, each once, in the order of dimension and then basis."""
    spaces = [s for s, _ in character_spaces(group)]
    maximal = []
    for s in spaces:
        if any(other.dim > s.dim and other.intersect(s) == s for other in spaces):
            continue
        if s not in maximal:
            maximal.append(s)
    maximal.sort(key=lambda s: (-s.dim, [[x.key() for x in v] for v in s.basis]))
    return tuple(maximal)


def _groups_for_the_fixed_locus():
    groups = [g for name in ("example_7_3.json", "example_7_5.json", "example_7_5_full.json")
              for g in _shipped_point_groups(name)]
    for order in (1, 8, 24):
        rng = random.Random(300 + order)
        groups += [_commuting_pair(rng, order) for _ in range(2)]
    # a swaps e0 and e1, which b tells apart; they share span(e2, e3), e4 and e5
    z, u = zeta(8), _invertible(random.Random(400), 6)
    a = Mat([[1 if {i, j} == {0, 1} else [0, 0, z, z, 1, -1][i] if i == j else 0 for j in range(6)] for i in range(6)])
    b = Mat.diagonal([1, -1, 1, 1, -1, 1])
    a, b = u * a * u.inverse(), u * b * u.inverse()
    assert a * b != b * a
    return groups + [MatrixGroup([("a", a), ("b", b)])]


def test_character_spaces_are_independent_so_each_is_a_maximal_fixed_component():
    # the fixed locus and the fixed points on X keep every character space,
    # and the invariant-line search every plane, since these spaces meet only in 0
    for group in _groups_for_the_fixed_locus():
        spaces = [s for s, _ in character_spaces(group)]
        assert Subspace(group.dimension, [v for s in spaces for v in s.basis]).dim == sum(s.dim for s in spaces)
        assert projective_fixed_locus(group) == _maximal_distinct_components(group)


def _lattice_h1_by_solve(a, n):
    """lattice_h1 as first written: a basis of ker(Norm) from its Smith form,
    then each column of A - I solved for in that basis with `solve`."""
    ident = norm = power = Mat.identity(a.rows)
    for _ in range(n - 1):
        power = power * a
        norm = norm + power
    d, _, v = smith_normal_form(norm)
    r = sum(1 for i in range(a.rows) if d.data[i][i])
    basis = [[v.data[i][j] for i in range(a.rows)] for j in range(r, a.cols)]
    if not basis:
        return ()
    diff = a - ident
    cols = []
    for j in range(a.cols):
        sol = solve(basis, [diff.data[i][j] for i in range(a.rows)])
        assert sol is not None and all(x.den == 1 and x.is_rational() for x in sol)
        cols.append([x.num[0] for x in sol])
    facts = invariant_factors(Mat(list(zip(*cols))))
    free = len(basis) - sum(1 for f in facts if f)
    return tuple(f for f in facts if f not in (0, 1)) + (0,) * free


def test_lattice_h1_matches_solve_in_the_kernel_basis():
    # every involution of W(D5), where H^1 can be (2, 2), and a spread of the rest
    elements = wd5_elements()
    sample = [s for s in elements if s.order() == 2] + elements[::96]
    assert any(lattice_h1(pic_action(s), 2) for s in sample)
    for s in sample:
        a = pic_action(s)
        for n in (s.order(), 2 * s.order()):
            assert lattice_h1(a, n) == _lattice_h1_by_solve(a, n)
    minus = Mat([[-1, 0], [0, -1]])
    assert lattice_h1(minus, 2) == _lattice_h1_by_solve(minus, 2) == (2, 2)


@functools.cache
def _first_witnesses(a):
    """The full W(D5) scan for a: each g a g^-1 with the first g of
    `wd5_elements` that gives it."""
    out = {}
    for g in wd5_elements():
        out.setdefault(g * a * g.inverse(), g)
    return out


def _conjugate_by_scan(a, b):
    g = _first_witnesses(a).get(b)
    return (g is not None, g)


def _dp4_elements():
    text = (resources.files("twoquadrics") / "fixtures" / "example_dp4_involutions.json").read_text()
    return dp4_input_from_json(text)[0]


def test_conjugacy_matches_the_full_scan():
    rng = random.Random(2500)
    elements = wd5_elements()
    fixture = list(_dp4_elements().values())
    pairs = [(a, b) for a in fixture for b in fixture]
    # a is drawn from 20 elements, so the scan of each a serves several b
    sources = rng.sample(elements, 20)
    pairs += [(rng.choice(sources), rng.choice(elements)) for _ in range(100)]
    for _ in range(100):
        a, g = rng.choice(sources), rng.choice(elements)
        pairs.append((a, g * a * g.inverse()))
    outcomes = set()
    for a, b in pairs:
        got = conjugate_in_WD5(a, b)
        assert got == _conjugate_by_scan(a, b), (a, b)
        assert got[1] is None or got[1] * a * got[1].inverse() == b
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_conjugacy_multiplies_only_where_the_permutations_conjugate(monkeypatch):
    # m1 and m2 share the 4-cycle (2 3 4 5), whose centralizer in S5 has 4
    # elements: at most those 4 permutations are tried, 2 products for each
    # of their 16 sign vectors; gamma1's (2 4)(3 5) is another cycle type
    fixture = _dp4_elements()
    m1, m2, gamma1 = fixture["m1"], fixture["m2"], fixture["gamma1"]
    passing = [p for p in permutations(range(1, 6))
               if all(p[m1.perm[j] - 1] == m2.perm[p[j] - 1] for j in range(5))]
    products = _counted(monkeypatch, SignedPerm, "__mul__")
    inverses = _counted(monkeypatch, SignedPerm, "inverse")
    assert conjugate_in_WD5(m1, m2)[0]
    assert inverses == [] and 0 < len(products) <= 2 * 16 * len(passing) == 128
    products.clear()
    assert conjugate_in_WD5(m1, gamma1) == (False, None)
    assert products == [] and inverses == []


def _sign_group_job(rng, gens):
    """A smooth diagonal genus-2 pencil over Q with branch data, and a group
    of order 2^gens generated by independent diagonal +-1 matrices."""
    small = [Fraction(p, q) for q in (1, 2, 3) for p in range(-5, 6)]
    while True:
        pts = [(rng.choice(small), rng.choice(small)) for _ in range(6)]
        if all(a or b for a, b in pts) and all(
            pts[i][0] * pts[j][1] != pts[j][0] * pts[i][1] for i in range(6) for j in range(i)
        ):
            break
    while True:
        masks = [rng.randrange(1, 63) for _ in range(gens)]
        span = {0}
        for m in masks:
            span |= {x ^ m for x in span}
        if len(span) == 1 << gens:
            break

    def rat(q):
        return [q.numerator, q.denominator]

    return {
        "pencil": {"g": 2, "diag1": [rat(a) for a, _ in pts], "diag2": [rat(b) for _, b in pts]},
        "generators": [
            {"label": f"s{k}", "matrix": {"rows": 6, "cols": 6, "entries": [
                [(-1 if m >> i & 1 else 1) if i == j else 0 for j in range(6)] for i in range(6)]}}
            for k, m in enumerate(masks)
        ],
        "branch": {"roots": [[rat(b), rat(-a)] for a, b in pts]},
    }


def _closure_by_frontier(group):
    """The deleted eager closure: (element, word) pairs in the order they
    were inserted, each frontier element times each generator."""
    ident = Mat.identity(group.dimension)
    found = {ident.key(): (ident, ())}
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for m, word in frontier:
            for label, g in group.generators:
                prod = m * g
                if prod.key() not in found:
                    found[prod.key()] = entry = (prod, word + (label,))
                    nxt.append(entry)
        frontier = nxt
    return list(found.values())


def _stream_groups():
    """The point groups of 7.3, of 7.5 full, of 7.3 conjugated by an
    integer change of basis, of sign-group jobs of order 8 to 32 and of the
    dihedral job over Q(zeta12) (order 4608); lift's V and W of 7.4; 7.3's
    group with an identity generator first and its moved copy with one last;
    and V's sigma, of order 6, under two labels, so each power of the first
    label is also met times the second."""
    out = {name: _shipped_point_groups(name)[0] for name in ("example_7_3.json", "example_7_5_full.json")}
    p = Mat([[int(j in (i, i + 1)) for j in range(6)] for i in range(6)])
    p_inv = p.inverse()
    out["7.3 moved"] = MatrixGroup([(lab, p * g * p_inv) for lab, g in out["example_7_3.json"].generators])
    for seed in range(3):
        out[f"signs{seed}"] = cli._point_group(parse_job(json.dumps(_sign_group_job(random.Random(seed), 3 + seed))))
    out["dihedral"] = cli._point_group(parse_job(json.dumps(dict(_digest_tool().EXTRA_JOBS)["dihedral"])))
    _, lifted = lift_input_from_json((resources.files("twoquadrics") / "fixtures" / "example_7_4.json").read_text())
    out.update((f"7.4 {name}", group) for name, group in lifted.items())
    out["identity first"] = MatrixGroup([("e", Mat.identity(6)), *out["example_7_3.json"].generators])
    out["identity last"] = MatrixGroup([*out["7.3 moved"].generators, ("e", Mat.identity(6))])
    sigma = lifted["V"].generator("sigma")
    out["sigma twice"] = MatrixGroup([("a", sigma), ("b", sigma)])
    return out


def test_breadth_first_stream_is_the_closure_in_order():
    groups = _stream_groups()
    for name, group in groups.items():
        stream = list(breadth_first(group))
        assert stream == _closure_by_frontier(group), name
    assert [word for _, word in breadth_first(groups["sigma twice"])] == [("a",) * k for k in range(6)]


def test_the_walk_of_gamma_reads_its_kept_powers(monkeypatch):
    # g^(k+1) for a word of k g's is read off the powers check_finite_orders
    # leaves on g (8 products I*gamma .. gamma^7*gamma before them)
    pg = cli._point_group(parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5_full.json").read_text()))
    products = _counted(monkeypatch, matrices, "_product")
    assert [word for _, word in breadth_first(pg)] == [("gamma",) * k for k in range(8)]
    assert products == []


def _report_jobs():
    texts = {name: (resources.files("twoquadrics") / "fixtures" / name).read_text()
             for name in ("example_7_3.json", "example_7_5.json", "example_7_5_full.json")}
    rng = random.Random(600)
    for k in range(25):
        texts[f"signs{k}"] = json.dumps(_sign_group_job(rng, 1 + k % 5))
    return texts


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first argument."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda x, *a, **k: calls.append(x) or real(x, *a, **k))
    return calls


def test_stage_3_skip_matches_searching_every_generator(monkeypatch):
    # the reference is run_report with the multiplicity test disabled, which
    # is the stage-3 loop that searched every generator
    statuses = set()
    for name, text in _report_jobs().items():
        with monkeypatch.context() as mp:
            mp.setattr(cli, "eigen_multiplicities", lambda a: (1, (1,)))
            want = cli.run_report(parse_job(text))
        with monkeypatch.context() as mp:
            searches = _counted(mp, cli, "invariant_lines_abelian")
            got = cli.run_report(parse_job(text))
        assert got == want, name
        statuses.add(got["status"])
        # eps of 7.3 has eigenspaces of dimensions 2 and 4, and each generator
        # of a sign group one of dimension 3 or more
        assert len(searches) == (1 if name.startswith("example_7_5") else 0), name
    assert {"OBSTRUCTED", "INCONCLUSIVE"} <= statuses


def test_stage_3_forms_the_powers_of_gamma_once(monkeypatch):
    job = parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text())
    gamma = job.group.generator("gamma")
    point_gamma = gamma.inverse().transpose()
    assert point_gamma != gamma
    powered = _counted(monkeypatch, matrices, "operator_order")
    # the kernels and products made while eigenspaces_finite_order runs: it
    # projects with the powers eigen_multiplicities kept, so there are none
    spaced, inside, made = [], [], []

    def recorded(name, real):
        def call(*args):
            if inside:
                made.append(name)
            return real(*args)
        return call

    for name in ("kernel", "_product"):
        monkeypatch.setattr(matrices, name, recorded(name, getattr(matrices, name)))
    real_eigenspaces = groups.eigenspaces_finite_order

    def eigenspaces(m):
        spaced.append(m)
        inside.append(m)
        try:
            return real_eigenspaces(m)
        finally:
            inside.pop()

    monkeypatch.setattr(groups, "eigenspaces_finite_order", eigenspaces)
    assert cli.run_report(job)["status"] == "LINEARIZABLE_CERTIFIED"
    # the point action's powers are read off gamma's (matrices.point_action)
    assert powered == [gamma]
    assert point_gamma in spaced
    assert made == []


def test_point_action_is_the_inverse_transpose_with_its_powers_and_multiplicities():
    # the generators of the report jobs (fixtures and sign groups), of two
    # paper_jobs rounds, of the report fixtures in dense coordinates and of the
    # dihedral and C5 jobs; the identity and order-24 matrices over Q(zeta12)
    rng = random.Random(28)
    gens = [(name, lab, h) for name, text in [*_report_jobs().items(), *_stage_3_jobs()]
            for lab, h in parse_job(text).group.generators]
    gens.append(("identity", "e", Mat.identity(6)))
    for k in range(2):
        m, u = _zeta12_order_24(rng), _invertible(rng, 6)
        gens += [("zeta12", k, m), ("zeta12 moved", k, u * m * u.inverse())]
    orders = set()
    for name, lab, h in gens:
        got, want = point_action(h), h.inverse().transpose()
        info = operator_order(want)
        assert got.key() == want.key(), (name, lab)
        assert [p.key() for p in got._powers] == [p.key() for p in info.powers[1:]], (name, lab)
        assert eigen_multiplicities(got) == eigen_multiplicities(want), (name, lab)
        assert eigenspaces_finite_order(got) == eigenspaces_finite_order(want), (name, lab)
        orders.add(info.order)
    assert {1, 2, 4, 5, 6, 8, 24} <= orders


def test_a_report_inverts_and_ranks_no_generator(monkeypatch, capsys):
    text = (resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text()
    gens = [m for _, m in parse_job(text).group.generators]
    inverted, ranked = _counted(monkeypatch, Mat, "inverse"), _counted(monkeypatch, Mat, "rank")
    assert cli.main(["report", "--fixture", "example_7_5.json"]) == 0
    assert "LINEARIZABLE_CERTIFIED" in capsys.readouterr().out
    assert not [m for m in inverted + ranked if m in gens]


def _diagonal_signs(m):
    """The deleted Mat.diagonal_signs: the diagonal divided by its first
    entry, when m is diagonal and that quotient is a vector of +-1; else None."""
    lead = m.data[0][0]
    if m.rows != m.cols or not lead or not m.is_diagonal():
        return None
    signs = {lead: 1, _coefs(m.order, [lead], mul, -1)[0]: -1}
    out = tuple(signs.get(row[i]) for i, row in enumerate(m.data))
    return None if None in out else out


def _canonical_signs(signs, g):
    """The deleted pencils.canonical_signs: a +-1 vector up to a global flip
    to minus-count k <= g+1, and k."""
    k = signs.count(-1)
    if k > g + 1:
        return tuple(-s for s in signs), len(signs) - k
    return tuple(signs), k


def _diagonal_scan(element_words, g):
    """The deleted stage-4 scan of a diagonal pencil: the witness word and
    sign vector of the first nonscalar diagonal sign element of canonical
    minus-count 2, and the first odd-count word before it (the iota-lift)."""
    lift = None
    for m, word in element_words:
        signs = _diagonal_signs(m)
        if signs is None or len(set(signs)) == 1:
            continue
        k = _canonical_signs(signs, g)[1]
        if k == 2:
            return list(word), list(signs), lift
        if k % 2 and lift is None:
            lift = list(word)
    return None, None, lift


def test_sign_scan_matches_the_diagonal_scan():
    found = set()
    for name, text in _report_jobs().items():
        job = parse_job(text)
        pg = cli._point_group(job)
        element_words = list(breadth_first(pg))
        witness, signs, lift = _diagonal_scan(element_words, job.pencil.g)
        # element by element: the same sign elements, with the same minus-count
        for m, word, act in cli._pencil_actions(element_words, job.actions):
            old = _diagonal_signs(m)
            want = None if old is None or len(set(old)) == 1 else _canonical_signs(old, 2)[1]
            assert (m.minus_count() if act.is_scalar() is not None and m.is_scalar() is None else None) == want
        verdict = cli.run_report(job)
        if verdict["status"] == "LINEARIZABLE_CERTIFIED":
            continue  # 7.5: stage 3 ends the report
        got = {k: v for item in verdict["evidence"] if item["stage"] >= 4 for k, v in item.items()}
        assert (got.get("witness_word"), got.get("sign_vector")) == (witness, signs), name
        if witness is None:
            assert got.get("iota_lift_word") == lift, name
        found.add((witness is not None, lift is not None))
    assert {(True, False), (False, True), (True, True)} <= found


def _dihedral_job():
    """A pencil whose branch points are the sixth roots of unity, with Q1 =
    sum x_i^2 and Q2 = sum zeta6^i x_i^2, and two symmetries over Q(zeta12):
    r, x_i -> x_(i+1), acts by t -> zeta6 t, and s, x_i -> zeta12^i x_(-i),
    swaps Q1 and Q2; so their pencil actions do not commute."""
    pencil = Pencil.from_diagonals(2, [1] * 6, [zeta(6, i) for i in range(6)])
    r = Mat([[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)])
    s = Mat([[zeta(12, i) if j == -i % 6 else 0 for j in range(6)] for i in range(6)])
    return pencil, {"r": r, "s": s}


def test_pencil_action_of_a_word_is_its_generators_last_first():
    # h G h^T = sum M G gives M_AB = M_B M_A; the closure of this group has
    # 4608 elements, so the words up to length 4 are checked
    pencil, gens = _dihedral_job()
    actions = {lab: equivariance(pencil, h) for lab, h in gens.items()}
    words = [w for n in range(5) for w in product(gens, repeat=n)]  # each word after its prefix
    elements = {(): Mat.identity(6)}
    for w in words[1:]:
        elements[w] = elements[w[:-1]] * gens[w[-1]].inverse().transpose()
    first_first = 0
    for m, word, act in cli._pencil_actions([(elements[w], w) for w in words], actions):
        assert act == equivariance(pencil, m.inverse().transpose()), word
        reverse = Mat.identity(2)
        for lab in word:
            reverse = reverse * actions[lab]
        first_first += reverse != act
    assert first_first  # the other product order is wrong on some word


def _proj_equal(p, q):
    """The deleted binforms.proj_equal: equality of projective points (u, v)."""
    (a, b), (c, d) = p, q
    return (a * d - b * c).is_zero()


def _checked_roots_by_scan(f, roots):
    """The deleted checked_roots: each root compared with every earlier one."""
    roots = tuple((CycNum._coerce(u), CycNum._coerce(v)) for u, v in roots)
    for i, (u, v) in enumerate(roots):
        if u.is_zero() and v.is_zero():
            raise ValueError(f"root {i + 1} is (0, 0)")
        for j in range(i):
            if _proj_equal(roots[j], (u, v)):
                raise ValueError(f"roots {j + 1} and {i + 1} coincide")
        if not f.evaluate(u, v).is_zero():
            raise NotARoot(f"point {i + 1} is not a root of the form")
    return roots


def _columns(roots):
    """The roots of checked Roots as (u, v) CycNum pairs, the columns of
    `points`; anything else as it is."""
    return tuple(zip(*roots.points.entries)) if type(roots) is Roots else roots


def _root_images_by_scan(roots, m):
    """The deleted root_images: each image (a u + c v, b u + d v) compared
    with every root by cross products."""
    (a, b), (c, d) = m.entries
    roots = _columns(roots)
    images = []
    for i, (u, v) in enumerate(roots):
        img = (a * u + c * v, b * u + d * v)
        j = next((k for k, r in enumerate(roots) if _proj_equal(img, r)), None)
        if j is None:
            raise NotClosed(f"image of root {i + 1} is not in the root list")
        images.append(j + 1)
    return tuple(images)


def _equivariance_by_two_solves(pencil, h):
    """The deleted equivariance: one `solve` for each transformed Gram."""
    grams = (pencil.q1, pencil.q2)
    rows = []
    for g in grams:
        t = h * g * h.transpose()
        coeffs = solve([[x for row in gi.entries for x in row] for gi in grams], [x for row in t.entries for x in row])
        if coeffs is None:
            raise NotASymmetry("transformed quadric leaves the pencil span")
        rows.append(coeffs)
    m = Mat(rows)
    if m.det().is_zero():
        raise NotASymmetry("induced 2x2 action is singular")
    return m


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, NotARoot, NotClosed, NotASymmetry, NotAbelian, UnsupportedCase) as exc:
        return type(exc), str(exc)


def _oracle_cases():
    """(pencil, matrix generators, pencil actions, branch roots, branch
    permutations) of the shipped report fixtures, two rounds of the paper
    fixtures in new coordinates (roots and generators in Q(zeta8)), seeded
    sign-group jobs, and the Q(zeta12) dihedral pencil with its six roots."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    texts = [(resources.files("twoquadrics") / "fixtures" / name).read_text()
             for name in ("example_7_3.json", "example_7_5.json", "example_7_5_full.json")]
    for seed in range(2):
        texts += [text for _, text, _ in workloads.paper_round(workloads.seeded_rng("paper_jobs", seed))]
    rng = random.Random(700)
    texts += [json.dumps(_sign_group_job(rng, 1 + k % 4)) for k in range(8)]
    for job in map(parse_job, texts):
        gens = job.group.generators if job.group else []
        yield job.pencil, gens, job.actions, _columns(job.branch), job.perms
    pencil, gens = _dihedral_job()
    actions = {lab: equivariance(pencil, h) for lab, h in gens.items()}
    roots = [(zeta(6, i), -1) for i in range(6)]  # t1 + zeta6^i t2 vanishes at (zeta6^i : -1)
    yield pencil, list(gens.items()), actions, roots, None


def test_equivariance_and_root_images_match_the_scans():
    maps = [Mat([[1, 1], [0, 1]]), Mat([[0, 1], [1, 0]]), Mat([[zeta(8), 0], [0, 1]]), Mat.identity(2) * zeta(8)]
    closed = set()
    for pencil, gens, actions, roots, perms in _oracle_cases():
        for lab, h in gens:
            assert equivariance(pencil, h) == _equivariance_by_two_solves(pencil, h) == actions[lab]
        if roots is None:
            continue
        branch = checked_roots(pencil.det_form, roots)
        assert _columns(branch) == _checked_roots_by_scan(pencil.det_form, roots)
        for lab, m in [*actions.items(), *((None, m) for m in maps)]:
            got = _outcome(root_images, branch, m)
            assert got == _outcome(_root_images_by_scan, branch, m)
            assert lab is None or perms is None or got == perms[lab]
            closed.add(got[0] is not NotClosed)
    assert closed == {True, False}


def _form_with_roots(points):
    """The product of v t1 - u t2 over the distinct points (u, v): each
    factor takes the coefficient list c to v c_k - u c_(k-1)."""
    c, seen = [ONE], []
    for u, v in ((CycNum._coerce(u), CycNum._coerce(v)) for u, v in points):
        if not any(_proj_equal((u, v), q) for q in seen):
            seen.append((u, v))
            c = [v * a - u * b for a, b in zip(c + [ZERO], [ZERO] + c)]
    return BinaryForm(len(c) - 1, c)


def test_root_keys_match_the_scan_at_infinity_on_multiples_and_across_fields():
    z = zeta(8)
    swap = Mat([[0, 1], [1, 0]])
    cases = [
        # (0 : v) and (u : 0), exchanged by the swap (u, v) -> (v, u)
        ([(0, 3), (5, 0), (1, 2), (4, 2)], swap, (2, 1, 4, 3)),
        # (1, 2) beside (2, 4), and (0 : 3) beside (0 : -2)
        ([(1, 1), (1, 2), (3, 1), (2, 4)], swap, "roots 2 and 4 coincide"),
        ([(0, 3), (1, 1), (0, -2)], swap, "roots 1 and 3 coincide"),
        # roots that differ by a zeta8 factor, also between Q and Q(zeta8)
        ([(1, z), (1, z**3), (z, z**2)], swap, "roots 1 and 3 coincide"),
        ([(1, 1), (1, -1), (z, z)], swap, "roots 1 and 3 coincide"),
        ([(z, 0), (0, z**3), (1, z), (z, 1)], swap, (2, 1, 4, 3)),
        # zeta8 times the identity fixes every rational point, keyed again in Q(zeta8)
        ([(1, 1), (1, 2), (0, 1)], Mat.identity(2) * z, (1, 2, 3)),
        ([(1, 0), (1, 1), (0, 1)], Mat([[1, 0], [0, z]]), "image of root 2 is not in the root list"),
        ([(1, z), (1, z**3), (1, z**5), (1, z**7)], Mat([[1, 0], [0, z**2]]), (2, 3, 4, 1)),
    ]
    for points, m, want in cases:
        f = _form_with_roots(points)
        roots = _outcome(checked_roots, f, points)
        assert _columns(roots) == _outcome(_checked_roots_by_scan, f, points), points
        if want in ("roots 2 and 4 coincide", "roots 1 and 3 coincide"):
            assert roots == (ValueError, want)
            continue
        images = _outcome(root_images, roots, m)
        assert images == _outcome(_root_images_by_scan, roots, m) == (want if type(want) is tuple else (NotClosed, want))


def test_a_map_off_the_pencil_is_refused_by_both_solves():
    pencil = Pencil.from_diagonals(2, [1] * 6, list(range(6)))
    shear = Mat([[int(i == j or (i, j) == (1, 0)) for j in range(6)] for i in range(6)])
    message = "^transformed quadric leaves the pencil span$"
    with pytest.raises(NotASymmetry, match=message):
        equivariance(pencil, shear)
    with pytest.raises(NotASymmetry, match=message):
        _equivariance_by_two_solves(pencil, shear)
    # a symmetry that swaps Q1 and Q2 has an off-diagonal action under both
    swap = Pencil.from_diagonals(2, [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
    rev = Mat([[int(i + j == 5) for j in range(6)] for i in range(6)])
    assert equivariance(swap, rev) == _equivariance_by_two_solves(swap, rev) == Mat([[0, 1], [1, 0]])


def _moved(pencil, gens, a):
    """The pencil and its (label, matrix) generators in the coordinates of
    an invertible a: Q_i -> a Q_i aᵀ and h -> a h a⁻¹, which keeps every
    pencil action."""
    at, inv = a.transpose(), a.inverse()
    return Pencil(pencil.g, a * pencil.q1 * at, a * pencil.q2 * at), [(lab, a * h * inv) for lab, h in gens]


def test_equivariance_matches_the_two_solves_in_dense_coordinates_past_the_first_minor_and_off_the_pencil():
    rng = random.Random(31)
    swap = lambda i, j: Mat([[int(c == {i: j, j: i}.get(r, r)) for c in range(6)] for r in range(6)])
    # Q1 = I, Q2 = diag(1, 1, 2, 3, 4, 5): positions (0, 0) and (1, 1) give a
    # zero minor, and (0, 0) with (2, 2), position 11, the first nonzero one
    late = Pencil.from_diagonals(2, [1] * 6, [1, 1, 2, 3, 4, 5])
    assert late.minor[4:6] == (0, 11)
    cases = [(pencil, gens) for pencil, gens, *_ in _oracle_cases()]
    cases.append((late, [("swap01", swap(0, 1)), ("signs", Mat.diagonal([1, -1, 1, 1, -1, 1])), ("swap23", swap(2, 3))]))
    # a generator times a shear, twice a generator and the zero matrix: off
    # the span, a symmetry over a larger denominator, a singular action
    shear = Mat.identity(6) + Mat([[int((i, j) == (1, 0)) for j in range(6)] for i in range(6)])
    kinds = set()
    for pencil, gens in cases:
        gens = [*gens, ("sheared", gens[0][1] * shear), ("twice", gens[0][1] * 2), ("zero", Mat([[0] * 6] * 6))]
        moved, moved_gens = _moved(pencil, gens, _invertible(rng, 6).inverse())
        assert not moved.q1.is_diagonal()
        for (lab, h), (_, moved_h) in zip(gens, moved_gens):
            got = _outcome(equivariance, pencil, h)
            assert got == _outcome(_equivariance_by_two_solves, pencil, h), lab
            assert _outcome(equivariance, moved, moved_h) == _outcome(_equivariance_by_two_solves, moved, moved_h) == got
            kinds.add(got[1] if type(got) is tuple else "action")
    assert kinds == {"action", "transformed quadric leaves the pencil span", "induced 2x2 action is singular"}


def test_equivariance_multiplies_no_mat_and_eliminates_nothing(monkeypatch):
    # the action is read off the minor the pencil keeps: no Mat product, no
    # elimination, no determinant, and Δ inverted once per pencil above order 1
    fixture = parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text())
    signs = parse_job(json.dumps(_sign_group_job(random.Random(31), 3)))
    cases = [(fixture.pencil, fixture.group.generator("gamma"), fixture.actions["gamma"])]
    cases += [(signs.pencil, h, signs.actions[lab]) for lab, h in signs.group.generators[:1]]
    made = []
    for owner, name in ((matrices, "_echelon"), (matrices, "_rref"), (Mat, "__mul__"), (Mat, "det")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _name=name, _real=real, **k: made.append(_name) or _real(*a, **k))
    inverses = _counted(monkeypatch, pencils, "_inverse_num")
    for pencil, h, want in cases:
        fresh = Pencil(pencil.g, pencil.q1, pencil.q2)  # the minor is found here, once
        assert [equivariance(fresh, h) for _ in range(2)] == [want] * 2
        assert len(inverses) == (fresh.minor[0] > 1), fresh.minor[0]
        inverses.clear()
    assert made == []


def _least_by_scan(order, den, data):
    """The deleted descent of matrices._mat, and of CycNum.canonical: every
    divisor d of the order, smallest first, until all entries lie in
    Q(zeta_d), then lowest terms; returns the (order, den, data) key."""
    data, cols = [tuple(r) for r in data], len(data[0])
    for d in (d for d in range(1, order) if order % d == 0):
        low = []
        for x in (x for row in data for x in row):
            c = cyclo._descend_num(order, d, x) if x else [0]
            if c is None:
                break
            low.append(c[0] if d == 1 else tuple(c) if x else 0)
        else:
            data = [low[i : i + cols] for i in range(0, len(low), cols)]
            order, den = d, den * cyclo._descent_map(order, d)[2]
            break
    g = math.gcd(den, *matrices._coefficients(order, data))
    return order, den // g, tuple(tuple(matrices._coefs(order, row, floordiv, g)) for row in data)


def _field_cases():
    """(order N, values): seeded 3 x 4 matrices of CycNum, for N = 8, 12,
    15, 20, 24, 40, 60 and 120, with entries drawn from Q(zeta_d) for every
    divisor d of N, and at 24 and 120 also mixed zeta8 / zeta3 entries; each
    matrix also holds zeros and rational entries (a matrix with only those
    makes the rational and the zero cases)."""
    for n in (8, 12, 15, 20, 24, 40, 60, 120):
        sources = [(d,) for d in range(1, n + 1) if n % d == 0] + ([(8, 3)] if n % 24 == 0 else [])
        for fields in sources:
            rng = random.Random(n * 1000 + sum(fields))
            for _ in range(2):
                def entry():
                    kind = rng.random()
                    if kind < 0.2:
                        return CycNum.from_rational(0)
                    if kind < 0.4:
                        return CycNum.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    return _entry(rng, rng.choice(fields), zeros=0)
                yield n, [[CycNum._coerce(entry()) for _ in range(4)] for _ in range(3)]
        yield n, [[CycNum.from_rational(0)] * 4] * 3


def test_least_field_walk_matches_the_divisor_scan():
    orders = set()
    for n, values in _field_cases():
        order, den, data = matrices._rows_of([[x.embed(n) for x in row] for row in values])
        assert order == n
        got = matrices._mat(n, den, data, 4).key()
        assert got == _least_by_scan(n, den, data) == Mat(values).key(), (n, values)
        orders.add(got[0])
    # every least order the walk can end at shows up, two or more primes included
    assert {1, 3, 4, 5, 8, 12, 15, 20, 24, 40, 60, 120} <= orders


def test_transpose_and_negation_make_no_descent_and_the_walk_fewer(monkeypatch):
    rng = random.Random(24)
    m = Mat([[_entry(rng, 8) for _ in range(6)] for _ in range(6)])
    assert m.order == 8
    calls = _counted(monkeypatch, cyclo, "_descend_num")
    if hasattr(matrices, "_descend_num"):  # a binding of its own, as before cyclo._least_field
        monkeypatch.setattr(matrices, "_descend_num", cyclo._descend_num)
    t, neg = m.transpose(), -m
    assert len(calls) == 0
    assert t.key() == Mat(list(zip(*m.entries))).key()
    assert neg.key() == Mat([[-x for x in row] for row in m.entries]).key()
    order, den, data = matrices._rows_of([[x.embed(24) for x in row] for row in m.entries])
    assert order == 24
    calls.clear()
    got = matrices._mat(24, den, data, 6).key()
    walk = len(calls)
    calls.clear()
    want = _least_by_scan(24, den, data)
    assert got == want == m.key()
    assert 0 < walk < len(calls)


def _restricted_binary_quadric(q, plane):
    """The deleted pencils._restricted_binary_quadric: Q restricted to
    u·b1 + v·b2, from the products bi·G·bjᵀ."""
    b = Mat(plane.basis)
    (g11, g12), (_, g22) = (b * q * b.transpose()).entries
    return BinaryForm(2, [g11, 2 * g12, g22])


def _isotropic_points_by_polar(pencil, space, extra_points=()):
    """The deleted pencils._isotropic_points, on a Subspace with extra
    points, every condition a product p·G·vᵀ of ambient vectors: a list of
    vectors, or None."""
    quadrics, b = (pencil.q1, pencil.q2), Mat(space.basis)
    if space.dim == 1:
        v = space.basis[0]
        conds = [(b * q * b.transpose()).entries[0][0] for q in quadrics]
        conds += [(Mat([p]) * q * b.transpose()).entries[0][0] for p in extra_points for q in quadrics]
        return [v] if all(c.is_zero() for c in conds) else []
    b1, b2 = space.basis
    quadratics = [f for f in (_restricted_binary_quadric(q, space) for q in quadrics) if not f.is_zero()]
    conds = [list((Mat([p]) * q * b.transpose()).entries[0]) for p in extra_points for q in quadrics]
    if conds and (polar := kernel(Mat(conds))).dim < 2:
        candidates = polar.basis
    elif not quadratics:
        return None
    elif len(quadratics) == 1:
        candidates = quadratic_roots(*quadratics[0].coeffs)
    else:
        candidates = _common_roots(*quadratics)
    pts = []
    for u, v in candidates:
        if all(f.evaluate(u, v).is_zero() for f in quadratics):
            pt = tuple(u * x + v * y for x, y in zip(b1, b2))
            if not any(proj_point_equal(pt, q) for q in pts):
                pts.append(pt)
    return pts


def _fixed_points_by_polar(pencil, group):
    """The deleted fixed_points_on_X, on _isotropic_points_by_polar."""
    points, curves, lines = [], [], []
    for comp in projective_fixed_locus(group):
        if comp.dim > 2:
            curves.append(comp)
            continue
        pts = _isotropic_points_by_polar(pencil, comp)
        if pts is None:
            lines.append(comp)
        else:
            points.extend(pts)
    return FixedOnX(tuple(points), tuple(curves), tuple(lines))


def _lines_by_polar(pencil, group):
    """The deleted invariant_lines_abelian: each restricted form, polar
    condition and plane test from products of ambient vectors with a Gram."""
    for i, (la, a) in enumerate(group.generators):
        for lb, b in group.generators[i + 1 :]:
            if a * b != b * a:
                raise NotAbelian(f"generators {la!r} and {lb!r} do not commute")
    spaces = character_spaces(group)
    lines, families = [], []

    def add_line(plane):
        if all(_restricted_binary_quadric(q, plane).is_zero() for q in (pencil.q1, pencil.q2)):
            lines.append(plane)

    for space, char in spaces:
        if space.dim == 2:
            add_line(space)
        elif space.dim > 2:
            fam = {"character": char, "dimension": space.dim, "enumerated": False,
                   "reason": f"lines inside one character space of dimension {space.dim}"}
            if pencil.g == 2 and space.dim == 5:
                f = pencil_det_form(_restricted_gram(pencil.q1, space), _restricted_gram(pencil.q2, space))
                if not bform_discriminant(f).is_zero():
                    fam["count"] = 16
                    fam["reason"] = "smooth quartic del Pezzo section: 16 lines"
            families.append(fam)

    def pair_family(c1, c2, reason):
        families.append({"characters": (c1, c2), "enumerated": False, "reason": reason})

    on_x = functools.cache(lambda s: _isotropic_points_by_polar(pencil, s))
    for i, (s1, c1) in enumerate(spaces):
        for s2, c2 in spaces[i + 1 :]:
            if any(s.dim == 1 and not on_x(s) for s in (s1, s2)):
                continue
            if s1.dim > 2 or s2.dim > 2:
                pair_family(c1, c2, "parameter dimension exceeds 2")
                continue
            lefts = on_x(s1)
            if lefts is None:
                pair_family(c1, c2, "isotropic directions form a family")
                continue
            for p in lefts:
                rights = _isotropic_points_by_polar(pencil, s2, extra_points=(p,))
                if rights is None:
                    pair_family(c1, c2, "isotropic directions form a family")
                    continue
                for q in rights:
                    add_line(Subspace(pencil.size, [p, q]))
    return LineSearchReport(tuple(lines), tuple(families))


def _digest_tool():
    """tools/output_digest.py as a module, for its dense coordinates and its
    dihedral and C5 jobs."""
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _stage_3_jobs():
    """(name, job text): two paper_jobs rounds, the report fixtures in dense
    coordinates, and the Q(zeta12) dihedral and the C5 jobs as they are and
    in dense coordinates."""
    tool = _digest_tool()
    import workloads  # on the path once the tool is loaded

    for seed in range(2):
        for k, (_, text, _) in enumerate(workloads.paper_round(workloads.seeded_rng("paper_jobs", seed))):
            yield f"paper{seed}-{k}", text
    rng = workloads.seeded_rng("dense_jobs", 0)
    for name in workloads.PAPER_FIXTURES:
        yield f"dense {name}", tool.dense_job(workloads.load_fixture(name), rng)
    for name, obj in tool.EXTRA_JOBS:
        yield name, json.dumps(obj)
        yield f"dense {name}", tool.dense_job(obj, rng)


def test_the_dihedral_report_keeps_no_line_and_is_obstructed():
    # r bounds the search with 3 candidate lines, and s moves every one of
    # them: a stage-3 filter that checked r alone would certify linearizability
    job = parse_job(json.dumps(dict(_digest_tool().EXTRA_JOBS)["dihedral"]))
    verdict = cli.run_report(job)
    stages = {k: v for item in verdict["evidence"] if item["stage"] in (3, 4) for k, v in item.items()}
    assert verdict["status"] == "OBSTRUCTED"
    assert (stages["bounding_subgroup"], stages["candidates"], stages["invariant_under_all"]) == ("r", 3, 0)
    assert stages["witness_word"] == ["r", "s", "r", "s"]


def _dihedral_reversed():
    """The dihedral job with its generators listed s, r: r, the one that
    bounds the stage-3 search, is then not the first."""
    obj = dict(_digest_tool().EXTRA_JOBS)["dihedral"]
    return json.dumps(dict(obj, generators=obj["generators"][::-1]))


def test_each_candidate_line_is_fixed_by_the_generator_that_bounds_it():
    # stage 3 tests its candidates only under the other generators: each is
    # a plane in one character space of a, or spanned by points of two
    counts = {}
    texts = [*_report_jobs().items(), *_stage_3_jobs(), ("dihedral reversed", _dihedral_reversed())]
    for name, text in texts:
        job = parse_job(text)
        for lab, a in cli._point_group(job).generators:
            try:
                lines = invariant_lines_abelian(job.pencil, MatrixGroup([(lab, a)])).lines
            except UnsupportedCase:
                continue
            assert all(line.image_under(a) == line for line in lines), (name, lab)
            counts[name, lab] = len(lines)
    # gamma's 2 lines in 7.5 and 7.5 full, as given, moved and dense; r's 3
    assert {key: n for key, n in counts.items() if n} == {
        **{(name, "gamma"): 2 for name in ("example_7_5.json", "example_7_5_full.json", "paper0-1", "paper0-2",
                                           "paper1-1", "paper1-2", "dense example_7_5.json", "dense example_7_5_full.json")},
        **{(name, "r"): 3 for name in ("dihedral", "dense dihedral", "dihedral reversed")},
    }


def test_stage_3_moves_its_candidates_only_by_the_other_generators(monkeypatch):
    moved_by = []
    real = Subspace.image_under
    monkeypatch.setattr(Subspace, "image_under", lambda line, m: moved_by.append(m) or real(line, m))
    text = (resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text()
    assert cli.run_report(parse_job(text))["status"] == "LINEARIZABLE_CERTIFIED"
    assert moved_by == []  # gamma is the one generator
    job = parse_job(_dihedral_reversed())
    s = dict(cli._point_group(job).generators)["s"]
    verdict = cli.run_report(job)
    stages = {k: v for item in verdict["evidence"] if item["stage"] in (3, 4) for k, v in item.items()}
    assert verdict["status"] == "OBSTRUCTED"
    assert (stages["bounding_subgroup"], stages["candidates"], stages["invariant_under_all"]) == ("r", 3, 0)
    assert moved_by == [s] * 3


def test_stage_3_on_the_blocks_matches_the_polar_search():
    # the two differ only where a restricted form lies in a smaller field than
    # its quadric and space, whose square roots the blocks search in that
    # field (tests/test_pencils.py::test_a_restricted_form_is_read_in_its_own_field)
    seen = set()
    for name, text in _stage_3_jobs():
        job = parse_job(text)
        pg = cli._point_group(job)
        # the whole point group (invariant-lines, fixed-points) and each
        # generator's cyclic group (stage 3 of the report)
        for group in [pg, *(MatrixGroup([g]) for g in pg.generators)]:
            lines = _outcome(invariant_lines_abelian, job.pencil, group)
            assert lines == _outcome(_lines_by_polar, job.pencil, group), (name, group.labels)
            fixed = _outcome(fixed_points_on_X, job.pencil, group)
            assert fixed == _outcome(_fixed_points_by_polar, job.pencil, group), (name, group.labels)
            for got in (lines, fixed):
                seen.add(got[0].__name__ if type(got) is tuple else type(got).__name__)
            if type(lines) is LineSearchReport:
                seen.update(("lines",) * bool(lines.lines) + ("families",) * bool(lines.families))
            if type(fixed) is FixedOnX:
                seen.update(("points",) * bool(fixed.points) + ("lines_on_x",) * bool(fixed.lines_on_x))
            if type(lines) is tuple and lines[0] is UnsupportedCase:
                assert lines[1] == "quadratic root requires a square root outside Q(zeta_24)", name
    assert {"NotAbelian", "UnsupportedCase", "lines", "families", "points"} <= seen


def _restricted_gram(q, s):
    """The deleted Quadric.restrict, as its Gram: Q restricted to the basis of s."""
    b = s._rows
    return matrices._product(matrices._product(b, q), b.transpose())


def _combinations_span(coefs, m):
    """The row_combinations_span that took CycNum coefficient rows and a Mat."""
    corder, _, crows = matrices._rows_of(coefs)
    order = math.lcm(corder, m.order)
    cols = list(zip(*_embed(m.order, m.data, order)))
    return matrices._span(m.cols, order, [matrices._times(order, cols, c) for c in _embed(corder, crows, order)])


def _isotropic_points_of_entries(grams, polars=()):
    """The _isotropic_points that read the restricted Grams' CycNum entries
    and took polar conditions as rows of CycNum."""
    if grams[0].rows == 1:
        conds = [g.entries[0][0] for g in grams] + [row[0] for row in polars]
        return [(ONE,)] if all(c.is_zero() for c in conds) else []
    quadratics = [BinaryForm(2, [a, 2 * b, d]) for (a, b), (_, d) in (g.entries for g in grams)]
    quadratics = [f for f in quadratics if not f.is_zero()]
    if polars and (polar := kernel(Mat(polars))).dim < 2:
        candidates = polar.basis
    elif not quadratics:
        return None
    elif len(quadratics) == 1:
        candidates = quadratic_roots(*quadratics[0].coeffs)
    else:
        candidates = _common_roots(*quadratics)
    pts = []
    for pt in candidates:
        if all(f.evaluate(*pt).is_zero() for f in quadratics) and not any(_proj_equal(pt, q) for q in pts):
            pts.append(pt)
    return pts


def _fixed_points_of_entries(pencil, group):
    """The fixed_points_on_X that restricted each component by Quadric.restrict."""
    points = []
    curves = []
    lines = []
    for comp in projective_fixed_locus(group):
        if comp.dim > 2:
            curves.append(comp)
            continue
        pts = _isotropic_points_of_entries([_restricted_gram(q, comp) for q in (pencil.q1, pencil.q2)])
        if pts is None:
            lines.append(comp)
        else:
            points.extend(_point(c, comp.basis) for c in pts)
    return FixedOnX(tuple(points), tuple(curves), tuple(lines))


def _lines_of_entries(pencil, group):
    """The invariant_lines_abelian that read E Q_i Eᵀ through its CycNum
    entries: E a Mat of the spaces' basis vectors, each block a Mat of
    entries (so in its own least field, as the int-row search reads it), and
    the polar rows and the line check sums of CycNum products."""
    for i, (la, a) in enumerate(group.generators):
        for lb, b in group.generators[i + 1 :]:
            if a * b != b * a:
                raise NotAbelian(f"generators {la!r} and {lb!r} do not commute")
    spaces = character_spaces(group)
    e = Mat([v for s, _ in spaces for v in s.basis])
    grams = [(e * q * e.transpose()).entries for q in (pencil.q1, pencil.q2)]
    span = [range(k - s.dim, k) for k, (s, _) in zip(accumulate(s.dim for s, _ in spaces), spaces)]
    restricted = functools.cache(lambda t: [Mat([[a[i][j] for j in span[t]] for i in span[t]]) for a in grams])

    def form(a, p, q):
        return sum(x * a[i][j] * y for i, x in p.items() for j, y in q.items())

    lines = []
    families = []
    for t, (space, char) in enumerate(spaces):
        if space.dim == 2:
            if not any(any(map(any, g.data)) for g in restricted(t)):
                lines.append(space)
        elif space.dim > 2:
            fam = {
                "character": char,
                "dimension": space.dim,
                "enumerated": False,
                "reason": f"lines inside one character space of dimension {space.dim}",
            }
            if pencil.g == 2 and space.dim == 5:
                f = pencil_det_form(*restricted(t))
                if not bform_discriminant(f).is_zero():
                    fam["count"] = 16
                    fam["reason"] = "smooth quartic del Pezzo section: 16 lines"
            families.append(fam)

    def pair_family(c1, c2, reason):
        families.append({"characters": (c1, c2), "enumerated": False, "reason": reason})

    on_x = functools.cache(lambda t: _isotropic_points_of_entries(restricted(t)))
    for t1, (s1, c1) in enumerate(spaces):
        for t2, (s2, c2) in enumerate(spaces[t1 + 1 :], t1 + 1):
            if any(spaces[t][0].dim == 1 and not on_x(t) for t in (t1, t2)):
                continue
            if s1.dim > 2 or s2.dim > 2:
                pair_family(c1, c2, "parameter dimension exceeds 2")
                continue
            lefts = on_x(t1)
            if lefts is None:
                pair_family(c1, c2, "isotropic directions form a family")
                continue
            for x in lefts:
                p = dict(zip(span[t1], x))
                polars = [[form(a, p, {j: ONE}) for j in span[t2]] for a in grams]
                rights = _isotropic_points_of_entries(restricted(t2), polars)
                if rights is None:
                    pair_family(c1, c2, "isotropic directions form a family")
                    continue
                for y in rights:
                    q = dict(zip(span[t2], y))
                    if all(form(a, u, v).is_zero() for a in grams for u, v in ((p, p), (p, q), (q, q))):
                        lines.append(_combinations_span([[u.get(k, 0) for k in range(e.rows)] for u in (p, q)], e))
    return LineSearchReport(tuple(lines), tuple(families))


def test_stage_3_on_the_int_rows_matches_the_entries():
    # the same blocks, each in its own least field, read as CycNum entries:
    # every outcome, the C5 job's UnsupportedCase included, is the same
    seen = set()
    for name, text in _stage_3_jobs():
        job = parse_job(text)
        pg = cli._point_group(job)
        for group in [pg, *(MatrixGroup([g]) for g in pg.generators)]:
            lines = _outcome(invariant_lines_abelian, job.pencil, group)
            assert lines == _outcome(_lines_of_entries, job.pencil, group), (name, group.labels)
            fixed = _outcome(fixed_points_on_X, job.pencil, group)
            assert fixed == _outcome(_fixed_points_of_entries, job.pencil, group), (name, group.labels)
            for got in (lines, fixed):
                seen.add(got[0].__name__ if type(got) is tuple else type(got).__name__)
            if type(lines) is LineSearchReport:
                seen.update(("lines",) * bool(lines.lines) + ("families",) * bool(lines.families))
            if type(fixed) is FixedOnX:
                seen.update(("points",) * bool(fixed.points) + ("lines_on_x",) * bool(fixed.lines_on_x))
    assert {"NotAbelian", "UnsupportedCase", "lines", "families", "points"} <= seen


def test_line_search_multiplies_no_cycnum_in_pencils(monkeypatch):
    job = parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text())
    gamma = MatrixGroup([g for g in cli._point_group(job).generators if g[0] == "gamma"])
    want = invariant_lines_abelian(job.pencil, gamma)  # warms the caches
    assert len(want.lines) == 2
    calls = {}
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def spy(a, b, real=getattr(CycNum, name), name=name):
            caller = sys._getframe(1).f_code.co_filename
            calls.setdefault(Path(caller).name, []).append(name)
            return real(a, b)

        monkeypatch.setattr(CycNum, name, spy)
    assert invariant_lines_abelian(job.pencil, gamma) == want
    assert calls.get("binforms.py")  # the square roots of quadratic_roots still make CycNum
    assert "pencils.py" not in calls, calls["pencils.py"]


def _walk(value, schema, path):
    """Check value against a schema of the table, down to its leaves."""
    if type(schema) is str:
        schema = SCHEMA[schema]
    if type(schema) is _OneOf:
        schema = _choose(value, schema.options, path)
    kind = _kind(schema)
    if type(value) is not kind:
        raise SchemaError(f"expected {_NAMES[kind]}", path)
    shape = type(schema)
    if shape is set:
        _expect(value in schema, "expected one of " + ", ".join(map(repr, sorted(schema))), path)
    elif shape is list:
        for k, x in enumerate(value):
            _walk(x, schema[0], f"{path}[{k}]")
    elif shape is tuple:
        _expect(len(value) == len(schema), f"expected an array of {len(schema)} entries", path)
        for k, x in enumerate(value):
            _walk(x, schema[k], f"{path}[{k}]")
    elif shape is dict and str in schema:
        for key, x in value.items():
            _walk(x, schema[str], f"{path}.{key}")
    elif shape is dict:
        for key in schema:
            _expect(key[-1] == "?" or key in value, f"missing '{key}'", path)
        for key, x in value.items():
            # '?' marks an optional key of the table, never of the input
            sub = None if key[-1:] == "?" else schema.get(key) or schema.get(key + "?")
            if sub is None:
                allowed = ", ".join(k.rstrip("?") for k in schema)
                raise SchemaError(f"unknown key; allowed: {allowed}", f"{path}.{key}")
            _walk(x, sub, f"{path}.{key}")


def _choose(value, options, path):
    """The alternative that value is checked against (see the module docstring)."""
    for option in options:
        kind = _kind(option)
        if type(value) is kind and (kind is not dict or next(iter(option)) in value):
            return option
    what = [f"an object with '{next(iter(o))}'" if type(o) is dict else _NAMES[_kind(o)] for o in options]
    raise SchemaError("expected " + " or ".join(what), path)


def _schema_outcome(check, obj, kind):
    try:
        check(obj, kind, "$")
    except SchemaError as exc:
        return str(exc)
    return None


def _schema_inputs():
    """(SCHEMA kind, input) of the report fixtures 7.3 and 7.5, one
    sign_groups job, the dP4 fixture and the 7.4 lift input."""
    fixture = _digest_tool().workloads.load_fixture
    import workloads  # on the path once the tool is loaded

    (_, sign_job, _), *_ = workloads.sign_round(workloads.seeded_rng("sign_groups", 0))
    return [("job", fixture("example_7_3.json")), ("job", fixture("example_7_5.json")), ("job", json.loads(sign_job)),
            ("dp4 input", fixture("example_dp4_involutions.json")), ("lift input", fixture("example_7_4.json"))]


def test_compiled_checkers_refuse_as_the_schema_walk_did():
    tool = _digest_tool()
    inputs = _schema_inputs()
    # a value of each JSON kind, a short and a long array, a rational pair
    # with a zero denominator, a table key and keys that only the table may end in '?'
    replacements = tool.REPLACEMENTS + (0, -1, "identity", [1], [1, 0], [1, 2, 3], ["a", 1], [[1]], {"order": 1})
    keys = ("unexpected", "g?", "label?", "", "g", "target", "matrix")
    rng = random.Random("compiled checkers")
    refused = 0
    for _ in range(4000):
        kind, obj = rng.choice(inputs)
        obj = tool.mutated(obj, rng, replacements, keys)
        want = _schema_outcome(_walk, obj, kind)
        assert _schema_outcome(jsonio._checked, json.dumps(obj), kind) == want, obj
        refused += want is not None
    assert refused > 3000
    full = json.loads((resources.files("twoquadrics") / "fixtures" / "example_7_5_full.json").read_text())
    pencil = full["pencil"]
    hand = [
        (dict(full, pencil=dict(pencil, g=True)), "$.pencil.g: expected an integer"),
        (dict(full, pencil=dict(pencil, **{"g?": 2})), "$.pencil.g?: unknown key; allowed: diag1, diag2, g"),
        (dict(full, generators=[{"label": "h"}]), "$.generators[0]: expected an object with 'matrix' or an object with 'moebius'"),
        (dict(full, pencil=dict(pencil, diag1=[True] * 6)), "$.pencil.diag1[0]: expected an integer or an array or an object with 'order'"),
        (dict(full, branch={"roots": [[1, 0, 1]]}), "$.branch.roots[0]: expected an array of 2 entries"),
        (dict(full, relations=[{"word": [["gamma", 8]], "target": "central"}]),
         "$.relations[0].target: expected one of 'identity', 'scalar'"),
        # every missing key, in table order, before an unknown one
        ({"generators": [], "unexpected": 1}, "$: missing 'pencil'"),
        ({"pencil": {"diag1": [1], "g?": 1}}, "$.pencil: missing 'diag2'"),
    ]
    for obj, want in hand:
        assert _schema_outcome(_walk, obj, "job") == want
        assert _schema_outcome(jsonio._checked, json.dumps(obj), "job") == want


def test_integer_rows_are_their_own_entries(monkeypatch):
    rows = [[(-1) ** (i + j) * (i == j or j == 5) for j in range(6)] for i in range(6)]
    general = _rows_of([[Fraction(x, 1) if (i, j) == (0, 0) else x for j, x in enumerate(row)] for i, row in enumerate(rows)])
    assert _rows_of(rows) == general == (1, 1, rows)
    want = Mat([[Fraction(x) for x in row] for row in rows])
    calls = []
    monkeypatch.setattr(matrices, "_value", lambda x: calls.append(x))
    assert Mat(rows).key() == want.key()
    assert calls == []


def test_a_second_job_compiles_no_checker(monkeypatch):
    text = (resources.files("twoquadrics") / "fixtures" / "example_7_5_full.json").read_text()
    compiled = []

    def spy(schema, real=jsonio._compile):
        compiled.append(schema)
        return real(schema)

    monkeypatch.setattr(jsonio, "_compile", spy)
    jsonio._checker.cache_clear()
    parse_job(text)
    assert "cycnum" in compiled and SCHEMA["cycnum"] in compiled
    compiled.clear()
    parse_job(text)
    assert compiled == []


def test_an_order_entry_is_the_cycnum_of_its_fractions():
    # the reference is the old reading, CycNum(order, [Fraction(n, d), ...]):
    # the same (order, num, den), an order-1 entry as an int or a Fraction;
    # each numerator is any int, a multiple of its denominator, or 0
    rng = random.Random(33)
    dens = (-12, -7, -2, -1, 1, 2, 3, 4, 6, 9, 12, 35)
    rational = set()
    for order in (1, 3, 4, 8, 24, 60):
        for _ in range(60):
            coeffs = [[rng.choice((rng.randint(-40, 40), d * rng.randint(-5, 5), 0)), d]
                      for d in (rng.choice(dens) for _ in range(euler_phi(order)))]
            got = jsonio._number({"order": order, "coeffs": coeffs})
            want = CycNum(order, [Fraction(n, d) for n, d in coeffs])
            assert type(got) in ((int, Fraction) if order == 1 else (CycNum,)), coeffs
            assert matrices._value(got) == (want.order, want.num, want.den), (order, coeffs)
            if order == 1:
                rational.add((type(got), coeffs[0][1] < 0, want.den == 1))
    assert {(int, False, True), (Fraction, True, False), (Fraction, True, True)} <= rational


def test_parsing_a_job_makes_no_cycnum_from_fractions(monkeypatch):
    made = _counted(monkeypatch, CycNum, "__new__")
    parse_job((resources.files("twoquadrics") / "fixtures" / "example_7_5.json").read_text())
    assert made == []
