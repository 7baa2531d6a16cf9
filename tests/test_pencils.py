import pytest

from twoquadrics.binforms import BinaryForm, checked_roots, quadratic_roots, root_images
from twoquadrics.cyclo import CycNum, ONE, ZERO, imaginary_unit, zeta
from twoquadrics.errors import NotAbelian, NotASymmetry
from twoquadrics.groups import MatrixGroup
from twoquadrics.matrices import Mat, Subspace
from twoquadrics.pencils import (
    Pencil,
    degeneracy_form,
    equivariance,
    fixed_points_on_X,
    invariant_lines_abelian,
    is_smooth,
    proj_point_equal,
    _common_roots,
    _isotropic_points,
    _point,
)

i = imaginary_unit()
O, I1 = ZERO, ONE


def generic_diagonal(g=2):
    n = 2 * g + 2
    return Pencil.from_diagonals(g, [1] * n, list(range(n)))


def test_degeneracy_diagonal_product():
    p = generic_diagonal()
    f = degeneracy_form(p)
    # the product of (t1 + k t2) for k = 0..5: the coefficient of t1^(6-j) t2^j
    # is the j-th elementary symmetric function of 0, ..., 5
    assert f.coeffs == (1, 15, 85, 225, 274, 120, 0)
    assert is_smooth(p)


def test_degenerate_pencils():
    with pytest.raises(ValueError, match="linearly independent"):
        Pencil.from_diagonals(2, [1] * 6, [1] * 6)  # Q1 = Q2
    r = Pencil.from_diagonals(2, [1] * 6, [0, 0, 2, 3, 4, 5])  # repeated root
    assert not is_smooth(r)


def test_equivariance_identity_and_signs():
    p = generic_diagonal()
    assert equivariance(p, Mat.identity(6)) == Mat([[ONE, ZERO], [ZERO, ONE]])
    assert equivariance(p, Mat.diagonal([1, -1, 1, -1, 1, -1])) == Mat([[ONE, ZERO], [ZERO, ONE]])


def test_equivariance_rejects_non_symmetry():
    p = generic_diagonal()
    shear = Mat([[ONE if r == c else (ONE if (r, c) == (0, 1) else ZERO) for c in range(6)] for r in range(6)])
    with pytest.raises(NotASymmetry):
        equivariance(p, shear)


def test_equivariance_refuses_a_singular_action():
    # parse_job refuses singular generators and dependent pencils first, so only library callers reach this guard
    with pytest.raises(NotASymmetry, match="induced 2x2 action is singular"):
        equivariance(generic_diagonal(), Mat([[0] * 6] * 6))


def test_branch_permutation_identity():
    p = generic_diagonal()
    f = degeneracy_form(p)
    # roots of t1 + k t2: (k, -1) up to scale, and (0, 1) for k = 0
    roots = tuple(((k * ONE, -ONE) if k else (ZERO, ONE)) for k in range(6))
    assert root_images(checked_roots(f, roots), equivariance(p, Mat.identity(6))) == (1, 2, 3, 4, 5, 6)


def test_fixed_points_diagonal_involution():
    p = generic_diagonal()
    g = MatrixGroup([("s", Mat.diagonal([1, 1, 1, 1, -1, -1]))])
    fx = fixed_points_on_X(p, g)
    assert len(fx.points) == 0
    assert [s.dim - 1 for s in fx.curves] == [3]


def test_invariant_lines_requires_abelian():
    p = generic_diagonal()
    a = Mat.diagonal([1, -1, 1, 1, 1, 1])
    perm = [[O] * 6 for _ in range(6)]
    order = [1, 0, 2, 3, 4, 5]
    for j, r in enumerate(order):
        perm[r][j] = I1
    g = MatrixGroup([("a", a), ("b", Mat(perm))])
    with pytest.raises(NotAbelian):
        invariant_lines_abelian(p, g)


def test_invariant_lines_trivial_group_family():
    p = generic_diagonal()
    g = MatrixGroup([("e", Mat.identity(6))])
    rep = invariant_lines_abelian(p, g)
    assert not rep.lines
    assert not rep.complete
    assert rep.families[0]["dimension"] == 6


def test_minus_count_of_sign_vectors():
    # min(n+, n-), the canonical minus-count k <= g+1, in any coordinates:
    # k = 2 is the free two-torsion translation, k = 1 fixes a hyperplane section
    u = Mat([[int(j in (i, i + 1)) for j in range(6)] for i in range(6)])
    cases = [([1, 1, 1, 1, -1, -1], 2), ([1, 1, 1, 1, 1, -1], 1), ([-1, -1, -1, -1, -1, 1], 1), ([1, -1, 1, -1, 1, -1], 3)]
    for signs, k in cases:
        m = Mat.diagonal(signs)
        assert m.minus_count() == k
        assert (u * m * u.inverse()).minus_count() == k
        assert (m * zeta(8)).minus_count() == k


def test_free_element_maps_case_ii_lines_without_fixing_points():
    # the k=2 element acts as -1 on one factor of any line spanned by
    # eigenlines of opposite sign, so such a line is never fixed pointwise
    p = generic_diagonal()
    m = Mat.diagonal([1, 1, 1, 1, -1, -1])
    g = MatrixGroup([("s", m)])
    rep = invariant_lines_abelian(p, g)
    for line in rep.lines:
        imgs = [m.apply(v) for v in line.basis]
        assert line == Subspace(6, imgs)
        fixed_pointwise = all(
            proj_point_equal(tuple(v), tuple(m.apply(v))) for v in line.basis
        )
        assert not fixed_pointwise


def _rotation_pencil_and_group():
    # J+J+I with J = [[0, -1], [1, 0]]: eigenvalue 1 on span(e4, e5), +-i on
    # one isotropic plane each
    p = Pencil.from_diagonals(2, [1] * 6, [1, 1, 2, 2, 3, 3])
    m = [[O] * 6 for _ in range(6)]
    for a in (0, 2):
        m[a][a + 1] = -I1
        m[a + 1][a] = I1
    m[4][4] = m[5][5] = I1
    return p, MatrixGroup([("r", Mat(m))])


def test_fixed_points_of_rotation_pair():
    p, g = _rotation_pencil_and_group()
    fx = fixed_points_on_X(p, g)
    assert not fx.curves
    assert len(fx.lines_on_x) == 2
    assert len(fx.points) == 2
    for sign in (ONE, -ONE):
        e = (O, O, O, O, I1, sign * i)
        assert sum(proj_point_equal(e, pt) for pt in fx.points) == 1
    for line in fx.lines_on_x:
        b = Mat(line.basis)
        assert all(b * q * b.transpose() == Mat([[0, 0], [0, 0]]) for q in (p.q1, p.q2))


def test_a_restricted_form_is_read_in_its_own_field():
    # Q2 has a zeta5 entry, but on the fixed plane span(e0, e1) of g it is
    # u² + 2v², and Q1 vanishes there: the points (±sqrt(-2) : 1) lie in
    # Q(zeta8).  Read in the field of Q2 and the plane, lcm(5, 24) = 120, the
    # square root was refused (phi(120) = 32); read in the field of the
    # restricted Gram, Q(zeta24) is searched and holds it.
    p = Pencil.from_diagonals(2, [0, 0, 1, 1, 1, 1], [1, 2, zeta(5), 1, 2, 3])
    g = MatrixGroup([("g", Mat.diagonal([1, 1, -1, -1, -1, -1]))])
    fx = fixed_points_on_X(p, g)
    assert [c.dim for c in fx.curves] == [4] and not fx.lines_on_x
    root = 2 * (zeta(8) + zeta(8) ** 3)  # 2 sqrt(-2)
    assert root * root == -8
    assert len(fx.points) == 2
    for sign in (ONE, -ONE):
        assert sum(proj_point_equal((sign * root, 2 * I1, O, O, O, O), pt) for pt in fx.points) == 1
    assert all(Mat([pt]) * q * Mat([pt]).transpose() == Mat([[0]]) for pt in fx.points for q in (p.q1, p.q2))


def test_invariant_lines_of_rotation_pair():
    p, g = _rotation_pencil_and_group()
    rep = invariant_lines_abelian(p, g)
    assert len(rep.lines) == 2
    assert len(rep.families) == 5
    assert all(f["reason"] == "isotropic directions form a family" for f in rep.families)
    assert not rep.complete


def test_reflection_character_space_is_a_del_pezzo_section():
    p = generic_diagonal()
    g = MatrixGroup([("s", Mat.diagonal([1, 1, 1, 1, 1, -1]))])
    rep = invariant_lines_abelian(p, g)
    assert not rep.lines
    assert [f.get("count") for f in rep.families] == [16]
    assert rep.families[0]["dimension"] == 5


def test_polar_conditions_come_from_both_quadrics():
    # Q1 = x0² - x1² has no term across the eigenspaces span(e0, e1) and
    # span(e2, e3) of h, Q2 = 2 (x0 x2 + x1 x3) only such terms: at the points
    # e0 ± e1 on X, Q1's polar conditions on span(e2, e3) vanish and Q2's
    # pick e2 ∓ e3, while span(e2, e3) lies on X, so the condition of Q1
    # alone would leave a family
    q2 = Mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    p = Pencil(1, Mat.diagonal([1, -1, 0, 0]), q2)
    rep = invariant_lines_abelian(p, MatrixGroup([("h", Mat.diagonal([1, 1, -1, -1]))]))
    assert rep.complete
    assert set(rep.lines) == {
        Subspace(4, [[O, O, I1, O], [O, O, O, I1]]),
        Subspace(4, [[I1, I1, O, O], [O, O, I1, -I1]]),
        Subspace(4, [[I1, -I1, O, O], [O, O, I1, I1]]),
    }


def bf(*coeffs):
    return BinaryForm(len(coeffs) - 1, coeffs)


def test_common_roots():
    def common_by_evaluation(f, g):
        roots = []
        for r in quadratic_roots(*f.coeffs):
            if g.evaluate(*r).is_zero() and not any(proj_point_equal(r, s) for s in roots):
                roots.append(r)
        return roots

    t1sq, t2sq = bf(I1, O, O), bf(O, O, I1)
    cases = [
        (bf(I1, O, -I1), bf(I1, -2 * I1, I1), 1),  # t1² - t2², (t1 - t2)²: (1 : 1)
        (t1sq, bf(I1, I1, O), 1),  # t1², t1 (t1 + t2): (0 : 1)
        (t1sq, t2sq, 0),  # the squares of the coprime t1 and t2
        (bf(I1, O, 4 * I1), bf(I1, 3 * I1, 2 * I1), 0),  # coprime: roots (±2i : 1) and (1 : -1), (2 : -1)
        (bf(O, I1, -I1), bf(O, 2 * I1, I1), 1),  # t2 (t1 - t2), t2 (2 t1 + t2): (1 : 0)
        (bf(2 * I1, O, -8 * I1), bf(i, O, -4 * i), 2),  # proportional
    ]
    for f, g, count in cases:
        got = _common_roots(f, g)
        assert len(got) == count
        for r in got:
            assert f.evaluate(*r).is_zero() and g.evaluate(*r).is_zero()
        want = common_by_evaluation(f, g)
        assert len(want) == count
        assert all(any(proj_point_equal(r, s) for s in got) for r in want)
    # representatives: the root at (0 : 1) is (0, -1), and proportional forms
    # give the roots of the second form divided by its last coefficient
    assert _common_roots(t1sq, bf(I1, I1, O)) == [(O, -I1)]
    f, g = bf(2 * I1, O, -8 * I1), bf(i, O, -4 * i)
    last = (-4 * i).inverse()
    assert _common_roots(f, g) == quadratic_roots(*(c * last for c in g.coeffs))


def _isotropic(pencil, space, extra_points=()):
    """_isotropic_points on a subspace, with the polar conditions of extra
    points, as vectors."""
    quadrics, b = (pencil.q1, pencil.q2), Mat(space.basis)
    polars = [(Mat([e]) * q * b.transpose()).entries[0] for e in extra_points for q in quadrics]
    pts = _isotropic_points([b * q * b.transpose() for q in quadrics], Mat(polars) if polars else None)
    return None if pts is None else [_point(c, space.basis) for c in pts]


def test_isotropic_points_with_an_extra_point():
    # X contains the line through e0 + e1 and e2 + e3; on it, the polar
    # conditions of p are (p0 - p1) u + (p2 - p3) v and (p0 - p1) u + 2 (p2 - p3) v
    p = Pencil.from_diagonals(1, [1, -1, 1, -1], [1, -1, 2, -2])
    line = Subspace(4, [[I1, I1, O, O], [O, O, I1, I1]])
    assert _isotropic(p, line) is None
    assert _isotropic(p, line, extra_points=((I1, I1, O, O),)) is None  # all zero
    pts = _isotropic(p, line, extra_points=((I1, O, O, O),))  # proportional
    assert len(pts) == 1 and proj_point_equal(pts[0], (O, O, I1, I1))
    assert _isotropic(p, line, extra_points=((I1, O, I1, O),)) == []  # contradictory
    # off a line on X the extra point picks among the isotropic points:
    # Q1 = Q2 = u² - v² on span(e0, e1), isotropic at e0 ± e1
    plane = Subspace(4, [[I1, O, O, O], [O, I1, O, O]])
    both = _isotropic(p, plane)
    assert len(both) == 2
    assert _isotropic(p, plane, extra_points=((O, O, I1, O),)) == both  # all zero
    pts = _isotropic(p, plane, extra_points=((I1, I1, O, O),))  # proportional
    assert len(pts) == 1 and proj_point_equal(pts[0], (I1, I1, O, O))
    assert _isotropic(p, plane, extra_points=((I1, I1, O, O), (I1, -I1, O, O))) == []  # contradictory
