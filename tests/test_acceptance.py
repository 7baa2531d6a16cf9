"""Acceptance suite: each test prints one pass/fail line.

Every numbered criterion reproduces an explicit computation exactly, with
no numerical tolerance anywhere.
"""

import random
from fractions import Fraction
from importlib import resources

from twoquadrics.binforms import root_images
from twoquadrics.cli import run_report
from twoquadrics.cyclo import CycNum, ONE, ZERO, imaginary_unit, zeta
from twoquadrics.dp4 import (
    SignedPerm,
    conjugate_in_WD5,
    intersection,
    invariant_lines,
    lattice_h1,
    line_permutation,
    lines16,
    orbits,
    pic_action,
    wd5_elements,
)
from twoquadrics.groups import (
    MatrixGroup,
    Relation,
    breadth_first,
    projective_fixed_locus,
    scalar_lift_search,
    verify_relations,
)
from twoquadrics.jsonio import parse_job
from twoquadrics.matrices import (
    Mat,
    Subspace,
    eigenspaces_finite_order,
    operator_order,
)
from twoquadrics.pencils import (
    degeneracy_form,
    equivariance,
    fixed_points_on_X,
    invariant_lines_abelian,
    is_smooth,
    proj_point_equal,
)
from twoquadrics.smith import smith_normal_form
from twoquadrics.torsion import (
    TorsionClass,
    excess_identity,
    fixed_classes,
    section_count_identity,
)

i = imaginary_unit()
ALPHA = zeta(8, 3)


def _fixture(name):
    return (resources.files("twoquadrics") / "fixtures" / name).read_text()


def _check(num, desc, fn):
    try:
        fn()
    except Exception:
        print(f"[acceptance {num:02d}] FAIL - {desc}")
        raise
    print(f"[acceptance {num:02d}] PASS - {desc}")


def _job75():
    return parse_job(_fixture("example_7_5.json"))


def _gamma(job):
    (_, g) = job.group.generators[0]
    return g


def _fixed_points():
    job = _job75()
    pg = MatrixGroup([("gamma", _gamma(job).inverse().transpose())])
    return job, pg, [
        [0, 1, ALPHA**7, ALPHA**6, ALPHA**5, 0],
        [0, 1, ALPHA**3, ALPHA**6, ALPHA, 0],
        [2 * i, 1, ALPHA, ALPHA**2, ALPHA**3, 0],
        [-2 * i, 1, ALPHA, ALPHA**2, ALPHA**3, 0],
    ]


def test_acceptance_01_pencil_degeneracy():
    def body():
        job = _job75()
        f = degeneracy_form(job.pencil)
        # the factors t1, t2, t1 + t2, -t1 + t2, i t1 + t2 and -i t1 + t2, where
        # (t1 + t2)(-t1 + t2)(i t1 + t2)(-i t1 + t2) = t2^4 - t1^4
        prod = [ZERO, -ONE, ZERO, ZERO, ZERO, ONE, ZERO]  # t1 t2 (t2^4 - t1^4)
        lead = next(c for c in f.coeffs if not c.is_zero())
        plead = next(c for c in prod if not c.is_zero())
        scale = plead * lead.inverse()
        assert [scale * c for c in f.coeffs] == prod
        assert is_smooth(job.pencil)
        # root set in lambda = t2/t1: {0, oo, 1, i, -1, -i}
        lams = set()
        for (u, v) in zip(*job.branch.points.entries):
            lams.add("oo" if u.is_zero() else (v * u.inverse()).key())
        assert lams == {"oo"} | {x.key() for x in
                                 (ZERO, ONE, i, -ONE, -i)}

    _check(1, "degeneracy form factors, smoothness, branch roots", body)


def test_acceptance_02_equivariance():
    def body():
        job = _job75()
        g = _gamma(job)
        assert equivariance(job.pencil, g) == Mat([[-i, ZERO], [ZERO, ONE]])
        assert operator_order(g).order == 8
        assert g**4 == Mat.diagonal([-1, -1, -1, -1, -1, 1])

    _check(2, "gamma equivariance diag(-i,1), order 8, fourth power", body)


def test_acceptance_03_eigen_analysis():
    def body():
        job, pg, pts = _fixed_points()
        spaces = {lam.key(): s for lam, s in
                  eigenspaces_finite_order(_gamma(job).inverse().transpose())}
        expect = {ONE: 1, ALPHA: 1, ALPHA**3: 1, ALPHA**5: 1, ALPHA**7: 2}
        assert {k: s.dim for k, s in spaces.items()} == {
            lam.key(): d for lam, d in expect.items()
        }
        quadrics = (job.pencil.q1, job.pencil.q2)
        for lam, on_x in ((ONE, False), (ALPHA, True),
                          (ALPHA**3, False), (ALPHA**5, True)):
            v = Mat([spaces[lam.key()].basis[0]])
            assert all(v * q * v.transpose() == Mat([[0]]) for q in quadrics) == on_x
        on_x = [spaces[lam.key()].basis[0] for lam in (ALPHA, ALPHA**5)]
        p1, p2, p3, p4 = [[CycNum._coerce(x) for x in p] for p in pts]
        assert any(proj_point_equal(tuple(v), tuple(p1)) for v in on_x)
        assert any(proj_point_equal(tuple(v), tuple(p2)) for v in on_x)
        plane = spaces[(ALPHA**7).key()]
        restricted = job.pencil.q2
        r2 = [[sum(restricted.entries[a][b] * u[a] * w[b]
                   for a in range(6) for b in range(6))
               for w in plane.basis] for u in plane.basis]
        assert all(x.is_zero() for row in r2 for x in row)
        for p in (p3, p4):
            assert plane.intersect(Subspace(6, [p])).dim == 1
            assert all(Mat([p]) * q * Mat([p]).transpose() == Mat([[0]]) for q in quadrics)
        fx = fixed_points_on_X(job.pencil, pg)
        assert len(fx.points) == 4
        for p in (p1, p2, p3, p4):
            assert any(proj_point_equal(tuple(p), q) for q in fx.points)

    _check(3, "contragredient eigenspaces, memberships, isotropic plane", body)


def test_acceptance_04_invariant_lines():
    def body():
        job, pg, pts = _fixed_points()
        rep = invariant_lines_abelian(job.pencil, pg)
        assert rep.complete and len(rep.lines) == 2
        _, p2, p3, p4 = [[CycNum._coerce(x) for x in p] for p in pts]
        assert Subspace(6, [p2, p3]) in rep.lines
        assert Subspace(6, [p2, p4]) in rep.lines
        verdict = run_report(job)
        assert verdict["status"] == "LINEARIZABLE_CERTIFIED"

    _check(4, "exactly the two invariant lines; verdict certified", body)


def test_acceptance_05_branch_permutation():
    def body():
        job = _job75()
        perm = root_images(job.branch, equivariance(job.pencil, _gamma(job)))
        assert perm[0] == 1 and perm[1] == 2
        # a single 4-cycle on labels 3..6, matching (3456) up to inverse
        assert perm in ((1, 2, 4, 5, 6, 3), (1, 2, 6, 3, 4, 5))
        assert perm == (1, 2, 4, 5, 6, 3)

    _check(5, "gamma branch permutation is the 4-cycle on b3..b6", body)


def test_acceptance_06_theta_obstruction():
    def body():
        four = (1, 2, 4, 5, 6, 3)  # (3 4 5 6)
        fixed = fixed_classes([four], "odd", 2)
        assert fixed == [TorsionClass(2, (1,)), TorsionClass(2, (2,))]
        swap = (3, 5, 1, 6, 2, 4)  # (1 3)(2 5)(4 6)
        assert fixed_classes([four, swap], "odd", 2) == []
        verdict = run_report(parse_job(_fixture("example_7_5_full.json")))
        assert verdict["status"] == "OBSTRUCTED"
        assert any(e.get("fixed_odd_classes") == [] for e in verdict["evidence"])

    _check(6, "theta fixed classes and the surjective-action obstruction", body)


def test_acceptance_07_free_two_torsion():
    def body():
        job = parse_job(_fixture("example_7_3.json"))
        assert Mat.diagonal([1, 1, 1, 1, -1, -1]).minus_count() == 2
        verdict = run_report(job)
        assert verdict["status"] == "OBSTRUCTED"
        witness = [e for e in verdict["evidence"] if e.get("free_two_torsion")]
        assert witness and witness[0]["witness_word"]
        signs = witness[0]["sign_vector"]
        assert min(signs.count(-1), signs.count(1)) == Mat.diagonal(signs).minus_count() == 2

    _check(7, "free two-torsion translation classified and witnessed", body)


def test_acceptance_08_involution_pairs():
    def body():
        pair = SignedPerm((1, 2, 3, 4, 5), (-1, -1, -1, -1, 1))
        lines = lines16()
        lp = line_permutation(pair)
        assert invariant_lines(pair) == []
        assert all(
            intersection(lines[k][0], lines[lp[k]][0]) == 1 for k in range(16)
        )
        assert lattice_h1(pic_action(pair), 2) == (2, 2)
        disjoint = SignedPerm((1, 2, 3, 4, 5), (1, 1, 1, -1, -1))
        lpd = line_permutation(disjoint)
        assert invariant_lines(disjoint) == []
        assert all(
            intersection(lines[k][0], lines[lpd[k]][0]) == 0 for k in range(16)
        )
        assert sorted(len(o) for o in orbits([disjoint])) == [2] * 8
        assert lattice_h1(pic_action(disjoint), 2) == ()

    _check(8, "pair/disjoint involutions: meeting pattern and H^1", body)


def test_acceptance_09_wd5_order_four():
    def body():
        m1 = SignedPerm((1, 3, 4, 5, 2), (1, 1, 1, -1, -1))
        m2 = SignedPerm((1, 3, 4, 5, 2), (1, 1, 1, 1, 1))
        m3 = SignedPerm((1, 3, 4, 5, 2), (1, -1, -1, -1, -1))
        # the displayed action table, columns = images of L, E1..E5
        table = {
            "L": (2, -1, 0, -1, -1, 0),
            "E1": (1, 0, 0, -1, -1, 0),
            "E2": (1, -1, 0, 0, -1, 0),
            "E3": (1, -1, 0, -1, 0, 0),
            "E4": (0, 0, 1, 0, 0, 0),
            "E5": (0, 0, 0, 0, 0, 1),
        }
        a = pic_action(m1)
        for c, name in enumerate(("L", "E1", "E2", "E3", "E4", "E5")):
            assert tuple(a.data[r][c] for r in range(6)) == table[name]
        # the table itself moves the conic class to L - E2 - E5, so the
        # invariant lines are E5 and L - E1 - E5
        conic = (2, -1, -1, -1, -1, -1)
        img = tuple(
            sum(a.data[r][c] * conic[c] for c in range(6)) for r in range(6)
        )
        assert img == (1, 0, -1, 0, 0, -1)
        assert sorted(invariant_lines(m1)) == sorted(
            [(0, 0, 0, 0, 0, 1), (1, -1, 0, 0, 0, -1)]
        )
        for x, y in ((m1, m2), (m1, m3), (m2, m3)):
            ok, wit = conjugate_in_WD5(x, y)
            assert ok and wit * x * wit.inverse() == y
        gamma1 = SignedPerm((1, 4, 5, 2, 3), (1, 1, 1, -1, -1))
        expected_orbits = [(0, 9, 14, 15), (1, 4, 5, 8), (2, 3, 6, 7),
                          (10, 11, 12, 13)]
        assert sorted(orbits([gamma1])) == expected_orbits
        # each order-four element, by cycle type, and whether it fixes a line
        order4 = [s for s in wd5_elements() if s.order() == 4]
        fixes = {t: [bool(invariant_lines(s)) for s in order4 if s.cycle_type() == t] for t in ((4, 1), (2, 2, 1))}
        assert len(fixes[(4, 1)]) == 240 and all(fixes[(4, 1)])
        assert gamma1.order() == 4 and gamma1.cycle_type() == (2, 2, 1)
        assert fixes[(2, 2, 1)] and not any(fixes[(2, 2, 1)])

    _check(9, "W(D5) order-four elements: action table, orbits, conjugacy", body)


def test_acceptance_10_identities():
    def body():
        rows = {1: (4, 4), 2: (16, 15), 3: (64, 56), 4: (256, 210)}
        for g in range(1, 7):
            r = section_count_identity(g)
            assert r["equal"]
            if g in rows:
                assert (r["lhs"], r["main"]) == rows[g]
        for g in range(2, 9):
            e = excess_identity(g)
            assert e["equal"]
            assert e["closed"] == Fraction(3**g - 2 * g - 1, 4)

    _check(10, "section count and excess identities, exact", body)


def test_acceptance_11_lifting():
    def body():
        # V: order 24, exact relations, tau sigma tau^-1 sigma = -I
        sv = Mat.diagonal([zeta(6), zeta(6, 2)])
        tv = Mat([[ZERO, -ONE], [-ONE, ZERO]])
        v = MatrixGroup(
            [("sigma", sv), ("tau", tv)], named={"iota": Mat.diagonal([-1, -1])}
        )
        rels = [
            Relation((("sigma", 6),), "identity"),
            Relation((("tau", 2),), "identity"),
            Relation(
                (("tau", 1), ("sigma", 1), ("tau", -1), ("sigma", 1)),
                ("central", "iota"),
            ),
        ]
        assert len(list(breadth_first(v, 100))) == 24
        assert all(r.holds for r in verify_relations(v, rels))
        klein = MatrixGroup(
            [("a", Mat.diagonal([1, -1])), ("b", Mat([[ZERO, ONE], [ONE, ZERO]]))]
        )
        assert not projective_fixed_locus(klein)
        krels = [
            Relation((("a", 2),), "identity"),
            Relation((("b", 2),), "identity"),
            Relation((("a", 1), ("b", 1), ("a", -1), ("b", -1)), "identity"),
        ]
        for m in range(1, 9):
            assert "obstruction" in scalar_lift_search(klein, krels, m)
        # no fixed points on P(V tensor W)
        sw = Mat([[ZERO, ONE], [ONE, ZERO]])
        half = (zeta(8) + zeta(8, 7)).inverse()
        tw = Mat([[-half, half], [half, half]])
        w = MatrixGroup(
            [("sigma", sw), ("tau", tw)],
            named={"iota": Mat([[ZERO, i], [-i, ZERO]])},
        )
        vw = MatrixGroup([(lab, Mat([[x * y for x in ra for y in rb] for ra in m.entries for rb in w.generator(lab).entries]))
                          for lab, m in v.generators])  # generator-wise Kronecker products
        assert not projective_fixed_locus(vw)

    _check(11, "order-24 closure, Klein obstruction, no fixed points", body)


def test_acceptance_12_property_suites():
    def body():
        rng = random.Random(29)

        def rand_cyc():
            order = rng.choice([1, 3, 4, 5, 8, 12])
            from twoquadrics.cyclo import euler_phi

            return CycNum(
                order,
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for _ in range(euler_phi(order))
                ],
            )

        for _ in range(1000):
            a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == ONE

        def monomial_conjugate(n=4):
            perm = list(range(n))
            rng.shuffle(perm)
            mono = [[ZERO] * n for _ in range(n)]
            for j in range(n):
                mono[perm[j]][j] = zeta(12, rng.randrange(12))
            u = Mat.identity(n)
            for _ in range(3):
                x, y = rng.sample(range(n), 2)
                e = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
                e[x][y] = ONE * rng.choice([1, -1])
                u = u * Mat(e)
            return u * Mat(mono) * u.inverse()

        for _ in range(50):
            m = monomial_conjugate()
            spaces = eigenspaces_finite_order(m)
            assert sum(s.dim for _, s in spaces) == 4
            for lam, s in spaces:
                for vec in s.basis:
                    assert m.apply(vec) == tuple(lam * x for x in vec)

        lines = lines16()
        for a_idx in range(16):
            for b_idx in range(16):
                dist = sum(
                    1
                    for x, y in zip(lines[a_idx][1], lines[b_idx][1])
                    if x != y
                )
                assert intersection(
                    lines[a_idx][0], lines[b_idx][0]
                ) == ((dist - 2) // 2 if a_idx != b_idx else -1)

        # pic_action re-asserts form preservation internally
        for s in wd5_elements():
            pic_action(s)

        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = Mat(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            d, u, vmat = smith_normal_form(a)
            assert u * a * vmat == d

    _check(12, "field axioms, eigenspaces, Hamming, W(D5), SNF suites", body)
