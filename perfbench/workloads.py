"""Seeded job generators and output checks for the three benchmark workloads.

Everything here works on JSON text and plain Python numbers; nothing imports
the package under test.  Expected outputs are either invariants of the shipped
fixtures (constants below) or are computed here from the generated data, so a
job is checked against a value that is known without running the program.

Workloads:

* ``paper_jobs``: the genus-2 report fixtures 7.3, 7.5 and 7.5 full, each
  under a fresh seeded change of coordinates and of pencil basis.
* ``sign_groups``: random smooth diagonal genus-2 pencils with branch data and
  a group generated by diagonal +-1 matrices.
* ``subcommands``: every CLI subcommand except ``report`` on job files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "twoquadrics" / "fixtures"

# -- a small exact cyclotomic scalar, independent of the package -------------
# A scalar is (order, coeffs): coefficients of 1, z, ..., z^(phi(order)-1) for
# z = exp(2 pi i / order), reduced modulo the cyclotomic polynomial.

_PHI_POLY = {}


def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, ascending."""
    if n not in _PHI_POLY:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                den = cyclotomic_poly(d)
                quo = [0] * (len(poly) - len(den) + 1)
                for i in range(len(quo) - 1, -1, -1):
                    c = poly[i + len(den) - 1]
                    quo[i] = c
                    for j, x in enumerate(den):
                        poly[i + j] -= c * x
                poly = quo
        _PHI_POLY[n] = tuple(poly)
    return _PHI_POLY[n]


def _reduce(coeffs, n):
    mod = cyclotomic_poly(n)
    phi = len(mod) - 1
    work = list(coeffs) + [Fraction(0)] * max(0, phi - len(coeffs))
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            for j in range(phi + 1):
                work[i - phi + j] -= c * mod[j]
    return tuple(work[:phi])


def embed(x, n):
    order, coeffs = x
    if order == n:
        return x
    step = n // order
    poly = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        poly[i * step] = c
    return (n, _reduce(poly, n))


def add(x, y):
    n = x[0] * y[0] // gcd(x[0], y[0])
    (_, a), (_, b) = embed(x, n), embed(y, n)
    return (n, tuple(p + q for p, q in zip(a, b)))


def scale(x, q):
    return (x[0], tuple(c * q for c in x[1]))


def scalar_from_json(obj):
    if isinstance(obj, int):
        return (1, (Fraction(obj),))
    if isinstance(obj, list):
        return (1, (Fraction(obj[0], obj[1]),))
    return (obj["order"], tuple(Fraction(n, d) for n, d in obj["coeffs"]))


def scalar_to_json(x):
    """Write a scalar in the smallest Q(zeta_d) that its pattern of nonzero
    coefficients shows directly (z_n^(j*n/d) = z_d^j)."""
    n, coeffs = x
    nonzero = [i for i, c in enumerate(coeffs) if c]
    for d in range(1, n + 1):
        if n % d:
            continue
        step = n // d
        phi_d = len(cyclotomic_poly(d)) - 1
        if all(i % step == 0 and i // step < phi_d for i in nonzero):
            small = [Fraction(0)] * phi_d
            for i in nonzero:
                small[i // step] = coeffs[i]
            return {"order": d, "coeffs": [[c.numerator, c.denominator] for c in small]}
    raise AssertionError("unreachable: d = n always matches")


# -- paper_jobs: the report fixtures under a change of coordinates ---------

PAPER_FIXTURES = ("example_7_3.json", "example_7_5.json", "example_7_5_full.json")

# Invariants of the report on each fixture.  The verdicts and branch
# permutations are the ones the paper derives for Examples 7.3 and 7.5
# (labels follow the fixture's root order); 7.5 has the two invariant lines
# and 7.3 a free two-torsion translation as its stage-4 witness.
PAPER_EXPECTED = {
    "example_7_3.json": {"status": "OBSTRUCTED", "perms": {}, "lines": None, "witness": True},
    "example_7_5.json": {
        "status": "LINEARIZABLE_CERTIFIED",
        "perms": {"gamma": "(3 4 5 6)"},
        "lines": 2,
        "witness": False,
    },
    "example_7_5_full.json": {
        "status": "OBSTRUCTED",
        "perms": {"gamma": "(3 4 5 6)", "tau": "(1 3)(2 5)(4 6)"},
        "lines": 2,
        "witness": False,
    },
}

_SCALES = tuple(Fraction(p, q) for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 2)))
_BASIS_ENTRIES = tuple(Fraction(p, q) for p, q in ((-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 2)))


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def random_coordinate_change(rng, n=6):
    """A = signed permutation times rational diagonal: A[perm[j]][j] = mult[j]."""
    perm = list(range(n))
    rng.shuffle(perm)
    mult = [rng.choice((1, -1)) * rng.choice(_SCALES) for _ in range(n)]
    return perm, mult


def random_pencil_basis(rng):
    """A rational 2x2 matrix ((a, b), (c, d)) with nonzero determinant."""
    while True:
        a, b, c, d = (rng.choice(_BASIS_ENTRIES) for _ in range(4))
        if a * d - b * c:
            return (a, b), (c, d)


def transform_job(obj, perm, mult, basis):
    """The same geometry in new coordinates and a new pencil basis.

    Gram matrices become A G A^T, matrix generators A h A^-1 (A from
    ``random_coordinate_change``); the pencil becomes (a Q1 + b Q2,
    c Q1 + d Q2), branch roots s become adj(M^T) s and Moebius-only
    generators adj(M^T) m M^T, which are the new coordinates up to scalars."""
    n = len(perm)
    pen = obj["pencil"]
    d1 = [scalar_from_json(x) for x in pen["diag1"]]
    d2 = [scalar_from_json(x) for x in pen["diag2"]]
    r1 = [None] * n
    r2 = [None] * n
    for j in range(n):
        sq = mult[j] * mult[j]
        r1[perm[j]] = scale(d1[j], sq)
        r2[perm[j]] = scale(d2[j], sq)
    (a, b), (c, d) = basis
    new_d1 = [add(scale(x, a), scale(y, b)) for x, y in zip(r1, r2)]
    new_d2 = [add(scale(x, c), scale(y, d)) for x, y in zip(r1, r2)]
    out = {
        "pencil": {
            "g": pen.get("g", n // 2 - 1),
            "diag1": [scalar_to_json(x) for x in new_d1],
            "diag2": [scalar_to_json(x) for x in new_d2],
        }
    }

    def conj(mat):
        ent = [[scalar_from_json(x) for x in row] for row in mat["entries"]]
        new = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                new[perm[i]][perm[j]] = scale(ent[i][j], mult[i] / mult[j])
        return {"rows": n, "cols": n, "entries": [[scalar_to_json(x) for x in row] for row in new]}

    # s = P t with P = M^T; adj(P) = ((d, -c), (-b, a)) is det(P) * P^-1
    adj = ((d, -c), (-b, a))
    p = ((a, c), (b, d))
    gens = []
    for g in obj.get("generators", []):
        if "matrix" in g:
            gens.append({"label": g["label"], "matrix": conj(g["matrix"])})
        else:
            m = [[scalar_from_json(x) for x in row] for row in g["moebius"]]
            mp = [[add(scale(m[i][0], p[0][j]), scale(m[i][1], p[1][j])) for j in range(2)] for i in range(2)]
            new = [[add(scale(mp[0][j], adj[i][0]), scale(mp[1][j], adj[i][1])) for j in range(2)] for i in range(2)]
            gens.append({"label": g["label"], "moebius": [[scalar_to_json(x) for x in row] for row in new]})
    out["generators"] = gens
    if "branch" in obj:
        roots = []
        for u, v in obj["branch"]["roots"]:
            u, v = scalar_from_json(u), scalar_from_json(v)
            roots.append([
                scalar_to_json(add(scale(u, adj[0][0]), scale(v, adj[0][1]))),
                scalar_to_json(add(scale(u, adj[1][0]), scale(v, adj[1][1]))),
            ])
        out["branch"] = {"roots": roots}
    return out


def transformed_fixture_text(name, rng):
    obj = load_fixture(name)
    perm, mult = random_coordinate_change(rng)
    basis = random_pencil_basis(rng)
    return json.dumps(transform_job(obj, perm, mult, basis))


def check_report(out, expected):
    """None if the report JSON matches the fixture's invariants, else why not."""
    if out["status"] != expected["status"]:
        return f"status {out['status']} != {expected['status']}"
    stages = {}
    for item in out["evidence"]:
        stages.setdefault(item.get("stage"), []).append(item)
    perms = {
        e["label"]: e["branch_permutation"]
        for s2 in stages.get(2, [])
        for e in s2["generators"]
        if "branch_permutation" in e
    }
    if perms != expected["perms"]:
        return f"branch permutations {perms} != {expected['perms']}"
    if expected["lines"] is not None:
        counts = [(e["candidates"], e["invariant_under_all"]) for e in stages.get(3, []) if "candidates" in e]
        if counts != [(expected["lines"], expected["lines"])]:
            return f"stage-3 line counts {counts}"
    if expected["witness"]:
        signs = [e["sign_vector"] for e in stages.get(4, []) if e.get("free_two_torsion")]
        if len(signs) != 1 or min(signs[0].count(1), signs[0].count(-1)) != 2:
            return f"stage-4 witness {signs}"
    return None


def paper_round(rng):
    """One round of paper_jobs: (argv, job text, expected) per fixture; argv
    None marks a report job run through the library calls."""
    return [(None, transformed_fixture_text(name, rng), PAPER_EXPECTED[name]) for name in PAPER_FIXTURES]


# -- sign_groups: diagonal pencils with +-1 diagonal groups ----------------

_SMALL = tuple(Fraction(p, q) for q in (1, 2, 3) for p in range(-5, 6))


def random_smooth_diagonal(rng, n=6):
    """Diagonals (a_i), (b_i) whose branch points (b_i : -a_i) are distinct."""
    while True:
        pts = []
        for _ in range(n):
            a, b = rng.choice(_SMALL), rng.choice(_SMALL)
            if a or b:
                pts.append((a, b))
        if len(pts) == n and all(
            pts[i][0] * pts[j][1] != pts[j][0] * pts[i][1] for i in range(n) for j in range(i)
        ):
            return pts


def sign_span(masks):
    """All products of the generators, as bit masks of -1 positions."""
    span = {0}
    for m in masks:
        span |= {x ^ m for x in span}
    return span


def canonical_minus_count(mask, n=6):
    k = bin(mask).count("1")
    return n - k if k > n // 2 else k


def sign_rule(masks, n=6):
    """OBSTRUCTED iff some element has canonical minus-count 2 (a free
    two-torsion translation); every other such job ends INCONCLUSIVE, since
    sign elements fix every branch point and so fix every odd theta class."""
    if any(canonical_minus_count(m, n) == 2 for m in sign_span(masks)):
        return "OBSTRUCTED"
    return "INCONCLUSIVE"


def random_sign_masks(rng, popcounts, n=6):
    """Generators independent over GF(2), with the given numbers of -1
    entries at random positions."""
    while True:
        masks = []
        for k in popcounts:
            masks.append(sum(1 << i for i in rng.sample(range(n), k)))
        if len(sign_span(masks)) == 1 << len(masks):
            return masks


def _rat(q):
    return q.numerator if q.denominator == 1 else [q.numerator, q.denominator]


def sign_group_job(rng, popcounts, n=6):
    pts = random_smooth_diagonal(rng, n)
    masks = random_sign_masks(rng, popcounts, n)
    gens = []
    for k, m in enumerate(masks):
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = -1 if m >> i & 1 else 1
        gens.append({"label": f"s{k + 1}", "matrix": {"rows": n, "cols": n, "entries": entries}})
    obj = {
        "pencil": {"g": n // 2 - 1, "diag1": [_rat(a) for a, _ in pts], "diag2": [_rat(b) for _, b in pts]},
        "generators": gens,
        "branch": {"roots": [[_rat(b), _rat(-a)] for a, b in pts]},
    }
    return json.dumps(obj), {"status": sign_rule(masks, n), "masks": masks}


def check_sign_report(out, expected):
    if out["status"] != expected["status"]:
        return f"status {out['status']} != {expected['status']}"
    if out["status"] == "OBSTRUCTED":
        wit = [e["sign_vector"] for e in out["evidence"] if e.get("free_two_torsion")]
        if len(wit) != 1:
            return "no stage-4 witness"
        mask = sum(1 << i for i, s in enumerate(wit[0]) if s == -1)
        span = sign_span(expected["masks"])
        flipped = mask ^ ((1 << len(wit[0])) - 1)  # the witness is up to sign
        if canonical_minus_count(mask) != 2 or (mask not in span and flipped not in span):
            return f"bad witness {wit[0]}"
    return None


# The minus-counts of the generators of each job in one round: groups of
# order 2 to 32.  Fixing them per slot (positions stay random) keeps the cost
# of a round steady, since the cost of a job grows with the group order and
# with the eigenspace dimensions of its generators.  Every round has jobs that
# end at stage 4 (OBSTRUCTED) and jobs that reach the theta stage.
SIGN_ROUND = ((3,), (1,), (2,), (3, 3), (1, 2, 3), (2, 3, 4, 5), (1, 2, 3, 4, 5))


def sign_round(rng):
    out = []
    for popcounts in SIGN_ROUND:
        text, expected = sign_group_job(rng, popcounts)
        out.append((None, text, expected))
    return out


# -- subcommands ------------------------------------------------------------

DP4_FIXTURE = "example_dp4_involutions.json"
LIFT_FIXTURE = "example_7_4.json"

# Conjugation invariants of the dP4 fixture's elements: order, S5 cycle type,
# number of invariant lines, orbit sizes on the 16 lines and H^1.  The
# acceptance tests check the same facts: m1 ~ m2 ~ m3 fix two lines, gamma1
# has four orbits of size 4, the pair involution has H^1 = (2, 2).
DP4_EXPECTED = {
    "m1": (4, [4, 1], 2, [1, 1, 2, 4, 4, 4], []),
    "m2": (4, [4, 1], 2, [1, 1, 2, 4, 4, 4], []),
    "m3": (4, [4, 1], 2, [1, 1, 2, 4, 4, 4], []),
    "gamma1": (4, [2, 2, 1], 0, [4, 4, 4, 4], []),
    "pair_involution": (2, [1, 1, 1, 1, 1], 0, [2] * 8, [2, 2]),
    "disjoint_involution": (2, [1, 1, 1, 1, 1], 0, [2] * 8, []),
}
DP4_CONJUGATE = {("m1", "m2"): True, ("m1", "m3"): True, ("m2", "m3"): True}

# Invariants of the other subcommands on each fixture.  fixed-points on 7.5:
# the order-8 point action has a 2-dimensional eigenspace (a line meeting X in
# 2 points) and 1-dimensional ones, two of which lie on X.  theta: the odd
# theta classes fixed by (3 4 5 6) are [{1}] and [{2}]; adding tau fixes none.
BRANCH_EXPECTED = {name: PAPER_EXPECTED[name]["perms"] for name in PAPER_FIXTURES}
FIXED_POINTS_EXPECTED = {"example_7_3.json": (0, 0, [3]), "example_7_5.json": (4, 0, [])}
LINES_EXPECTED = {"example_7_3.json": (0, False, 2), "example_7_5.json": (2, True, 0)}
THETA_EXPECTED = {"example_7_5.json": 2, "example_7_5_full.json": 0}
LIFT_ORDERS = (8, 24)


def _signed_perm_matrix(perm, signs):
    m = [[0] * 5 for _ in range(5)]
    for j in range(5):
        m[perm[j] - 1][j] = signs[j]
    return m


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def conjugate_signed_perm(sp, w):
    """w sp w^-1 for signed permutations {"perm", "signs"} (w^-1 = w^T)."""
    wm = _signed_perm_matrix(w["perm"], w["signs"])
    wt = [list(r) for r in zip(*wm)]
    c = _matmul(_matmul(wm, _signed_perm_matrix(sp["perm"], sp["signs"])), wt)
    perm, signs = [0] * 5, [0] * 5
    for j in range(5):
        i = next(i for i in range(5) if c[i][j])
        perm[j], signs[j] = i + 1, c[i][j]
    return {"perm": perm, "signs": signs}


def random_wd5(rng):
    perm = list(range(1, 6))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(4)]
    signs.append(signs[0] * signs[1] * signs[2] * signs[3])  # even parity
    return {"perm": perm, "signs": signs}


def int_matrix_power_diagonal(m, k):
    p = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for _ in range(k):
        p = _matmul(p, m)
    return [p[i][i] for i in range(len(m))]


def dp4_job(rng):
    obj = load_fixture(DP4_FIXTURE)
    obj["elements"] = {k: conjugate_signed_perm(v, random_wd5(rng)) for k, v in obj["elements"].items()}
    regs = {
        k: (int_matrix_power_diagonal(r["matrix"], r.get("power", 4)), r.get("expected_diagonal"))
        for k, r in obj.get("regressions", {}).items()
    }
    return json.dumps(obj), regs


def _check_dp4(out, regs):
    for name, (order, ctype, nlines, orbit_sizes, h1) in DP4_EXPECTED.items():
        e = out[name]
        got = (e["order"], e["cycle_type"], len(e["invariant_lines"]), e["orbit_sizes"], e["lattice_h1"])
        if got != (order, ctype, nlines, orbit_sizes, h1):
            return f"dp4 {name}: {got}"
    conj = {tuple(c["pair"]): c["conjugate"] for c in out.get("conjugacy", [])}
    if conj != DP4_CONJUGATE:
        return f"dp4 conjugacy {conj}"
    for name, (diag, want) in regs.items():
        r = out["regressions"][name]
        if r["power_diagonal"] != diag or r["matches_expected"] != (diag == want):
            return f"dp4 regression {name}: {r}"
    return None


def _check_lift(out, order):
    v, w = out["V"], out["W"]
    got = (v["closure_order"], v["obstructed"], w["closure_order"], w["obstructed"], w["tested"], w["scalar_order"])
    # V lifts linearly; W does not, and the search over all order-m scalar
    # pairs is exhaustive, so it tests m^2 of them
    if got != (24, False, 16, True, order * order, order):
        return f"lift {got}"
    return None


def _check_identities(out, g_max):
    sc, ex = out["section_count"], out["excess"]
    if [r["g"] for r in sc] != list(range(1, g_max + 1)) or [r["g"] for r in ex] != list(range(2, g_max + 3)):
        return "identities: wrong genus range"
    for r in sc:
        if not (r["equal"] and r["lhs"] == r["rhs"] == 4 ** r["g"]):
            return f"section count {r}"
    for r in ex:
        g = r["g"]
        if not (r["equal"] and r["value"] == str(Fraction(3**g - 2 * g - 1, 4))):
            return f"excess {r}"
    return None


def check_subcommand(out, expected):
    kind, arg = expected
    if kind == "branch":
        if out["smooth"] is not True or out["permutations"] != BRANCH_EXPECTED[arg]:
            return f"branch {out['smooth']} {out['permutations']}"
    elif kind == "fixed-points":
        got = (len(out["points"]), len(out["lines_on_x"]), [c["projective_dim"] for c in out["higher_dimensional"]])
        if got != FIXED_POINTS_EXPECTED[arg]:
            return f"fixed-points {got}"
    elif kind == "invariant-lines":
        got = (len(out["lines"]), out["complete"], len(out["families"]))
        if got != LINES_EXPECTED[arg]:
            return f"invariant-lines {got}"
    elif kind == "theta":
        n = THETA_EXPECTED[arg]
        if len(out["fixed_odd_classes"]) != n or out["empty"] != (n == 0):
            return f"theta {out['fixed_odd_classes']}"
    elif kind == "dp4":
        return _check_dp4(out, arg)
    elif kind == "lift":
        return _check_lift(out, arg)
    elif kind == "identities":
        return _check_identities(out, arg)
    return None


def subcommand_round(rng):
    """One round of subcommand jobs: (argv without the job file, job text or
    None for no file, expected)."""
    jobs = []
    for name in PAPER_FIXTURES:
        jobs.append((["branch", "--format", "json"], transformed_fixture_text(name, rng), ("branch", name)))
    for cmd, table in (("fixed-points", FIXED_POINTS_EXPECTED), ("invariant-lines", LINES_EXPECTED),
                       ("theta", THETA_EXPECTED)):
        for name in table:
            jobs.append(([cmd, "--format", "json"], transformed_fixture_text(name, rng), (cmd, name)))
    text, regs = dp4_job(rng)
    jobs.append((["dp4"], text, ("dp4", regs)))
    lift_text = json.dumps(load_fixture(LIFT_FIXTURE))
    for m in LIFT_ORDERS:
        jobs.append((["lift", "--scalar-order", str(m)], lift_text, ("lift", m)))
    g_max = rng.randint(4, 8)
    jobs.append((["identities", "--g-max", str(g_max)], None, ("identities", g_max)))
    return jobs


# workload -> (one round of jobs, output check)
WORKLOAD_SPECS = {
    "paper_jobs": (paper_round, check_report),
    "sign_groups": (sign_round, check_sign_report),
    "subcommands": (subcommand_round, check_subcommand),
}
WORKLOADS = tuple(WORKLOAD_SPECS)


def seeded_rng(workload, seed):
    return random.Random(f"{workload}:{seed}")
