"""One SHA-256 of everything the CLI prints on a fixed, seeded set of runs.

    python3 tools/output_digest.py TREE --seeds N [--list FILE]

imports the twoquadrics package from TREE/src and runs its ``main`` on

* the golden cases, ``CASES`` of this checkout's tests/test_golden.py;
* every job of one round of each perfbench workload for seeds 0 .. N-1
  (perfbench/workloads.py of this checkout; a report job runs as
  ``report --format json``);
* for each of those seeds, the report fixtures 7.3, 7.5 and 7.5 full in
  dense coordinates (``dense_job``): Q1, Q2 = A G A^T and matrix generators
  A h A^-1 for a seeded unimodular integer A, the roots and Moebius maps
  unchanged, so the runs reach the elimination of dense matrices over Q and
  Q(zeta_N) that the diagonal fixtures skip;
* ``branch``, ``theta``, ``fixed-points`` and ``invariant-lines``, each with
  ``--format json``, on each of those report jobs;
* for each seed, ``report``, ``fixed-points`` and ``invariant-lines`` on two
  more jobs in the same dense coordinates (``EXTRA_JOBS``): the dihedral
  pencil over Q(zeta12), whose matrices reach fields of two primes, and the
  C5 pencil over Q(zeta5), whose line search needs a square root outside
  Q(zeta24);
* for each seed, one ``dp4`` job (``all_pairs_dp4_job``): the workload's
  seeded conjugates of the dP4 fixture's six elements, with ``conjugacy``
  listing every ordered pair of them, so the runs see the witness of each
  class and the pairs that are not conjugate;
* for each seed, ``MUTATIONS`` runs of ``report``, ``dp4`` or ``lift`` on
  the 7.3 report job, the dP4 fixture or the 7.4 lift input with one node
  changed as tests/test_input_fuzz.py changes it (``mutated``), so the
  digest holds the message and JSON path of each input refused.

The dense jobs are written with perfbench's own scalar helpers, so the job
texts do not depend on the tree under test.

Each run contributes its argv, its job text, its exit code (or the exception
it raised) and its stdout and stderr.  The script prints the number of runs
and the digest, so two trees that print the same line gave the same output on
every run.  ``--list`` also writes the runs, one JSON line each, to compare
two trees that differ.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def golden_cases():
    """CASES of tests/test_golden.py, evaluated alone (no pytest import)."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "CASES")
    return eval(compile(ast.Expression(node.value), "test_golden.py", "eval"), {})


def _unimodular(rng, n=6):
    """A random integer matrix A of determinant 1 and its inverse: eight row
    operations row_i += c * row_j, c in {-2, -1, 1, 2}, on the identity; the
    inverse takes col_j -= c * col_i in the same steps."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


def _scalar_json(x):
    """A scalar as JSON: an integer or [n, d] when it is rational."""
    obj = workloads.scalar_to_json(x)
    if obj["order"] != 1:
        return obj
    (n, d), = obj["coeffs"]
    return n if d == 1 else [n, d]


def _int_combination(terms):
    """sum c * x over (int c, scalar x) pairs."""
    total = (1, (0,))
    for c, x in terms:
        if c:
            total = workloads.add(total, workloads.scale(x, c))
    return total


def _zeta(n, k):
    """zeta_n^k as a JSON scalar: x^k reduced modulo Phi_n."""
    return workloads.scalar_to_json((n, workloads._reduce([Fraction(0)] * k + [Fraction(1)], n)))


def _matrix(entries):
    return {"rows": len(entries), "cols": len(entries[0]), "entries": entries}


def _extra_jobs():
    """(name, job object) of the jobs run in dense coordinates besides the
    report fixtures.  dihedral: Q1 = sum x_i^2 and Q2 = sum zeta6^i x_i^2,
    with r: x_i -> x_(i+1) and s: x_i -> zeta12^i x_(-i), whose pencil
    actions do not commute.  c5: Q1 = sum x_i^2 and Q2 = sum_(i<5) zeta5^i
    x_i^2, with c the 5-cycle on x0..x4."""
    dihedral = {
        "pencil": {"g": 2, "diag1": [1] * 6, "diag2": [_zeta(6, i) for i in range(6)]},
        "generators": [
            {"label": "r", "matrix": _matrix([[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)])},
            {"label": "s", "matrix": _matrix([[_zeta(12, i) if j == -i % 6 else 0 for j in range(6)] for i in range(6)])},
        ],
    }
    cycle = [[int(j == (i + 1) % 5) if max(i, j) < 5 else int(i == j) for j in range(6)] for i in range(6)]
    c5 = {
        "pencil": {"g": 2, "diag1": [1] * 6, "diag2": [_zeta(5, i) for i in range(5)] + [0]},
        "generators": [{"label": "c", "matrix": _matrix(cycle)}],
    }
    return (("dihedral", dihedral), ("c5", c5))


EXTRA_JOBS = _extra_jobs()
EXTRA_COMMANDS = ("report", "fixed-points", "invariant-lines")


def dense_job(obj, rng):
    """A job object with a diagonal pencil (a report fixture, or one of
    ``EXTRA_JOBS``) in the dense coordinates of ``_unimodular``: Q_i = A
    diag(d_i) A^T and each matrix generator A h A^-1.  A has determinant 1,
    so the degeneracy form, its roots and every pencil action stay the
    same."""
    obj = json.loads(json.dumps(obj))
    a, inv = _unimodular(rng)
    n = len(a)
    pencil = obj["pencil"]

    def gram(diag):
        d = [workloads.scalar_from_json(x) for x in diag]
        entries = [[_scalar_json(_int_combination((a[i][j] * a[k][j], d[j]) for j in range(n))) for k in range(n)]
                   for i in range(n)]
        return {"rows": n, "cols": n, "entries": entries}

    def conjugate(mat):
        h = [[workloads.scalar_from_json(x) for x in row] for row in mat["entries"]]
        entries = [[_scalar_json(_int_combination((a[i][j] * inv[l][k], h[j][l]) for j in range(n) for l in range(n)))
                    for k in range(n)] for i in range(n)]
        return {"rows": n, "cols": n, "entries": entries}

    obj["pencil"] = {"Q1": gram(pencil["diag1"]), "Q2": gram(pencil["diag2"]), "g": pencil.get("g", n // 2 - 1)}
    obj["generators"] = [dict(g, matrix=conjugate(g["matrix"])) if "matrix" in g else g for g in obj["generators"]]
    return json.dumps(obj)


def all_pairs_dp4_job(rng):
    """The dp4 job of the subcommands workload, its conjugacy every ordered
    pair of its elements."""
    obj = json.loads(workloads.dp4_job(rng)[0])
    obj["conjugacy"] = [[a, b] for a in obj["elements"] for b in obj["elements"]]
    return json.dumps(obj)


# the inputs and replacement values that tests/test_input_fuzz.py also draws from
MUTATED_INPUTS = {"report": "example_7_3.json", "dp4": "example_dp4_involutions.json", "lift": "example_7_4.json"}
REPLACEMENTS = (None, True, 1.5, "x", 10**30, -(10**30), [], {})
MUTATIONS = 40  # per seed


def nodes(obj, at=()):
    """The path (keys and indices from the root) of every node of obj that is
    no deeper than the second entry of any array: later entries repeat the
    shape of the first two, and skipping them leaves more draws for the
    nodes that differ."""
    yield at
    children = obj.items() if isinstance(obj, dict) else enumerate(obj[:2]) if isinstance(obj, list) else ()
    for key, child in children:
        yield from nodes(child, at + (key,))


def node_at(obj, at):
    for key in at:
        obj = obj[key]
    return obj


def mutated(obj, rng, replacements=REPLACEMENTS, keys=("unexpected",)):
    """A copy of obj with one node changed: replaced by one of replacements,
    its key deleted, or one of keys added to it (an object) with the value 1."""
    obj = json.loads(json.dumps(obj))
    paths = list(nodes(obj))
    how = rng.choice(("replace", "delete", "add"))
    if how == "replace":
        at, value = rng.choice(paths), rng.choice(replacements)
        if not at:
            return value
        node_at(obj, at[:-1])[at[-1]] = value
    elif how == "delete":
        at = rng.choice([p for p in paths if p and isinstance(node_at(obj, p[:-1]), dict)])
        del node_at(obj, at[:-1])[at[-1]]
    else:
        at = rng.choice([p for p in paths if isinstance(node_at(obj, p), dict)])
        node_at(obj, at)[rng.choice(keys)] = 1
    return obj


JOB_COMMANDS = ("branch", "theta", "fixed-points", "invariant-lines")


def runs(seeds):
    """(argv, job text or None) of every run, in a fixed order."""
    for _, argv in sorted(golden_cases().items()):
        yield argv, None
    for seed in range(seeds):
        for workload, (make, _) in workloads.WORKLOAD_SPECS.items():
            reports = []
            for argv, text, _ in make(workloads.seeded_rng(workload, seed)):
                if argv is None:
                    argv = ["report", "--format", "json"]
                    reports.append(text)
                yield argv, text
            for text in reports:
                for cmd in JOB_COMMANDS:
                    yield [cmd, "--format", "json"], text
        rng = workloads.seeded_rng("dense_jobs", seed)
        for name in workloads.PAPER_FIXTURES:
            text = dense_job(workloads.load_fixture(name), rng)
            for cmd in ("report", *JOB_COMMANDS):
                yield [cmd, "--format", "json"], text
        for _, obj in EXTRA_JOBS:
            text = dense_job(obj, rng)
            for cmd in EXTRA_COMMANDS:
                yield [cmd, "--format", "json"], text
        yield ["dp4"], all_pairs_dp4_job(workloads.seeded_rng("dp4_pairs", seed))
        rng = workloads.seeded_rng("mutated_inputs", seed)
        for _ in range(MUTATIONS):
            cmd = rng.choice(sorted(MUTATED_INPUTS))
            yield [cmd], json.dumps(mutated(workloads.load_fixture(MUTATED_INPUTS[cmd]), rng))


def run(main, argv, text):
    out, err = io.StringIO(), io.StringIO()
    if text is not None:
        Path("job.json").write_text(text)
        argv = argv + ["job.json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # a traceback is output too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ holds the package to run")
    parser.add_argument("--seeds", type=int, default=20, help="perfbench seeds 0 .. N-1")
    parser.add_argument("--list", type=Path, help="also write each run as a JSON line here")
    args = parser.parse_args(argv)
    src = args.tree.resolve() / "src"
    sys.path.insert(0, str(src))
    from twoquadrics.cli import main as tq_main

    if not Path(sys.modules["twoquadrics"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported twoquadrics from {sys.modules['twoquadrics'].__file__}")
    digest = hashlib.sha256()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # job files are named job.json, wherever this runs
        try:
            for job_argv, text in runs(args.seeds):
                line = json.dumps([job_argv, text, *run(tq_main, job_argv, text)]) + "\n"
                digest.update(line.encode())
                lines.append(line)
        finally:
            os.chdir(cwd)
    if args.list:
        args.list.write_text("".join(lines))
    print(f"{len(lines)} runs sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
