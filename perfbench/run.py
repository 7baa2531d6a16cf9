"""Seeded end-to-end benchmark of the verdict pipeline and the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_jobs --seed 1 --seconds 33 --trace 0

Without ``--workload`` it runs all three workloads, one after another, each
in its own interpreter, and prints each one's result.

One client runs jobs in a closed loop, one at a time, in this process.  A job
takes generated JSON text, parses it, runs it and serializes the output to
JSON (report jobs through ``parse_job``/``run_report``/``emit``, subcommand
jobs through ``twoquadrics.main(argv)`` on a job file).  Every output is
checked against a value known without running the program.

``--trace 0`` warms up with one round of jobs, then runs whole rounds until
``--seconds`` have passed and prints the end-to-end metrics, with times in
reference seconds (see refclock.py) and medians and tails as Harrell-Davis
estimates.  ``--trace 1``
runs a fixed set of rounds once untraced and once traced (see layertrace.py) and
prints the per-layer metrics; its spans go to ``.perfbench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import LAYERS, Tracer
from refclock import REF_S, RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 15
SETUP_KERNEL_CALLS = 24
# share of the measured time given to the reference kernel (refclock.py)
REF_SHARE = 0.03
TRACE_ROUNDS = 2
# p70 keeps a slow machine (paper_jobs and sign_groups dropping below 40 jobs
# a run) from moving the tail all the way down to the median
TAIL_LADDER = (50.0, 70.0, 75.0, 90.0, 99.0, 99.9)

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Self time is reported in seconds for the layers every workload enters; dp4,
# smith and cyc_sqrt are never entered by some workloads, where a time would
# read 0 s on every run, so their time is given as a share of the traced wall
# time instead.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    if _layer in ("dp4", "smith"):
        PER_LAYER[f"{_layer}.self_share"] = "1"
    else:
        PER_LAYER[f"{_layer}.self_s"] = "s"
for _name in (
    "cyclo.mul", "cyclo.add", "cyclo.inverse", "cyclo.embed", "cyclo.canonical", "cyclo.sqrt",
    "matrices.kernel", "matrices.eigenspaces", "matrices.det", "matrices.inverse", "matrices.mat_mul",
    "groups.closure", "groups.lift_search", "dp4.pic_action", "dp4.conjugate", "smith.snf",
    "pencils.equivariance", "pencils.invariant_lines", "pencils.fixed_points", "pencils.degeneracy_form",
    "binforms.quadratic_roots", "binforms.resultant", "binforms.root_action", "torsion.fixed_classes",
    "jsonio.parse_job",
):
    PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update({
    "cyclo.sqrt.hit_ratio": "1",
    "cyclo.sqrt.time_share": "1",
    "groups.closure.elements": "count",
    "groups.closure.new_ratio": "1",
    "pencils.invariant_lines.candidates": "count",
    "trace.overhead_ratio": "1",
})


def import_package():
    """Import twoquadrics from this checkout's src/, never from elsewhere."""
    if not (SRC / "twoquadrics" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import twoquadrics

    if Path(twoquadrics.__file__).resolve().parent != SRC / "twoquadrics":
        raise SystemExit(f"benchmark: imported twoquadrics from {twoquadrics.__file__}")
    return twoquadrics


class Runner:
    """Runs and checks jobs; keeps the failure count."""

    def __init__(self, tq, check):
        self.tq = tq
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.jobdir = OUT / "jobs"
        self.jobdir.mkdir(parents=True, exist_ok=True)

    def _call(self, argv, text, path):
        tq = self.tq  # attribute lookups, so a traced run sees the wrappers
        if argv is None:
            return tq.emit(tq.run_report(tq.parse_job(text)), "json"), 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tq.main(argv + ([str(path)] if path else []))
        return buf.getvalue(), code

    def run(self, job, slot, tracer=None, job_id=None):
        """Run one job; returns (wall time in seconds, whether it passed)."""
        argv, text, expected = job
        path = None
        if argv is not None and text is not None:
            path = self.jobdir / f"slot{slot}.json"
            path.write_text(text)
        error = None
        if tracer:
            tracer.start_job(job_id)
        t0 = time.perf_counter()
        try:
            out, code = self._call(argv, text, path)
        except Exception as exc:  # a failed job is counted, and the run goes on
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_job()
        if error is None:
            if code != 0:
                error = f"exit code {code}"
            else:
                try:
                    error = self.check(json.loads(out), expected)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"malformed output: {exc!r}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"job failed ({(argv or ['report'])[0]}, slot {slot}): {error}", file=sys.stderr)
        return elapsed, error is None

    def run_round(self, jobs, tracer=None, first_id=0):
        return [self.run(job, k, tracer, first_id + k) for k, job in enumerate(jobs)]


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), by Lentz's
    method on its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below this
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def harrell_davis(times, p):
    """The Harrell-Davis estimate of quantile p: every order statistic,
    weighted by how much of a Beta(p(n+1), (1-p)(n+1)) distribution falls in
    its rank interval.  On a mix of job kinds whose times form separate
    clusters, it moves far less between runs than a single order statistic."""
    ordered = sorted(times)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail_percentile(times):
    """The highest ladder percentile with at least 10 samples beyond it
    (nearest rank), as (percentile, Harrell-Davis value, samples beyond)."""
    n = len(times)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, n - rank)
    if best is None:
        raise SystemExit(f"benchmark: {n} jobs are too few for a tail percentile")
    p, beyond = best
    return p, harrell_davis(times, p / 100), beyond


# A set-up child imports the package, then times the reference kernel on its
# own CPU and prints the kernel's mean time (the first calls warm up) and how
# long all of that took, which the parent subtracts from the child's time.
SETUP_CHILD = """
import sys, time
import twoquadrics
t0 = time.perf_counter()
sys.path.insert(0, {here!r})
from refclock import kernel
ks = []
for _ in range({calls}):
    t = time.perf_counter()
    kernel()
    ks.append(time.perf_counter() - t)
ks = ks[4:]
print(sum(ks) / len(ks), time.perf_counter() - t0)
"""


def setup_seconds():
    """Median time of fresh interpreters that only import the package, in
    wall seconds and in reference seconds (each child times the kernel after
    its import)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = SETUP_CHILD.format(here=str(Path(__file__).resolve().parent), calls=SETUP_KERNEL_CALLS)
    cmd = [sys.executable, "-c", code]
    wall, ref = [], []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout
        elapsed = time.perf_counter() - t0
        kernel_s, after_import = map(float, out.split())
        if k:  # the first child may write bytecode caches
            wall.append(elapsed - after_import)
            ref.append(wall[-1] * REF_S / kernel_s)
    return statistics.median(wall), statistics.median(ref)


def measure(tq, workload, seed, seconds):
    make, check = workloads.WORKLOAD_SPECS[workload]
    rng = workloads.seeded_rng(workload, seed)
    runner = Runner(tq, check)
    runner.run_round(make(rng))  # warm-up: fills lru caches and lazy tables
    clock = RefClock(REF_SHARE)
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for k, job in enumerate(make(rng)):
            results.append(runner.run(job, k))
            clock.keep_up(results[-1][0])
    scale = clock.scale()
    wall = [t for t, _ in results]
    times = [t * scale for t in wall]
    p, tail, beyond = tail_percentile(times)
    setup_wall, setup_ref = setup_seconds()
    metrics = {
        "jobs_per_s": sum(ok for _, ok in results) / sum(times),
        "job_p50_s": harrell_davis(times, 0.5),
        "job_tail_s": tail,
        "setup_s": setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{workload} seed {seed}: {len(times)} timed jobs; job_tail_s is p{p:g} "
        f"({beyond} of {len(times)} samples beyond); failed_ratio "
        f"{runner.failed}/{runner.attempted}; wall clock: jobs_per_s "
        f"{sum(ok for _, ok in results) / sum(wall):.4g}, job_p50_s {harrell_davis(wall, 0.5):.4g}, "
        f"job_tail_s {tail_percentile(wall)[1]:.4g}, setup_s {setup_wall:.4g}; reference kernel "
        f"{clock.mean_s() * 1e3:.4g} ms over {len(clock.samples)} calls"
    )
    return runner, metrics, END_TO_END


def trace(tq, workload, seed):
    make, check = workloads.WORKLOAD_SPECS[workload]
    rng = workloads.seeded_rng(workload, seed)
    runner = Runner(tq, check)
    runner.run_round(make(rng))
    rounds = [make(rng) for _ in range(TRACE_ROUNDS)]
    untraced = sum(t for jobs in rounds for t, _ in runner.run_round(jobs))
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for r, jobs in enumerate(rounds):
            traced += sum(t for t, _ in runner.run_round(jobs, tracer, first_id=r * len(jobs)))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced)
    metrics["trace.overhead_ratio"] = traced / untraced
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, {"workload": workload, "seed": seed, "untraced_s": untraced, "traced_s": traced})
    print(f"{workload} seed {seed}: traced {sum(len(jobs) for jobs in rounds)} jobs, spans in {path.relative_to(ROOT)}")
    return runner, {k: metrics[k] for k in PER_LAYER}, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in a fresh interpreter, so caches and peak memory are its own
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode:
                return 1
        return 0
    tq = import_package()
    if args.trace:
        runner, values, units = trace(tq, args.workload, args.seed)
    else:
        runner, values, units = measure(tq, args.workload, args.seed, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
