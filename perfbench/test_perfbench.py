"""Tests of the benchmark's own generators, checks and tracer."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import layertrace  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
import twoquadrics as tq  # noqa: E402


def _texts(workload, seed, rounds=2):
    make, _ = W.WORKLOAD_SPECS[workload]
    rng = W.seeded_rng(workload, seed)
    return [(argv, text) for _ in range(rounds) for argv, text, _ in make(rng)]


def test_same_seed_gives_identical_job_texts():
    for workload in W.WORKLOADS:
        assert _texts(workload, 3) == _texts(workload, 3)
        assert _texts(workload, 3) != _texts(workload, 4)


def test_identity_transform_keeps_the_values():
    for name in W.PAPER_FIXTURES:
        obj = W.load_fixture(name)
        one = Fraction(1)
        same = W.transform_job(obj, list(range(6)), [one] * 6, ((one, 0), (0, one)))
        for key in ("diag1", "diag2"):
            assert [W.scalar_from_json(x) for x in same["pencil"][key]] == [
                W.scalar_from_json(x) for x in obj["pencil"][key]
            ]
        assert [g["label"] for g in same["generators"]] == [g["label"] for g in obj["generators"]]


def test_untransformed_fixtures_give_the_expected_reports():
    for name in W.PAPER_FIXTURES:
        text = (W.FIXTURES / name).read_text()
        out = json.loads(tq.emit(tq.run_report(tq.parse_job(text)), "json"))
        assert W.check_report(out, W.PAPER_EXPECTED[name]) is None, name


def _main_json(argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert tq.main(argv) == 0
    return json.loads(buf.getvalue())


def test_untransformed_fixtures_give_the_expected_subcommand_outputs():
    for cmd, table in (("branch", W.BRANCH_EXPECTED), ("fixed-points", W.FIXED_POINTS_EXPECTED),
                       ("invariant-lines", W.LINES_EXPECTED), ("theta", W.THETA_EXPECTED)):
        for name in table:
            out = _main_json([cmd, "--fixture", name, "--format", "json"])
            assert W.check_subcommand(out, (cmd, name)) is None, (cmd, name)
    obj = W.load_fixture(W.DP4_FIXTURE)
    regs = {k: (W.int_matrix_power_diagonal(r["matrix"], r["power"]), r["expected_diagonal"])
            for k, r in obj["regressions"].items()}
    out = _main_json(["dp4", "--fixture", W.DP4_FIXTURE])
    assert W.check_subcommand(out, ("dp4", regs)) is None
    out = _main_json(["lift", "--fixture", W.LIFT_FIXTURE, "--scalar-order", "8"])
    assert W.check_subcommand(out, ("lift", 8)) is None
    assert W.check_subcommand(_main_json(["identities", "--g-max", "5"]), ("identities", 5)) is None


def test_transformed_jobs_pass_their_checks():
    rng = random.Random(1)
    text = W.transformed_fixture_text("example_7_3.json", rng)
    out = json.loads(tq.emit(tq.run_report(tq.parse_job(text)), "json"))
    assert W.check_report(out, W.PAPER_EXPECTED["example_7_3.json"]) is None
    for popcounts in ((2,), (3,)):
        text, expected = W.sign_group_job(rng, popcounts)
        out = json.loads(tq.emit(tq.run_report(tq.parse_job(text)), "json"))
        assert W.check_sign_report(out, expected) is None


def _brute_force_verdict(masks, n=6):
    """Close the generating +-1 diagonal matrices under products."""
    gens = [tuple(-1 if m >> i & 1 else 1 for i in range(n)) for m in masks]
    ident = (1,) * n
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(a * b for a, b in zip(e, g))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    free = any(min(e.count(-1), e.count(1)) == 2 for e in seen)
    return "OBSTRUCTED" if free else "INCONCLUSIVE", len(seen)


def test_sign_rule_agrees_with_brute_force_enumeration():
    rng = random.Random(11)
    for _ in range(400):
        rank = rng.randint(1, 5)
        masks = W.random_sign_masks(rng, [rng.randint(1, 5) for _ in range(rank)])
        verdict, order = _brute_force_verdict(masks)
        assert W.sign_rule(masks) == verdict
        assert order == 2 ** rank == len(W.sign_span(masks))


def test_conjugated_signed_perms_stay_in_wd5():
    rng = random.Random(5)
    for _ in range(50):
        w = W.random_wd5(rng)
        s = W.conjugate_signed_perm({"perm": [1, 3, 4, 5, 2], "signs": [1, 1, 1, -1, -1]}, w)
        assert sorted(s["perm"]) == [1, 2, 3, 4, 5] and s["signs"].count(-1) % 2 == 0


def test_tail_percentile_needs_ten_samples_beyond():
    p, value, beyond = run.tail_percentile([float(k) for k in range(40)])
    assert (p, beyond) == (75.0, 10) and 28.0 < value < 30.0
    assert run.tail_percentile([float(k) for k in range(39)])[0] == 70.0
    assert run.tail_percentile([float(k) for k in range(33)])[0] == 50.0


def test_incomplete_beta_and_harrell_davis():
    assert abs(run._betainc(1.0, 1.0, 0.3) - 0.3) < 1e-12
    assert abs(run._betainc(7.5, 7.5, 0.5) - 0.5) < 1e-12
    assert abs(run._betainc(2.0, 3.0, 0.4) - 0.5248) < 1e-12  # 1 - (1-x)^4 - 4x(1-x)^3
    assert abs(run.harrell_davis([float(k) for k in range(101)], 0.5) - 50.0) < 1e-9
    assert abs(run.harrell_davis([2.0] * 30, 0.9) - 2.0) < 1e-9  # the weights sum to 1


def test_reference_kernel_is_fixed_work():
    assert refclock.kernel() == refclock.kernel() == sum(
        Fraction(i, i + 1) * Fraction(i + 2, 3) for i in range(1, 120)
    )


def test_reference_clock_keeps_its_share_of_the_measured_time():
    clock = refclock.RefClock(0.5)
    clock.keep_up(0.0)
    assert len(clock.samples) == 1  # at least one call, even for no time
    clock.keep_up(0.05)
    assert clock.spent >= 0.5 * 0.05
    assert clock.spent - clock.samples[-1] < 0.5 * 0.05  # and no call more
    assert clock.scale() == refclock.REF_S / clock.mean_s()


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_tracer_counts_repeat_and_uninstall_restores():
    text = (W.FIXTURES / "example_7_3.json").read_text()
    original = tq.main

    def counts():
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            tracer.start_job("t")
            tq.emit(tq.run_report(tq.parse_job(text)), "json")
            tracer.end_job()
        finally:
            tracer.uninstall()
        return tracer.metrics(1.0), tracer.spans

    tq.run_report(tq.parse_job(text))  # warm-up
    first, spans = counts()
    second, _ = counts()
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert first["jsonio.parse_job.calls"] == 1 and first["cyclo.mul.calls"] > 0
    assert tq.main is original
    names = {s[3]: s for s in spans}
    assert names["cli.run_report"][2] == names["job"][1]  # parent is the job span
