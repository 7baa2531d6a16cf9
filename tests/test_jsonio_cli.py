import json
import random
import time
from fractions import Fraction

import pytest

from twoquadrics import binforms, cli, groups, matrices
from twoquadrics.cli import _perm_cycles, main, run_report
from twoquadrics.cyclo import CycNum, zeta
from twoquadrics.errors import SchemaError
from twoquadrics.matrices import Mat
from twoquadrics.jsonio import cycnum_to_json, dp4_input_from_json, lift_input_from_json, parse_job

try:
    from importlib import resources

    def fixture_text(name):
        return (resources.files("twoquadrics") / "fixtures" / name).read_text()
except ImportError:  # pragma: no cover
    fixture_text = None


def _diagonal_job(diag1, diag2=(0, 1, 2, 3, 4, 5)):
    return {"pencil": {"diag1": list(diag1), "diag2": list(diag2)}}


def test_cycnum_roundtrip():
    # numbers written by cycnum_to_json, as an int, as [n, d] or at order 4 read back as themselves
    values = [zeta(8) + zeta(8, 3), CycNum.from_rational(7), -zeta(12), 5, Fraction(3, 2), 1]
    entries = [cycnum_to_json(x) for x in values[:3]] + [5, [3, 2], {"order": 4, "coeffs": [[1, 1], [0, 1]]}]
    assert parse_job(_diagonal_job(entries)).pencil.q1 == Mat.diagonal(values)


def test_cycnum_schema_errors():
    for bad in (True, [1, 0], {"order": 8}, {"order": 8, "coeffs": [[1, 1], [0, 1], [0, 1], "no"]}):
        with pytest.raises(SchemaError):
            parse_job(_diagonal_job([bad] + [1] * 5))
    # phi(8) = 4, so three coefficients is malformed
    with pytest.raises(SchemaError) as exc:
        parse_job(_diagonal_job([{"order": 8, "coeffs": [[1, 1], [0, 1], [0, 1]]}] + [1] * 5))
    assert "$.pencil.diag1[0]" in str(exc.value)


def _lift_generator(matrix):
    return {"representations": {"r": {"generators": [{"label": "a", "matrix": matrix}]}}}


def test_mat_roundtrip_and_errors():
    # entries read as int and Fraction key as the same entries read as CycNum
    obj = {"rows": 2, "cols": 2, "entries": [[1, [3, -2]], [[4, 6], {"order": 1, "coeffs": [[5, 3]]}]]}
    values = [[1, Fraction(-3, 2)], [Fraction(2, 3), Fraction(5, 3)]]
    want = Mat([[CycNum.from_rational(x) for x in row] for row in values])
    (_, read), = lift_input_from_json(_lift_generator(obj))[1]["r"].generators
    for m in (read, Mat(values)):
        assert m.key() == want.key() == (1, 6, ((6, -9), (4, 10)))
    with pytest.raises(SchemaError):
        lift_input_from_json(_lift_generator({"rows": 2, "cols": 2, "entries": [[1, 2]]}))
    with pytest.raises(SchemaError):
        lift_input_from_json(_lift_generator([1, 2]))


def test_pencil_json():
    obj = {"diag1": [1, 1, 1, 1, 1, 1], "diag2": [0, 1, 2, 3, 4, 5]}
    p = parse_job({"pencil": obj}).pencil
    assert p.g == 2 and p.size == 6
    with pytest.raises(SchemaError):
        parse_job({"pencil": {"diag1": [1, 1], "diag2": [1, 1]}})
    with pytest.raises(SchemaError):
        parse_job({"pencil": {"diag1": [1] * 6, "diag2": [1] * 5}})
    with pytest.raises(SchemaError):
        parse_job({"pencil": {"g": 2, "diag1": [1] * 4, "diag2": [0, 1, 2, 3]}})


def test_relation_json():
    (r,), _ = lift_input_from_json({"relations": [{"word": [["sigma", 6]]}]})
    assert r.target == "identity"
    (r,), _ = lift_input_from_json({"relations": [{"word": [["t", 1], ["s", -1]], "target": {"central": "iota"}}]})
    assert r.target == ("central", "iota")
    with pytest.raises(SchemaError):
        lift_input_from_json({"relations": [{"word": []}]})
    with pytest.raises(SchemaError):
        lift_input_from_json({"relations": [{"word": [["a", 1]], "target": "nonsense"}]})


def test_signedperm_json():
    s = dp4_input_from_json({"elements": {"s": {"perm": [1, 3, 4, 5, 2], "signs": [1, 1, 1, -1, -1]}}})[0]["s"]
    assert s.order() == 4
    with pytest.raises(SchemaError):
        dp4_input_from_json({"elements": {"s": {"perm": [1, 1, 3, 4, 5], "signs": [1] * 5}}})
    with pytest.raises(SchemaError):
        dp4_input_from_json({"elements": {"s": {"perm": [1, 2, 3, 4, 5]}}})


def test_parse_job_fixture_roundtrip():
    job = parse_job(fixture_text("example_7_5.json"))
    assert job.pencil.g == 2
    assert job.group is not None
    assert job.branch is not None and job.branch.points.cols == 6
    full = parse_job(fixture_text("example_7_5_full.json"))
    assert full.moebius_only


def test_parse_job_errors():
    with pytest.raises(SchemaError):
        parse_job("{not json")
    with pytest.raises(SchemaError):
        parse_job({})
    with pytest.raises(SchemaError):
        parse_job({"pencil": {"diag1": [1] * 6, "diag2": [0, 1, 2, 3, 4, 5]},
                   "generators": [{"label": "g"}]})


def test_perm_cycles():
    assert _perm_cycles((1, 2, 4, 5, 6, 3)) == "(3 4 5 6)"
    assert _perm_cycles((1, 2, 3)) == "()"
    assert _perm_cycles((2, 1, 4, 3)) == "(1 2)(3 4)"


def test_run_report_verdicts():
    assert run_report(parse_job(fixture_text("example_7_5.json")))["status"] == (
        "LINEARIZABLE_CERTIFIED"
    )
    full = run_report(parse_job(fixture_text("example_7_5_full.json")))
    assert full["status"] == "OBSTRUCTED"
    assert any(e.get("stage") == 5 and e.get("fixed_odd_classes") == []
               for e in full["evidence"])
    stage4 = run_report(parse_job(fixture_text("example_7_3.json")))
    assert stage4["status"] == "OBSTRUCTED"
    assert any(e.get("free_two_torsion") for e in stage4["evidence"])


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["report", "--fixture", "example_7_5.json"]) == 0
    out = capsys.readouterr().out
    assert "LINEARIZABLE_CERTIFIED" in out
    assert main(["report", "--fixture", "no_such.json"]) == 2
    assert main(["report", "/nonexistent/path.json"]) == 2
    assert main(["report"]) == 2
    capsys.readouterr()

    full = json.loads(fixture_text("example_7_5_full.json"))
    gamma, tau = full["generators"]
    twice = dict(full, generators=[gamma, dict(gamma)])
    moebius_reuses = dict(full, generators=[gamma, dict(tau, label="gamma")])
    small = dict(full, generators=[{"label": "s", "matrix": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}}])
    empty = dict(full, generators=[{"label": "e", "matrix": {"rows": 0, "cols": 0, "entries": []}}])
    named = dict(full, named={"iota": {"rows": 1, "cols": 1, "entries": [[1]]}})
    zero6 = {"rows": 6, "cols": 6, "entries": [[0] * 6 for _ in range(6)]}
    singular = dict(full, generators=[{"label": "z", "matrix": zero6}])
    singular_named = dict(full, named={"iota": zero6})
    gamma8 = {"word": [["gamma", 8]]}
    cases = [
        (twice, "$.generators[1].label"),
        (moebius_reuses, "$.generators[1].label"),
        (small, "$.generators[0].matrix"),
        (empty, "$.generators[0].matrix"),
        (named, "$.named.iota"),
        (dict(full, checks=[]), "$.checks"),
        (dict(full, generator=full["generators"]), "$.generator"),
        (dict(full, generators=[dict(gamma, moebus=tau["moebius"]), tau]), "$.generators[0].moebus"),
        (singular, "$.generators[0].matrix"),
        (singular_named, "$.named.iota"),
        # relation words may use matrix generator labels only, central
        # targets must be named, and every discrepancy must be a scalar
        (dict(full, relations=[{"word": [["tau", 2]]}]), "$.relations[0]"),
        (dict(full, relations=[dict(gamma8, target={"central": "iota"})]), "$.relations[0]"),
        (dict(full, relations=[gamma8, {"word": [["gamma", 1]]}]), "$.relations[1]"),
        (dict(full, relations=[{"word": [["gamma", 2]], "target": "scalar"}]), "$.relations[0]"),
    ]
    for k, (job, where) in enumerate(cases):
        path = tmp_path / f"job{k}.json"
        path.write_text(json.dumps(job))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {where}:"), err
    for job, where in ((singular, "$.generators[0].matrix"), (singular_named, "$.named.iota")):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(job))
        assert main(["fixed-points", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {where}:"), err
    # a lift relation may name only the generators and named elements of
    # each representation, and its central target must be named there
    sigma = {"label": "sigma", "matrix": {"rows": 1, "cols": 1, "entries": [[-1]]}}
    for rel in ({"word": [["rho", 2]]}, {"word": [["sigma", 2]], "target": {"central": "iota"}}):
        path = tmp_path / "lift.json"
        path.write_text(json.dumps({"relations": [rel], "representations": {"R": {"generators": [sigma]}}}))
        assert main(["lift", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: $.relations[0]:") and "'R'" in err, err


def test_singular_matrices_exit_2_with_the_singular_message(capsys, tmp_path):
    # nonzero and of rank 5: the last row is the sum of the first two
    rank5 = [[1, 2, 0, 0, 0, 1], [0, 1, 3, 0, 0, 0], [0, 0, 1, 0, 0, 0],
             [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [1, 3, 3, 0, 0, 1]]
    rank5 = {"rows": 6, "cols": 6, "entries": rank5}
    full = json.loads(fixture_text("example_7_5_full.json"))
    rank1 = {"rows": 2, "cols": 2, "entries": [[1, 2], [2, 4]]}
    cases = [
        ("report", dict(full, generators=[{"label": "r", "matrix": rank5}]), "$.generators[0].matrix"),
        ("report", dict(full, named={"iota": rank5}), "$.named.iota"),
        ("lift", {"representations": {"R": {"generators": [{"label": "s", "matrix": rank1}]}}},
         "$.representations.R.generators[0].matrix"),
    ]
    for cmd, job, where in cases:
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(job))
        assert main([cmd, str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {where}: matrix is singular\n"


def _refused_entries():
    """(command, input, JSON path, message) of one refused number in each
    reader: matrix, named matrix, moebius map, branch root, diagonal and
    lift matrix entries, and the entry-level checks of an order entry."""
    full = json.loads(fixture_text("example_7_5_full.json"))
    lift = json.loads(fixture_text("example_7_4.json"))

    def edited(obj, keys, value):
        obj = json.loads(json.dumps(obj))
        node = obj
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return obj

    identity = {"rows": 6, "cols": 6, "entries": [[int(i == j) for j in range(6)] for i in range(6)]}
    zero = "zero denominator"
    return [
        ("report", edited(full, ("generators", 0, "matrix", "entries", 2, 3), [1, 0]),
         "$.generators[0].matrix.entries[2][3]", zero),
        ("report", dict(full, named={"z": edited(identity, ("entries", 0, 1), [3, 0])}), "$.named.z.entries[0][1]", zero),
        ("report", edited(full, ("generators", 1, "moebius", 1, 0), [2, 0]), "$.generators[1].moebius[1][0]", zero),
        ("report", edited(full, ("branch", "roots", 4, 1), [1, 0]), "$.branch.roots[4][1]", zero),
        ("report", edited(full, ("pencil", "diag2", 5), [1, 0]), "$.pencil.diag2[5]", zero),
        ("report", edited(full, ("pencil", "diag1", 0), {"order": 4, "coeffs": [[1, 1], [1, 0]]}),
         "$.pencil.diag1[0].coeffs[1]", zero),
        ("lift", edited(lift, ("representations", "W", "generators", 0, "matrix", "entries", 1, 0), [5, 0]),
         "$.representations.W.generators[0].matrix.entries[1][0]", zero),
        ("report", edited(full, ("pencil", "diag1", 0), {"order": 100, "coeffs": [[1, 1]]}),
         "$.pencil.diag1[0].coeffs", "too few coefficients for order 100"),
        ("report", edited(full, ("generators", 0, "matrix", "entries", 0, 0), {"order": 3, "coeffs": [[1, 1]] * 3}),
         "$.generators[0].matrix.entries[0][0].coeffs", "'coeffs' must be an array of 2 entries for order 3"),
        ("report", edited(full, ("branch", "roots", 0, 0), {"order": 0, "coeffs": [[1, 1]]}),
         "$.branch.roots[0][0].order", "'order' must be a positive integer"),
    ]


@pytest.mark.parametrize("cmd, job, where, message", _refused_entries())
def test_a_refused_entry_exits_2_at_its_path(cmd, job, where, message, capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main([cmd, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {where}: {message}\n"


def test_a_moebius_generator_maps_the_pencil_parameter_as_written(capsys, tmp_path):
    # [[1, i], [1, -i]] sends (t1, t2) to (t1 + i t2, t1 - i t2): t -> (t + i)/(t - i)
    # permutes the branch points 0, oo, +-1, +-i of 7.5; read transposed, the
    # map would permute them by (1 4 3)(2 6 5)
    job = json.loads(fixture_text("example_7_5_full.json"))
    i, minus_i = ({"order": 4, "coeffs": [[0, 1], [s, 1]]} for s in (1, -1))
    job["generators"][1]["moebius"] = [[1, i], [1, minus_i]]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["branch", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["permutations"]["tau"] == "(1 3 6)(2 5 4)"


def test_report_reads_relations():
    full = json.loads(fixture_text("example_7_5_full.json"))
    minus = {"rows": 6, "cols": 6, "entries": [[-int(i == j) for j in range(6)] for i in range(6)]}
    gamma8 = {"word": [["gamma", 8]]}
    job = dict(full, named={"iota": minus}, relations=[gamma8, dict(gamma8, target={"central": "iota"})])
    stage2 = run_report(parse_job(job))["evidence"][1]
    assert stage2["stage"] == 2 and stage2["relation_scalars"] == ["1", "-1"]
    assert "relation_scalars" not in run_report(parse_job(full))["evidence"][1]


def test_numeric_options_must_be_positive(capsys):
    cases = [
        ["lift", "--fixture", "example_7_4.json", "--scalar-order", "0"],
        ["lift", "--fixture", "example_7_4.json", "--scalar-order", "-2"],
        ["report", "--fixture", "example_7_5.json", "--max-closure", "-5"],
        ["identities", "--g-max", "0"],
        ["identities", "--g-max", "x"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err


def test_lift_search_is_capped(capsys, monkeypatch):
    argv = ["lift", "--fixture", "example_7_4.json", "--scalar-order", "8"]
    monkeypatch.setattr(groups, "MAX_LIFT_TUPLES", 8**2 - 1)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: 8^2 scalar tuples exceed 63")
    monkeypatch.setattr(groups, "MAX_LIFT_TUPLES", 8**2)
    assert main(argv) == 0


def test_one_generator_lift_search_is_capped(capsys, tmp_path):
    # one generator still builds all M roots, at a cost of about M^2
    job = tmp_path / "lift.json"
    job.write_text(json.dumps({
        "relations": [{"word": [["sigma", 2]]}],
        "representations": {"V": {"generators": [
            {"label": "sigma", "matrix": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, -1]]}}]}},
    }))
    assert main(["lift", str(job), "--scalar-order", "1000"]) == 0
    capsys.readouterr()
    assert main(["lift", str(job), "--scalar-order", "1001"]) == 3
    assert capsys.readouterr().err.startswith("error: 1001^2 scalar tuples exceed 1000000 at scalar order 1001")
    t0 = time.perf_counter()
    assert main(["lift", str(job), "--scalar-order", str(10**6)]) == 3
    assert time.perf_counter() - t0 < 1
    assert "scalar order 1000000" in capsys.readouterr().err


def test_infinite_order_generator_fails_fast(capsys, tmp_path):
    # 2*I acts on points by I/2, of determinant 1/64; the closure used to run to its 10000 cap
    obj = json.loads(fixture_text("example_7_3.json"))
    obj["generators"].append({"label": "two", "matrix": {"rows": 6, "cols": 6, "entries": [
        [2 if i == j else 0 for j in range(6)] for i in range(6)]}})
    job = tmp_path / "job.json"
    job.write_text(json.dumps(obj))
    for cmd in ("report", "fixed-points", "invariant-lines"):
        t0 = time.perf_counter()
        assert main([cmd, str(job)]) == 3
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == "error: generator 'two' has determinant 1/64, not a root of unity: infinite order\n"
    assert main(["branch", str(job)]) == 0  # it never closes the group


def test_lift_refuses_a_generator_of_infinite_order_before_the_closure(capsys, tmp_path):
    # a shear and a rational rotation have determinant 1 and infinite order: the
    # closure used to run to its 10000 cap; a finite order above 360 is refused
    # too, as every command that takes eigenspaces refuses it
    job = tmp_path / "lift.json"

    def lift(entries):
        job.write_text(json.dumps({"relations": [{"word": [["s", 1]], "target": "scalar"}], "representations": {
            "V": {"generators": [{"label": "s", "matrix": {"rows": len(entries), "cols": len(entries), "entries": entries}}]}}}))
        t0 = time.perf_counter()
        assert main(["lift", str(job)]) == 3
        assert capsys.readouterr().err == "error: generator 's' has no power up to 360 equal to the identity\n"
        return time.perf_counter() - t0

    assert lift([[1, 1], [0, 1]]) < 0.5
    assert lift([[[3, 5], [-4, 5]], [[4, 5], [3, 5]]]) < 0.5
    lift([[cycnum_to_json(zeta(361))]])


def test_gram_matrices_must_be_square_and_symmetric(capsys, tmp_path):
    # the Gram checks come before the genus and size checks: a job that is
    # nonsymmetric and has the wrong g names the symmetric check
    def gram(rows):
        return {"rows": len(rows), "cols": len(rows[0]), "entries": rows}

    diag = [[int(i == j) * (i + 1) for j in range(6)] for i in range(6)]
    skew = [row[:] for row in diag]
    skew[0][1] = 1
    job = tmp_path / "job.json"
    cases = [
        ({"Q1": gram(skew), "Q2": gram(diag), "g": 2}, "symmetric"),
        ({"Q1": gram(diag), "Q2": gram([[int(i == j) for j in range(3)] for i in range(4)]), "g": 2}, "square"),
        ({"Q1": gram(skew), "Q2": gram(diag), "g": 3}, "symmetric"),
    ]
    for pencil, check in cases:
        job.write_text(json.dumps({"pencil": pencil}))
        assert main(["report", str(job)]) == 2
        assert capsys.readouterr().err == f"input error: $.pencil: Gram matrix must be {check}\n"


def test_generator_off_the_pencil_fails_before_the_closure(capsys, tmp_path):
    # diag(2, 1/2, 1, 1, 1, 1) has determinant 1 and infinite order: only the symmetry check stops it before the closure cap
    obj = json.loads(fixture_text("example_7_3.json"))
    diag = [2, [1, 2], 1, 1, 1, 1]
    obj["generators"].append({"label": "stretch", "matrix": {"rows": 6, "cols": 6, "entries": [
        [diag[i] if i == j else 0 for j in range(6)] for i in range(6)]}})
    job = tmp_path / "job.json"
    job.write_text(json.dumps(obj))
    for cmd in ("report", "branch", "fixed-points", "invariant-lines"):
        t0 = time.perf_counter()
        assert main([cmd, str(job)]) == 2
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == "input error: transformed quadric leaves the pencil span\n"
    # parse_job checks every generator, so report on a pencil that is not smooth refuses it too
    obj["pencil"]["diag2"][1] = obj["pencil"]["diag2"][0]
    job.write_text(json.dumps(obj))
    assert main(["report", str(job)]) == 2
    assert capsys.readouterr().err == "input error: transformed quadric leaves the pencil span\n"
    # Q2 = Q1 and the zero pencil span no pencil: refused at $.pencil, before any generator is read
    obj["generators"].pop()
    obj["pencil"]["diag2"] = obj["pencil"]["diag1"]
    job.write_text(json.dumps(obj))
    assert main(["report", str(job)]) == 2
    assert capsys.readouterr().err == "input error: $.pencil: Q1 and Q2 must be linearly independent\n"
    obj["pencil"] = {"diag1": [0] * 6, "diag2": [0] * 6}
    job.write_text(json.dumps(obj))
    for cmd in ("report", "branch"):
        assert main([cmd, str(job)]) == 2
        assert capsys.readouterr().err == "input error: $.pencil: Q1 and Q2 must be linearly independent\n"


def test_a_pencil_dependent_over_a_cyclotomic_field_or_in_dense_coordinates_exits_2(capsys, tmp_path):
    # Q2 = zeta8 Q1 is dependent over Q(zeta8) only; Q2 = 3 Q1 with no zero entry
    diag = [1, 2, 3, 4, 5, 6]
    dense = [[(i + 1) * (j + 1) + 3 * (i == j) for j in range(6)] for i in range(6)]
    gram = lambda rows: {"rows": 6, "cols": 6, "entries": rows}
    pencils = [
        {"diag1": diag, "diag2": [cycnum_to_json(zeta(8) * x) for x in diag]},
        {"g": 2, "Q1": gram(dense), "Q2": gram([[3 * x for x in row] for row in dense])},
    ]
    job = tmp_path / "job.json"
    for pencil in pencils:
        job.write_text(json.dumps({"pencil": pencil}))
        assert main(["report", str(job)]) == 2
        assert capsys.readouterr().err == "input error: $.pencil: Q1 and Q2 must be linearly independent\n"


def _on_x0_x1(label, block):
    """A generator that is the 2x2 block on x0, x1 and the identity elsewhere."""
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    for a in range(2):
        rows[a][:2] = block[a]
    return {"label": label, "matrix": {"rows": 6, "cols": 6, "entries": rows}}


def test_pencils_that_are_not_smooth_never_close_the_group(capsys, tmp_path):
    # on 7.3 with diag2[1] = diag2[0], every orthogonal block on x0, x1 is a
    # symmetry, so generators of finite order may generate an infinite group;
    # fixed-points and invariant-lines read only the generators (they used to
    # run the closure to its cap, for 3-4 s), and report stops at stage 1
    rotation = _7_3_not_smooth()  # the rotation has determinant 1 and infinite order
    rotation["generators"].append(_on_x0_x1("rot", [[[3, 5], [-4, 5]], [[4, 5], [3, 5]]]))
    reflections = dict(_7_3_not_smooth(), generators=[  # of order 2 each, with an infinite dihedral group
        _on_x0_x1("r1", [[1, 0], [0, -1]]), _on_x0_x1("r2", [[[3, 5], [4, 5]], [[4, 5], [-3, 5]]])])
    no_branch = (2, "input error: job has no branch data\n")
    no_power = (3, "error: generator 'rot' has no power up to 360 equal to the identity\n")
    expected = {
        "rotation": (rotation, {"fixed-points": no_power, "invariant-lines": no_power}),
        "reflections": (reflections, {
            "fixed-points": (0, ""),
            "invariant-lines": (3, "error: generators 'r1' and 'r2' do not commute\n"),
        }),
    }
    for name, (obj, exits) in expected.items():
        job = tmp_path / f"{name}.json"
        job.write_text(json.dumps(obj))
        for cmd, want in dict({"report": (0, ""), "branch": (0, ""), "theta": no_branch}, **exits).items():
            t0 = time.perf_counter()
            got = main([cmd, str(job)])
            assert time.perf_counter() - t0 < 0.5, (name, cmd)
            out, err = capsys.readouterr()
            assert (got, err) == want, (name, cmd)
            if cmd == "report":
                assert out.startswith("verdict: INCONCLUSIVE\n  stage 1: {\"smooth\": false}\n")
    assert main(["fixed-points", str(tmp_path / "reflections.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "points": [], "lines_on_x": [], "higher_dimensional": [{"projective_dim": 3}]}


def test_branch_data_proves_smoothness_without_a_resultant(monkeypatch, capsys, tmp_path):
    # 2g+2 distinct checked roots of the nonzero degeneracy form give it a
    # nonzero discriminant, so only a job without branch data computes one;
    # the sign group skips stage 3's del Pezzo test, the other resultant
    calls = []
    real = binforms.resultant
    monkeypatch.setattr(binforms, "resultant", lambda f, g: calls.append(f) or real(f, g))
    job = _sign_job(tmp_path, [0b11])
    obj = json.loads((tmp_path / "signs.json").read_text())
    obj["branch"] = {"roots": [[k, -1] if k else [0, 1] for k in range(6)]}  # the roots of t1 + k t2
    with_branch = tmp_path / "branch.json"
    with_branch.write_text(json.dumps(obj))
    for path, resultants in ((with_branch, 0), (job, 1)):
        for cmd in ("report", "branch"):
            calls.clear()
            assert main([cmd, "--format", "json", str(path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert (out["evidence"][0] if cmd == "report" else out)["smooth"] is True
            assert len(calls) == resultants, (path, cmd)


def _zero_form_with_roots():
    # det(t1 Q1 + t2 Q2) vanishes identically, so any six points pass as "roots"
    return {"pencil": {"diag1": [1, 2, 3, 4, 5, 0], "diag2": [5, 4, 3, 2, 1, 0]},
            "branch": {"roots": [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [1, 4]]}}


def test_the_group_is_closed_only_where_its_elements_are_read(monkeypatch, capsys):
    # stage 4 reads the elements as a breadth-first stream; stage 3,
    # fixed-points and invariant-lines read only the generators, so 7.5,
    # certified at stage 3, enumerates no group
    caps = []
    real = cli.breadth_first
    monkeypatch.setattr(cli, "breadth_first", lambda group, cap: caps.append(cap) or real(group, cap))
    for argv, streams in [
        (["report", "--fixture", "example_7_5.json", "--max-closure", "1"], 0),
        (["fixed-points", "--fixture", "example_7_5.json"], 0),
        (["invariant-lines", "--fixture", "example_7_5.json"], 0),
        (["fixed-points", "--fixture", "example_7_3.json"], 0),
        (["invariant-lines", "--fixture", "example_7_3.json"], 0),
        (["report", "--fixture", "example_7_3.json"], 1),
        (["report", "--fixture", "example_7_5_full.json"], 1),
    ]:
        caps.clear()
        assert main(argv) == 0, argv
        assert len(caps) == streams, argv
    assert caps == [groups.MAX_CLOSURE]


def _sign_job(tmp_path, masks):
    """A smooth diagonal genus-2 pencil over Q and the group of the diagonal
    +-1 matrices with -1 at the bits of each mask, as a job file."""
    gens = [{"label": f"s{k + 1}", "matrix": {"rows": 6, "cols": 6, "entries": [
        [(-1 if m >> i & 1 else 1) if i == j else 0 for j in range(6)] for i in range(6)]}}
        for k, m in enumerate(masks)]
    path = tmp_path / "signs.json"
    path.write_text(json.dumps({"pencil": {"g": 2, "diag1": [1] * 6, "diag2": list(range(6))}, "generators": gens}))
    return str(path)


def _five_sign_job(tmp_path):
    """Generators of minus-counts 1 to 5, spanning a group of order 32: s2,
    of minus-count 2, is its third element in breadth-first order."""
    return _sign_job(tmp_path, [0b1, 0b11, 0b111, 0b1111, 0b11111])


def test_stage_4_stops_at_its_first_witness(monkeypatch, capsys, tmp_path):
    job = _five_sign_job(tmp_path)
    words = []
    real = cli.breadth_first

    def spy(group, cap):
        for m, word in real(group, cap):
            words.append(word)
            yield m, word

    monkeypatch.setattr(cli, "breadth_first", spy)
    assert main(["report", "--format", "json", job]) == 0
    witness = json.loads(capsys.readouterr().out)["evidence"][-1]
    assert witness["witness_word"] == ["s2"] and witness["sign_vector"] == [1, 1, -1, -1, -1, -1]
    assert words == [(), ("s1",), ("s2",)]


def test_a_witness_within_the_cap_is_reported(capsys, tmp_path):
    # the cap bounds the elements stage 4 reads, not the order of the group
    job = _five_sign_job(tmp_path)
    assert main(["report", "--format", "json", "--max-closure", "3", job]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "OBSTRUCTED"
    assert main(["report", "--max-closure", "2", job]) == 3
    assert capsys.readouterr().err == "error: closure exceeds cap 2\n"


def test_a_group_without_a_witness_past_the_cap_exits_3(capsys, tmp_path):
    # diag(-1, -1, -1, 1, 1, 1), diag(1, 1, 1, -1, -1, -1) and their product
    # -1 have minus-counts 3, 3 and 0: stage 4 reads the whole group
    job = _sign_job(tmp_path, [0b000111, 0b111000])
    assert main(["report", "--format", "json", job]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "INCONCLUSIVE"
    assert main(["report", "--max-closure", "2", job]) == 3
    assert capsys.readouterr().err == "error: closure exceeds cap 2\n"


def test_lift_stops_at_its_closure_cap(capsys, monkeypatch):
    # the first representation of example 7.4 has 24 elements: the stream
    # refuses the 24th under cap 23, and no product is formed after it
    products, streamed = [], []
    real_product, real_stream = matrices._product, cli.breadth_first

    def product_spy(a, b):
        m = real_product(a, b)
        products.append(m.key())
        return m

    def stream_spy(group, cap):
        for m, word in real_stream(group, cap):
            streamed.append(m.key())
            yield m, word

    monkeypatch.setattr(cli, "breadth_first", stream_spy)
    assert main(["lift", "--fixture", "example_7_4.json", "--max-closure", "24"]) == 0
    assert json.loads(capsys.readouterr().out)["V"]["closure_order"] == 24
    group = set(streamed[:24])
    streamed.clear()
    monkeypatch.setattr(matrices, "_product", product_spy)
    assert main(["lift", "--fixture", "example_7_4.json", "--max-closure", "23"]) == 3
    assert capsys.readouterr().err == "error: closure exceeds cap 23\n"
    assert len(streamed) == 23 and set(streamed) < group
    last = products[-1]  # the product that raised: the one element of V past the cap
    assert last in group - set(streamed) and last not in products[:-1]


def test_one_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; each call's options and their
    # defaults come from that call's argv alone
    assert cli.build_parser() is cli.build_parser()
    lift = ["lift", "--fixture", "example_7_4.json"]
    assert main(lift + ["--max-closure", "23"]) == 3
    assert main(lift) == 0
    assert json.loads(capsys.readouterr().out)["V"]["closure_order"] == 24
    report = ["report", "--fixture", "example_7_3.json"]
    assert main(report + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "OBSTRUCTED"
    assert main(report) == 0
    assert capsys.readouterr().out.startswith("verdict: OBSTRUCTED\n")
    with pytest.raises(SystemExit) as exc:
        main(report + ["--max-closure", "0"])
    assert exc.value.code == 2
    assert "argument --max-closure:" in capsys.readouterr().err
    assert main(report) == 0
    assert capsys.readouterr().out.startswith("verdict: OBSTRUCTED\n")


def test_a_fixture_is_a_file_name_in_the_fixtures_directory(capsys):
    shipped = resources.files("twoquadrics") / "fixtures" / "example_7_3.json"
    for name in ("../__init__.py", str(shipped), "sub/../example_7_3.json"):
        assert main(["report", "--fixture", name]) == 2, name
        assert capsys.readouterr().err == f"input error: no such fixture: {name}\n"


def test_c5_pencil_needs_a_square_root_outside_q_zeta_24(capsys, tmp_path):
    # the genus-2 pencil with a C5 symmetry: diag1 = 1^6, diag2 = (1, z5, z5^2,
    # z5^3, z5^4, 0), c the 5-cycle on x0..x4, and branch curve y^2 = x^6 + x.
    # Its line search asks for sqrt(-20) = 2 sqrt(-5), which lies in Q(zeta_20)
    # but not in Q(zeta_24), the one field cyc_sqrt searches.  This pins the
    # stage-3 `unsupported` item and the `unsupported:` exit of today; square
    # roots taken in the right field (ROADMAP, "Cyclotomic square roots in the
    # right field") will change both on purpose.
    c = [[int(j == (i + 1) % 5) if max(i, j) < 5 else int(i == j) for j in range(6)] for i in range(6)]
    job = tmp_path / "c5.json"
    job.write_text(json.dumps({
        "pencil": {"g": 2, "diag1": [1] * 6, "diag2": [cycnum_to_json(zeta(5, k)) for k in range(5)] + [0]},
        "generators": [{"label": "c", "matrix": {"rows": 6, "cols": 6, "entries": c}}],
    }))
    reason = "quadratic root requires a square root outside Q(zeta_24)"
    assert main(["report", "--format", "json", str(job)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "INCONCLUSIVE"
    assert verdict["evidence"][2:] == [
        {"stage": 3, "subgroup": "c", "unsupported": reason},
        {"stage": 3, "incomplete": "no cyclic subgroup bounded the search"},
        {"stage": 5, "skipped": "no iota-lift found"},
    ]
    for cmd in ("fixed-points", "invariant-lines"):
        assert main([cmd, str(job)]) == 3
        assert capsys.readouterr().err == f"unsupported: {reason}\n"


def _7_5_full_tau_off_the_roots():
    # t -> t + 1 on the pencil parameter maps branch root 3 off the root list
    obj = json.loads(fixture_text("example_7_5_full.json"))
    obj["generators"][1]["moebius"] = [[1, 1], [0, 1]]
    return obj


def _7_5_full_root(k, root):
    # branch root k + 1 of 7.5 full replaced: root(roots) is the new point
    def make():
        obj = json.loads(fixture_text("example_7_5_full.json"))
        obj["branch"]["roots"][k] = root(obj["branch"]["roots"])
        return obj
    return make


def _dependent_pencil(generators):
    # diag2 = 2 diag1: Q2 = 2 Q1 spans no pencil
    return lambda: {"pencil": {"diag1": [1, 2, 3, 4, 5, 6], "diag2": [2, 4, 6, 8, 10, 12]}, "generators": generators}


@pytest.mark.parametrize("cmd", ["report", "branch", "theta", "fixed-points", "invariant-lines"])
@pytest.mark.parametrize("make, message", [
    (_7_5_full_tau_off_the_roots, "$.generators[1].moebius: image of root 3 is not in the root list"),
    (_dependent_pencil([{"label": "tau", "moebius": [[1, 1], [1, -1]]}]),
     "$.pencil: Q1 and Q2 must be linearly independent"),
    (_dependent_pencil([]), "$.pencil: Q1 and Q2 must be linearly independent"),
    (_7_5_full_root(0, lambda roots: [0, 0]), "$.branch: root 1 is (0, 0)"),
    (_7_5_full_root(1, lambda roots: roots[0]), "$.branch: roots 1 and 2 coincide"),
    (_7_5_full_root(0, lambda roots: [7, 3]), "$.branch: point 1 is not a root of the form"),
    (_zero_form_with_roots, "$.branch: the form is zero, so every point is a root"),
], ids=["moebius_off_the_roots", "dependent_moebius_only", "dependent_no_generator",
        "root_zero", "roots_coincide", "root_off_the_form", "zero_form"])
def test_every_job_command_refuses_what_parse_job_refuses(make, message, cmd, capsys, tmp_path):
    # a fact of the job is checked once, by parse_job, so no command ignores it or fails it later
    job = tmp_path / "job.json"
    job.write_text(json.dumps(make()))
    assert main([cmd, str(job)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_subcommands_refuse_options_they_do_not_read(capsys):
    # an option a command does not read is refused, not ignored; the error names the first such argument
    unread = "error: unrecognized arguments: "
    cases = [
        (["branch", "--fixture", "example_7_5.json", "--max-closure", "5"], unread + "--max-closure\n"),
        (["theta", "--fixture", "example_7_5.json", "--max-closure", "5"], unread + "--max-closure\n"),
        (["dp4", "--fixture", "example_dp4_involutions.json", "--max-closure", "5"], unread + "--max-closure\n"),
        # fixed-points and invariant-lines read only the generators, and never close the group
        (["fixed-points", "--fixture", "example_7_3.json", "--max-closure", "5"], unread + "--max-closure\n"),
        (["invariant-lines", "--fixture", "example_7_3.json", "--max-closure", "5"], unread + "--max-closure\n"),
        (["identities", "--max-closure", "5"], unread + "--max-closure 5\n"),
        (["identities", "--fixture", "example_7_3.json"], unread + "--fixture example_7_3.json\n"),
        (["identities", "job.json"], unread + "job.json\n"),
    ]
    # only report and branch have a human format
    human = "error: argument --format: invalid choice: 'human'"
    cases += [
        (["fixed-points", "--fixture", "example_7_3.json", "--format", "human"], human),
        (["invariant-lines", "--fixture", "example_7_3.json", "--format", "human"], human),
        (["theta", "--fixture", "example_7_5.json", "--format", "human"], human),
        (["dp4", "--fixture", "example_dp4_involutions.json", "--format", "human"], human),
        (["lift", "--fixture", "example_7_4.json", "--format", "human"], human),
        (["identities", "--format", "human"], human),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_identities_g_max_is_capped(capsys):
    assert main(["identities", "--g-max", "200"]) == 0
    assert len(json.loads(capsys.readouterr().out)["section_count"]) == 200
    t0 = time.perf_counter()
    assert main(["identities", "--g-max", "201"]) == 3
    assert time.perf_counter() - t0 < 0.1
    assert capsys.readouterr().err == "error: --g-max 201 exceeds 200\n"


def _moved(name, p):
    """Fixture `name` in the coordinates of an integer change of basis P of
    determinant 1: Q_i -> P Q_i P^T, h -> P h P^-1.  Both Grams change by P,
    so the pencil parameter, the moebius generators and the branch roots
    stay as they are."""
    obj = json.loads(fixture_text(name))
    n = p.rows
    p_inv = p.inverse()
    job = parse_job(obj)
    mats = dict(job.group.generators)

    def mat_json(m):
        return {"rows": n, "cols": n, "entries": [[cycnum_to_json(x) for x in row] for row in m.entries]}

    obj["pencil"] = {
        "Q1": mat_json(p * job.pencil.q1 * p.transpose()),
        "Q2": mat_json(p * job.pencil.q2 * p.transpose()),
        "g": 2,
    }
    obj["generators"] = [dict(g, matrix=mat_json(p * mats[g["label"]] * p_inv)) if "matrix" in g else g
                         for g in obj["generators"]]
    return obj


def _moved_7_3():
    return _moved("example_7_3.json", Mat([[int(j in (i, i + 1)) for j in range(6)] for i in range(6)]))


def _unimodular(rng, n=6):
    """A random integer matrix of determinant 1: eight row operations
    row_i += c * row_j, c in {-2, -1, 1, 2}, on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Mat(rows)


def _coordinate_free(verdict):
    """The evidence with what names coordinates taken out: the stage-3 line
    bases and the stage-4 sign vector or minus-count."""
    drop = ("lines", "sign_vector", "minus_count")
    return [{k: v for k, v in item.items() if k not in drop} for item in verdict["evidence"]]


@pytest.mark.parametrize("name", ["example_7_3.json", "example_7_5.json", "example_7_5_full.json"])
def test_report_does_not_depend_on_the_coordinates(name):
    # stage 4 reads the pencil action and the trace, so the verdict, the
    # witness word and the iota-lift word survive any change of basis
    diagonal = run_report(parse_job(fixture_text(name)))
    rng = random.Random(name)
    for _ in range(3):
        p = _unimodular(rng)
        job = parse_job(_moved(name, p))
        assert not job.pencil.q1.is_diagonal(), p
        verdict = run_report(job)
        assert verdict["status"] == diagonal["status"], p
        assert _coordinate_free(verdict) == _coordinate_free(diagonal), p
        assert verdict["soundness_conditions"] == diagonal["soundness_conditions"], p
        for item in verdict["evidence"]:
            if item.get("free_two_torsion"):
                assert item["minus_count"] == 2


def _7_3_not_smooth():
    obj = json.loads(fixture_text("example_7_3.json"))
    obj["pencil"]["diag2"][1] = obj["pencil"]["diag2"][0]
    return obj


def _genus_3():
    signs = [1, 1, 1, 1, 1, 1, -1, -1]
    return {
        "pencil": {"diag1": [1] * 8, "diag2": list(range(8))},
        "generators": [{"label": "s", "matrix": {"rows": 8, "cols": 8, "entries": [
            [signs[i] if i == j else 0 for j in range(8)] for i in range(8)]}}],
    }


def _7_5_full_no_branch():
    obj = json.loads(fixture_text("example_7_5_full.json"))
    del obj["branch"]
    return obj


def _7_5_full_moebius_only():
    obj = json.loads(fixture_text("example_7_5_full.json"))
    obj["generators"] = [g for g in obj["generators"] if "moebius" in g]
    return obj


@pytest.mark.parametrize("make, last", [
    (_7_3_not_smooth, {"stage": 1, "smooth": False}),
    (_genus_3, {"stage": 3, "skipped": "full verdict chain needs g = 2"}),
    (_7_5_full_no_branch, {"stage": 5, "skipped": "no branch data"}),
    (_7_5_full_moebius_only, {"stage": 5, "skipped": "no iota-lift found"}),
    (_moved_7_3, {"stage": 4, "free_two_torsion": True, "witness_word": ["eps"], "minus_count": 2}),
], ids=["not_smooth", "genus_3", "no_branch", "moebius_only", "not_diagonal"])
def test_report_stops_where_the_job_lacks_what_a_stage_needs(make, last):
    verdict = run_report(parse_job(make()))
    assert verdict["status"] == ("OBSTRUCTED" if make is _moved_7_3 else "INCONCLUSIVE")
    assert verdict["evidence"][-1] == last
    if make is _7_5_full_no_branch:
        # stage 2 lists a moebius generator without branch data too
        assert verdict["evidence"][1]["generators"][1] == {"label": "tau", "moebius_only": True}
    if make is _7_5_full_moebius_only:
        # stages 3 and 4 each say why they did not run
        skipped = {"skipped": "no matrix generators"}
        assert verdict["evidence"][2:4] == [{"stage": 3, **skipped}, {"stage": 4, **skipped}]
    if make is _moved_7_3:
        # a non-diagonal pencil lacks nothing stage 4 needs: stages 1-3 agree
        # with the diagonal job, and stage 4 finds its witness, with the
        # minus-count where the diagonal job prints the sign vector
        diagonal = run_report(parse_job(fixture_text("example_7_3.json")))
        assert verdict["evidence"][:3] == diagonal["evidence"][:3]
        assert diagonal["evidence"][3]["sign_vector"] == [1, 1, 1, 1, -1, -1]


def test_dp4_and_lift_input_errors(capsys, tmp_path):
    lift = json.loads(fixture_text("example_7_4.json"))
    rep = lift["representations"]["V"]
    twice = dict(rep, generators=[rep["generators"][0], dict(rep["generators"][1], label=rep["generators"][0]["label"])])
    cases = [
        ("dp4", {"conjugacy": [["a", "b"]]}, "$.conjugacy[0]"),
        ("dp4", [], "$"),
        ("dp4", {"regressions": {"x": {"matrix": [[1, 2], [3]]}}}, "$.regressions.x.matrix"),
        ("dp4", {"elements": {"m": {"perm": 5, "signs": [1, 1, 1, 1, 1]}}}, "$.elements.m.perm"),
        ("lift", dict(lift, representations={"V": twice}), "$.representations.V.generators[1].label"),
    ]
    for k, (cmd, obj, where) in enumerate(cases):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(obj))
        assert main([cmd, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {where}:"), err
    path = tmp_path / "truncated.json"
    path.write_text("{")
    assert main(["dp4", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: $: invalid JSON")
    # an integer past Python's 4300-digit limit for int/str conversion
    path.write_text('{"regressions": {"x": {"matrix": [[1' + "0" * 4400 + "]]}}}")
    assert main(["dp4", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: $: invalid JSON")
    # powers of a matrix of infinite order hit the size cap at once, however large the power
    for power in (10000, 10**18):
        path.write_text(json.dumps({"regressions": {"x": {"matrix": [[3, 1], [1, 2]], "power": power}}}))
        start = time.perf_counter()
        assert main(["dp4", str(path)]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: matrix power has entries beyond")


def _malformed_inputs():
    """(command, input, error path prefix) for inputs that once exited 1 with
    a traceback, exited 0 with part of the input ignored, or hung."""
    full = json.loads(fixture_text("example_7_5_full.json"))
    gamma, tau = full["generators"]
    diag = {"pencil": {"diag1": [1] * 6, "diag2": [0, 1, 2, 3, 4, 5]}}

    def pencil(**changes):
        return {"pencil": dict(diag["pencil"], **changes)}

    def first_entry(x):
        return pencil(diag1=[x] + [1] * 5)

    eye = {"rows": 6, "cols": 6, "entries": [[int(i == j) for j in range(6)] for i in range(6)]}
    q2 = dict(eye, entries=[[i if i == j else 0 for j in range(6)] for i in range(6)])
    dp4 = json.loads(fixture_text("example_dp4_involutions.json"))
    reg = dp4["regressions"]["gamma_tilde_fourth_power"]
    lift = json.loads(fixture_text("example_7_4.json"))
    reps = lift["representations"]
    return [
        ("report", pencil(diag1=5), "$.pencil.diag1"),
        ("report", pencil(g="x"), "$.pencil.g"),
        ("report", {"pencil": {"g": "2", "Q1": eye, "Q2": q2}}, "$.pencil.g"),
        ("report", dict(full, branch={"roots": 5}), "$.branch.roots"),
        ("report", dict(full, generators=[gamma, dict(tau, moebius=[[1, 0], [0, 0]])]), "$.generators[1].moebius"),
        ("report", pencil(g=2.0), "$.pencil.g"),
        ("report", {"pencil": {"g": True, "diag1": [1] * 4, "diag2": [0, 1, 2, 3]}}, "$.pencil.g"),
        ("report", first_entry({"order": True, "coeffs": [[1, 1]]}), "$.pencil.diag1[0]"),
        ("report", first_entry([True, 1]), "$.pencil.diag1[0]"),
        ("report", pencil(Q1=3), "$.pencil.Q1"),
        ("report", first_entry({"order": 1, "coeffs": [[1, 1]], "x": 0}), "$.pencil.diag1[0].x"),
        ("report", dict(full, branch=dict(full["branch"], labels=[1, 2])), "$.branch.labels"),
        ("report", dict(full, generators=[dict(gamma, matrix=dict(gamma["matrix"], det=1)), tau]),
         "$.generators[0].matrix.det"),
        ("report", dict(full, relations=[{"word": [["gamma", 8]], "note": "x"}]), "$.relations[0].note"),
        ("report", dict(full, relations=[{"word": [["gamma", True]]}]), "$.relations[0].word[0]"),
        ("report", dict(full, description=5), "$.description"),
        ("dp4", dict(dp4, extra=1), "$.extra"),
        ("dp4", dict(dp4, regressions={"gamma_tilde_fourth_power": dict(reg, expected_diagonal="x")}),
         "$.regressions.gamma_tilde_fourth_power.expected_diagonal"),
        ("lift", dict(lift, extra=1), "$.extra"),
        ("lift", dict(lift, representations=dict(reps, V=dict(reps["V"], extra=1))), "$.representations.V.extra"),
        ("report", first_entry({"order": 1000000000000000003, "coeffs": [[1, 1]]}), "$.pencil.diag1[0]"),
    ]


@pytest.mark.parametrize("cmd, obj, where", _malformed_inputs(), ids=list("abcdefghijklmnopqrstu"))
def test_malformed_input_is_an_input_error(cmd, obj, where, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main([cmd, str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {where}"), err


def test_cli_json_format(capsys):
    assert main(["report", "--fixture", "example_7_3.json", "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "OBSTRUCTED"
    assert verdict["soundness_conditions"]


def test_cli_dp4_and_theta(capsys):
    assert main(["dp4", "--fixture", "example_dp4_involutions.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m1"]["invariant_lines"] == [[0, 0, 0, 0, 0, 1], [1, -1, 0, 0, 0, -1]]
    assert out["gamma1"]["orbit_sizes"] == [4, 4, 4, 4]
    reg = out["regressions"]["gamma_tilde_fourth_power"]
    assert reg["power_diagonal"] == [1, -1, -1, -1, -1, 1]
    assert reg["matches_expected"] is False
    assert main(["theta", "--fixture", "example_7_5_full.json"]) == 0
    theta = json.loads(capsys.readouterr().out)
    assert theta["empty"]


def test_theta_needs_branch_data_not_generators(capsys, tmp_path):
    # the trivial group fixes all 16 odd classes
    obj = json.loads(fixture_text("example_7_5.json"))
    obj["generators"] = []
    job = tmp_path / "job.json"
    job.write_text(json.dumps(obj))
    assert main(["theta", str(job)]) == 0
    theta = json.loads(capsys.readouterr().out)
    assert theta["permutations"] == {} and len(theta["fixed_odd_classes"]) == 16 and not theta["empty"]
    # the commands that act on points need a matrix generator
    for cmd in ("fixed-points", "invariant-lines"):
        assert main([cmd, str(job)]) == 2
        assert capsys.readouterr().err == "input error: no matrix generators\n"
    del obj["branch"]
    job.write_text(json.dumps(obj))
    assert main(["theta", str(job)]) == 2
    assert capsys.readouterr().err == "input error: job has no branch data\n"


def test_cli_lift(capsys):
    assert main(["lift", "--fixture", "example_7_4.json",
                 "--scalar-order", "24"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"]["lift"] is not None and not out["V"]["obstructed"]
    assert out["W"]["lift"] is None and out["W"]["obstructed"]


def _python_m(argv, **kwargs):
    """Run `python -m twoquadrics ARGV` on this checkout's package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twoquadrics

    src = str(Path(twoquadrics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "twoquadrics", *argv], text=True, env=env, timeout=120, **kwargs
    )


def test_unreadable_input_exits_2_without_traceback(tmp_path):
    # a directory, a file that is not UTF-8 (a UTF-16 byte-order mark), JSON
    # nested past the decoder's recursion limit and a fixture name too long
    # for the file system are input errors
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    missing = tmp_path / "missing.json"
    for argv, message in (
        ([str(tmp_path)], f"[Errno 21] Is a directory: '{tmp_path}'"),
        ([str(utf16)], "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ([str(deep)], "$: invalid JSON: maximum recursion depth exceeded"),
        ([str(missing)], f"[Errno 2] No such file or directory: '{missing}'\n"),
        (["--fixture", "a" * 5000], ""),
    ):
        proc = _python_m(["report", *argv], capture_output=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"input error: {message}") and "Traceback" not in proc.stderr, proc.stderr


def test_python_m_runs_the_cli():
    proc = _python_m(["identities", "--g-max", "2"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["section_count"][0]["equal"]
    proc = _python_m(["report", "--fixture", "example_7_5.json", "--max-closure", "-5"], capture_output=True)
    assert proc.returncode == 2
    assert "argument --max-closure:" in proc.stderr and "Traceback" not in proc.stderr


def test_closed_output_pipe_exits_1_without_traceback():
    import os
    import subprocess

    for argv in (["dp4", "--fixture", "example_dp4_involutions.json"], ["report", "--fixture", "example_7_3.json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python_m(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""
