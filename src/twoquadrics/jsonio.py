"""JSON (de)serialization for jobs, fixtures, and reports.

CycNum: {"order": N, "coeffs": [[num, den], ...]} with phi(N) pairs.
Mat: {"rows": r, "cols": c, "entries": [[CycNum or int or [num,den]]]}.
Pencil: {"g": 2, "Q1": Mat, "Q2": Mat} or {"diag1": [...], "diag2": [...]}.
Generators: {"label": str, "matrix": Mat} or {"label": str,
"moebius": 2x2 entries} for symmetries known only on the pencil parameter.
Relations: {"word": [["sigma", 6]], "target": "identity" | "scalar" |
{"central": "iota"}}.
dp4 input: {"elements": {name: {"perm": [...], "signs": [...]}},
"conjugacy": [[name, name]], "regressions": {name: {"matrix": int rows,
"power": k, "expected_diagonal": [...]}}}.
lift input: {"relations": [Relation], "representations": {name:
{"generators": [{"label": str, "matrix": Mat}], "named": {name: Mat}}}}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycNum, euler_phi
from .dp4 import SignedPerm
from .errors import DimensionMismatch, SchemaError
from .groups import MatrixGroup, Relation
from .matrices import Mat, Quadric
from .pencils import BranchConfig, Pencil
from .smith import IntMatrix


def _expect(cond, message, path):
    if not cond:
        raise SchemaError(message, path)


def _expect_keys(obj, allowed, path):
    """Reject any key of a JSON object outside `allowed`, at its path."""
    for key in obj:
        _expect(key in allowed, f"unknown key; allowed: {', '.join(allowed)}", f"{path}.{key}")


def cycnum_from_json(obj, path="$"):
    if isinstance(obj, bool):
        raise SchemaError("expected a number, got a boolean", path)
    if isinstance(obj, int):
        return CycNum.from_rational(obj)
    if isinstance(obj, list):
        _expect(
            len(obj) == 2 and all(isinstance(x, int) for x in obj),
            "rational shorthand must be [numerator, denominator]",
            path,
        )
        _expect(obj[1] != 0, "zero denominator", path)
        return CycNum.from_rational(Fraction(obj[0], obj[1]))
    _expect(isinstance(obj, dict), "expected CycNum object", path)
    _expect("order" in obj, "missing 'order'", path)
    _expect("coeffs" in obj, "missing 'coeffs'", path)
    order = obj["order"]
    _expect(isinstance(order, int) and order >= 1, "'order' must be a positive integer", path + ".order")
    coeffs = obj["coeffs"]
    phi = euler_phi(order)
    _expect(
        isinstance(coeffs, list) and len(coeffs) == phi,
        f"'coeffs' must be an array of {phi} entries for order {order}",
        path + ".coeffs",
    )
    fracs = []
    for k, pair in enumerate(coeffs):
        p = f"{path}.coeffs[{k}]"
        _expect(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, int) for x in pair),
            "coefficient must be [numerator, denominator]",
            p,
        )
        _expect(pair[1] != 0, "zero denominator", p)
        fracs.append(Fraction(pair[0], pair[1]))
    return CycNum(order, fracs)


def cycnum_to_json(x: CycNum):
    x = CycNum._coerce(x).canonical()
    return {
        "order": x.order,
        "coeffs": [[c.numerator, c.denominator] for c in x.coeffs],
    }


def mat_from_json(obj, path="$"):
    _expect(isinstance(obj, dict), "expected Mat object", path)
    for k in ("rows", "cols", "entries"):
        _expect(k in obj, f"missing '{k}'", path)
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    _expect(
        isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0,
        "'rows' and 'cols' must be positive integers",
        path,
    )
    _expect(
        isinstance(entries, list) and len(entries) == rows,
        f"'entries' must have {rows} rows",
        path + ".entries",
    )
    parsed = []
    for i, row in enumerate(entries):
        _expect(
            isinstance(row, list) and len(row) == cols,
            f"row must have {cols} entries",
            f"{path}.entries[{i}]",
        )
        parsed.append(
            [cycnum_from_json(x, f"{path}.entries[{i}][{j}]") for j, x in enumerate(row)]
        )
    return Mat(parsed)


def mat_to_json(m: Mat):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[cycnum_to_json(x) for x in row] for row in m.entries],
    }


def pencil_from_json(obj, path="$"):
    _expect(isinstance(obj, dict), "expected Pencil object", path)
    if "diag1" in obj or "diag2" in obj:
        for k in ("diag1", "diag2"):
            _expect(k in obj, f"missing '{k}'", path)
        d1 = [cycnum_from_json(x, f"{path}.diag1[{i}]") for i, x in enumerate(obj["diag1"])]
        d2 = [cycnum_from_json(x, f"{path}.diag2[{i}]") for i, x in enumerate(obj["diag2"])]
        _expect(len(d1) == len(d2), "diagonals must have equal length", path)
        n = len(d1)
        _expect(n >= 4 and n % 2 == 0, "size must be even and at least 4", path)
        g = obj.get("g", (n - 2) // 2)
        _expect(2 * g + 2 == n, "'g' inconsistent with diagonal length", path)
        return Pencil.from_diagonals(g, d1, d2)
    for k in ("g", "Q1", "Q2"):
        _expect(k in obj, f"missing '{k}'", path)
    q1 = mat_from_json(obj["Q1"], path + ".Q1")
    q2 = mat_from_json(obj["Q2"], path + ".Q2")
    try:
        return Pencil(obj["g"], Quadric(q1), Quadric(q2))
    except (ValueError, DimensionMismatch) as exc:
        raise SchemaError(str(exc), path) from exc


def pencil_to_json(p: Pencil):
    return {
        "g": p.g,
        "Q1": mat_to_json(p.q1.gram),
        "Q2": mat_to_json(p.q2.gram),
    }


def relation_from_json(obj, path="$"):
    _expect(isinstance(obj, dict) and "word" in obj, "expected relation with 'word'", path)
    word = obj["word"]
    _expect(isinstance(word, list) and word, "'word' must be a nonempty array", path + ".word")
    pairs = []
    for k, item in enumerate(word):
        p = f"{path}.word[{k}]"
        _expect(
            isinstance(item, list) and len(item) == 2
            and isinstance(item[0], str) and isinstance(item[1], int),
            "word entries are [label, exponent]",
            p,
        )
        pairs.append((item[0], item[1]))
    target = obj.get("target", "identity")
    if isinstance(target, dict):
        _expect(
            set(target) == {"central"} and isinstance(target["central"], str),
            "object target must be {\"central\": name}",
            path + ".target",
        )
        target = ("central", target["central"])
    else:
        _expect(target in ("identity", "scalar"), "bad relation target", path + ".target")
    return Relation(tuple(pairs), target)


def relation_to_json(rel: Relation):
    target = rel.target
    if isinstance(target, tuple):
        target = {"central": target[1]}
    return {"word": [[lab, exp] for lab, exp in rel.word], "target": target}


@dataclass
class JobSpec:
    pencil: Pencil
    group: MatrixGroup | None  # generators that have honest matrices
    moebius_generators: tuple  # (label, 2x2 tuple) acting on (t1, t2) only
    relations: tuple
    branch: BranchConfig | None


def _decode(text_or_obj, path):
    """The JSON value in a text, or the argument itself when not a text."""
    if not isinstance(text_or_obj, (str, bytes)):
        return text_or_obj
    try:
        return json.loads(text_or_obj)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", path) from exc


def parse_job(text_or_obj, path="$"):
    obj = _decode(text_or_obj, path)
    _expect(isinstance(obj, dict), "job must be an object", path)
    _expect_keys(obj, ("pencil", "generators", "named", "relations", "branch", "description"), path)
    _expect("pencil" in obj, "missing 'pencil'", path)
    pencil = pencil_from_json(obj["pencil"], path + ".pencil")
    gens = []
    moebius = []
    for p, label, g in _generators(obj, ("label", "matrix", "moebius"), path):
        if "matrix" in g:
            gens.append((label, _symmetry_from_json(g["matrix"], pencil, p + ".matrix")))
        elif "moebius" in g:
            rows = g["moebius"]
            _expect(
                isinstance(rows, list) and len(rows) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in rows),
                "'moebius' must be a 2x2 array",
                p + ".moebius",
            )
            mo = tuple(
                tuple(cycnum_from_json(x, f"{p}.moebius[{i}][{j}]") for j, x in enumerate(r))
                for i, r in enumerate(rows)
            )
            moebius.append((label, mo))
        else:
            raise SchemaError("generator needs 'matrix' or 'moebius'", p)
    named = {}
    for name, m in _member(obj, "named", dict, path).items():
        named[name] = _symmetry_from_json(m, pencil, f"{path}.named.{name}")
    group = MatrixGroup(gens, named=named) if gens else None
    relations = tuple(
        relation_from_json(r, f"{path}.relations[{k}]")
        for k, r in enumerate(_member(obj, "relations", list, path))
    )
    branch = None
    if "branch" in obj:
        b = obj["branch"]
        p = path + ".branch"
        _expect(isinstance(b, dict) and "roots" in b, "'branch' needs 'roots'", p)
        roots = []
        for k, r in enumerate(b["roots"]):
            _expect(
                isinstance(r, list) and len(r) == 2,
                "roots are [t1, t2] pairs",
                f"{p}.roots[{k}]",
            )
            roots.append(
                (
                    cycnum_from_json(r[0], f"{p}.roots[{k}][0]"),
                    cycnum_from_json(r[1], f"{p}.roots[{k}][1]"),
                )
            )
        try:
            branch = BranchConfig(pencil.det_form, tuple(roots))
        except ValueError as exc:
            raise SchemaError(str(exc), p) from exc
    return JobSpec(pencil, group, tuple(moebius), relations, branch)


def _generators(obj, keys, path):
    """(path, label, object) for each entry of obj["generators"]: an object
    with a string 'label' used once and no key outside `keys`."""
    labels = set()
    for k, g in enumerate(_member(obj, "generators", list, path)):
        p = f"{path}.generators[{k}]"
        _expect(isinstance(g, dict) and isinstance(g.get("label"), str), "generator needs a string 'label'", p)
        _expect_keys(g, keys, p)
        _expect(g["label"] not in labels, f"generator label {g['label']!r} is used twice", p + ".label")
        labels.add(g["label"])
        yield p, g["label"], g


def _symmetry_from_json(obj, pencil, path):
    """A matrix that acts on the pencil's coordinates: invertible and square
    of its size."""
    return _invertible(mat_from_json(obj, path), pencil.size, "the pencil size", path)


def _invertible(m, n, size_name, path):
    """m itself, once it is checked to be n x n and invertible."""
    _expect(m.rows == m.cols == n, f"matrix must be {n}x{n}, {size_name}", path)
    _expect(m.rank() == n, "matrix is singular", path)
    return m


def _member(obj, key, kind, path):
    """obj[key] (empty when absent), checked to be a dict or a list."""
    value = obj.get(key, kind())
    what = "an object" if kind is dict else "an array"
    _expect(isinstance(value, kind), f"'{key}' must be {what}", f"{path}.{key}")
    return value


def _ints(obj):
    return isinstance(obj, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in obj)


def signedperm_from_json(obj, path="$"):
    _expect(
        isinstance(obj, dict) and _ints(obj.get("perm")) and _ints(obj.get("signs")),
        "expected {\"perm\": [ints], \"signs\": [ints]}",
        path,
    )
    try:
        return SignedPerm(tuple(obj["perm"]), tuple(obj["signs"]))
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def dp4_input_from_json(text_or_obj, path="$"):
    """The dp4 subcommand's input as (elements by name, conjugacy pairs of
    element names, regressions by name as (IntMatrix, power, expected
    diagonal))."""
    obj = _decode(text_or_obj, path)
    _expect(isinstance(obj, dict), "dp4 input must be an object", path)
    elements = {
        name: signedperm_from_json(sp, f"{path}.elements.{name}")
        for name, sp in _member(obj, "elements", dict, path).items()
    }
    pairs = _member(obj, "conjugacy", list, path)
    for k, pair in enumerate(pairs):
        _expect(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) and x in elements for x in pair),
            "a conjugacy entry is a pair of element names",
            f"{path}.conjugacy[{k}]",
        )
    regressions = {}
    for name, reg in _member(obj, "regressions", dict, path).items():
        p = f"{path}.regressions.{name}"
        _expect(isinstance(reg, dict), "regression must be an object", p)
        rows = reg.get("matrix")
        _expect(
            isinstance(rows, list) and rows and all(_ints(r) and len(r) == len(rows) for r in rows),
            "'matrix' must be a nonempty square array of integer rows",
            p + ".matrix",
        )
        power = reg.get("power", 4)
        _expect(_ints([power]) and power >= 0, "'power' must be a nonnegative integer", p + ".power")
        regressions[name] = (IntMatrix(rows), power, reg.get("expected_diagonal"))
    return elements, pairs, regressions


def lift_input_from_json(text_or_obj, path="$"):
    """The lift subcommand's input as (relations, MatrixGroup by
    representation name); within a representation the generators are
    invertible, of one size, and have distinct string labels."""
    obj = _decode(text_or_obj, path)
    _expect(isinstance(obj, dict), "lift input must be an object", path)
    relations = [
        relation_from_json(r, f"{path}.relations[{k}]")
        for k, r in enumerate(_member(obj, "relations", list, path))
    ]
    groups = {}
    for name, rep in _member(obj, "representations", dict, path).items():
        p = f"{path}.representations.{name}"
        _expect(isinstance(rep, dict), "representation must be an object", p)
        gens = []
        for q, label, g in _generators(rep, ("label", "matrix"), p):
            _expect("matrix" in g, "generator needs a 'matrix'", q)
            m = mat_from_json(g["matrix"], q + ".matrix")
            n = gens[0][1].rows if gens else m.rows
            gens.append((label, _invertible(m, n, "the generators' size", q + ".matrix")))
        _expect(gens, "representation needs a generator", p + ".generators")
        named = {
            k: _invertible(mat_from_json(m, f"{p}.named.{k}"), n, "the generators' size", f"{p}.named.{k}")
            for k, m in _member(rep, "named", dict, p).items()
        }
        groups[name] = MatrixGroup(gens, named=named)
    return relations, groups

