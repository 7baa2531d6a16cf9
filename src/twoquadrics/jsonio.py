"""JSON (de)serialization for jobs, fixtures, and reports.

SCHEMA below is the one description of every JSON input. Each reader first
checks the decoded value with the checker `_compile` makes of its entry once,
which raises SchemaError at the JSON path of the first mismatch (and forms no
path for a node that passes), then converts it, keeping the checks a type cannot
state (coefficient counts, nonzero denominators, matrix sizes, invertibility as
a nonzero determinant kept on the Mat for `operator_order`, independent pencil
quadrics, distinct labels, names that refer to elements, and last, in
`parse_job`, that each matrix generator is a pencil symmetry and each moebius
generator permutes the branch roots). An entry of the table reads as follows:

- `int`: a JSON integer; `true`, `false` and floats are not integers.
- `str`: a string; a set of strings: one of those strings.
- `[s]`: an array whose every entry matches `s`.
- `(s1, s2)`: an array of exactly these entries, in this order.
- `{str: s}`: an object with any keys, whose every value matches `s`.
- `{"key": s, "other?": s}`: an object with no key outside those listed; a
  key ending in `?` may be left out, every other key is required.
- `_OneOf(s1, s2)`: the first alternative of the value's JSON kind; among
  objects, the first alternative whose first key the value has.
- a string: the table entry of that name.

A rational "cycnum" entry, an integer, [n, d] or an order-1 entry, is read as
an int or a Fraction, which `Mat` takes as it is; only an entry of higher order
becomes a CycNum, its numerators put over one denominator as ints.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .binforms import Roots, checked_roots, root_images
from .cyclo import CycNum, _make, euler_phi
from .dp4 import SignedPerm
from .errors import DimensionMismatch, LabelMismatch, NonScalarDiscrepancy, NotARoot, NotClosed, SchemaError
from .groups import MatrixGroup, Relation, verify_relations
from .matrices import Mat
from .pencils import Pencil, equivariance, is_smooth


class _OneOf:
    """Alternative schemas for one value; its checker picks the one that applies."""

    def __init__(self, *options):
        self.options = options


_CYCNUM_PAIR = ("cycnum", "cycnum")

SCHEMA = {
    # an integer, [numerator, denominator], or phi(order) power-basis coefficients in Q(zeta_order)
    "cycnum": _OneOf(int, (int, int), {"order": int, "coeffs": [(int, int)]}),
    "mat": {"rows": int, "cols": int, "entries": [["cycnum"]]},
    "pencil": _OneOf(
        {"diag1": ["cycnum"], "diag2": ["cycnum"], "g?": int},
        {"Q1": "mat", "Q2": "mat", "g": int},
    ),
    # "moebius" is a symmetry known only by its action on the pencil parameter (t1, t2)
    "generator": _OneOf(
        {"matrix": "mat", "label": str},
        {"moebius": (_CYCNUM_PAIR, _CYCNUM_PAIR), "label": str},
    ),
    "relation": {"word": [(str, int)], "target?": _OneOf({"identity", "scalar"}, {"central": str})},
    # the labeled roots (t1, t2) of the degeneracy form, label k + 1 for roots[k]
    "branch": {"roots": [_CYCNUM_PAIR]},
    "job": {
        "pencil": "pencil",
        "generators?": ["generator"],
        "named?": {str: "mat"},
        "relations?": ["relation"],
        "branch?": "branch",
        "description?": str,
    },
    "signed perm": {"perm": [int], "signs": [int]},
    "regression": {"matrix": [[int]], "power?": int, "expected_diagonal?": [int]},
    "dp4 input": {
        "elements?": {str: "signed perm"},
        "conjugacy?": [(str, str)],
        "regressions?": {str: "regression"},
        "description?": str,
    },
    "representation": {"generators": [{"label": str, "matrix": "mat"}], "named?": {str: "mat"}},
    "lift input": {"relations?": ["relation"], "representations?": {str: "representation"}, "description?": str},
}

_JSON_KIND = {list: list, tuple: list, dict: dict, set: str}
_NAMES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _expect(cond, message, path):
    if not cond:
        raise SchemaError(message, path)


class _Refused(Exception):
    """A refused node, and its path below the node that catches it, which each enclosing array or object extends."""

    def __init__(self, message, node=None, below=""):
        self.message, self.node, self.below = message, node, below


def _kind(schema):
    """The Python type of the JSON values that schema describes."""
    return schema if schema in (int, str) else _JSON_KIND[type(schema)]


@functools.cache  # compiled on its first use
def _checker(name):
    return _compile(SCHEMA[name])


def _compile(schema):
    """A table entry's checker: it raises _Refused at the first mismatch (kind, missing keys in table order, values)."""
    if type(schema) is str:
        return _checker(schema)
    if type(schema) is _OneOf:
        options = [(_kind(o), next(iter(o)) if type(o) is dict else None, _compile(o)) for o in schema.options]
        expected = "expected " + " or ".join(f"an object with '{key}'" if key else _NAMES[k] for k, key, _ in options)

        def check(value):
            for kind, key, sub in options:
                if type(value) is kind and (key is None or key in value):
                    return kind is int or sub(value)  # an int is checked by its kind alone
            raise _Refused(expected)

        return check
    kind, shape = _kind(schema), type(schema)
    expected = "expected " + _NAMES[kind]
    if shape is list or shape is tuple:
        entries = [_compile(s) for s in schema]  # a tuple's, or a list's one
        count = f"expected an array of {len(schema)} entries" if shape is tuple else None

        def check(value):
            if type(value) is not list:
                raise _Refused(expected)
            if count and len(value) != len(entries):
                raise _Refused(count)
            try:
                for k, x in enumerate(value):
                    entries[k if count else 0](x)
            except _Refused as refused:
                refused.below = f"[{k}]{refused.below}"
                raise

    elif shape is dict:
        # {str: s} takes every key; otherwise '?' marks an optional key of the table, never of the input
        values = {key.removesuffix("?"): _compile(s) for key, s in schema.items() if key is not str}
        every = _compile(schema[str]) if str in schema else None
        required = [key for key in values if key + "?" not in schema]
        unknown = "unknown key; allowed: " + ", ".join(values)

        def check(value):
            if type(value) is not dict:
                raise _Refused(expected)
            for key in required:
                if key not in value:
                    raise _Refused(f"missing '{key}'")
            try:
                for key, x in value.items():
                    sub = every or values.get(key)
                    if sub is None:
                        raise _Refused(unknown)
                    sub(x)
            except _Refused as refused:
                refused.below = f".{key}{refused.below}"
                raise

    else:
        allowed = "expected one of " + ", ".join(map(repr, sorted(schema))) if shape is set else None

        def check(value):
            if type(value) is not kind:
                raise _Refused(expected)
            if allowed and value not in schema:
                raise _Refused(allowed)

    return check


def _checked(text_or_obj, kind, path):
    """The JSON value in a text (or the value itself), checked against SCHEMA[kind]."""
    obj = text_or_obj
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # malformed, an integer past Python's digit limit, or nested too deep
            raise SchemaError(f"invalid JSON: {exc}", path) from exc
    try:
        _checker(kind)(obj)
    except _Refused as refused:
        raise SchemaError(refused.message, path + refused.below) from None
    return obj


def _number(obj):
    """The value of a checked "cycnum" entry: the int or Fraction of a rational
    or order-1 one, which Mat reads with no CycNum made, or the CycNum of a higher
    order entry, its int numerators over the lcm of its denominators (no Fraction)."""
    if type(obj) is int:
        return obj
    if type(obj) is list:
        if obj[1] == 0:
            raise _Refused("zero denominator", obj)
        return Fraction(*obj)
    order, coeffs = obj["order"], obj["coeffs"]
    if order < 1:
        raise _Refused("'order' must be a positive integer", obj, ".order")
    # n <= 2 phi(n)^2 for every n >= 1, so this rejects no valid entry and
    # spares euler_phi's trial division an order far too large for the coefficients
    if order > 2 * len(coeffs) ** 2:
        raise _Refused(f"too few coefficients for order {order}", obj, ".coeffs")
    phi = euler_phi(order)
    if len(coeffs) != phi:
        raise _Refused(f"'coeffs' must be an array of {phi} entries for order {order}", obj, ".coeffs")
    for k, (_, d) in enumerate(coeffs):
        if d == 0:
            raise _Refused("zero denominator", obj, f".coeffs[{k}]")
    den = lcm(*(d for _, d in coeffs))
    num = [n * (den // d) for n, d in coeffs]
    if order == 1:
        return num[0] if den == 1 else Fraction(num[0], den)
    return _make(order, num, den)


def _values(rows, where):
    """The values of rows of checked "cycnum" entries; where(i, j) forms the path of entry (i, j) if it is refused."""
    try:
        return [[_number(x) for x in row] for row in rows]
    except _Refused as refused:
        i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x is refused.node)
        raise SchemaError(refused.message, where(i, j) + refused.below) from None


def cycnum_to_json(x: CycNum):
    x = CycNum._coerce(x).canonical()
    return {
        "order": x.order,
        "coeffs": [[c.numerator, c.denominator] for c in x.coeffs],
    }


def _mat(obj, path):
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    _expect(rows > 0 and cols > 0, "'rows' and 'cols' must be positive integers", path)
    _expect(len(entries) == rows, f"'entries' must have {rows} rows", path + ".entries")
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise SchemaError(f"row must have {cols} entries", f"{path}.entries[{i}]")
    return Mat(_values(entries, lambda i, j: f"{path}.entries[{i}][{j}]"))


def _pencil(obj, path):
    try:
        if "diag1" in obj:
            d1, d2 = (_values([obj[key]], lambda _, i: f"{path}.{key}[{i}]")[0] for key in ("diag1", "diag2"))
            _expect(len(d1) == len(d2), "diagonals must have equal length", path)
            n = len(d1)
            _expect(n >= 4 and n % 2 == 0, "size must be even and at least 4", path)
            g = obj.get("g", (n - 2) // 2)
            _expect(2 * g + 2 == n, "'g' inconsistent with diagonal length", path)
            return Pencil.from_diagonals(g, d1, d2)
        q1 = _mat(obj["Q1"], path + ".Q1")
        q2 = _mat(obj["Q2"], path + ".Q2")
        return Pencil(obj["g"], q1, q2)
    except (ValueError, DimensionMismatch) as exc:  # Pencil's own checks: square symmetric Grams, sizes, and Q1, Q2 independent
        raise SchemaError(str(exc), path) from exc


def _relation(obj, path):
    _expect(obj["word"], "'word' must be a nonempty array", path + ".word")
    target = obj.get("target", "identity")
    if type(target) is dict:
        target = ("central", target["central"])
    return Relation(tuple(map(tuple, obj["word"])), target)


def _signedperm(obj, path):
    try:
        return SignedPerm(tuple(obj["perm"]), tuple(obj["signs"]))
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


@dataclass
class JobSpec:
    pencil: Pencil
    group: MatrixGroup | None  # generators that have honest matrices
    actions: dict  # label -> 2x2 pencil action M, h·G_i·hᵀ = Σ_j M_ij G_j, matrix generators first
    moebius_only: tuple  # labels of the generators known only by their action
    relations: tuple  # RelationReport of each relation, which holds up to a scalar
    branch: Roots | None  # all 2g+2 roots of the nonzero degeneracy form, each once, labeled 1..2g+2 by index
    perms: dict  # label -> 1-indexed images of the branch roots, in the order of actions; {} without branch

    @property
    def smooth(self):
        """Whether the pencil is smooth.  Branch data proves it: its 2g+2
        roots are distinct roots of the nonzero degeneracy form, of degree
        2g+2, so the form is square-free and its discriminant nonzero.  Only
        a job without branch data computes the discriminant."""
        return self.branch is not None or is_smooth(self.pencil)


def parse_job(text_or_obj, path="$"):
    obj = _checked(text_or_obj, "job", path)
    pencil = _pencil(obj["pencil"], path + ".pencil")
    gens = []
    moebius = {}
    paths = {}  # label -> JSON path of the generator's matrix or map
    for p, g in _labeled(obj.get("generators", ()), path + ".generators"):
        if "matrix" in g:
            paths[g["label"]] = p = p + ".matrix"
            gens.append((g["label"], _invertible(g["matrix"], pencil.size, "the pencil size", p)))
            continue
        paths[g["label"]] = p = p + ".moebius"
        rows = _values(g["moebius"], lambda i, j: f"{p}[{i}][{j}]")
        # [[a, b], [c, d]] sends (t1, t2) to (a t1 + b t2, c t1 + d t2): the pencil action is its transpose
        moebius[g["label"]] = m = Mat(list(zip(*rows)))
        _expect(not m.det().is_zero(), "moebius matrix is singular", p)
    named = {
        name: _invertible(m, pencil.size, "the pencil size", f"{path}.named.{name}")
        for name, m in obj.get("named", {}).items()
    }
    group = MatrixGroup(gens, named=named) if gens else None
    relations = []
    for k, r in enumerate(obj.get("relations", ())):
        p = f"{path}.relations[{k}]"
        rel = _relation(r, p)
        for lab, _ in rel.word:
            _expect(group is not None and lab in group.labels, f"{lab!r} is not a matrix generator label", p)
        try:
            relations += verify_relations(group, [rel])
        except (LabelMismatch, NonScalarDiscrepancy) as exc:
            raise SchemaError(str(exc), p) from exc
    branch = None
    if "branch" in obj:
        p = path + ".branch"
        roots = tuple(map(tuple, _values(obj["branch"]["roots"], lambda k, j: f"{p}.roots[{k}][{j}]")))
        _expect(len(roots) == pencil.det_form.degree, "root count must equal the degree", p)
        try:
            branch = checked_roots(pencil.det_form, roots)
        except (ValueError, NotARoot) as exc:
            raise SchemaError(str(exc), p) from exc
    # each generator acts on X and its branch points: checked once, after every other check
    actions = {lab: equivariance(pencil, m) for lab, m in gens} | moebius
    perms = {}
    if branch is not None:
        # a pencil symmetry permutes the roots of the degeneracy form, so only a moebius map can leave them
        for lab, m in actions.items():
            try:
                perms[lab] = root_images(branch, m)
            except NotClosed as exc:
                raise SchemaError(str(exc), paths[lab]) from exc
    return JobSpec(pencil, group, actions, tuple(moebius), tuple(relations), branch, perms)


def _labeled(generators, path):
    """(path, generator) for each generator, once its label is known to be new."""
    labels = set()
    for k, g in enumerate(generators):
        p = f"{path}[{k}]"
        _expect(g["label"] not in labels, f"generator label {g['label']!r} is used twice", p + ".label")
        labels.add(g["label"])
        yield p, g


def _invertible(obj, n, size_name, path):
    """The matrix in obj, once it is checked to be n x n and of nonzero
    determinant, which stays on it for operator_order."""
    m = _mat(obj, path)
    _expect(m.rows == m.cols == n, f"matrix must be {n}x{n}, {size_name}", path)
    _expect(not m.det().is_zero(), "matrix is singular", path)
    return m


def dp4_input_from_json(text_or_obj, path="$"):
    """The dp4 subcommand's input as (elements by name, conjugacy pairs of
    element names, regressions by name as (integer Mat, power, expected
    diagonal))."""
    obj = _checked(text_or_obj, "dp4 input", path)
    elements = {name: _signedperm(sp, f"{path}.elements.{name}") for name, sp in obj.get("elements", {}).items()}
    pairs = obj.get("conjugacy", [])
    for k, pair in enumerate(pairs):
        _expect(all(x in elements for x in pair), "conjugacy names must be element names", f"{path}.conjugacy[{k}]")
    regressions = {}
    for name, reg in obj.get("regressions", {}).items():
        p = f"{path}.regressions.{name}"
        rows = reg["matrix"]
        _expect(rows and all(len(r) == len(rows) for r in rows), "'matrix' must be nonempty and square", p + ".matrix")
        power = reg.get("power", 4)
        _expect(power >= 0, "'power' must be a nonnegative integer", p + ".power")
        regressions[name] = (Mat(rows), power, reg.get("expected_diagonal"))
    return elements, pairs, regressions


def lift_input_from_json(text_or_obj, path="$"):
    """The lift subcommand's input as (relations, MatrixGroup by
    representation name); within a representation the generators are
    invertible, of one size, and have distinct string labels, and every
    relation names only its generators and named elements."""
    obj = _checked(text_or_obj, "lift input", path)
    relations = [_relation(r, f"{path}.relations[{k}]") for k, r in enumerate(obj.get("relations", ()))]
    groups = {}
    for name, rep in obj.get("representations", {}).items():
        p = f"{path}.representations.{name}"
        _expect(rep["generators"], "representation needs a generator", p + ".generators")
        n = rep["generators"][0]["matrix"]["rows"]
        gens = [
            (g["label"], _invertible(g["matrix"], n, "the generators' size", q + ".matrix"))
            for q, g in _labeled(rep["generators"], p + ".generators")
        ]
        named = rep.get("named", {})
        named = {k: _invertible(m, n, "the generators' size", f"{p}.named.{k}") for k, m in named.items()}
        groups[name] = group = MatrixGroup(gens, named=named)
        for k, rel in enumerate(relations):
            q = f"{path}.relations[{k}]"
            for lab, _ in rel.word:
                _expect(lab in group.labels or lab in named, f"{lab!r} is not a generator or named in {name!r}", q)
            if type(rel.target) is tuple:
                _expect(rel.target[1] in named, f"central element {rel.target[1]!r} is not named in {name!r}", q)
    return relations, groups
