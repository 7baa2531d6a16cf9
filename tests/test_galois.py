"""Galois conjugation of whole jobs.

sigma_k: zeta_L -> zeta_L^k, k prime to L, is a field automorphism of
Q(zeta_L), so applied to every number of a job it must commute with every
verdict step: the status, the stage-3 counts, the stage-4 witness and the
stage-5 classes stay equal, and the pencil actions, the relation scalars and
the stage-3 lines become their sigma_k images, as do the invariant lines
and fixed points of the point group and of each cyclic subgroup.  sigma_k
permutes the eigenvalues, so the character spaces come in another order,
and lines and families are compared as sets.  The jobs are the report
fixtures, the 7.3 fixture with eps scaled by zeta8 so that its relation
eps^2 = zeta4 has a scalar off Q, and the dihedral and C5 jobs of
tools/output_digest.py."""

import importlib.util
import json
import math
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

from twoquadrics import cli, cyclo
from twoquadrics.cyclo import CycNum, zeta
from twoquadrics.errors import NotAbelian, UnsupportedCase
from twoquadrics.groups import MatrixGroup
from twoquadrics.jsonio import cycnum_to_json, parse_job
from twoquadrics.matrices import Mat, Subspace
from twoquadrics.pencils import fixed_points_on_X, invariant_lines_abelian


def _sigma(x: CycNum, k):
    """sigma_k(x): zeta_n -> zeta_n^k at x's order n, which divides L."""
    return cyclo._make(x.order, cyclo._map_num(x.order, x.num, k % x.order), x.den)


def _is_number(obj):
    return isinstance(obj, dict) and set(obj) == {"order", "coeffs"}


def _number(obj):
    """The CycNum of a JSON number: an int, a rational [n, d] or an
    order/coeffs object."""
    if _is_number(obj):
        return CycNum(obj["order"], [Fraction(*c) for c in obj["coeffs"]])
    return CycNum.from_rational(Fraction(*obj) if isinstance(obj, list) else obj)


def _orders(obj):
    if _is_number(obj):
        yield obj["order"]
    elif isinstance(obj, (dict, list)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _orders(v)


def _conjugated(obj, k):
    """The job object with sigma_k applied to every number; an int or a
    rational [n, d] is its own image."""
    if _is_number(obj):
        return cycnum_to_json(_sigma(_number(obj), k))
    if isinstance(obj, dict):
        return {key: _conjugated(v, k) for key, v in obj.items()}
    if isinstance(obj, list):
        return [_conjugated(v, k) for v in obj]
    return obj


def _jobs():
    texts = {name: json.loads((resources.files("twoquadrics") / "fixtures" / name).read_text())
             for name in ("example_7_3.json", "example_7_5.json", "example_7_5_full.json")}
    scaled = json.loads(json.dumps(texts["example_7_3.json"]))
    m = scaled["generators"][0]["matrix"]
    m["entries"] = [[cycnum_to_json(zeta(8) * _number(x)) for x in row] for row in m["entries"]]
    scaled["relations"] = [{"word": [["eps", 2]], "target": "scalar"}]
    texts["zeta8 eps"] = scaled
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    texts.update(tool.EXTRA_JOBS)
    return texts


def _plain(verdict):
    """The verdict without the pencil actions, relation scalars and line
    bases, which sigma_k moves."""
    verdict = json.loads(json.dumps(verdict))
    for item in verdict["evidence"]:
        item.pop("relation_scalars", None)
        item.pop("lines", None)
        for gen in item.get("generators", ()):
            gen.pop("action2x2", None)
    return verdict


def _lines(verdict, k=None):
    """The stage-3 lines of a verdict as Subspaces, sigma_k applied if k is given."""
    out = set()
    for item in verdict["evidence"]:
        for line in item.get("lines", ()):
            vecs = [[_number(x) for x in v] for v in line]
            out.add(Subspace(len(vecs[0]), [[_sigma(x, k) if k else x for x in v] for v in vecs]))
    return out


def _searches(job, k=None):
    """Per group (the point group, then each generator's cyclic group): the
    invariant lines as a set, the families as a multiset and the fixed
    points and lines on X as sets, each sigma_k applied if k is given; or
    the type and message of what the search raised."""

    def conj(v):  # a family's characters are tuples of eigenvalues
        return tuple(map(conj, v)) if isinstance(v, tuple) else _sigma(v, k) if k and isinstance(v, CycNum) else v

    def img(s):
        return Subspace(s.ambient_dim, [[conj(x) for x in v] for v in s.basis])

    pg = cli._point_group(job)
    out = []
    for group in [pg, *(MatrixGroup([g]) for g in pg.generators)]:
        try:
            rep = invariant_lines_abelian(job.pencil, group)
            # a pair family's two characters come in the order of their spaces
            fams = Counter(frozenset((key, frozenset(conj(v)) if key == "characters" else conj(v)) for key, v in f.items())
                           for f in rep.families)
            lines = ({img(s) for s in rep.lines}, fams)
        except (NotAbelian, UnsupportedCase) as exc:
            lines = type(exc), str(exc)
        try:
            fx = fixed_points_on_X(job.pencil, group)
            points = {img(Subspace(job.pencil.size, [p])) for p in fx.points}
            fixed = (points, {img(s) for s in fx.lines_on_x}, sorted(s.dim for s in fx.curves))
        except UnsupportedCase as exc:
            fixed = type(exc), str(exc)
        out.append((lines, fixed))
    return out


def test_galois_conjugates_give_conjugate_verdicts():
    moved, searched = set(), set()
    for name, obj in _jobs().items():
        big = math.lcm(*_orders(obj))
        job = parse_job(obj)
        want = cli.run_report(job)
        for k in (k for k in range(2, big) if math.gcd(k, big) == 1):
            conj = parse_job(_conjugated(obj, k))
            got = cli.run_report(conj)
            assert _plain(got) == _plain(want), (name, k)
            for lab, m in job.actions.items():
                assert conj.actions[lab] == Mat([[_sigma(x, k) for x in row] for row in m.entries]), (name, k, lab)
                if conj.actions[lab] != m:
                    moved.add(name)
            assert [r.scalar for r in conj.relations] == [_sigma(r.scalar, k) for r in job.relations], (name, k)
            assert _lines(got) == _lines(want, k), (name, k)
            if job.group is not None:
                assert _searches(conj) == _searches(job, k), (name, k)
                searched.add(name)
    # the conjugates moved the pencil actions, the printed lines (of 7.5) and
    # a relation scalar off Q
    assert {"example_7_5.json", "zeta8 eps", "dihedral"} <= moved
    assert {"example_7_5.json", "dihedral", "c5"} <= searched
    assert _lines(cli.run_report(parse_job(_jobs()["example_7_5.json"])))
    assert not parse_job(_jobs()["zeta8 eps"]).relations[0].scalar.is_rational()
