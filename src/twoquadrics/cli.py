"""Command line interface: parse job files, run the verdict pipeline, and
expose the individual computations as subcommands.

Exit codes: 0 = report produced (any verdict), 2 = input error,
3 = unsupported case encountered.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .binforms import root_images
from .dp4 import (
    conjugate_in_WD5,
    invariant_lines,
    lattice_h1,
    orbits,
    pic_action,
)
from .errors import (
    NotASymmetry,
    SchemaError,
    TwoQuadricsError,
    UnsupportedCase,
)
from .groups import (
    MatrixGroup,
    closure,
    scalar_lift_search,
    verify_relations,
)
from .jsonio import (
    cycnum_to_json,
    dp4_input_from_json,
    lift_input_from_json,
    parse_job,
)
from .matrices import contragredient
from .pencils import (
    branch_permutation,
    canonical_signs,
    fixed_points_on_X,
    invariant_lines_abelian,
    is_smooth,
)
from .torsion import fixed_classes


def _load_fixture(name):
    base = resources.files("twoquadrics") / "fixtures" / name
    if not base.is_file():
        raise SchemaError(f"no such fixture: {name}")
    return base.read_text()


def _read_input(args):
    if getattr(args, "fixture", None):
        return _load_fixture(args.fixture)
    if getattr(args, "jobfile", None):
        with open(args.jobfile, "r", encoding="utf-8") as fh:
            return fh.read()
    raise SchemaError("provide a job file or --fixture")


def _perm_cycles(perm):
    """Cycle notation for a 1-indexed image tuple."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i + 1:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = perm[j] - 1
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def _point_group(job, max_closure):
    """The group acting on points: contragredients of the matrix
    generators."""
    if job.group is None:
        return None
    g = MatrixGroup([(lab, contragredient(m)) for lab, m in job.group.generators])
    closure(g, max_closure)
    return g


def _sign_elements(pg, g):
    """(word, sign vector, canonical minus-count) for each element of the
    point group that is a nonscalar diagonal sign matrix up to scalar; the
    sign vector is the diagonal divided by its first entry."""
    for m, word in pg.element_words:
        signs = m.diagonal_signs()
        if signs is not None and len(set(signs)) > 1:
            yield word, signs, canonical_signs(signs, g)[1]


def _symmetries(job):
    """The PencilSymmetry of each matrix generator, by label."""
    if job.group is None:
        return {}
    return {lab: job.pencil.symmetry(m) for lab, m in job.group.generators}


def _branch_perms(job, syms):
    """Branch permutations for every generator, matrix or moebius-only;
    `syms` holds the matrix generators' symmetries (see _symmetries)."""
    perms = {}
    if job.branch is None:
        return perms
    for lab, sym in syms.items():
        perms[lab] = branch_permutation(job.pencil, sym, job.branch)
    for lab, mo in job.moebius_generators:
        perms[lab] = root_images(job.branch.roots, mo)
    return perms


def _verdict(status, evidence, soundness):
    return {"status": status, "evidence": evidence, "soundness_conditions": soundness}


def run_report(job, max_closure=10000):
    """The verdict pipeline; returns a dict with status, evidence, and
    soundness conditions."""
    pencil = job.pencil
    evidence = []
    soundness = []

    # stage 1: smoothness
    smooth = is_smooth(pencil)
    evidence.append({"stage": 1, "smooth": smooth})
    if not smooth:
        return _verdict(
            "INCONCLUSIVE", evidence, ["pencil is not smooth; theory not applicable"]
        )

    # stage 2: equivariance and branch permutations
    syms = _symmetries(job)
    stage2 = {
        lab: {"label": lab, "action2x2": [[repr(x) for x in row] for row in sym.action2x2]}
        for lab, sym in syms.items()
    }
    perms = _branch_perms(job, syms)
    for lab, p in perms.items():
        entry = stage2.setdefault(lab, {"label": lab, "moebius_only": True})
        entry["branch_permutation"] = _perm_cycles(p)
    evidence.append({"stage": 2, "generators": list(stage2.values())})
    if job.moebius_generators:
        soundness.append(
            "generators given only by their pencil-parameter action cannot "
            "be checked on lines or fixed points"
        )

    if pencil.g != 2:
        evidence.append({"stage": 3, "skipped": "full verdict chain needs g = 2"})
        return _verdict("INCONCLUSIVE", evidence, soundness)

    pg = _point_group(job, max_closure)

    # stage 3: invariant lines via cyclic subgroups
    certified_lines = []
    search_complete = False
    if pg is not None:
        for lab, a in pg.generators:
            sub = MatrixGroup([(lab, a)])
            try:
                rep = invariant_lines_abelian(pencil, sub)
            except UnsupportedCase as exc:
                evidence.append({"stage": 3, "subgroup": lab, "unsupported": str(exc)})
                continue
            if not rep.complete:
                continue
            search_complete = True
            kept = [
                line for line in rep.lines
                if all(line.plane.image_under(b) == line.plane for _, b in pg.generators)
            ]
            evidence.append(
                {
                    "stage": 3,
                    "bounding_subgroup": lab,
                    "candidates": len(rep.lines),
                    "invariant_under_all": len(kept),
                }
            )
            certified_lines = kept
            break
        if search_complete and certified_lines and not job.moebius_generators:
            lines_json = [
                [[cycnum_to_json(x) for x in v] for v in line.plane.basis]
                for line in certified_lines
            ]
            evidence.append({"stage": 3, "lines": lines_json})
            soundness.append(
                "linearizability via the invariant-line criterion for "
                "threefold intersections of two quadrics"
            )
            return _verdict("LINEARIZABLE_CERTIFIED", evidence, soundness)
        if search_complete and certified_lines and job.moebius_generators:
            soundness.append(
                "invariant lines found for the matrix generators only; "
                "certification withheld"
            )
    if pg is None:
        evidence.append({"stage": 3, "skipped": "no matrix generators"})
    elif not search_complete:
        evidence.append(
            {"stage": 3, "incomplete": "no cyclic subgroup bounded the search"}
        )

    # stage 4: free two-torsion translations (diagonal sign elements, k = 2);
    # the same scan records the first odd-k element, the iota-lift of stage 5
    iota_lift = None
    if not (pencil.q1.gram.is_diagonal() and pencil.q2.gram.is_diagonal()):
        evidence.append({"stage": 4, "skipped": "pencil not diagonal"})
    elif pg is not None:
        for word, signs, k in _sign_elements(pg, pencil.g):
            if k == 2:
                evidence.append(
                    {
                        "stage": 4,
                        "free_two_torsion": True,
                        "witness_word": list(word) or ["identity"],
                        "sign_vector": list(signs),
                    }
                )
                soundness.append(
                    "sign-change elements of translation type act freely on "
                    "the variety of lines"
                )
                return _verdict("OBSTRUCTED", evidence, soundness)
            if k % 2 and iota_lift is None:
                iota_lift = word

    # stage 5: theta obstruction (needs an iota-lift among the elements)
    if iota_lift is not None and job.branch is not None and perms:
        fixed = fixed_classes(list(perms.values()), "odd", pencil.g)
        evidence.append(
            {
                "stage": 5,
                "iota_lift_word": list(iota_lift) or ["identity"],
                "branch_permutations": {
                    lab: _perm_cycles(p) for lab, p in perms.items()
                },
                "fixed_odd_classes": [repr(c) for c in fixed],
            }
        )
        soundness.append(
            "theta stage assumes the group contains a lift of the "
            "hyperelliptic involution, so fixed points of the torsor lie "
            "among the 16 two-torsion classes"
        )
        if not fixed:
            return _verdict("OBSTRUCTED", evidence, soundness)
    elif iota_lift is None:
        evidence.append({"stage": 5, "skipped": "no iota-lift found"})
    else:
        evidence.append({"stage": 5, "skipped": "no branch data"})
    return _verdict("INCONCLUSIVE", evidence, soundness)


def emit(verdict, fmt="human"):
    if fmt == "json":
        return json.dumps(verdict, indent=2, sort_keys=True)
    lines = [f"verdict: {verdict['status']}"]
    for item in verdict["evidence"]:
        lines.append(f"  stage {item.get('stage', '?')}: " + json.dumps(
            {k: v for k, v in item.items() if k != "stage"}, sort_keys=True))
    for cond in verdict["soundness_conditions"]:
        lines.append(f"  assumes: {cond}")
    return "\n".join(lines)


# -- subcommand implementations ----------------------------------------


def _cmd_report(args):
    job = parse_job(_read_input(args))
    verdict = run_report(job, max_closure=args.max_closure)
    print(emit(verdict, args.format))
    return 0


def _cmd_branch(args):
    job = parse_job(_read_input(args))
    out = {
        "degeneracy_form": repr(job.pencil.det_form),
        "smooth": is_smooth(job.pencil),
        "permutations": {
            lab: _perm_cycles(p)
            for lab, p in _branch_perms(job, _symmetries(job)).items()
        },
    }
    print(json.dumps(out, indent=2) if args.format == "json" else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return 0


def _job_and_point_group(args):
    job = parse_job(_read_input(args))
    pg = _point_group(job, args.max_closure)
    if pg is None:
        raise SchemaError("no matrix generators")
    return job, pg


def _cmd_fixed_points(args):
    job, pg = _job_and_point_group(args)
    fx = fixed_points_on_X(job.pencil, pg)
    out = {
        "points": [[repr(x) for x in p] for p in fx.points],
        "lines_on_x": [
            [[repr(x) for x in v] for v in ln.plane.basis] for ln in fx.lines_on_x
        ],
        "higher_dimensional": [
            {"projective_dim": s.dim - 1} for s, _ in fx.curves
        ],
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_invariant_lines(args):
    job, pg = _job_and_point_group(args)
    rep = invariant_lines_abelian(job.pencil, pg)
    out = {
        "lines": [
            [[repr(x) for x in v] for v in ln.plane.basis] for ln in rep.lines
        ],
        "families": list(rep.families),
        "complete": rep.complete,
    }
    print(json.dumps(out, indent=2, default=repr))
    return 0


def _cmd_theta(args):
    job = parse_job(_read_input(args))
    perms = _branch_perms(job, _symmetries(job))
    if not perms:
        raise SchemaError("job has no branch data")
    fixed = fixed_classes(list(perms.values()), "odd", job.pencil.g)
    out = {
        "permutations": {lab: _perm_cycles(p) for lab, p in perms.items()},
        "fixed_odd_classes": [repr(c) for c in fixed],
        "empty": not fixed,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dp4(args):
    elements, pairs, regressions = dp4_input_from_json(_read_input(args))
    out = {}
    for name, s in elements.items():
        a = pic_action(s)
        out[name] = {
            "order": s.order(),
            "cycle_type": list(s.cycle_type()),
            "pic_action": [list(r) for r in a.entries],
            "invariant_lines": [list(l) for l in invariant_lines(s)],
            "orbit_sizes": sorted(len(o) for o in orbits([s])),
            "lattice_h1": list(lattice_h1(a, s.order())),
        }
    for pair in pairs:
        a, b = elements[pair[0]], elements[pair[1]]
        ok, wit = conjugate_in_WD5(a, b)
        out.setdefault("conjugacy", []).append(
            {
                "pair": pair,
                "conjugate": ok,
                "witness": {"perm": list(wit.perm), "signs": list(wit.signs)}
                if wit
                else None,
            }
        )
    for name, (m, k, expected) in regressions.items():
        power = m ** k
        diagonal = [power.entries[i][i] for i in range(power.rows)]
        out.setdefault("regressions", {})[name] = {
            "power_diagonal": diagonal,
            "matches_expected": diagonal == expected,
        }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_identities(args):
    from .torsion import excess_identity, section_count_identity

    out = {"section_count": [], "excess": []}
    for g in range(1, args.g_max + 1):
        r = section_count_identity(g)
        out["section_count"].append(
            {"g": g, "lhs": r["lhs"], "rhs": r["rhs"], "equal": r["equal"]}
        )
    for g in range(2, args.g_max + 3):
        e = excess_identity(g)
        out["excess"].append(
            {
                "g": g,
                "value": str(e["closed"]),
                "equal": e["equal"],
            }
        )
    print(json.dumps(out, indent=2))
    return 0


def _cmd_lift(args):
    rels, groups = lift_input_from_json(_read_input(args))
    out = {}
    for name, group in groups.items():
        closure(group, args.max_closure)
        reports = verify_relations(group, rels, mode="up_to_scalar")
        res = scalar_lift_search(group, rels, args.scalar_order)
        out[name] = {
            "closure_order": group.order(),
            "relation_scalars": [repr(r.scalar) for r in reports],
            "lift": {k: repr(v) for k, v in res["lift"].items()}
            if "lift" in res
            else None,
            "obstructed": "obstruction" in res,
            "tested": res["tested"],
            "scalar_order": res["scalar_order"],
        }
    print(json.dumps(out, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoquadrics",
        description="Equivariant geometry of pencils of quadrics, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "report": _cmd_report,
        "branch": _cmd_branch,
        "fixed-points": _cmd_fixed_points,
        "invariant-lines": _cmd_invariant_lines,
        "theta": _cmd_theta,
        "dp4": _cmd_dp4,
        "identities": _cmd_identities,
        "lift": _cmd_lift,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("jobfile", nargs="?", help="job JSON file")
        p.add_argument("--fixture", help="name of a shipped fixture")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--max-closure", type=int, default=10000)
        if name == "identities":
            p.add_argument("--g-max", type=int, default=6)
        if name == "lift":
            p.add_argument("--scalar-order", type=int, default=8)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, NotASymmetry, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCase as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except TwoQuadricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
