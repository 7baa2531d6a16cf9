"""Command line interface: the verdict pipeline, and one function per
subcommand that returns the value `main`, the one place that prints, shows.
The argument parser is built once per process, at the first `main` call,
which binds the subcommand functions to it then.

Exit codes: 0 = report produced (any verdict), 1 = output pipe closed,
2 = input error, 3 = unsupported case encountered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from importlib import resources

from .dp4 import (
    conjugate_in_WD5,
    invariant_lines,
    lattice_h1,
    orbits,
    pic_action,
)
from .errors import (
    CapExceeded,
    NotASymmetry,
    SchemaError,
    TwoQuadricsError,
    UnsupportedCase,
)
from .groups import MAX_CLOSURE, MatrixGroup, breadth_first, check_finite_orders, scalar_lift_search
from .jsonio import (
    cycnum_to_json,
    dp4_input_from_json,
    lift_input_from_json,
    parse_job,
)
from .matrices import Mat, eigen_multiplicities, point_action
from .pencils import fixed_points_on_X, invariant_lines_abelian
from .torsion import excess_identity, fixed_classes, section_count_identity


def _read_input(args):
    if not (args.fixture or args.jobfile):
        raise SchemaError("provide a job file or --fixture")
    try:
        if args.fixture:  # a file name in the fixtures directory, not a path
            fixtures = resources.files("twoquadrics") / "fixtures"
            if args.fixture not in {f.name for f in fixtures.iterdir() if f.is_file()}:
                raise SchemaError(f"no such fixture: {args.fixture}")
            return (fixtures / args.fixture).read_text(encoding="utf-8")
        with open(args.jobfile, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, a name too long, or not UTF-8
        raise SchemaError(str(exc)) from exc


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


def _point_group(job):
    """The group acting on points: the point action (hᵀ)⁻¹ of each matrix
    generator h, of finite order, read off one walk of h's powers
    (`matrices.point_action`), so no generator is inverted; its elements are
    enumerated only where they are read."""
    if job.group is None:
        raise SchemaError("no matrix generators")
    return MatrixGroup(check_finite_orders(job.group, point_action))


def _pencil_actions(element_words, actions):
    """(m, word, M) for each (m, word) of a breadth-first stream, read one
    at a time, M the 2x2 pencil action of the word, one product per element:
    h G h^T = sum M G gives M_AB = M_B M_A, so M is the last generator's
    action times its prefix's, which comes earlier in breadth-first order."""
    acts = {(): Mat.identity(2)}
    for m, word in element_words:
        if word:
            acts[word] = actions[word[-1]] * acts[word[:-1]]
        yield m, word, acts[word]


def _verdict(status, evidence, soundness):
    return {"status": status, "evidence": evidence, "soundness_conditions": soundness}


def run_report(job, max_closure=MAX_CLOSURE):
    """The verdict pipeline; returns a dict with status, evidence, and
    soundness conditions."""
    pencil = job.pencil
    evidence = []
    soundness = []

    # stage 1: smoothness, from the branch data where the job has it (JobSpec.smooth)
    smooth = job.smooth
    evidence.append({"stage": 1, "smooth": smooth})
    if not smooth:
        return _verdict(
            "INCONCLUSIVE", evidence, ["pencil is not smooth; theory not applicable"]
        )

    # stage 2: equivariance, branch permutations and relation scalars
    gens = []
    for lab, m in job.actions.items():
        if lab in job.moebius_only:
            item = {"label": lab, "moebius_only": True}
        else:
            item = {"label": lab, "action2x2": [[repr(x) for x in row] for row in m.entries]}
        if lab in job.perms:
            item["branch_permutation"] = _perm_cycles(job.perms[lab])
        gens.append(item)
    stage2 = {"stage": 2, "generators": gens}
    if job.relations:
        stage2["relation_scalars"] = [repr(r.scalar) for r in job.relations]
    evidence.append(stage2)
    if job.moebius_only:
        soundness.append(
            "generators given only by their pencil-parameter action cannot "
            "be checked on lines or fixed points"
        )

    if pencil.g != 2:
        evidence.append({"stage": 3, "skipped": "full verdict chain needs g = 2"})
        return _verdict("INCONCLUSIVE", evidence, soundness)

    # the verdicts need G finite, true unclosed: G permutes the 6 singular members
    # and a Moebius map fixing 3 is 1, so G -> PGL2 has image in S6; its kernel fixes
    # each cone vertex: lambda*diag(+-1) in the vertex basis; and c*I in G has c^6 in
    # det(G), finite as the generators' are roots of unity (_point_group)
    pg = None if job.group is None else _point_group(job)

    # stage 3: invariant lines via cyclic subgroups, searched only where the
    # eigenvalue multiplicities (from traces) are at most 2; the first
    # complete search bounds the lines of the whole group
    if pg is None:
        evidence.append({"stage": 3, "skipped": "no matrix generators"})
    else:
        for lab, a in pg.generators:
            if max(eigen_multiplicities(a)[1]) > 2:
                continue  # a space of dimension 3 or more is a family: the search cannot be complete
            sub = MatrixGroup([(lab, a)])
            try:
                rep = invariant_lines_abelian(pencil, sub)
            except UnsupportedCase as exc:
                evidence.append({"stage": 3, "subgroup": lab, "unsupported": str(exc)})
                continue
            if not rep.complete:
                continue
            kept = [
                line for line in rep.lines
                if all(line.image_under(b) == line for _, b in pg.generators)
            ]
            evidence.append(
                {
                    "stage": 3,
                    "bounding_subgroup": lab,
                    "candidates": len(rep.lines),
                    "invariant_under_all": len(kept),
                }
            )
            if kept and job.moebius_only:
                soundness.append(
                    "invariant lines found for the matrix generators only; "
                    "certification withheld"
                )
            elif kept:
                lines_json = [
                    [[cycnum_to_json(x) for x in v] for v in line.basis]
                    for line in kept
                ]
                evidence.append({"stage": 3, "lines": lines_json})
                soundness.append(
                    "linearizability via the invariant-line criterion for "
                    "threefold intersections of two quadrics"
                )
                return _verdict("LINEARIZABLE_CERTIFIED", evidence, soundness)
            break
        else:
            evidence.append(
                {"stage": 3, "incomplete": "no cyclic subgroup bounded the search"}
            )

    # stage 4: free two-torsion translations, in any coordinates.  A sign
    # element acts on the pencil by a scalar and is not itself scalar, so it
    # is lambda*diag(+-1) in the vertex basis, of canonical minus-count k
    # (from the trace): k = 2 is a translation, the first odd k the iota-lift
    # of stage 5.  The evidence is the signs relative to the first entry when
    # both Grams are diagonal (then the vertex basis is the coordinates'), else k.
    # The elements are read as a breadth-first stream and the first witness
    # ends it, so max_closure bounds the elements read, not the group
    iota_lift = None
    if pg is None:
        evidence.append({"stage": 4, "skipped": "no matrix generators"})
    else:
        for m, word, act in _pencil_actions(breadth_first(pg, max_closure), job.actions):
            if act.is_scalar() is None:
                continue
            k = m.minus_count()  # 0 for a scalar m, which is no sign element
            if k == 2:
                item = {"stage": 4, "free_two_torsion": True, "witness_word": list(word)}
                if pencil.q1.is_diagonal() and pencil.q2.is_diagonal():
                    item["sign_vector"] = [1 if row[i] == m.entries[0][0] else -1 for i, row in enumerate(m.entries)]
                else:
                    item["minus_count"] = k
                evidence.append(item)
                soundness.append(
                    "sign-change elements of translation type act freely on "
                    "the variety of lines"
                )
                return _verdict("OBSTRUCTED", evidence, soundness)
            if k % 2 and iota_lift is None:
                iota_lift = word

    # stage 5: theta obstruction (needs an iota-lift among the elements)
    if iota_lift is not None and job.perms:
        fixed = fixed_classes(list(job.perms.values()), "odd", pencil.g)
        evidence.append(
            {
                "stage": 5,
                "iota_lift_word": list(iota_lift),
                "branch_permutations": {
                    lab: _perm_cycles(p) for lab, p in job.perms.items()
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


# -- subcommands: each returns the value main prints -------------------


def _report(args):
    return run_report(parse_job(_read_input(args)), args.max_closure)


def _branch(args):
    job = parse_job(_read_input(args))
    return {
        "degeneracy_form": repr(job.pencil.det_form),
        "smooth": job.smooth,
        "permutations": {lab: _perm_cycles(p) for lab, p in job.perms.items()},
    }


def _fixed_points(args):
    job = parse_job(_read_input(args))
    fx = fixed_points_on_X(job.pencil, _point_group(job))
    return {
        "points": [[repr(x) for x in p] for p in fx.points],
        "lines_on_x": [
            [[repr(x) for x in v] for v in ln.basis] for ln in fx.lines_on_x
        ],
        "higher_dimensional": [
            {"projective_dim": s.dim - 1} for s in fx.curves
        ],
    }


def _invariant_lines(args):
    job = parse_job(_read_input(args))
    rep = invariant_lines_abelian(job.pencil, _point_group(job))
    return {
        "lines": [
            [[repr(x) for x in v] for v in ln.basis] for ln in rep.lines
        ],
        "families": list(rep.families),
        "complete": rep.complete,
    }


def _theta(args):
    job = parse_job(_read_input(args))
    if job.branch is None:
        raise SchemaError("job has no branch data")
    fixed = fixed_classes(list(job.perms.values()), "odd", job.pencil.g)
    return {
        "permutations": {lab: _perm_cycles(p) for lab, p in job.perms.items()},
        "fixed_odd_classes": [repr(c) for c in fixed],
        "empty": not fixed,
    }


def _dp4(args):
    elements, pairs, regressions = dp4_input_from_json(_read_input(args))
    out = {}
    for name, s in elements.items():
        a = pic_action(s)
        out[name] = {
            "order": s.order(),
            "cycle_type": list(s.cycle_type()),
            "pic_action": [list(r) for r in a.data],
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
        diagonal = [power.data[i][i] for i in range(power.rows)]
        out.setdefault("regressions", {})[name] = {
            "power_diagonal": diagonal,
            "matches_expected": diagonal == expected,
        }
    return out


def _identities(args):
    if args.g_max > MAX_G_MAX:
        raise CapExceeded(f"--g-max {args.g_max} exceeds {MAX_G_MAX}")
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
    return out


def _lift(args):
    rels, groups = lift_input_from_json(_read_input(args))
    out = {}
    for name, group in groups.items():
        order = sum(1 for _ in breadth_first(group, args.max_closure))
        res = scalar_lift_search(group, rels, args.scalar_order)
        out[name] = {
            "closure_order": order,
            "relation_scalars": [repr(r.scalar) for r in res["reports"]],
            "lift": {k: repr(v) for k, v in res["lift"].items()}
            if "lift" in res
            else None,
            "obstructed": "obstruction" in res,
            "tested": res["tested"],
            "scalar_order": res["scalar_order"],
        }
    return out


# the largest identities --g-max: its run time grows faster than g_max^2
MAX_G_MAX = 200


def positive_int(text):
    """The argparse type of the numeric options: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoquadrics",
        description="Equivariant geometry of pencils of quadrics, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "report": _report,
        "branch": _branch,
        "fixed-points": _fixed_points,
        "invariant-lines": _invariant_lines,
        "theta": _theta,
        "dp4": _dp4,
        "identities": _identities,
        "lift": _lift,
    }
    # each subcommand takes only the options it reads; only report and
    # branch have a human format, the others print JSON alone
    for name, fn in commands.items():
        p = sub.add_parser(name)
        if name != "identities":
            p.add_argument("jobfile", nargs="?", help="job JSON file")
            p.add_argument("--fixture", help="name of a shipped fixture")
        formats = ("human", "json") if name in ("report", "branch") else ("json",)
        p.add_argument("--format", choices=formats, default=formats[0])
        if name in ("report", "lift"):
            p.add_argument("--max-closure", type=positive_int, default=MAX_CLOSURE)
        if name == "identities":
            p.add_argument("--g-max", type=positive_int, default=6)
        if name == "lift":
            p.add_argument("--scalar-order", type=positive_int, default=8)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except (SchemaError, NotASymmetry) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCase as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except TwoQuadricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "report":
            print(emit(out, args.format))
        elif args.command == "branch" and args.format == "human":
            print("\n".join(f"{k}: {v}" for k, v in out.items()))
        else:
            print(json.dumps(out, indent=2, default=repr))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so the flush at
        # exit cannot raise again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
