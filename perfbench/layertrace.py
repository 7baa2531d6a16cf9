"""Per-layer tracing by wrapping the package's functions from outside.

``Tracer.install()`` replaces every function and method defined in the layer
modules with a wrapper that counts calls and accumulates self time (elapsed
time minus the time spent in wrapped callees).  A wrapper is put wherever
the original is looked up: in class dictionaries (including aliases such as
``CycNum.__radd__``) and in every module namespace of the package that bound
it with ``from ... import``.  Coarse calls also record spans (job id, span id,
parent span id, name, start, end), kept in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("jsonio", "cli", "pencils", "groups", "matrices", "binforms", "cyclo", "torsion", "dp4", "smith")

# metric prefix -> the wrapped functions it sums (keys are "<layer>.<qualname>")
NAMED = {
    "cyclo.mul": ("cyclo.CycNum.__mul__", "cyclo.CycNum.__rmul__"),
    "cyclo.add": ("cyclo.CycNum.__add__", "cyclo.CycNum.__radd__"),
    "cyclo.inverse": ("cyclo.CycNum.inverse",),
    "cyclo.embed": ("cyclo.CycNum.embed",),
    "cyclo.canonical": ("cyclo.CycNum.canonical",),
    "cyclo.sqrt": ("cyclo.cyc_sqrt",),
    "matrices.kernel": ("matrices.kernel",),
    "matrices.eigenspaces": ("matrices.eigenspaces_finite_order",),
    "matrices.det": ("matrices.Mat.det",),
    "matrices.inverse": ("matrices.Mat.inverse",),
    "groups.closure": ("groups.closure",),
    "groups.lift_search": ("groups.scalar_lift_search",),
    "dp4.pic_action": ("dp4.pic_action",),
    "dp4.conjugate": ("dp4.conjugate_in_WD5",),
    "smith.snf": ("smith.smith_normal_form",),
    "pencils.equivariance": ("pencils.equivariance",),
    "pencils.invariant_lines": ("pencils.invariant_lines_abelian",),
    "pencils.fixed_points": ("pencils.fixed_points_on_X",),
    "pencils.degeneracy_form": ("pencils.degeneracy_form",),
    "binforms.quadratic_roots": ("binforms.quadratic_roots",),
    "binforms.resultant": ("binforms.resultant",),
    "binforms.root_action": ("binforms.bform_root_action",),
    "torsion.fixed_classes": ("torsion.fixed_classes",),
    "jsonio.parse_job": ("jsonio.parse_job",),
}

# coarse calls that get a span of their own
SPANS = frozenset({
    "jsonio.parse_job", "cli.main", "cli.run_report", "cli.emit", "cli._point_group", "cli._branch_perms",
    "pencils.degeneracy_form", "pencils.is_smooth", "pencils.equivariance", "pencils.branch_permutation",
    "pencils.invariant_lines_abelian", "pencils.fixed_points_on_X", "groups.closure",
    "groups.projective_fixed_locus", "groups.verify_relations", "groups.scalar_lift_search",
    "matrices.eigenspaces_finite_order", "binforms.bform_root_action", "binforms.quadratic_roots",
    "cyclo.cyc_sqrt", "torsion.fixed_classes", "torsion.section_count_identity", "torsion.excess_identity",
    "dp4.pic_action", "dp4.orbits", "dp4.conjugate_in_WD5", "dp4.lattice_h1", "smith.smith_normal_form",
})

# methods that only run on misuse or that wrapping would break
_SKIP_METHODS = frozenset({"__setattr__", "__delattr__", "__getattribute__", "__init_subclass__"})

PACKAGE = "twoquadrics"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, self s, inclusive s]
        self.extra = defaultdict(int)  # counters read from arguments and results
        self.spans = []
        self.job = None
        self._stack = [[0.0, None]]  # [child time, key] of each open wrapped call
        self._open = []  # ids of open spans
        self._restore = []

    # -- installation ----------------------------------------------------
    def install(self):
        wrapped = {}  # id(original) -> wrapper, for rebinding module globals
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if _defined_in(obj, mod):
                    if inspect.isclass(obj):
                        self._wrap_class(layer, obj)
                    else:
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if name in _SKIP_METHODS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(obj.__func__, key))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, key)
            else:
                continue
            self._restore.append((cls, name, obj))
            setattr(cls, name, new)

    def _wrap(self, fn, key):
        rec = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        span = key in SPANS
        pre, post = _HOOKS.get(key, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            state = pre(tracer, args, kwargs) if pre else None
            sid = tracer._open_span() if span else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                rec[0] += 1
                rec[1] += elapsed - frame[0]
                rec[2] += elapsed
                if span:
                    tracer._close_span(sid, key, t0, t0 + elapsed)
            if post:
                post(tracer, args, kwargs, result, state)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------
    def start_job(self, job_id):
        """Open the root span of one job; later spans carry its id."""
        self.job = job_id
        self._job_start = time.perf_counter()
        self._open = []
        self._open_span()

    def end_job(self):
        self._close_span(self._open[0], "job", self._job_start, time.perf_counter())
        self._open = []
        self.job = None

    def _open_span(self):
        sid = len(self.spans)
        self.spans.append(None)  # filled in on close, so ids follow entry order
        self._open.append(sid)
        return sid

    def _close_span(self, sid, name, start, end):
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[sid] = (self.job, sid, parent, name, start, end)

    # -- results -------------------------------------------------------------
    def metrics(self, wall_s):
        """Per-layer calls and self time, the named counts, and ratios."""
        out = {}
        for layer in LAYERS:
            recs = [r for k, r in self.stats.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in recs)
            out[f"{layer}.self_s"] = sum(r[1] for r in recs)
            out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / wall_s
        for prefix, keys in NAMED.items():
            out[f"{prefix}.calls"] = sum(self.stats[k][0] for k in keys)
        # the search runs in private helpers, so count cyc_sqrt with its callees
        out["cyclo.sqrt.time_share"] = self.stats["cyclo.cyc_sqrt"][2] / wall_s
        sqrt_calls = out["cyclo.sqrt.calls"]
        out["cyclo.sqrt.hit_ratio"] = self.extra["sqrt_hits"] / sqrt_calls if sqrt_calls else 0.0
        out["matrices.mat_mul.calls"] = self.extra["mat_mul"]
        out["groups.closure.elements"] = self.extra["closure_elements"]
        products = self.extra["closure_products"]
        out["groups.closure.new_ratio"] = out["groups.closure.elements"] / products if products else 0.0
        out["pencils.invariant_lines.candidates"] = self.extra["line_candidates"]
        return out

    def dump(self, path, meta):
        functions = {
            k: {"calls": r[0], "self_s": r[1], "inclusive_s": r[2]} for k, r in sorted(self.stats.items()) if r[0]
        }
        spans = [dict(zip(("job", "id", "parent", "name", "start", "end"), s)) for s in self.spans if s]
        path.write_text(json.dumps({"meta": meta, "functions": functions, "spans": spans}))


def _defined_in(obj, mod):
    target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
    return callable(obj) and getattr(target, "__module__", None) == mod.__name__


# -- counters read from arguments and results --------------------------------

def _closure_pre(tracer, args, kwargs):
    """Whether this call computes the closure or returns the cached one."""
    group = args[0]
    cap = args[1] if len(args) > 1 else kwargs.get("cap", 10000)
    return group._closure is None or group._closure_cap != cap


def _closure_post(tracer, args, kwargs, result, fresh):
    if fresh:
        tracer.extra["closure_elements"] += len(result)


def _mat_mul_pre(tracer, args, kwargs):
    if type(args[1]).__name__ == "Mat":
        tracer.extra["mat_mul"] += 1
        if tracer._stack[-2][1] == "groups.closure":  # [-1] is this call
            tracer.extra["closure_products"] += 1


def _sqrt_post(tracer, args, kwargs, result, state):
    tracer.extra["sqrt_hits"] += result is not None


def _lines_post(tracer, args, kwargs, result, state):
    tracer.extra["line_candidates"] += len(result.lines)


_HOOKS = {
    "groups.closure": (_closure_pre, _closure_post),
    "matrices.Mat.__mul__": (_mat_mul_pre, None),
    "cyclo.cyc_sqrt": (None, _sqrt_post),
    "pencils.invariant_lines_abelian": (None, _lines_post),
}
