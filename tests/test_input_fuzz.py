"""Mutated copies of the shipped inputs never escape the CLI's exit codes.

Each example takes the 7.3 report job, the dp4 fixture or the 7.4 lift input,
changes one node (replaces it, deletes its key, or adds an unknown key next to
it) and runs the matching subcommand in-process at the default closure cap:
a mutated generator of infinite order must fail fast, by its determinant or
at the cap, not hang.
"""

import contextlib
import io
import json
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoquadrics.cli import main

INPUTS = {
    "report": "example_7_3.json",
    "dp4": "example_dp4_involutions.json",
    "lift": "example_7_4.json",
}
REPLACEMENTS = (None, True, 1.5, "x", 10**30, -(10**30), [], {})


def _nodes(obj, at=()):
    """The path (keys and indices from the root) of every node of obj that is
    no deeper than the second entry of any array: later entries repeat the
    shape of the first two, and skipping them leaves more examples for the
    nodes that differ."""
    yield at
    children = obj.items() if isinstance(obj, dict) else enumerate(obj[:2]) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _nodes(child, at + (key,))


def _node(obj, at):
    for key in at:
        obj = obj[key]
    return obj


@st.composite
def mutated_inputs(draw):
    cmd = draw(st.sampled_from(sorted(INPUTS)))
    obj = json.loads((resources.files("twoquadrics") / "fixtures" / INPUTS[cmd]).read_text())
    nodes = list(_nodes(obj))
    how = draw(st.sampled_from(("replace", "delete", "add")))
    if how == "replace":
        at = draw(st.sampled_from(nodes))
        value = draw(st.sampled_from(REPLACEMENTS))
        if not at:
            return cmd, value
        _node(obj, at[:-1])[at[-1]] = value
    elif how == "delete":
        at = draw(st.sampled_from([p for p in nodes if p and isinstance(_node(obj, p[:-1]), dict)]))
        del _node(obj, at[:-1])[at[-1]]
    else:
        at = draw(st.sampled_from([p for p in nodes if isinstance(_node(obj, p), dict)]))
        _node(obj, at)["unexpected"] = 1
    return cmd, obj


@settings(
    derandomize=True, deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutated_inputs())
def test_mutated_input_exits_0_2_or_3(tmp_path, case):
    cmd, obj = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([cmd, str(path)])
    assert code in (0, 2, 3)
