"""Mutated copies of the shipped inputs never escape the CLI's exit codes.

Each example takes the 7.3 report job, the dp4 fixture or the 7.4 lift input,
changes one node (replaces it, deletes its key, or adds an unknown key next to
it) and runs the matching subcommand in-process at the default closure cap:
a mutated generator of infinite order must fail fast, by its determinant or
at the cap, not hang.
"""

import contextlib
import importlib.util
import io
import json
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoquadrics.cli import main

# tools/output_digest.py, whose refused-input runs draw from the same inputs, replacements and nodes
_spec = importlib.util.spec_from_file_location("output_digest", Path(__file__).resolve().parent.parent / "tools" / "output_digest.py")
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)


@st.composite
def mutated_inputs(draw):
    cmd = draw(st.sampled_from(sorted(_tool.MUTATED_INPUTS)))
    obj = json.loads((resources.files("twoquadrics") / "fixtures" / _tool.MUTATED_INPUTS[cmd]).read_text())
    nodes = list(_tool.nodes(obj))
    how = draw(st.sampled_from(("replace", "delete", "add")))
    if how == "replace":
        at = draw(st.sampled_from(nodes))
        value = draw(st.sampled_from(_tool.REPLACEMENTS))
        if not at:
            return cmd, value
        _tool.node_at(obj, at[:-1])[at[-1]] = value
    elif how == "delete":
        at = draw(st.sampled_from([p for p in nodes if p and isinstance(_tool.node_at(obj, p[:-1]), dict)]))
        del _tool.node_at(obj, at[:-1])[at[-1]]
    else:
        at = draw(st.sampled_from([p for p in nodes if isinstance(_tool.node_at(obj, p), dict)]))
        _tool.node_at(obj, at)["unexpected"] = 1
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
