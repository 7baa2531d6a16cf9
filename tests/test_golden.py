"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``cli.main`` on a shipped fixture and compares stdout with
``tests/golden/<name>.txt``.  The files pin the report JSON, the human
formats of report and branch, and subcommand output: a change to any of them must be deliberate and explained.  To
regenerate after such a change, write ``main``'s stdout for each case in
``CASES`` to its file.
"""

from pathlib import Path

import pytest

from twoquadrics.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "report_7_3": ["report", "--fixture", "example_7_3.json", "--format", "json"],
    "report_7_5": ["report", "--fixture", "example_7_5.json", "--format", "json"],
    "report_7_5_full": ["report", "--fixture", "example_7_5_full.json", "--format", "json"],
    **{
        f"{cmd.replace('-', '_')}_{tag}": [cmd, "--fixture", f"example_{tag}.json", "--format", "json"]
        for cmd in ("branch", "fixed-points", "invariant-lines", "theta")
        for tag in ("7_5", "7_5_full")
    },
    "fixed_points_7_3": ["fixed-points", "--fixture", "example_7_3.json", "--format", "json"],
    "invariant_lines_7_3": ["invariant-lines", "--fixture", "example_7_3.json", "--format", "json"],
    "dp4_involutions": ["dp4", "--fixture", "example_dp4_involutions.json"],
    "lift_7_4_order8": ["lift", "--fixture", "example_7_4.json", "--scalar-order", "8"],
    "lift_7_4_order24": ["lift", "--fixture", "example_7_4.json", "--scalar-order", "24"],
    "identities": ["identities"],
    # the human formats of report and branch
    "report_7_5_human": ["report", "--fixture", "example_7_5.json"],
    "branch_7_5_human": ["branch", "--fixture", "example_7_5.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
