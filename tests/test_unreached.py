"""tools/unreached.py: the functions it reads from the source, and its
verdict on this tree and on copies with one function added that no run
reaches, and with a KEEP entry that runs at import."""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unreached.py"


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    return importlib.import_module("unreached")


def _run(tree):
    done = subprocess.run([sys.executable, str(TOOL), str(tree), "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


def _copy_with(tmp_path, module, appended):
    """A tree whose src/ is this one's with `appended` at the end of module."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "twoquadrics" / module
    path.write_text(path.read_text() + appended)
    return tmp_path


def test_functions_reads_every_def_but_dunders(monkeypatch, tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "\n"
        "def top():\n"
        "    def inner():\n"
        "        pass\n"
        "\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "\n"
        "    @functools.cache\n"
        "    def method(self):\n"
        "        pass\n"
    )
    path = str(tmp_path / "mod.py")
    # a decorated def starts at its decorator, as co_firstlineno does
    assert _tool(monkeypatch).functions(tmp_path) == {
        (path, 3): "mod.top", (path, 4): "mod.top.inner", (path, 11): "mod.A.method"
    }


def test_every_function_no_run_reaches_is_kept(monkeypatch):
    code, out = _run(ROOT)
    assert code == 0, out
    named = {line.split(":")[0] for line in out[:-1]}
    assert named == set(_tool(monkeypatch).KEEP)  # lines16, which runs at import, is not named


def test_a_function_no_run_reaches_fails(tmp_path):
    code, out = _run(_copy_with(tmp_path, "torsion.py", "\n\ndef never_called():\n    pass\n"))
    assert code == 1
    assert "torsion.never_called: never ran, and not in KEEP" in out


def test_a_kept_function_that_runs_at_import_is_stale(tmp_path):
    code, out = _run(_copy_with(tmp_path, "matrices.py", "\n\nsolve([[1]], [1])\n"))
    assert code == 1
    assert "matrices.solve: in KEEP, but not a function that never ran" in out
