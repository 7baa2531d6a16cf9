"""The functions of the twoquadrics package that no CLI run reaches.

    python3 tools/unreached.py TREE --seeds N

sets a ``sys.setprofile`` hook, then imports the package from TREE/src, so
code that runs at import counts as reached, and runs its ``main`` on every run
of ``output_digest.runs(N)`` through the digest's own ``run``.  It prints each
function or method of TREE/src/twoquadrics, dunders skipped, that never ran,
with the reason ``KEEP`` gives for keeping it.  It exits 1 if one of them has
no ``KEEP`` entry, or if a ``KEEP`` entry names no function that never ran.
"""

import argparse
import ast
import os
import sys
import tempfile
from pathlib import Path

import output_digest

KEEP = {
    "matrices.solve": "the elimination oracle of tests/test_cyclo.py and tests/test_elimination.py",
    "matrices.Mat.rank": "the rank oracle of tests/test_elimination.py",
    "dp4.SignedPerm.inverse": "used by the conjugacy oracle in tests/test_reference_paths.py",
    "dp4.intersection": "the Picard form in which acceptance 8 and 12 are stated",
}


def functions(package):
    """{(file, first line): dotted name} of every def in the package, dunders
    skipped; the first line is the first decorator's, as in co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not isinstance(child, ast.ClassDef) and not dunder:
                    found[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ holds the package to run")
    parser.add_argument("--seeds", type=int, default=3, help="perfbench seeds 0 .. N-1")
    args = parser.parse_args(argv)
    src = args.tree.resolve() / "src"
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(src))
    sys.setprofile(hook)
    from twoquadrics.cli import main as tq_main

    if not Path(sys.modules["twoquadrics"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported twoquadrics from {sys.modules['twoquadrics'].__file__}")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # job files are named job.json, wherever this runs
        try:
            for job_argv, text in output_digest.runs(args.seeds):
                output_digest.run(tq_main, job_argv, text)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    defined = functions(src / "twoquadrics")
    unreached = sorted(name for where, name in defined.items() if where not in reached)
    for name in unreached:
        print(f"{name}: {'kept, ' + KEEP[name] if name in KEEP else 'never ran, and not in KEEP'}")
    stale = sorted(set(KEEP) - set(unreached))
    for name in stale:
        print(f"{name}: in KEEP, but not a function that never ran")
    missing = [name for name in unreached if name not in KEEP]
    print(f"{len(unreached)} of {len(defined)} functions never ran, {len(missing)} of them not in KEEP")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
