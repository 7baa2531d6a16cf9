"""Every name a package module imports is used in that module, and the
package needs nothing outside the standard library.

The first check parses each module of ``src/twoquadrics`` except
``__init__.py`` (whose imports are the public re-exports) with ``ast`` and
reports every name bound by an ``import`` or ``from ... import`` that no
expression of the module reads.  ``from __future__`` imports are compiler
directives and are skipped.  The others check every absolute import of every
module against ``sys.stdlib_module_names``, and the modules that importing
the package loads in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import twoquadrics

PACKAGE = Path(twoquadrics.__file__).resolve().parent


def unused_imports(source):
    """(line, name) for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_an_unused_import():
    src = "from os import path, sep\nimport sys\n\ndef f():\n    return sep\n"
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


def test_package_modules_use_every_import():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for line, name in unused_imports(module.read_text(encoding="utf-8")):
            found.append(f"{module.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_package_imports_only_the_standard_library():
    # absolute imports only: relative ones stay inside the package
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "twoquadrics":
                    found.append(f"{module.name}:{node.lineno}: {name}")
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def test_importing_the_package_loads_no_third_party_module():
    code = (
        "import sys; before = set(sys.modules); import twoquadrics; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    path = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "twoquadrics" in loaded
    extra = loaded - set(sys.stdlib_module_names) - {"twoquadrics"}
    assert not extra, f"third-party modules loaded: {sorted(extra)}"
