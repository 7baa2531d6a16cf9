"""Every name a package module imports is used in that module.

The check parses each module of ``src/twoquadrics`` except ``__init__.py``
(whose imports are the public re-exports) with ``ast`` and reports every
name bound by an ``import`` or ``from ... import`` that no expression of
the module reads.  ``from __future__`` imports are compiler directives and
are skipped.
"""

import ast
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
