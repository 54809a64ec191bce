"""Every name a library module imports is used in that module.

No linter is part of the toolchain, so this stdlib-``ast`` check catches
the imports that a deletion leaves behind.  An import on a line marked
``noqa`` is skipped.  The package root imports nothing: each name is read
from the module that defines it, so the public surface is written once.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rrl_lab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_check_sees_an_unused_import():
    source = "import json\nfrom typing import Callable, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Callable (line 2)", "json (line 1)"]
    assert unused_imports("import json  # noqa: F401\n") == []
