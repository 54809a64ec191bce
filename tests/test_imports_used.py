"""Every name a library module imports is used in that module.

No linter is part of the toolchain, so this stdlib-``ast`` check catches
the imports that a deletion leaves behind.  An import on a line marked
``noqa`` is skipped; such a line may only keep a name that
perfbench/tracing.py wraps in that module, so a tracer shim cannot outlive
its WRAPPED entry.  The package root imports nothing: each name is read
from the module that defines it, so the public surface is written once.
No recipe imports a module on first use that ``import rrl_lab.cli`` has not:
every CLI run would pay for it.
"""

import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rrl_lab"
MODULES = sorted(PACKAGE.glob("*.py"))
WRAPPED = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["WRAPPED"]
TRACED = {target for target, _, _ in WRAPPED}


def imports(tree: ast.AST, lines: list[str], noqa: bool) -> dict[str, int]:
    """name -> line of every import, those on ``noqa`` lines or the others."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if ("noqa" in lines[alias.lineno - 1]) == noqa:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = imports(tree, source.splitlines(), noqa=False)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def noqa_imports(source: str) -> list[str]:
    return sorted(imports(ast.parse(source), source.splitlines(), noqa=True))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_noqa_import_is_traced_there(path):
    untraced = [name for name in noqa_imports(path.read_text())
                if f"rrl_lab.{path.stem}:{name}" not in TRACED]
    assert untraced == []


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_check_sees_an_unused_import():
    source = "import json\nfrom typing import Callable, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Callable (line 2)", "json (line 1)"]
    assert unused_imports("import json  # noqa: F401\n") == []
    assert noqa_imports("import json  # noqa: F401\nimport os\n") == ["json"]


RUN_EVERY_RECIPE = """
import sys, tempfile
from pathlib import Path
import rrl_lab.cli
from rrl_lab.recipes import RECIPES, RecipeConfig, run_recipe
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    for recipe in RECIPES:
        for fmt in ("json", "csv"):
            run_recipe(RecipeConfig(recipe, Path(out) / f"{recipe}.{fmt}", fmt))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_recipes_import_nothing_after_the_cli():
    # each recipe once at its defaults, as JSON and as CSV, in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUN_EVERY_RECIPE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
