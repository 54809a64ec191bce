"""Every public function, class, method and field of the library has a
reader outside the tests, or is named in KEEP with the reason it stays.

Surface that only tests reach is deleted, not kept.  A top-level name is
reached when a module of ``src/rrl_lab`` or ``perfbench/`` reads it as a
name, an attribute or an import; a method, or a field (an annotated
assignment in a class body), is reached when one reads it as an attribute.
Each KEEP entry must still be defined and still unreached, so the dict
cannot go stale.  Like test_imports_used.py, this is a stdlib-``ast`` check.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "rrl_lab").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

KEEP = {
    "preperiodic": "the one table-backed stream, from which the search, cluster and "
                   "block-edge tests build their exact fixtures",
    "occurrence_times": "acceptance criterion 05 checks the Hecke wrap-time identity with it",
    "CirclePoint.power": "the scalar reference that tests/test_kernel_exactness.py "
                         "compares the moment kernel against",
    "CPoly.one_norm": "||Q_lambda||_1 in the weight-recovery bound of the psp-uniqueness "
                      "recipe (ROADMAP item 2)",
    "q_poly": "Q_lambda = P_F / (X - lambda) for the psp-uniqueness recipe (ROADMAP item 2)",
    "fourier_psp": "the dense-pole measure of the psp-continuation recipe (ROADMAP item 1)",
    "RealZeroResult.bracket": "the certified bracket that the zero-search tests check the "
                              "true zero against; entropy_interval is derived from it",
}


def public_surface(source: str) -> list[str]:
    """Public top-level functions and classes, and ``Class.member`` for each
    public method and annotated field of a public class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                members = [item.name if isinstance(item, ast.FunctionDef) else item.target.id
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           or isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                out += [f"{node.name}.{name}" for name in members if not name.startswith("_")]
    return out


def unreached(library: list[str], readers: list[str]) -> list[str]:
    """The public surface of ``library`` that no source in ``readers`` reads."""
    names, attributes = set(), set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))

    def reached(name: str) -> bool:
        owner, _, attr = name.rpartition(".")
        return attr in attributes or (not owner and attr in names)

    return sorted(name for source in library for name in public_surface(source)
                  if not reached(name))


def test_every_public_name_is_reached_or_kept():
    found = set(unreached([p.read_text() for p in LIBRARY], [p.read_text() for p in READERS]))
    assert sorted(found - set(KEEP)) == [], "reached only by tests: delete, or KEEP with a reason"
    assert sorted(set(KEEP) - found) == [], "stale KEEP entries: gone, or reached now"


def test_check_sees_unreached_functions_classes_and_methods():
    library = textwrap.dedent("""
        from dataclasses import dataclass
        def used(): pass
        def dead(): pass
        def _private(): pass
        class Used:
            def called(self): pass
            def uncalled(self): pass
            def _helper(self): pass
        class Dead: pass
        @dataclass
        class Result:
            read: int
            unread: float
            _hidden: int = 0
    """)
    reader = "from lib import used\nUsed().called()\nprint(Result(1, 2.0).read)\n"
    want = ["Dead", "Result.unread", "Used.uncalled", "dead"]
    assert unreached([library], [reader]) == want
    assert unreached([library], [library, reader]) == want

