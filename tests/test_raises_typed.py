"""Every exception a library module raises is a class of ``errors.py``.

The CLI turns a ``ValidationError`` into exit 2 and any other library error
into exit 3; an exception from outside ``errors.py`` escapes as a traceback
(exit 1).  This stdlib-``ast`` check fails on a ``raise`` of any other class,
unless ``INVARIANTS`` names that raise, by module, enclosing function and
class, with the reason it cannot happen on user input.  A bare ``raise``
(re-raise) is not checked.  The library refusals that no CLI test reaches
are checked for ``ValidationError`` directly.
"""

import ast
from pathlib import Path

import pytest

from rrl_lab.boundary import arc_l1_growth
from rrl_lab.circle import CirclePoint
from rrl_lab.diophantine import (dirichlet_approx, is_eps_balanced, moment_sequence,
                                 pigeonhole_shift)
from rrl_lab.dynamics import UnimodalMap, feigenbaum_product, itinerary
from rrl_lab.errors import ValidationError
from rrl_lab.psp import PoleMeasure, taylor_inner

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rrl_lab"

INVARIANTS = {
    ("circle.py", "CirclePoint.__post_init__", "TypeError"):
        "a programming error: every parser builds angles as Fraction or float",
    ("cyclotomic.py", "synthetic_div_root", "ArithmeticError"):
        "callers divide only by members of the root set the product was built from",
    ("diophantine.py", "dirichlet_approx", "AssertionError"):
        "Dirichlet's theorem gives a witness N <= M, which the fallback scan finds",
}


def library_errors() -> set[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_classes(source: str) -> list[tuple[str, str]]:
    """(enclosing qualname, class name) of each non-bare raise in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "?")
                found.append((".".join(scope), name))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def untyped_raises() -> set[tuple[str, str, str]]:
    allowed = library_errors()
    return {(path.name, scope, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for scope, name in raised_classes(path.read_text())
            if name not in allowed}


def test_library_raises_only_its_own_errors():
    assert untyped_raises() == set(INVARIANTS)


def test_check_sees_a_foreign_raise():
    source = ("class A:\n"
              "    def f(self):\n"
              "        raise ValueError('x')\n"
              "def g():\n"
              "    try:\n"
              "        pass\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise errors.CapExceeded\n")
    assert raised_classes(source) == [("A.f", "ValueError"), ("g", "CapExceeded")]


PTS = [CirclePoint.exact(1, 3), CirclePoint.real(0.3)]
MEASURE = PoleMeasure([(CirclePoint.exact(1, 4), 1.0)])


@pytest.mark.parametrize("call", [
    lambda: dirichlet_approx([], 10),
    lambda: dirichlet_approx([0.3], 0),
    lambda: is_eps_balanced(PTS, 0.0),
    lambda: is_eps_balanced(PTS, 1.0),
    lambda: moment_sequence(MEASURE, -1),
    lambda: taylor_inner(MEASURE, -1),
    lambda: itinerary(UnimodalMap.tent(), 0.1, -1),
    lambda: feigenbaum_product(-1),
    lambda: pigeonhole_shift(PTS, 0),
    lambda: arc_l1_growth(MEASURE, 0.0, 0.5, [], 64),
], ids=["dirichlet-no-theta", "dirichlet-m-0", "balanced-eps-0", "balanced-eps-1",
        "moments-n-neg", "taylor-n-neg", "itinerary-n-neg", "product-n-neg",
        "pigeonhole-j-0", "arc-no-radii"])
def test_library_refusals_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()
