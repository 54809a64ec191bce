"""Every backticked ``module.name`` in README.md names something in rrl_lab.

README points readers at functions and caps by their module and name
(`psp.moments`, `right_limits.outer_sum`, `diophantine.PIGEONHOLE_MAX_SCAN`).
This guard fails when one of them is renamed or deleted and README is not,
as ``test_cap_table.py`` does for the caps.  File names such as `circle.py`
are not names.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "rrl_lab").glob("*.py") if p.stem != "__init__")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def module_names(text: str) -> set[tuple[str, str]]:
    """(module, dotted name) of each module.name in an inline code span."""
    return {(module, name) for span in CODE_SPAN.findall(text)
            for module, name in NAME.findall(span) if name != "py"}


def resolves(module: str, name: str) -> bool:
    obj = importlib.import_module(f"rrl_lab.{module}")
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_guard_reads_spans_and_skips_file_names():
    text = "`psp.moments(m, n)` and `rrl_lab.psp`, `circle.py`, `x.psp.nope`, `psp.nope`"
    assert module_names(text) == {("psp", "moments"), ("psp", "nope")}
    assert resolves("psp", "moments") and not resolves("psp", "nope")


def test_readme_module_names_resolve():
    names = module_names((ROOT / "README.md").read_text())
    assert {("psp", "moments"), ("right_limits", "outer_sum"),
            ("diophantine", "PIGEONHOLE_MAX_SCAN")} <= names
    assert sorted(f"{m}.{n}" for m, n in names if not resolves(m, n)) == []
