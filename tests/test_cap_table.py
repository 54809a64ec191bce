"""Every module-level ``*_CAP`` constant of the library has a row in README's
"Size caps" table, named there as ``module.NAME``.  A stdlib-``ast`` check,
like test_public_surface.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def cap_names() -> list[str]:
    """``module.NAME`` for each module-level assignment to a name ending in _CAP."""
    out = []
    for path in sorted((ROOT / "src" / "rrl_lab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                out += [f"{path.stem}.{t.id}" for t in node.targets
                        if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    return out


def cap_table() -> str:
    """The table rows of README's "Size caps" section."""
    text = ROOT.joinpath("README.md").read_text()
    section = text.split("### Size caps\n", 1)[1].split("\n#", 1)[0]
    return "\n".join(line for line in section.splitlines() if line.startswith("|"))


def test_every_cap_has_a_row():
    table = cap_table()
    assert [name for name in cap_names() if f"`{name}`" not in table] == []


def test_the_scan_sees_the_caps():
    names = cap_names()
    assert "right_limits.SEARCH_CELLS_CAP" in names and "cli.THUE_MORSE_TOOL_N_CAP" in names
