"""Every recipe under one contract property test.

Hypothesis draws a recipe from ``RECIPES`` and a subset of its parameters,
each given as text chosen by the type of its default (``recipe_defaults``)
or, for a text parameter, by its name.  The values mix well-formed text
with lists and specs that have an empty item or no J, named values, 0,
negatives, ±1e308, NaN text and one past each cap that the recipe checks
before its work.  ``cli.main`` runs in-process, and every run must
- exit 0, 2 or 3 with exactly one JSON line on stdout;
- on exit 0 write an artifact that ``json.loads`` reads with NaN and the
  infinities rejected, and on any other exit write none;
- print the same line and write the same bytes when it is run again.

Sizes below a cap stay small, so each draw runs in a fraction of a second;
the runs at the caps themselves are in ``test_cli.py``.  No float is below
1e-3 except the subnormal arc ends: a balance eps far below what a
completion reaches runs the whole ladder up to N = 10^6 before it exits 3.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrl_lab.boundary import ARC_POINTS_CAP
from rrl_lab.circle import CirclePoint
from rrl_lab.cli import main
from rrl_lab.diophantine import BALANCE_M_CAP, FACTORIAL_J_CAP, PIGEONHOLE_J_CAP
from rrl_lab.dynamics import HECKE_N_CAP, ITINERARY_N_CAP, PRODUCT_N_CAP, ZERO_N_CAP
from rrl_lab.psp import PoleMeasure, uniform_roots_measure
from rrl_lab.recipes import RECIPES, UNIFORM_Q_CAP, recipe_defaults
from rrl_lab.right_limits import SEARCH_CELLS_CAP, SEARCH_K_CAP, VERIFY_CELLS_CAP

BY_TYPE = {
    int: ["0", "-1", "1", "3", "64", "1.5", "x", ""],
    float: ["0", "-1", "1e-3", "0.25", "1", "1e308", "-1e308", "nan", "-inf", "x"],
    complex: ["2", "-1.5+1j", "1.05j", "1", "0", "1e5", "nan", "infj", "x"],
}
# text parameters by name; "{dir}" is the directory of the measure files
BY_NAME = {
    "theta": ["golden", " sqrt2 ", "sqrt3", "0.3", "0", "-0.25", "1e308", "nan", "x", ""],
    "angles": ["sqrt2", "1/3,,sqrt2", " 1/5 , 2/7 ", ",", "", "1/3,2/6", "1/0", "1/2/3",
               "x/7", "sqrt2,sqrt3,golden",
               ",".join(f"0.{k}" for k in range(1, BALANCE_M_CAP + 2))],
    "shifts": ["factorial:6", "factorial:2:4", "factorial", "factorial:", "factorial:3:",
               "factorial::3", "pigeonhole:2", "pigeonhole", "pigeonhole:", "pigeonhole:0",
               "bogus:2", f"factorial:{FACTORIAL_J_CAP + 1}",
               f"pigeonhole:{PIGEONHOLE_J_CAP + 1}"],
    "map": ["tent", "quadratic", "quadratic:-1.5", "quadratic:2.5", "quadratic:x",
            "feigenbaum-product", "logistic", ""],
    "radii": ["", "0.9,,0.99", " 0.5 , 0.9 ", ",", "0.99,0.9", "0.5,1", "0.5,nan", "0.5,x"],
    "measure": ["", "uniform:4", "uniform:1", "uniform:0", "uniform:x", "uniform:",
                "{dir}/r6.json", "{dir}/float.json", "{dir}/tail.json", "{dir}/bool.json",
                "{dir}/missing.json"],
}
# by (recipe, parameter): one past each cap the recipe checks before its
# work, and the subnormal arc ends
EXTRAS = {
    ("psp-rrl", "w"): [VERIFY_CELLS_CAP // 2],  # 2W + 1 = cap + 1 exponents a row
    ("hecke-unique", "n"): [HECKE_N_CAP + 1],
    ("hecke-unique", "k_max"): [SEARCH_K_CAP + 1],
    ("hecke-two", "k_max"): [SEARCH_K_CAP + 1],
    ("hecke-unique", "w"): [SEARCH_CELLS_CAP],
    ("hecke-two", "w"): [SEARCH_CELLS_CAP],
    ("kneading-entropy", "n"): [ZERO_N_CAP + 1, ITINERARY_N_CAP + 1, PRODUCT_N_CAP + 1],
    ("thue-morse-product", "n"): [PRODUCT_N_CAP + 1],
    ("probe-arc", "quadrature_n"): [ARC_POINTS_CAP],  # cap + 1 points on one radius
    ("probe-arc", "omega1"): ["1e-320"],
    ("probe-arc", "omega2"): ["1e-320"],
    ("psp-rrl", "measure"): [f"uniform:{UNIFORM_Q_CAP + 1}"],
    ("probe-arc", "measure"): [f"uniform:{UNIFORM_Q_CAP + 1}"],
}


@st.composite
def recipe_runs(draw):
    """(recipe, {parameter: text}) for one ``run``."""
    recipe = draw(st.sampled_from(sorted(RECIPES)))
    defaults = recipe_defaults(RECIPES[recipe])
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True))
    params = {}
    for key in keys:
        pool = BY_NAME[key] if isinstance(defaults[key], str) else BY_TYPE[type(defaults[key])]
        params[key] = draw(st.sampled_from([*pool, *map(str, EXTRAS.get((recipe, key), []))]))
    return recipe, params


@pytest.fixture(scope="module")
def measure_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("measures")
    atoms = [(CirclePoint.real(0.1), 0.5), (CirclePoint.real(0.35), -0.25j),
             (CirclePoint.exact(1, 3), 0.25)]
    (d / "r6.json").write_text(uniform_roots_measure(6).dumps())
    (d / "float.json").write_text(PoleMeasure(atoms).dumps())
    (d / "tail.json").write_text(PoleMeasure(atoms, tail_mass=0.125).dumps())
    (d / "bool.json").write_text('[{"angle": true, "re": 1.0}]')
    return d


def strict(constant):
    raise ValueError(f"artifact holds {constant}")


def run_once(argv: list[str], out: Path) -> tuple[int, str, bytes | None]:
    """(exit code, the one stdout line, artifact bytes or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    lines = buf.getvalue().splitlines()
    assert code in (0, 2, 3), (code, lines)
    assert len(lines) == 1, lines
    assert ("error" in json.loads(lines[0])) == (code != 0)
    if code != 0:
        assert not out.exists()
        return code, lines[0], None
    artifact = out.read_bytes()
    json.loads(artifact, parse_constant=strict)
    out.unlink()
    return code, lines[0], artifact


@settings(max_examples=50, deadline=None)
@given(recipe_runs())
def test_every_recipe_keeps_the_cli_contract(measure_dir, drawn):
    recipe, params = drawn
    flags = [f"--{key.replace('_', '-')}={value.replace('{dir}', str(measure_dir))}"
             for key, value in params.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        argv = ["run", "--recipe", recipe, "--out", str(out), *flags]
        assert run_once(argv, out) == run_once(argv, out)


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_every_default_is_written_in_the_signature(tmp_path, recipe):
    # an empty default would leave the value it stands for to code behind the
    # signature; each default given back as text runs the same as none given
    defaults = recipe_defaults(RECIPES[recipe])
    assert [key for key, value in defaults.items() if value == ""] == []
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in defaults.items()]
    for fmt in ("json", "csv"):
        runs = []
        for given in ([], flags):
            out = tmp_path / f"{len(runs)}.{fmt}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--recipe", recipe, "--format", fmt, "--out", str(out),
                             *given]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
