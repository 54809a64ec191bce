"""Every recipe op of the benchmark passes the recipe parameter check and
stays under every size cap that its parameters reach.

perfbench/workloads.py builds its recipe ops from keyword parameters; a key
the recipe does not take is a ValidationError, which the benchmark would
count as a failed op; an op past a size cap would exit 3 the same way.  The
file is run as plain source (no bytecode cache is written next to it) and
its ops are built, not run.
"""

import runpy
from pathlib import Path

import pytest

from rrl_lab.boundary import ARC_POINTS_CAP
from rrl_lab.diophantine import BALANCE_M_CAP
from rrl_lab.dynamics import HECKE_N_CAP, ITINERARY_N_CAP, PRODUCT_N_CAP, ZERO_N_CAP
from rrl_lab.recipes import (RECIPES, RecipeConfig, load_measure, parse_angle, parse_list,
                             parse_shift_spec, recipe_defaults)
from rrl_lab.right_limits import (
    SEARCH_BLOCK,
    SEARCH_CELLS_CAP,
    SEARCH_K_CAP,
    VERIFY_CELLS_CAP,
)

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]


def recipe_ops(workdir):
    """(recipe name, format, parameters as given) of every benchmark recipe op."""
    return [(op.params["recipe"], op.params["format"],
             {k: v for k, v in op.params.items() if k not in ("recipe", "format")})
            for workload in sorted(WORKLOADS) for op in WORKLOADS[workload](1301, workdir)
            if "recipe" in op.params]


def reached_caps(recipe: str, p: dict) -> list[tuple[str, int, int]]:
    """(size, value, cap) for each cap that a run of ``recipe`` with the full
    parameters ``p`` checks before its work."""
    if recipe == "psp-rrl":
        rows = len(parse_shift_spec(p["shifts"], load_measure(p["measure"]).points)) + 1
        return [("verify exponents", rows * (2 * p["w"] + 1), VERIFY_CELLS_CAP)]
    if recipe in ("hecke-unique", "hecke-two"):
        depth = [("hecke depth", p["n"], HECKE_N_CAP)] if recipe == "hecke-unique" else []
        return [("k_max", p["k_max"], SEARCH_K_CAP),
                ("search block", SEARCH_BLOCK + p["w"], SEARCH_CELLS_CAP), *depth]
    if recipe == "kneading-entropy":
        first = PRODUCT_N_CAP if p["map"] == "feigenbaum-product" else ITINERARY_N_CAP
        return [("coefficients", p["n"], first), ("zero scan", p["n"], ZERO_N_CAP)]
    if recipe == "thue-morse-product":
        return [("product", p["n"], PRODUCT_N_CAP)]
    if recipe == "balance":
        return [("points", len(parse_list(p["angles"], parse_angle)), BALANCE_M_CAP)]
    if recipe == "probe-arc":
        radii = len(parse_list(p["radii"], float))
        return [("arc points", (p["quadrature_n"] + 1) * radii, ARC_POINTS_CAP)]
    raise AssertionError(f"no caps listed for recipe {recipe!r}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recipe_ops_pass_the_recipe_check(tmp_path, workload):
    ops = [op for op in WORKLOADS[workload](1301, tmp_path) if "recipe" in op.params]
    assert ops
    for op in ops:
        params = {k: v for k, v in op.params.items() if k not in ("recipe", "format")}
        RecipeConfig(op.params["recipe"], tmp_path / f"{op.name}.out", op.params["format"],
                     params)


def test_recipe_ops_stay_under_every_cap_they_reach(tmp_path):
    ops = recipe_ops(tmp_path)
    for recipe, fmt, params in ops:
        given = RecipeConfig(recipe, tmp_path / "op.out", fmt, params).params
        for size, value, cap in reached_caps(recipe, {**recipe_defaults(RECIPES[recipe]), **given}):
            assert value <= cap, (recipe, params, size, value, cap)
    # the thue-morse-product ops, the largest sizes of the benchmark, are among them
    assert any(recipe == "thue-morse-product" for recipe, _, _ in ops)
