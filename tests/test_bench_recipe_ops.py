"""Every recipe op of the benchmark passes the recipe parameter check.

perfbench/workloads.py builds its recipe ops from keyword parameters; a key
the recipe does not take is a ValidationError, which the benchmark would
count as a failed op; an op past a size cap would exit 3 the same way.  The
file is run as plain source (no bytecode cache is written next to it) and
its ops are built, not run.
"""

import runpy
from pathlib import Path

import pytest

from rrl_lab.dynamics import PRODUCT_N_CAP
from rrl_lab.recipes import RecipeConfig

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recipe_ops_pass_the_recipe_check(tmp_path, workload):
    ops = [op for op in WORKLOADS[workload](1301, tmp_path) if "recipe" in op.params]
    assert ops
    for op in ops:
        params = {k: v for k, v in op.params.items() if k not in ("recipe", "format")}
        RecipeConfig(op.params["recipe"], tmp_path / f"{op.name}.out", op.params["format"],
                     params)


def test_thue_morse_ops_stay_under_the_product_cap(tmp_path):
    ops = [op for workload in sorted(WORKLOADS) for op in WORKLOADS[workload](1301, tmp_path)
           if op.params.get("recipe") == "thue-morse-product"]
    assert ops
    assert all(op.params["n"] <= PRODUCT_N_CAP for op in ops)
