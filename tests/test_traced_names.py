"""Every library name the benchmark tracer wraps still exists.

perfbench/tracing.py wraps functions at the ``module:attribute`` a caller
looks up; a name that no longer resolves makes every traced benchmark
worker exit with an error.  The file is run as plain source (no bytecode
cache is written next to it) and only its WRAPPED list is read.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WRAPPED = runpy.run_path(str(TRACING))["WRAPPED"]


@pytest.mark.parametrize("target", sorted({t for t, _, _ in WRAPPED}))
def test_traced_name_resolves_to_a_callable(target):
    module_name, _, attr_path = target.rpartition(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
