"""The benchmark's per-layer metrics against the program's public names.

`perfbench/tracing.py` measures each per-layer metric of `BENCHMARK.json`
through named kreinext functions (`SELF_TIME` and `COUNTS`), and reports a
metric as absent once none of its functions exists.  These tests read both
files as they stand and check that every such metric still has at least
one function to read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
NEEDS = {**TRACING.SELF_TIME, **TRACING.COUNTS}
# measured by the benchmark runner itself, not through a program function
UNTRACED = {"trace.overhead_s"}
PER_LAYER = [metric["name"]
             for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if metric["name"] not in UNTRACED]


def _provided(name: str) -> bool:
    module_name, function = name.split(".")
    module = importlib.import_module(f"kreinext.{module_name}")
    return callable(getattr(module, function, None))


@pytest.mark.parametrize("metric", PER_LAYER)
def test_per_layer_metric_has_a_function(metric):
    assert metric in NEEDS, f"{metric} is not mapped to any function"
    assert any(_provided(name) for name in NEEDS[metric]), (
        f"{metric} would be absent: none of {NEEDS[metric]} exists")
