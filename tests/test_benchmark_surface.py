"""The package names that perfbench/ reaches into.

The benchmark imports private helpers and patches functions by name; a
renamed or deleted name makes ``perfbench/run.py`` end without numbers.
The tracer is never installed here, so nothing is patched.
"""
import functools
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("tracing"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(dotted: str):
    layer, *attrs = dotted.split(".")
    module = importlib.import_module("halfspace." + layer)
    return functools.reduce(getattr, attrs, module)


def test_named_entry_points_resolve(perfbench):
    tracing, _ = perfbench
    names = ["solver.worker_count", "harness.smooth_compact",
             "kernels._PREPARED_CACHE"]
    names += ["%s.%s" % (layer, dotted)
              for layer, entries in tracing.PRIVATE.items()
              for dotted in entries]
    for name in names:
        _resolve(name)
    for layer in tracing.LAYERS:
        importlib.import_module("halfspace." + layer)


def test_verify_sweep_configs(perfbench):
    _, workloads = perfbench
    sweep = workloads.VerifyLap2(0)
    configs = [sweep.make(i) for i in range(sweep.period)]
    assert sorted(cfg.name for cfg in configs) == sweep.names
