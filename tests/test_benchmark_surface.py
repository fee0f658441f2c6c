"""The package names that perfbench/ reaches into.

The benchmark imports private helpers, patches functions by name and
clears ``PreparedSymbol._results`` (always empty now) before each traced
re-run; a renamed or deleted name makes ``perfbench/run.py`` end without
numbers.  The tracer is installed only in subprocesses: one that records
the symbol spans and one traced worker run, so nothing here is patched.
"""
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_residual_names_in_kernel_report(perfbench, lame2_kernel):
    """The kernel_lame2 check reads the report metrics named in RESIDUALS;
    each must be in a verify_kernel_properties report, and pass there."""
    _, workloads = perfbench
    from halfspace import verify_kernel_properties
    table, kernel = lame2_kernel
    report = verify_kernel_properties(kernel.system, kernel, table,
                                      pde_check=False)
    for name in workloads.RESIDUALS:
        assert report.metric(name).passed, name


def test_verify_sweep_configs(perfbench):
    _, workloads = perfbench
    sweep = workloads.VerifyLap2(0)
    configs = [sweep.make(i) for i in range(sweep.period)]
    assert sorted(cfg.name for cfg in configs) == sweep.names


def test_lame3_symbol_surface(perfbench):
    """What the solve_lame3 workload and the tracer's span attributes read
    of the symbol layer, applied to real calls and their arguments."""
    tracing, workloads = perfbench
    from halfspace import Grid, build_system, kernels
    system = build_system("lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j)
    nodes = Grid(n=3, N=16, h=0.25).freq_nodes_fftorder()

    args = (system, nodes)
    out = kernels._general_batch(*args)
    assert tracing.ATTRS["kernels._general_batch"](args, {}, out) == \
        {"nodes": len(nodes)}

    prepared = kernels.prepared_symbol(system, nodes)
    fill = tracing.ATTRS["kernels.PreparedSymbol.__init__"](
        (prepared, system, nodes), {}, None)
    assert fill["bytes"] >= prepared.stacks["g"].nbytes > 0

    s = 0.7 * prepared.norms[None]
    args = (system, prepared.stacks, s)
    out = kernels._eval_from_stacks(*args)
    assert tracing.ATTRS["kernels._eval_from_stacks"](args, {}, out) == \
        {"nodes": len(s)}

    assert prepared in kernels._PREPARED_CACHE.values()
    workloads.forget_height_symbols()
    assert prepared._results == {}


def test_lame3_solve_reaches_symbol_through_module_attribute(monkeypatch):
    """The tracer rebinds ``kernels._eval_from_stacks`` to time the symbol
    arithmetic as ``kernels.symbol.self_s``; a Lame n=3 solve must reach
    it through that attribute, all heights in one call."""
    from halfspace import Grid, build_system, kernels, poisson_extend
    from halfspace.harness import smooth_compact
    calls = []
    inner = kernels._eval_from_stacks

    def counting(system, stacks, s):
        calls.append(np.shape(s))
        return inner(system, stacks, s)

    monkeypatch.setattr(kernels, "_eval_from_stacks", counting)
    monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
    system = build_system("lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j)
    grid = Grid(n=3, N=16, h=0.25)
    f = smooth_compact(grid, 3, 1, count=1)[0]
    poisson_extend(system, f, [0.1, 0.5, 2.0], gradient=True)
    assert calls == [(3, grid.node_count)]


TRACED_PATHS = r"""
import json, sys
import numpy as np
import halfspace as hs
import tracing

tracer = tracing.Tracer()
tracer.install(hs)
for system, d in ((hs.build_system("laplacian", n=2), 1),
                  (hs.build_system("lame", n=2, mu=1.0, lam=1.0), 1),
                  (hs.build_system("lame", n=3, mu=1.0, lam=1.0), 2)):
    hs.symbol_batch(system, np.linspace(-3.0, 3.0, 8 * d).reshape(-1, d), 0.7)
system = hs.build_system("lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j)
grid = hs.Grid(n=3, N=16, h=0.25)
f = hs.harness.smooth_compact(grid, 3, 1, count=1)[0]
hs.poisson_extend(system, f, [0.1, 0.5, 2.0], gradient=True)
names = [span[1] for span in tracer.spans]
json.dump({"names": sorted(set(names)), "table_builds": names.count(
    "kernels._DirectionEvaluator.__init__")}, sys.stdout)
"""


def test_tracer_sees_every_symbol_path():
    """With the tracer installed, one symbol_batch per system class and one
    Lame n=3 solve record a span under each private name it patches, so
    every name stays on a path that runs.  kernels.direction_evaluator_builds
    counts solvent tables: one per system whose symbol or closed form needs
    solvents, here the two Lame systems of the symbol_batch calls and the
    solved one, while the Laplacian takes its scalar root in closed form."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", TRACED_PATHS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    seen = set(out["names"])
    assert out["table_builds"] == 3
    for name in ("_scalar_batch", "_collinear_batch", "_general_batch",
                 "_eval_from_stacks", "_DirectionEvaluator.__init__",
                 "PreparedSymbol.__init__"):
        assert "kernels." + name in seen
    # kernels.hidden_builds counts these spans under a solve
    assert "kernels.build_poisson_kernel" not in seen


def test_traced_worker_runs_sound(tmp_path):
    """One traced solve_lame3 worker: the traced ops, the untraced re-runs
    (which clear ``_results`` and read ``solver.worker_count``) and the
    symbol micro-costs all run, and every output checks and matches."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         "solve_lame3", "--seed", "0", "--seconds", "0.01", "--trace-out",
         str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["event"] == "result"
    assert result["sound"] and result["failed"] == 0, result["failures"]
