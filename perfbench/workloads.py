"""The benchmark's three closed-loop workloads.

Each workload makes the inputs of op ``i`` from the benchmark seed alone
(``make``), runs the timed op (``run``), checks its outputs independently
(``check``) and digests them for the thread-invariance comparison
(``digest``).  Library calls go through the ``halfspace`` package
attributes at call time, so a traced run sees them.

Why these three:

* verify_lap2 - the 13 ``hsp verify`` experiments on the scalar Laplacian
  n=2 at their default sizes: harness batteries, the per-level thread pool,
  FFTs, operators and spaces, and only the closed-form scalar symbol.  The
  matrix contour path does no work here.
* solve_lame3 - Dirichlet solves with gradient for complex Lame n=3 on one
  64^2 grid: the general (per-node contour) symbol path.  Ops share the
  system and grid, so the prepared contour stacks are reused while every
  op's heights are new; the first solve pays the hidden tail-constant
  kernel build.
* kernel_lame2 - a kernel build and its property report for a fresh
  Lame n=2 system per op: the collinear contour path at one height over
  65 536 oversampled nodes.  Ops share nothing, the opposite sharing
  profile to solve_lame3.
"""
from __future__ import annotations

import statistics
from time import perf_counter
from typing import NamedTuple

import numpy as np

import halfspace as hs
from halfspace.harness import smooth_compact

SEMIGROUP_TOL = 1e-8      # as in verify_kernel_properties
MASS_TOL = 1e-9           # relative; exact up to FFT round-off
MICRO_NODES = 4096        # frequency nodes per symbol microcost call
RESIDUALS = ("normalization_residual_tail_corrected",
             "normalization_residual_full_grid", "semigroup_residual")


def lame_moduli(rng) -> dict:
    """Seeded complex Lame moduli, all Legendre-Hadamard elliptic."""
    return dict(mu=complex(rng.uniform(0.7, 1.5), rng.uniform(-0.4, 0.4)),
                lam=complex(rng.uniform(0.5, 2.5), rng.uniform(-0.6, 0.6)))


class Check(NamedTuple):
    """Outcome of one op's check.

    ``passed`` feeds ``failed``; ``sound`` is false only when an identity
    the outputs must satisfy is broken, and feeds ``correct``.  A report
    that misses one of its own tolerances fails without being unsound.
    ``why`` names what failed.
    """

    passed: bool
    sound: bool
    err: float | None = None
    why: str = ""


def _missed(report) -> str:
    """The report's failed metrics and refinements, for the failure log."""
    names = [m.name for m in report.metrics + report.refinement
             if not m.passed]
    return "%s (seed %s) missed %s" % (
        report.experiment, report.fingerprint.get("seed"), ", ".join(names))


class VerifyLap2:
    """Op i runs experiment i mod 13 with seed ``seed + 1000 * sweep``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.names = hs.experiment_names()
        self.period = len(self.names)

    def make(self, i: int):
        return hs.default_config(self.names[i % self.period],
                                 seed=self.seed + 1000 * (i // self.period))

    def run(self, cfg):
        return hs.run_experiment(cfg)

    def check(self, cfg, report) -> Check:
        return Check(report.passed, True, why=_missed(report))

    def digest(self, report) -> bytes:
        return report.to_json().encode()


class SolveLame3:
    """Op i: one seeded smooth_compact datum, 12 seeded heights."""

    period = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.system = hs.build_system("lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j)
        self.grid = hs.Grid(n=3, N=64, h=0.25)
        self.cone = hs.ConeSpec(kappa=1.0)

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        datum = smooth_compact(self.grid, 3, int(rng.integers(2 ** 31)), 1)[0]
        while True:     # trace_estimate needs three levels below t = 1
            heights = np.exp(rng.uniform(np.log(0.01), np.log(8.0), 12))
            if np.count_nonzero(heights < 1.0) >= 3:
                return datum, np.sort(heights), rng

    def run(self, inputs):
        datum, heights, _ = inputs
        u = hs.poisson_extend(self.system, datum, heights, gradient=True)
        return (u, hs.nontangential_max(u, self.cone),
                hs.trace_estimate(u, self.cone))

    def check(self, inputs, outputs) -> Check:
        datum, heights, rng = inputs
        u = outputs[0]
        nodes = self.grid.freq_nodes_fftorder()
        xi = nodes[rng.choice(len(nodes), 64, replace=False)]
        t1, t2 = rng.choice(heights, 2, replace=False)
        k12 = hs.symbol_batch(self.system, xi, t1 + t2)
        k1 = hs.symbol_batch(self.system, xi, t1)
        k2 = hs.symbol_batch(self.system, xi, t2)
        semigroup = float(np.abs(k12 - k1 @ k2).max())
        mass0 = datum.samples.sum(axis=(0, 1))
        masses = u.values.sum(axis=(1, 2))
        mass = float(np.abs(masses - mass0).max() / np.abs(mass0).max())
        ok = semigroup <= SEMIGROUP_TOL and mass <= MASS_TOL
        return Check(ok, ok, max(semigroup, mass),
                     "semigroup residual %.3g, mass residual %.3g"
                     % (semigroup, mass))

    def digest(self, outputs) -> bytes:
        u, nt, tr = outputs
        return b"".join(a.tobytes() for a in (
            u.values, u.gradient, nt.meta["values"], tr.samples))


class KernelLame2:
    """Op i: seeded complex moduli, N = 4096 build, property report."""

    period = 1

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        return lame_moduli(rng), int(rng.integers(2 ** 31))

    def run(self, inputs):
        moduli, seed = inputs
        system = hs.build_system("lame", n=2, **moduli)
        table, kernel = hs.build_poisson_kernel(system, N=4096)
        return kernel, hs.verify_kernel_properties(system, kernel, table,
                                                   seed=seed)

    def check(self, inputs, outputs) -> Check:
        report = outputs[1]
        identities = [report.metric(name) for name in RESIDUALS]
        return Check(report.passed, all(m.passed for m in identities),
                     max(m.value for m in identities), _missed(report))

    def digest(self, outputs) -> bytes:
        kernel, report = outputs
        return kernel.values.tobytes() + report.to_json().encode()


def symbol_microcost(seed: int) -> dict:
    """Microseconds per node of ``symbol_batch`` on each code path, for
    fresh (cache-cold) systems and seeded nodes, as a median of calls."""
    rng = np.random.default_rng([seed, 1 << 20])

    def scalar():
        a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        return hs.build_system("scalar", A=np.eye(2) + 0.2 * a)

    def lame(n):
        return lambda: hs.build_system("lame", n=n, **lame_moduli(rng))

    paths = (("scalar", 5, scalar), ("collinear", 3, lame(2)),
             ("general", 1, lame(3)))
    out = {}
    for path, reps, make in paths:
        times = []
        for _ in range(reps):
            system = make()
            d = system.n - 1
            dirs = rng.standard_normal((MICRO_NODES, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            xi = dirs * np.exp(rng.uniform(np.log(0.05), np.log(20.0),
                                           (MICRO_NODES, 1)))
            start = perf_counter()
            hs.symbol_batch(system, xi, 1.0)
            times.append(perf_counter() - start)
        out["kernels.symbol.%s.us_per_node" % path] = \
            1e6 * statistics.median(times) / MICRO_NODES
    return out


def forget_height_symbols():
    """Drop the per-height symbols that prepared frequency sets memoise,
    so that re-running an op repeats its work."""
    for prepared in hs.kernels._PREPARED_CACHE.values():
        prepared._results.clear()


WORKLOADS = {"verify_lap2": VerifyLap2, "solve_lame3": SolveLame3,
             "kernel_lame2": KernelLame2}
