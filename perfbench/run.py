"""Benchmark of the halfspace pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/workloads.py for why each was chosen):
verify_lap2, solve_lame3, kernel_lame2.  Every run drives one client in a
closed loop in a fresh interpreter (perfbench/worker.py), so nothing cached
carries over between runs or workloads.  The program sees only inputs made
from --seed.

--trace 0 measures the end-to-end metrics:

* setup_s: interpreter start, import, system validation and the first op
  on cold caches, timed from outside the interpreter.  When one setup takes
  under SETUP_REPEAT_BELOW_S it is repeated in fresh interpreters and the
  median of SETUP_REPEATS is reported; a slower setup (the cold Lame n=3
  solve with its hidden kernel build) is measured once per run.
* op_s.p50 and op_s.tail over the loop ops: the tail is the highest
  percentile with at least ten samples beyond it, printed with its
  percentile and sample count.
* ops_per_s: the median over sweeps of a sweep's ops over the time spent
  in them; a sweep is one pass over the workload's op cycle (the 13
  experiments of verify_lap2, a single op elsewhere).
* peak_rss_mb: peak resident memory of the measuring interpreter.

It also prints fail_frac (failed over attempted ops) and check_err (the
worst residual of the per-op checks).  --trace 1 runs the workload with
every module layer traced and reports per-layer counts and self times; the
spans are written to .bench_out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

WORKLOADS = ("verify_lap2", "solve_lame3", "kernel_lame2")
SETUP_REPEATS = 3
SETUP_REPEAT_BELOW_S = 10.0
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(nproc: int) -> dict:
    """Environment of the workers: BLAS threads capped at the CPU count,
    no bytecode written into the checkout."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spawn(root: Path, env: dict, deadline: float, workload: str, seed: int,
          seconds: float, trace_out: Path | None = None):
    """Run one worker; returns (setup seconds, result dict)."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        final = proc.stdout.readline()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready or not final:
        raise WorkerFailed("worker for %s exited with %s"
                           % (workload, proc.returncode))
    return setup, json.loads(final)


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it (the smallest sample when there are fewer)."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def sweep_rate(samples, period: int) -> float:
    """Median over consecutive sweeps of ``period`` ops of ops per second."""
    return statistics.median(
        period / sum(samples[k:k + period])
        for k in range(0, len(samples) - period + 1, period))


def per_layer_unit(name: str) -> str:
    if name.endswith("us_per_node"):
        return "us"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("ratio", "frac", "speedup")):
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="halfspace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "halfspace" / "__init__.py").is_file():
        print("perfbench: no halfspace sources under %s" % (root / "src"),
              file=sys.stderr)
        return 2
    nproc = usable_cpus()
    env = worker_env(nproc)
    deadline = monotonic() + DEADLINE_S
    name = args.workload

    trace_out = None
    if args.trace:
        trace_out = root / ".bench_out" / ("trace-%s-%d.json"
                                           % (name, args.seed))
        trace_out.parent.mkdir(exist_ok=True)
    try:
        setup, last = spawn(root, env, deadline, name, args.seed, args.seconds,
                            trace_out)
        results, setups = [last], [setup]
        while not args.trace and setups[0] < SETUP_REPEAT_BELOW_S \
                and len(setups) < SETUP_REPEATS:
            setup, result = spawn(root, env, deadline, name, args.seed, 0)
            results.append(result)
            setups.append(setup)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    header = dict(last["header"], nproc=nproc, commit=git_commit(root),
                  workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  **{var: env[var] for var in BLAS_THREAD_VARS})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["sound"] for r in results)
    errs = [r["check_err"] for r in results if r["check_err"] is not None]
    op_s = last["op_s"]

    print("# header " + json.dumps(header, sort_keys=True))
    for r in results:
        for why in r["failures"]:
            print("# failure: %s" % why)
    notes = {}
    if args.trace:
        metrics = {k: (v, per_layer_unit(k))
                   for k, v in sorted(last["metrics"].items())}
        print("# spans written to %s" % trace_out.relative_to(root))
    else:
        p_tail, pct = tail(op_s)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.tail": (p_tail, "s"),
            "ops_per_s": (sweep_rate(op_s, last["period"]), "1/s"),
            "peak_rss_mb": (last["peak_rss_mb"], "MB"),
        }
        notes = {"setup_s": "median of %d" % len(setups),
                 "op_s.p50": "n=%d" % len(op_s),
                 "op_s.tail": "p%.0f, n=%d" % (pct, len(op_s))}
    for key, (value, unit) in metrics.items():
        note = "  (%s)" % notes[key] if key in notes else ""
        print("%s %-44s %.6g %s%s" % (name, key, value, unit, note))
    print("%s %-44s %.6g  (%d of %d ops)" % (name, "fail_frac",
                                              failed / attempted, failed,
                                              attempted))
    print("%s %-44s %s" % (name, "check_err",
                           "%.3g" % max(errs) if errs else "n/a"))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
