"""One fresh interpreter running one workload, started by run.py.

Usage: worker.py --workload NAME --seed N --seconds S [--trace-out FILE]

Runs op 0 on cold caches (the setup op), then, when S > 0, ops 1, 2, ...
until S seconds have passed, at least MIN_OPS ops have run and the last
sweep of the workload is complete.  With --trace-out the package is traced
from import on; after the loop the first loop ops (SERIAL_OPS of them, or
one whole sweep) are re-run untraced, with the default worker count and
with HSP_THREADS=1, and their outputs must be bit-identical to the traced
run's.

Protocol on stdout, one JSON object a line: {"event": "ready"} as soon as
the setup op has returned, then {"event": "result", ...}.  Anything the
library prints goes to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

# the package is imported from the source tree of this checkout
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import halfspace  # noqa: E402
from halfspace.solver import worker_count  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, forget_height_symbols,  # noqa: E402
                       symbol_microcost)

MIN_OPS = 11          # the tail percentile needs ten samples beyond it
SERIAL_OPS = 3        # loop ops re-run for the serial baseline


class Tally:
    """Op times, failures and the worst check residual of one worker.

    Making inputs and checking outputs run with tracing paused, so a
    traced run records only the timed ops.
    """

    def __init__(self, tracer=None):
        self.quiet = tracer.paused if tracer is not None else nullcontext
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.sound = True
        self.check_err = None
        self.failures = []
        self.digests = {}

    def op(self, workload, i: int, timed: bool = True, keep_digest=False):
        with self.quiet():
            inputs = workload.make(i)
        self.attempted += 1
        error = None
        start = perf_counter()
        try:
            out = workload.run(inputs)
        except Exception as exc:       # an op that raises is a failed op
            error = exc
        if timed:
            self.op_s.append(perf_counter() - start)
        if error is not None:
            traceback.print_exception(error)
            self.fail(i, "raised %s: %s" % (type(error).__name__, error))
            self.sound = False
            return
        with self.quiet():
            check = workload.check(inputs, out)
            if keep_digest:
                self.digests[i] = hashlib.sha256(
                    workload.digest(out)).hexdigest()
        if not check.passed:
            self.fail(i, check.why)
        self.sound &= check.sound
        if check.err is not None:
            self.check_err = max(self.check_err or 0.0, check.err)

    def fail(self, i, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("op %d %s" % (i, why))


def send(stream, **obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def rerun(workload, ops, threads):
    """Untraced re-run of ``ops``; returns (seconds, digests)."""
    saved = os.environ.get("HSP_THREADS")
    if threads is not None:
        os.environ["HSP_THREADS"] = threads
    try:
        total, digests = 0.0, {}
        for i in ops:
            forget_height_symbols()
            inputs = workload.make(i)
            start = perf_counter()
            out = workload.run(inputs)
            total += perf_counter() - start
            digests[i] = hashlib.sha256(workload.digest(out)).hexdigest()
        return total, digests
    finally:
        if saved is None:
            os.environ.pop("HSP_THREADS", None)
        else:
            os.environ["HSP_THREADS"] = saved


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    header = {"python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "worker_count": worker_count(),
              "HSP_THREADS": os.environ.get("HSP_THREADS")}
    experiments = halfspace.experiment_names()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(halfspace)

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally(tracer)
    rerun_ops = range(1, 1 + max(SERIAL_OPS, workload.period)) \
        if tracer is not None else range(0)
    tally.op(workload, 0, timed=False)
    send(proto, event="ready")

    if args.seconds > 0:
        start = perf_counter()
        i = 1
        while True:
            tally.op(workload, i, keep_digest=i in rerun_ops)
            if perf_counter() - start >= args.seconds and i >= MIN_OPS \
                    and i % workload.period == 0:
                break
            i += 1

    metrics = None
    if tracer is not None:
        with tracer.paused():
            par_s, par = rerun(workload, rerun_ops, None)
            ser_s, ser = rerun(workload, rerun_ops, "1")
            micro = symbol_microcost(args.seed)
        if not par == ser == {i: tally.digests.get(i) for i in rerun_ops}:
            tally.sound = False
            tally.failures.append("outputs differ between the traced, the "
                                  "parallel and the serial run")
        metrics = layer_metrics(tracer, experiments)
        metrics.update(micro)
        metrics["solver.parallel_speedup"] = ser_s / par_s
        metrics["trace.overhead_frac"] = \
            sum(tally.op_s[i - 1] for i in rerun_ops) / par_s - 1.0
        metrics["trace.ops"] = tally.attempted
        tracer.dump(args.trace_out, dict(header, workload=args.workload,
                                         seed=args.seed))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    send(proto, event="result", op_s=tally.op_s, period=workload.period,
         attempted=tally.attempted, failed=tally.failed, sound=tally.sound,
         check_err=tally.check_err, failures=tally.failures, header=header,
         metrics=metrics, peak_rss_mb=peak_rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
