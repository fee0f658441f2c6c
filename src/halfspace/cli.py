"""Command-line front end: build kernels, solve Dirichlet problems,
compute norms, and run verification experiments.

Every command takes --system --n --mu --lambda --A --config --out, and:
kernel --N --seed; solve --N --R --levels --datum --wrap-tol --seed;
spaces --N --R --datum --p --theta --seed; verify EXPERIMENT --N --kappa
--theta --seed; all --N --R --levels --wrap-tol --kappa --theta --seed.
The JSON file of --config may hold only keys its command reads: "system",
and for verify and all also N h kappa theta seed params tolerances; complex
values travel as [re, im] pairs.  A given flag beats the file, the file
beats the default, and the file's "system" replaces the system options.
Exit codes: 0 success, 1 tolerance failure, 2 usage or configuration error.
Every run writes manifest.json: the resolved configuration, a sha256 per
artifact and the time of each stage.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import containers
from .errors import HalfspaceError
from .grids import Grid
from .harness import (default_config, experiment_names, run_experiment,
                      system_from_spec, clipped_log, smooth_compact)
from .kernels import build_poisson_kernel, verify_kernel_properties
from .operators import DyadicCubeFamily
from .report import _plain
from .solver import BoundaryData, poisson_extend, wrap_bound
from .spaces import norm

USAGE_ERROR = 2
TOLERANCE_ERROR = 1

_VERIFY_KEYS = "system N h kappa theta seed params tolerances".split()


class _Run:
    """One command's output directory and its manifest.json: the recorded
    config, the seconds of each stage and the sha256 of each artifact.  The
    directory is made when the first file is written into it, so a command
    that fails first leaves none behind."""

    def __init__(self, out, config: dict):
        self.outdir = Path(out)
        self.data = {"config": _plain(config), "artifacts": {}, "timings": {}}
        self._t0 = time.perf_counter()

    def stage(self, name: str):
        done = self.data["timings"]
        done[name] = time.perf_counter() - self._t0 - sum(done.values())

    def path(self, name: str) -> Path:
        """Where file ``name`` of this run is written; makes the directory."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def finish(self, stage: str, artifacts, report=None) -> int:
        """End ``stage``, write manifest.json, print the report; exit code."""
        self.stage(stage)
        self.data["artifacts"].update((p.name, hashlib.sha256(
            p.read_bytes()).hexdigest()) for p in artifacts)
        self.data["timings"]["total"] = time.perf_counter() - self._t0
        self.path("manifest.json").write_text(
            json.dumps(self.data, sort_keys=True, indent=1))
        for line in report.summary_lines() if report is not None else ():
            print(line)
        return 0 if report is None or report.passed else TOLERANCE_ERROR


def _config_reader(keys):
    """argparse type of --config: the JSON object, holding only ``keys``."""
    def read(path):
        try:
            cfg = json.loads(Path(path).read_text())
            unread = ", ".join(sorted(set(cfg.keys()) - set(keys)))
        except (OSError, ValueError, AttributeError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if unread:
            raise argparse.ArgumentTypeError("%s: no use for %s (reads %s)" % (
                path, unread, ", ".join(keys)))
        return cfg
    return read


def _system_spec(args) -> dict:
    """The config file's system, else the one the system options give."""
    if args.config.get("system"):
        return args.config["system"]
    if args.system == "scalar" and not args.A:
        raise HalfspaceError("scalar system needs --A")
    extra = {"lame": {"mu": args.mu, "lambda": args.lam},
             "scalar": {"A": args.A}}.get(args.system, {})
    return {"kind": args.system, "n": args.n, **extra}


def _pair(text: str) -> list:
    """A complex flag, "re" or "re,im", as [re, im]."""
    return [float(v) for v in (text + ",0").split(",")[:2]]


def _levels(text) -> list:
    if not text:
        return [0.25, 0.5, 1.0, 2.0]
    if ":" in text:
        lo, hi, count = text.split(":")
        return list(np.geomspace(float(lo), float(hi), int(count)))
    return [float(v) for v in text.split(",")]


def _make_datum(kind: str, seed: int, grid: Grid, M: int) -> BoundaryData:
    if kind == "constant":
        samples = np.full(grid.shape + (M,), 1.0 + 0j)
        return BoundaryData(grid=grid, samples=samples, space_tag="bounded",
                            meta={"label": "constant"})
    if kind in ("gaussian", "wide"):
        # wide intentionally saturates the support margin (alias-risk path)
        width = 1.0 if kind == "gaussian" else 0.9 * grid.R
        prof = np.exp(-(grid.radii() / width) ** 2)
        samples = prof[..., None] * np.eye(M, dtype=complex)[0]
        return BoundaryData(grid=grid, samples=samples, space_tag="lp",
                            meta={"label": kind})
    if kind == "bump":
        return smooth_compact(grid, M, seed, count=1)[0]
    if kind == "log":
        return clipped_log(grid, M)
    raise HalfspaceError("unknown datum %r" % (kind,))


def cmd_kernel(args) -> int:
    spec = _system_spec(args)
    run = _Run(args.out, {"command": "kernel", "system": spec,
                          "N": args.N, "seed": args.seed})
    system = system_from_spec(spec)
    run.stage("validate")
    table, kernel = build_poisson_kernel(system, N=args.N)
    run.stage("build")
    paths = [run.path(name)
             for name in ("kernel.bin", "symbol.bin", "kernel_slices.csv")]
    containers.save_kernel(paths[0], kernel)
    containers.save_symbol_table(paths[1], table)
    containers.kernel_slices_csv(paths[2], kernel)
    report = verify_kernel_properties(system, kernel, table, seed=args.seed)
    paths += containers.write_report(run.outdir, report, "kernel_properties")
    return run.finish("verify", paths, report)


def cmd_solve(args) -> int:
    spec = _system_spec(args)
    run = _Run(args.out, {"command": "solve", "system": spec,
                          "N": args.N, "R": args.R, "datum": args.datum,
                          "levels": args.levels, "wrap_tol": args.wrap_tol,
                          "seed": args.seed})
    system = system_from_spec(spec)
    grid = Grid(n=system.n, N=args.N, h=2.0 * args.R / args.N)
    datum = _make_datum(args.datum, args.seed, grid, system.M)
    field = poisson_extend(system, datum, _levels(args.levels),
                           wrap_tol=args.wrap_tol)
    fpath, cpath = run.path("field.bin"), run.path("field.csv")
    containers.save_field(fpath, field, system)
    containers.field_csv(cpath, field)
    run.finish("solve", [fpath, cpath])
    print("field written: %d levels on %d^%d nodes (wrap bound %.2e)"
          % (len(field.heights), grid.N, grid.d,
             wrap_bound(system, datum, field.heights[-1])))
    return 0


def cmd_spaces(args) -> int:
    spec = _system_spec(args)
    run = _Run(args.out, {"command": "spaces", "system": spec,
                          "datum": args.datum, "N": args.N, "R": args.R,
                          "p": args.p, "theta": args.theta,
                          "seed": args.seed})
    system = system_from_spec(spec)
    grid = Grid(n=system.n, N=args.N, h=2.0 * args.R / args.N)
    datum = _make_datum(args.datum, args.seed, grid, system.M)
    cubes = DyadicCubeFamily(grid, int(np.log2(grid.N)) - 2)
    out = _plain({
        "l2": norm(datum, "lp", p=2.0),
        "lp": norm(datum, "lp", p=args.p),
        "sup": norm(datum, "lp", p=np.inf),
        "bmo": norm(datum, "bmo", cubes=cubes),
        "holder": norm(datum, "holder", theta=args.theta, seed=args.seed),
        "slg": norm(datum, "slg", theta=args.theta),
        "weighted_l1": norm(datum, "l1_weight", m=float(system.n)),
        "morrey": norm(datum, "morrey", cubes=cubes, p=2.0,
                       lam=0.5 * (system.n - 1)),
    })
    path = run.path("norms.json")
    path.write_text(json.dumps(out, sort_keys=True, indent=1))
    run.finish("norms", [path])
    print(path.read_text())
    return 0


def cmd_verify(args) -> int:
    flags = {key: getattr(args, key) for key in ("N", "kappa", "theta", "seed")
             if getattr(args, key) is not None}
    cfg = default_config(args.experiment, **{
        **args.config, "system": _system_spec(args), **flags})
    run = _Run(args.out, {"command": "verify", "experiment": args.experiment,
                          "config": cfg.snapshot()})
    report = run_experiment(cfg)
    code = run.finish("experiment",
                      containers.write_report(run.outdir, report), report)
    print("experiment %s: %s" % (report.experiment,
                                 "PASS" if report.passed else "FAIL"))
    return code


def cmd_all(args) -> int:
    # every step runs at one N and seed: the flag, else the file, else default
    seed = args.config.get("seed", 0) if args.seed is None else args.seed
    base = dict(vars(args), datum="gaussian", seed=seed,
                N=args.N or args.config.get("N", 1024))
    steps = dict(kernel=cmd_kernel, solve=cmd_solve, lp_wellposed=cmd_verify,
                 linfty_maximum=cmd_verify, counterexample_linear=cmd_verify)
    return max(fn(argparse.Namespace(**dict(base, experiment=name,
                                            out=Path(args.out) / name)))
               for name, fn in steps.items())


_FLAGS = {
    "system": dict(default="laplacian",
                   choices=["laplacian", "lame", "scalar"]),
    "n": dict(type=int, default=2),
    "mu": dict(type=_pair, default="1,0"),
    "lambda": dict(dest="lam", type=_pair, default="1,0"),
    "A": dict(type=json.loads,
              help="scalar matrix as JSON [[ [re,im], ... ], ...]"),
    "N": dict(type=int, default=1024),
    "R": dict(type=float, default=64.0),
    "levels": dict(help="comma list or lo:hi:count (geometric)"),
    "datum": dict(default="gaussian",
                  choices=["constant", "gaussian", "bump", "log", "wide"]),
    "wrap-tol": dict(type=float),
    "kappa": dict(type=float),
    "p": dict(type=float, default=2.0),
    "theta": dict(type=float, default=0.5),
    "seed": dict(type=int, default=0),
    "out": dict(default="out", help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsp", description=(
        "Poisson kernels and Dirichlet solves in the half-space"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text, flags in [
        ("kernel", cmd_kernel, "build and verify a Poisson kernel",
         "N seed"),
        ("solve", cmd_solve, "extend boundary data into the half-space",
         "N R levels datum wrap-tol seed"),
        ("spaces", cmd_spaces, "compute function-space norms of a datum",
         "N R datum p theta seed"),
        ("verify", cmd_verify, "run a named verification experiment",
         "N kappa theta seed"),
        ("all", cmd_all, "kernel + solve + a default experiment set",
         "N R levels wrap-tol kappa theta seed"),
    ]:
        p = sub.add_parser(name, help=text)
        if name == "verify":
            p.add_argument("experiment", choices=experiment_names())
        for flag in ("system n mu lambda A " + flags + " out").split():
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
        keys = ("system",)
        if name in ("verify", "all"):
            # unset, so that a config file's value shows through
            p.set_defaults(N=None, theta=None, seed=None)
            keys = _VERIFY_KEYS
        p.add_argument("--config", type=_config_reader(keys), default={},
                       help="JSON config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.fn(args)
    except (HalfspaceError, ValueError, OSError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
