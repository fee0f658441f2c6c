"""Command-line front end: build kernels, solve Dirichlet problems,
compute norms, and run verification experiments.

Exit codes: 0 success, 1 tolerance failure, 2 usage or configuration error.
Configuration may come from flags or a JSON file (--config); complex values
travel as [re, im] pairs.  The resolved configuration snapshot, artifact
checksums and stage timings land in manifest.json next to the outputs.
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
from .errors import HalfspaceError, UnknownExperiment
from .grids import Grid
from .harness import (default_config, experiment_names, run_experiment,
                      system_from_spec, clipped_log, smooth_compact)
from .kernels import build_poisson_kernel, verify_kernel_properties
from .operators import DyadicCubeFamily
from .report import _plain
from .solver import BoundaryData, poisson_extend
from .spaces import norm

USAGE_ERROR = 2
TOLERANCE_ERROR = 1


class _Manifest:
    def __init__(self, outdir: Path, config: dict):
        self.outdir = outdir
        self.data = {"config": _plain(config), "artifacts": {}, "timings": {}}
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    def stage(self, name: str):
        now = time.perf_counter()
        self.data["timings"][name] = now - self._stage_start
        self._stage_start = now

    def artifact(self, path: Path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.data["artifacts"][Path(path).name] = digest

    def write(self):
        self.data["timings"]["total"] = time.perf_counter() - self._t0
        path = self.outdir / "manifest.json"
        path.write_text(json.dumps(self.data, sort_keys=True, indent=1))
        return path


def _system_spec_from_args(args) -> dict:
    spec = {"kind": args.system, "n": args.n}
    if args.system == "lame":
        spec["mu"] = _pair(args.mu)
        spec["lambda"] = _pair(getattr(args, "lam"))
    if args.system == "scalar":
        if not args.A:
            raise HalfspaceError("scalar system needs --A")
        spec["A"] = json.loads(args.A)
    return spec


def _pair(text: str):
    parts = [float(v) for v in str(text).split(",")]
    if len(parts) == 1:
        parts.append(0.0)
    return parts[:2]


def _levels_from_args(args) -> list:
    if args.levels:
        if ":" in args.levels:
            lo, hi, count = args.levels.split(":")
            return list(np.geomspace(float(lo), float(hi), int(count)))
        return [float(v) for v in args.levels.split(",")]
    return [0.25, 0.5, 1.0, 2.0]


def _load_config_file(args) -> dict:
    if args.config:
        return json.loads(Path(args.config).read_text())
    return {}


def _make_datum(args, grid: Grid, M: int) -> BoundaryData:
    kind = args.datum
    x0 = grid.meshes()[0]
    rad = grid.radii()
    if kind == "constant":
        samples = np.full(grid.shape + (M,), 1.0 + 0j)
        return BoundaryData(grid=grid, samples=samples, space_tag="bounded",
                            meta={"label": "constant"})
    if kind == "gaussian":
        prof = np.exp(-rad ** 2)
        d = np.zeros(M, complex)
        d[0] = 1.0
        return BoundaryData(grid=grid, samples=prof[..., None] * d,
                            space_tag="lp", meta={"label": "gaussian"})
    if kind == "bump":
        return smooth_compact(grid, M, args.seed, count=1)[0]
    if kind == "log":
        return clipped_log(grid, M)
    if kind == "wide":
        # intentionally saturates the support margin (alias-risk path)
        prof = np.exp(-(rad / (0.9 * grid.R)) ** 2)
        d = np.zeros(M, complex)
        d[0] = 1.0
        return BoundaryData(grid=grid, samples=prof[..., None] * d,
                            space_tag="lp", meta={"label": "wide"})
    raise HalfspaceError("unknown datum %r" % (kind,))


def cmd_kernel(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_config_file(args).get("system") or _system_spec_from_args(args)
    manifest = _Manifest(outdir, {"command": "kernel", "system": spec,
                                  "N": args.N, "seed": args.seed})
    system = system_from_spec(spec)
    manifest.stage("validate")
    table, kernel = build_poisson_kernel(system, N=args.N)
    manifest.stage("build")
    kpath = outdir / "kernel.bin"
    spath = outdir / "symbol.bin"
    containers.save_kernel(kpath, kernel)
    containers.save_symbol_table(spath, table)
    containers.kernel_slices_csv(outdir / "kernel_slices.csv", kernel)
    report = verify_kernel_properties(system, kernel, table, seed=args.seed)
    paths = containers.write_report(outdir, report, "kernel_properties")
    manifest.stage("verify")
    for p in [kpath, spath, outdir / "kernel_slices.csv"] + list(paths):
        manifest.artifact(p)
    manifest.write()
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else TOLERANCE_ERROR


def cmd_solve(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_config_file(args).get("system") or _system_spec_from_args(args)
    manifest = _Manifest(outdir, {"command": "solve", "system": spec,
                                  "N": args.N, "R": args.R,
                                  "datum": args.datum, "levels": args.levels,
                                  "seed": args.seed})
    system = system_from_spec(spec)
    grid = Grid(n=system.n, N=args.N, h=2.0 * args.R / args.N)
    datum = _make_datum(args, grid, system.M)
    levels = _levels_from_args(args)
    field = poisson_extend(system, datum, levels,
                           wrap_tol=args.wrap_tol)
    manifest.stage("solve")
    fpath = outdir / "field.bin"
    containers.save_field(fpath, field, system)
    containers.field_csv(outdir / "field.csv", field)
    manifest.artifact(fpath)
    manifest.artifact(outdir / "field.csv")
    manifest.write()
    if args.datum == "constant":
        dev = float(np.abs(field.values - datum.samples[None]).max())
        print("constant datum reproduction deviation: %.3e" % dev)
        if dev > 1e-10:
            return TOLERANCE_ERROR
    if args.datum == "gaussian" and spec.get("kind") == "laplacian" \
            and system.n == 2:
        from scipy import integrate
        t = float(field.heights[0])
        oracle, _ = integrate.quad(
            lambda y: (t / np.pi) / (t * t + y * y) * np.exp(-y * y),
            -np.inf, np.inf, limit=200)
        got = float(field.values[0, grid.N // 2, 0].real)
        err = abs(got - oracle)
        print("gaussian center value vs quadrature oracle at t=%g: %.2e"
              % (t, err))
        if err > max(1e-6, 3.0 * field.meta["wrap_bound"]):
            return TOLERANCE_ERROR
    print("field written: %d levels on %d^%d nodes (wrap bound %.2e)"
          % (len(field.heights), grid.N, grid.d, field.meta["wrap_bound"]))
    return 0


def cmd_spaces(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_config_file(args).get("system") or _system_spec_from_args(args)
    system = system_from_spec(spec)
    grid = Grid(n=system.n, N=args.N, h=2.0 * args.R / args.N)
    manifest = _Manifest(outdir, {"command": "spaces", "system": spec,
                                  "datum": args.datum, "N": args.N,
                                  "R": args.R, "seed": args.seed})
    datum = _make_datum(args, grid, system.M)
    cubes = DyadicCubeFamily(grid, int(np.log2(grid.N)) - 2)
    out = {
        "l2": norm(datum, "lp", p=2.0),
        "lp": norm(datum, "lp", p=args.p),
        "sup": norm(datum, "lp", p=np.inf),
        "bmo": norm(datum, "bmo", cubes=cubes),
        "holder": norm(datum, "holder", theta=args.theta, seed=args.seed),
        "slg": norm(datum, "slg", theta=args.theta),
        "weighted_l1": norm(datum, "l1_weight", m=float(system.n)),
        "morrey": norm(datum, "morrey", cubes=cubes, p=2.0,
                       lam=0.5 * (system.n - 1)),
    }
    path = outdir / "norms.json"
    path.write_text(json.dumps(_plain(out), sort_keys=True, indent=1))
    manifest.stage("norms")
    manifest.artifact(path)
    manifest.write()
    print(json.dumps(_plain(out), sort_keys=True, indent=1))
    return 0


def cmd_verify(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args)
    overrides = {}
    if "system" in file_cfg or args.system != "laplacian" or args.n != 2:
        overrides["system"] = file_cfg.get("system") \
            or _system_spec_from_args(args)
    for key in ("N", "h", "kappa", "epsilon", "theta", "seed"):
        if key in file_cfg:
            overrides[key] = file_cfg[key]
    if args.N:
        overrides["N"] = args.N
    overrides.setdefault("kappa", args.kappa)
    overrides.setdefault("epsilon", args.epsilon)
    overrides.setdefault("theta", args.theta)
    overrides.setdefault("seed", args.seed)
    if "params" in file_cfg:
        overrides["params"] = file_cfg["params"]
    if "tolerances" in file_cfg:
        overrides["tolerances"] = file_cfg["tolerances"]
    cfg = default_config(args.experiment, **overrides)
    manifest = _Manifest(outdir, {"command": "verify",
                                  "experiment": args.experiment,
                                  "config": cfg.snapshot()})
    report = run_experiment(cfg)
    manifest.stage("experiment")
    for p in containers.write_report(outdir, report):
        manifest.artifact(p)
    manifest.write()
    for line in report.summary_lines():
        print(line)
    print("experiment %s: %s" % (report.experiment,
                                 "PASS" if report.passed else "FAIL"))
    return 0 if report.passed else TOLERANCE_ERROR


def cmd_all(args) -> int:
    status = 0
    base = Path(args.out)
    args.out = str(base / "kernel")
    status = max(status, cmd_kernel(args))
    args.out = str(base / "solve")
    args.datum = "gaussian"
    status = max(status, cmd_solve(args))
    for name in ("lp_wellposed", "linfty_maximum", "counterexample_linear"):
        args.out = str(base / name)
        args.experiment = name
        status = max(status, cmd_verify(args))
    args.out = str(base)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsp",
        description="Poisson kernels and Dirichlet solves in the half-space")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, N_default):
        p.add_argument("--system", default="laplacian",
                       choices=["laplacian", "lame", "scalar"])
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--mu", default="1,0")
        p.add_argument("--lambda", dest="lam", default="1,0")
        p.add_argument("--A", default=None,
                       help="scalar matrix as JSON [[ [re,im], ... ], ...]")
        p.add_argument("--N", type=int, default=N_default)
        p.add_argument("--R", type=float, default=64.0)
        p.add_argument("--levels", default=None,
                       help="comma list or lo:hi:count (geometric)")
        p.add_argument("--kappa", type=float, default=1.0)
        p.add_argument("--epsilon", type=float, default=0.0)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--theta", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")

    pk = sub.add_parser("kernel", help="build and verify a Poisson kernel")
    common(pk, 1024)
    pk.set_defaults(fn=cmd_kernel)

    ps = sub.add_parser("solve", help="extend boundary data into the half-space")
    common(ps, 1024)
    ps.add_argument("--datum", default="gaussian",
                    choices=["constant", "gaussian", "bump", "log", "wide"])
    ps.add_argument("--wrap-tol", type=float, default=None)
    ps.set_defaults(fn=cmd_solve)

    pn = sub.add_parser("spaces", help="compute function-space norms of a datum")
    common(pn, 1024)
    pn.add_argument("--datum", default="gaussian",
                    choices=["constant", "gaussian", "bump", "log", "wide"])
    pn.set_defaults(fn=cmd_spaces)

    pv = sub.add_parser("verify", help="run a named verification experiment")
    pv.add_argument("experiment", help="one of: %s" % ", ".join(experiment_names()))
    common(pv, 0)
    pv.set_defaults(fn=cmd_verify)

    pa = sub.add_parser("all", help="kernel + solve + a default experiment set")
    common(pa, 1024)
    pa.add_argument("--datum", default="gaussian")
    pa.add_argument("--wrap-tol", type=float, default=None)
    pa.set_defaults(fn=cmd_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.fn(args)
    except UnknownExperiment as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except HalfspaceError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
