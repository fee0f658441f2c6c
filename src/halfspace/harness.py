"""Named verification experiments and their seeded datum batteries.

Every experiment is a pure function of its configuration: identical
configurations (seed included) reproduce identical reports.  Fitted
constants are re-fitted after one grid refinement (N doubled, spacing
halved, same physical window) and must move by less than the stability
tolerance; existential constants from the underlying estimates are only
ever checked for finiteness, two-sidedness, monotone trends, or exponent
fits, never for specific values.

Datum batteries (all seeded, vector directions drawn per component):

* smooth_compact  - C-infinity window on the central half times a slow
  cosine modulation; used for trace recovery and maximal sandwiches.
* sign_changing   - same window times a mean-zero cosine; sup-norm tests.
* lp_battery      - gaussians, windowed wave packets, and on-grid
  band-limited fields; used for the L^p ratio battery.
* periodic_bandlimited - random trigonometric polynomial on exact grid
  frequencies (the periodised solve is exact for these).
* weierstrass     - lacunary cosine series with on-grid frequencies,
  genuinely Hoelder of the requested order.
* clipped_log     - log|lambda x| with the singular node clipped to the
  half-cell value (even profile, so its periodisation stays continuous).
* slg_profile     - (1+|x|^2)^(theta/2) times a slow modulation.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadShape, EmptyWindow, UnknownExperiment
from .grids import Grid
from .kernels import prepared_symbol
from .operators import (ConeSpec, DyadicCubeFamily, hardy_littlewood,
                        nontangential_max, pointwise_max_principle_check)
from .report import VerificationReport
from .solver import (BoundaryData, HalfSpaceField, TailTag, _level_fields,
                     _radial_tail, poisson_extend, poisson_extend_each,
                     trace_estimate, weighted_integrability)
from .spaces import (bmo_norm, carleson_norms, holder_seminorm,
                     make_atom, norm, star_seminorm)
from .systems import EllipticSystem, build_system

__all__ = ["ExperimentConfig", "run_experiment", "experiment_names",
           "default_config"]


def parse_complex(v):
    """Complex numbers travel as [re, im] pairs in configurations."""
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    if isinstance(v, (int, float, complex)):
        return complex(v)
    raise BadShape("cannot parse %r as a complex number" % (v,))


_SPEC_KEYS = {"laplacian": (), "lame": ("mu", "lambda"), "scalar": ("A",),
              "raw": ("tensor",)}     # what each kind reads besides n


def _spec_n(spec: dict) -> int:
    """n of a system spec: the order of a scalar spec's A or of a raw
    tensor's spatial indices (M, M, n, n), which a given "n" must equal;
    else "n", default 2."""
    n = int(spec.get("n", 2))
    key, axis = {"scalar": ("A", 0), "raw": ("tensor", 2)}.get(
        spec.get("kind"), (None, 0))
    shape = np.shape(spec[key]) if key in spec else ()
    if len(shape) <= axis:          # no matrix or tensor: build_system says
        return n
    if "n" in spec and n != shape[axis]:
        raise BadShape("system n = %d but its %s is of order %d"
                       % (n, key, shape[axis]))
    return shape[axis]


def system_from_spec(spec: dict) -> EllipticSystem:
    spec = dict(spec)
    n = _spec_n(spec)
    kind = spec.pop("kind", None)
    spec.pop("n", None)
    if kind not in _SPEC_KEYS:
        raise BadShape("unknown system kind %r" % (kind,))
    missing = [key for key in _SPEC_KEYS[kind] if key not in spec]
    unread = sorted(set(spec) - set(_SPEC_KEYS[kind]))
    if missing or unread:
        raise BadShape("system kind %r: %s" % (kind, "; ".join(
            "%s %s" % (what, ", ".join(map(repr, keys))) for what, keys in
            (("missing", missing), ("does not read", unread)) if keys)))
    if kind == "laplacian":
        return build_system("laplacian", n=n)
    if kind == "lame":
        return build_system("lame", n=n, mu=parse_complex(spec.pop("mu")),
                            lam=parse_complex(spec.pop("lambda")))
    if kind == "scalar":
        A = np.array([[parse_complex(v) for v in row]
                      for row in spec.pop("A")])
        return build_system("scalar", A=A)
    tensor = np.asarray(spec.pop("tensor"))
    if tensor.ndim == 5:          # trailing [re, im]
        tensor = tensor[..., 0] + 1j * tensor[..., 1]
    return build_system("raw", tensor=tensor)


def _positive(value, kind) -> bool:
    """value is a finite positive number of ``kind`` (Real or Integral)."""
    return isinstance(value, kind) and not isinstance(value, bool) \
        and 0 < value < np.inf


@dataclass
class ExperimentConfig:
    name: str
    system: dict = field(default_factory=lambda: {"kind": "laplacian", "n": 2})
    N: int = 1024
    h: float = 0.125
    kappa: float = 1.0
    theta: float = 0.5
    seed: int = 0
    refine: bool = True
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, kind in (("N", Integral), ("seed", Integral), ("h", Real),
                          ("kappa", Real), ("theta", Real), ("params", dict),
                          ("tolerances", dict)):
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise BadShape("config %s must be %s, not %r" % (key, {
                    Integral: "an integer", Real: "a real number",
                    dict: "an object"}[kind], value))
        for key in ("kappa", "theta"):
            if not 0 < getattr(self, key) < np.inf:
                raise BadShape("config %s must be finite and positive, not %r"
                               % (key, getattr(self, key)))
        if self.seed < 0:
            raise BadShape("config seed must be nonnegative, not %r"
                           % (self.seed,))
        for key, value in self.params.items():
            if key == "atoms" and not _positive(value, Integral):
                want = "a positive integer"
            elif key in ("p_values", "rhos") and not (
                    isinstance(value, (list, tuple)) and value
                    and all(_positive(v, Real) for v in value)):
                want = "a nonempty list of finite positive numbers"
            else:
                continue
            raise BadShape("config params %s must be %s, not %r"
                           % (key, want, value))

    def build(self) -> EllipticSystem:
        return system_from_spec(self.system)

    def grid(self, N=None, h=None) -> Grid:
        return Grid(n=_spec_n(self.system),
                    N=N or self.N, h=h or self.h)

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def snapshot(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# batteries and helpers


def _window(grid: Grid, radius: float) -> np.ndarray:
    """C-infinity bump supported in |x| < radius."""
    r = grid.radii() / radius
    out = np.zeros(grid.shape)
    inside = r < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def _directions(rng, M: int, count: int) -> np.ndarray:
    v = rng.standard_normal((count, M)) + 1j * rng.standard_normal((count, M))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _windowed_cosines(grid: Grid, M: int, seed: int, count: int, band,
                      shape, space_tag: str, label: str) -> list:
    """Seeded cosines of frequency in ``band``, passed through ``shape`` and
    windowed to the central half, each along a random direction."""
    rng = np.random.default_rng(seed)
    dirs = _directions(rng, M, count)
    w = _window(grid, 0.44 * grid.R)
    x0 = grid.meshes()[0]
    out = []
    for j in range(count):
        omega = rng.uniform(*band)
        phase = rng.uniform(0, 2 * np.pi)
        prof = w * shape(np.cos(omega * x0 + phase))
        out.append(BoundaryData(
            grid=grid, samples=prof[..., None] * dirs[j],
            space_tag=space_tag, meta={"label": "%s_%d" % (label, j)}))
    return out


def smooth_compact(grid: Grid, M: int, seed: int, count: int = 5) -> list:
    return _windowed_cosines(grid, M, seed, count, (0.05, 0.12),
                             lambda c: 1.0 + 0.3 * c, "continuous",
                             "smooth_compact")


def sign_changing(grid: Grid, M: int, seed: int, count: int = 5) -> list:
    return _windowed_cosines(grid, M, seed, count, (0.5, 2.0),
                             lambda c: c, "bounded", "sign_changing")


def lp_battery(grid: Grid, M: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    rad = grid.radii()
    x0 = grid.meshes()[0]
    out = []
    for j in range(3):
        c = rng.uniform(-grid.R / 8, grid.R / 8)
        sigma = rng.uniform(2.0, 6.0)
        prof = np.exp(-((x0 - c) / sigma) ** 2) * np.exp(
            -(rad ** 2 - x0 ** 2) / sigma ** 2)
        d = _directions(rng, M, 1)[0]
        out.append(BoundaryData(grid=grid, samples=prof[..., None] * d,
                                space_tag="lp",
                                meta={"label": "gaussian_%d" % j}))
    w = _window(grid, 0.4 * grid.R)
    for j in range(2):
        omega = rng.uniform(0.5, 3.0)
        prof = w * np.sin(omega * x0 + rng.uniform(0, 2 * np.pi))
        d = _directions(rng, M, 1)[0]
        out.append(BoundaryData(grid=grid, samples=prof[..., None] * d,
                                space_tag="lp",
                                meta={"label": "wavepacket_%d" % j}))
    out.extend(periodic_bandlimited(grid, M, seed + 17, count=2,
                                    label="bandlimited"))
    return out


def periodic_bandlimited(grid: Grid, M: int, seed: int, count: int = 3,
                         label: str = "periodic") -> list:
    """Random trigonometric polynomials of 24 exact grid frequencies."""
    rng = np.random.default_rng(seed)
    base = np.pi / grid.R            # frequency quantum of the box
    x0 = grid.meshes()[0]
    out = []
    for j in range(count):
        prof = np.zeros(grid.shape)
        for k in range(1, 25):
            amp = rng.standard_normal() / k
            prof = prof + amp * np.cos(k * base * x0 + rng.uniform(0, 2 * np.pi))
        prof /= max(np.abs(prof).max(), 1e-12)
        d = _directions(rng, M, 1)[0]
        out.append(BoundaryData(grid=grid, samples=prof[..., None] * d,
                                space_tag="bounded",
                                meta={"label": "%s_%d" % (label, j)}))
    return out


def weierstrass(grid: Grid, theta: float, M: int, seed: int,
                count: int = 3) -> list:
    """Lacunary cosine series: genuinely Hoelder-theta, on-grid frequencies."""
    rng = np.random.default_rng(seed)
    base = 4.0 * np.pi / grid.R
    levels = int(np.floor(np.log2(0.5 * np.pi / grid.h / base))) + 1
    x0 = grid.meshes()[0]
    out = []
    for j in range(count):
        prof = np.zeros(grid.shape)
        for k in range(levels):
            om = base * 2.0 ** k
            prof = prof + 2.0 ** (-k * theta) * np.cos(
                om * x0 + rng.uniform(0, 2 * np.pi))
        d = _directions(rng, M, 1)[0]
        out.append(BoundaryData(grid=grid, samples=prof[..., None] * d,
                                space_tag="holder",
                                meta={"label": "weierstrass_%d" % j,
                                      "theta": theta}))
    return out


def clipped_log(grid: Grid, M: int, lam: float = 1.0) -> BoundaryData:
    rad = grid.radii()
    vals = np.where(rad > 0, np.log(np.maximum(lam * rad, 1e-300)),
                    np.log(lam * grid.h / 2.0))
    d = np.eye(M, dtype=complex)[0]
    return BoundaryData(grid=grid, samples=vals[..., None] * d,
                        space_tag="weighted_l1",
                        tail=TailTag(exponent=0.0, log=True),
                        meta={"label": "clipped_log_%g" % lam})


def slg_profile(grid: Grid, theta: float, M: int, seed: int) -> BoundaryData:
    rng = np.random.default_rng(seed)
    base = np.pi / grid.R
    rad = grid.radii()
    x0 = grid.meshes()[0]
    prof = (1.0 + rad ** 2) ** (0.5 * theta) \
        * (1.0 + 0.2 * np.cos(8 * base * x0 + rng.uniform(0, 2 * np.pi)))
    d = np.eye(M, dtype=complex)[0]
    return BoundaryData(grid=grid, samples=prof[..., None] * d,
                        space_tag="slg", tail=TailTag(exponent=theta),
                        meta={"label": "slg_profile", "theta": theta})


def log_levels(t_min: float, t_max: float, per_decade: int = 8) -> np.ndarray:
    decades = np.log10(t_max / t_min)
    return np.geomspace(t_min, t_max, max(int(np.ceil(decades * per_decade)), 4))


def _depth_for(grid: Grid) -> int:
    return int(np.log2(grid.N)) - 2


def _fit_slope(r: np.ndarray, v: np.ndarray, lo: float, hi: float,
               grid: Grid) -> float:
    """Log-log slope of v against r over the band lo <= r <= hi."""
    mask = (r >= lo) & (r <= hi) & (v > 0)
    if np.count_nonzero(mask) < 2:
        raise EmptyWindow("slope band [%.3g, %.3g] holds fewer than two "
                          "samples on the grid of R = %.3g; raise N"
                          % (lo, hi, grid.R))
    return float(np.polyfit(np.log(r[mask]), np.log(v[mask]), 1)[0])


def _cone(grid: Grid, kappa: float) -> ConeSpec:
    """Cone of aperture kappa topped at R / kappa, and at most at t = 64."""
    return ConeSpec(kappa, t_max=min(grid.R / kappa, 64.0))


# ---------------------------------------------------------------------------
# experiments: each measures on one grid, adds its metrics to the report and
# returns the fitted constants to re-fit on the refined grid, by metric name


def _fatou_trace_recovery(cfg, system, grid, rep) -> dict:
    """Trace recovery for smooth compact data plus the maximal sandwich."""
    check_levels = [0.2, 0.1, 0.05]
    battery = smooth_compact(grid, system.M, cfg.seed)
    cone = _cone(grid, cfg.kappa)
    levels = np.unique(np.concatenate([
        log_levels(1e-10, cone.t_max), check_levels]))
    cubes = DyadicCubeFamily(grid, _depth_for(grid))
    worst_final = 0.0
    monotone = True
    worst_wl1 = 0.0
    sandwich_frac = 1.0
    cs = []
    traces = []
    mid = int(np.argmin(np.abs(levels - 0.5)))
    for f, u in zip(battery, poisson_extend_each(system, battery, levels)):
        idx = [int(np.argmin(np.abs(u.heights - t))) for t in check_levels]
        sup_f = f.magnitude().max()
        errs = [float(np.linalg.norm(u.values[i] - f.samples,
                                     axis=-1).max()) for i in idx]
        monotone &= errs[0] > errs[1] > errs[2]
        worst_final = max(worst_final, errs[2] / sup_f)
        tr = trace_estimate(u, cone)
        diff = BoundaryData(grid=grid, samples=tr.samples - f.samples)
        worst_wl1 = max(worst_wl1, weighted_integrability(diff, float(system.n))
                        / max(weighted_integrability(f, float(system.n)), 1e-300))
        for kap in (0.5, 1.0, 2.0):
            sub = pointwise_max_principle_check(u, f, _cone(grid, kap), cubes)
            sandwich_frac = min(sandwich_frac,
                                sub.value("left_sandwich_fraction"))
            cs.append(sub.value("right_sandwich_constant"))
        traces.append((tr, u.values[mid].copy(), sup_f))
    # constructive uniqueness content: u == extension of its trace
    rep_res = 0.0
    re_us = poisson_extend_each(system, [tr for tr, _, _ in traces],
                                [levels[mid]])
    for (_, mid_values, sup_f), re_u in zip(traces, re_us):
        rep_res = max(rep_res, float(
            np.linalg.norm(re_u.values[0] - mid_values, axis=-1).max()
            / max(sup_f, 1e-300)))
    rep.add("per_level_error_monotone", 1.0 if monotone else 0.0,
            1.0, "ge", "sup error at t in {0.2, 0.1, 0.05} decreases")
    rep.add("final_level_error_rel", worst_final, cfg.tol("trace", 1e-2),
            "le", "trace error at the finest checked level, relative sup")
    rep.add("trace_weighted_l1_error_rel", worst_wl1, cfg.tol("wl1", 1e-2),
            "le", "weighted-L1 error of the extrapolated trace")
    rep.add("sandwich_left_fraction", sandwich_frac, 1.0, "ge",
            "|trace| below the nontangential maximum at every node")
    rep.add("sandwich_right_constant", max(cs), None, "finite",
            "maximal function controlled by the maximal trace")
    rep.add("representation_residual", rep_res, cfg.tol("repr", 1e-6),
            "le", "field equals the extension of its own trace")
    return {"sandwich_right_constant": max(cs)}


def _weighted_l1_wellposed(cfg, system, grid, rep) -> dict:
    """Two-sided weighted-L1 chain through the maximal operators."""
    battery = smooth_compact(grid, system.M, cfg.seed, count=3)
    battery.append(clipped_log(grid, system.M))
    cone = _cone(grid, cfg.kappa)
    cubes = DyadicCubeFamily(grid, _depth_for(grid))
    levels = log_levels(1e-10, cone.t_max)
    weight = 1.0 / (1.0 + grid.radii() ** float(system.n - 1))

    def grid_mass(mag):
        return float((mag * weight).sum() * grid.cell_volume)

    chain_ok = True
    ratios = []
    for f, u in zip(battery, poisson_extend_each(system, battery, levels)):
        nt = nontangential_max(u, cone)
        mf = hardy_littlewood(f, cubes)
        # all three masses over the same window: the chain is pointwise
        i_f = grid_mass(f.magnitude())
        i_n = grid_mass(nt.meta["values"])
        i_m = grid_mass(mf.meta["values"])
        chain_ok &= i_f <= i_n * (1.0 + 1e-9)
        ratios.append(i_n / i_m)
    rep.add("lower_chain_holds", 1.0 if chain_ok else 0.0, 1.0, "ge",
            "weighted-L1 mass of the datum below that of the maximal field")
    rep.add("upper_chain_constant", max(ratios), None, "finite",
            "maximal field weighted-L1 mass within a multiple of the "
            "maximal-datum mass")
    return {"upper_chain_constant": max(ratios)}


def _lp_wellposed(cfg, system, grid, rep) -> dict:
    """Two-sided L^p bounds between datum and nontangential maximal field."""
    battery = lp_battery(grid, system.M, cfg.seed)
    cone = _cone(grid, cfg.kappa)
    levels = log_levels(1e-10, cone.t_max)
    lo = np.inf
    hi = 0.0
    for f, u in zip(battery, poisson_extend_each(system, battery, levels)):
        nt = nontangential_max(u, cone)
        for p in cfg.params.get("p_values", [4.0 / 3.0, 2.0, 4.0]):
            r = norm(nt, "lp", p=p) / norm(f, "lp", p=p)
            lo = min(lo, r)
            hi = max(hi, r)
    rep.add("ratio_lower", lo, 1.0 - cfg.tol("lower", 1e-3), "ge",
            "maximal field L^p norm dominates the datum L^p norm")
    rep.add("ratio_upper", hi, None, "finite",
            "battery-uniform upper constant for the L^p ratio")
    return {"ratio_upper": hi}


def _h1_atoms(cfg, system, grid, rep) -> dict:
    """Uniform maximal-mass bound over seeded atoms, plus far-field decay."""
    h = grid.h
    rng = np.random.default_rng(cfg.seed)
    cone = _cone(grid, cfg.kappa)
    # the far-field fit skips heights up to two spacings: there the datum's
    # grid-scale ringing, damped only by exp(-pi t / h), decays like 1/r
    far_cone = ConeSpec(cfg.kappa, epsilon=2 * h, t_max=cone.t_max)
    low_cone = ConeSpec(cfg.kappa, t_max=2 * h)
    levels = log_levels(h / 2, cone.t_max)
    atoms = []
    for j in range(int(cfg.params.get("atoms", 20))):
        side = float(rng.uniform(0.5, 1.0))
        center = rng.uniform(-grid.R / 8, grid.R / 8, grid.d)
        profile = "haar" if j % 2 == 0 else "random"
        atom = make_atom(grid, center, side, 1.0, 2.0, profile,
                         seed=cfg.seed + 100 + j, M=system.M)
        atoms.append((side, center, atom.as_boundary_data()))
    masses = []
    slopes = []
    fields = poisson_extend_each(system, [f for _, _, f in atoms], levels)
    for (side, center, f), u in zip(atoms, fields):
        far = nontangential_max(u, far_cone).meta["values"]
        # the full cone's maximum is the larger of its two height ranges
        nt = np.maximum(far, nontangential_max(u, low_cone).meta["values"])
        masses.append(float(nt.sum() * grid.cell_volume))
        offs = np.sqrt(sum((mm - c) ** 2 for mm, c in
                           zip(grid.meshes(), center)))
        # out to half the cone's reach or half the support's distance
        # to the periodic seam, whichever is shorter
        hi = min(cone.kappa * cone.t_max, grid.R - f.support_radius()) / 2
        slopes.append(_fit_slope(offs.ravel(), far.ravel(), 8 * side, hi, grid))
    masses = np.array(masses)
    rep.add("maximal_mass_spread", float(masses.max() / masses.min()),
            cfg.tol("spread", 10.0), "le",
            "atom maximal masses uniform within one order of magnitude")
    rep.add("maximal_mass_max", float(masses.max()), None, "finite",
            "atom-uniform bound on the maximal mass")
    # an atom with a vanishing first moment decays faster than the
    # dimensional rate; the atom-uniform bound is met by the slowest
    rep.add("far_field_slope_deviation", abs(max(slopes) + system.n),
            cfg.tol("slope", 0.15), "le",
            "slowest atom maximal function decays at the dimensional rate "
            "off the cube")
    return {"maximal_mass_max": float(masses.max())}


def _linfty_maximum(cfg, system, grid, rep) -> dict:
    """Weak maximum principle for essentially bounded data."""
    battery = sign_changing(grid, system.M, cfg.seed) \
        + periodic_bandlimited(grid, system.M, cfg.seed + 5, count=2)
    levels = log_levels(1e-10, grid.R / 2)
    lo, hi = np.inf, 0.0
    for f, u in zip(battery, poisson_extend_each(system, battery, levels)):
        r = float(u.magnitude().max() / f.magnitude().max())
        lo, hi = min(lo, r), max(hi, r)
    rep.add("sup_ratio_lower", lo, 1.0 - cfg.tol("lower", 1e-6), "ge",
            "field sup dominates the datum sup")
    if cfg.system.get("kind") == "laplacian":
        rep.add("sup_ratio_upper", hi, 1.0 + cfg.tol("upper", 1e-6),
                "le", "positive unit-mass kernel contracts the sup norm")
    else:
        rep.add("sup_ratio_upper", hi, None, "finite",
                "weak maximum principle constant")
    return {"sup_ratio_upper": hi}


def _classical_continuity(cfg, system, grid, rep) -> dict:
    """Unrestricted boundary convergence for continuous compact data."""
    battery = smooth_compact(grid, system.M, cfg.seed, count=3)
    ts = [0.2, 0.1, 0.05]
    monotone = True
    final = 0.0
    fields = poisson_extend_each(system, battery, sorted(ts))
    for f, u in zip(battery, fields):
        sup_f = f.magnitude().max()
        errs = []
        for li, t in enumerate(u.heights):
            width = int(np.floor(np.sqrt(t) / grid.h))
            worst = 0.0
            for off in range(-width, width + 1):
                shifted = np.roll(u.values[li], off, axis=0)
                worst = max(worst, float(
                    np.linalg.norm(shifted - f.samples, axis=-1).max()))
            errs.append(worst / sup_f)
        errs = errs[::-1]        # heights ascending -> match ts order
        monotone &= errs[0] > errs[1] > errs[2]
        final = max(final, errs[2])
    rep.add("unrestricted_error_monotone", 1.0 if monotone else 0.0, 1.0,
            "ge", "unrestricted approach error decreases with height")
    rep.add("unrestricted_error_final", final, cfg.tol("final", 5e-2), "le",
            "unrestricted approach error at the finest checked height")
    return {}


def _scg_local_max(cfg, system, grid, rep) -> dict:
    """Weak local maximum principle for log-type unbounded data."""
    rhos = cfg.params.get("rhos", [2.0, 4.0, 8.0, 16.0])
    f = clipped_log(grid, system.M)
    levels = log_levels(grid.h / 4, max(rhos) * 1.5)
    u = poisson_extend(system, f, levels)
    rad = grid.radii()
    mag = f.magnitude()
    worst = 0.0
    for rho in rhos:
        lhs = rho * star_seminorm(u, rho)
        inner = float(mag[rad <= 2 * rho].max())
        outer_mask = rad > 2 * rho
        weight = rho / (rho ** system.n + rad ** system.n)
        outer = float((mag[outer_mask] * weight[outer_mask]).sum()
                      * grid.cell_volume)
        # analytic tail of the log datum beyond the grid
        amp = f.tail.amplitude
        tail = _radial_tail(
            lambda r: amp * np.log(np.maximum(r, 2.0)) * r ** (grid.d - 1)
            * rho / (rho ** system.n + r ** system.n), grid.R, 1.0)
        outer += (2.0 if grid.d == 1 else 2 * np.pi) * tail
        worst = max(worst, lhs / (inner + outer))
    rep.add("local_max_constant", worst, None, "finite",
            "ball sup of the field bounded by local sup plus weighted tail")
    return {"local_max_constant": worst}


def _slg_wellposed(cfg, system, grid, rep) -> dict:
    """Sublinear growth well-posedness, Fatou direction, seminorm identity."""
    theta = cfg.theta
    f = slg_profile(grid, theta, system.M, cfg.seed)
    # the growth norms meet as t -> 0, where the field weight is
    # 1 + t^theta: start two orders of magnitude below the tolerance
    t_min = (1e-2 * cfg.tol("lower", 1e-6)) ** (1.0 / theta)
    levels = np.union1d([t_min], log_levels(1e-10, grid.R / 2))
    u = poisson_extend(system, f, levels)
    f_norm = norm(f, "slg", theta=theta)
    rad2 = sum(m * m for m in grid.meshes())
    mag = u.magnitude()
    u_norm, rho_star = 0.0, grid.h
    for li, t in enumerate(u.heights):
        dist = np.sqrt(rad2 + t * t)
        w = mag[li] / (1.0 + dist ** theta)
        k = int(np.argmax(w))
        if w.flat[k] > u_norm:
            u_norm, rho_star = float(w.flat[k]), float(dist.flat[k])
    # exact discrete seminorm identity through the scaled star family:
    # its supremum is attained at the radius of the field's maximiser
    rhos = np.geomspace(grid.h, grid.R, 24).tolist() + [rho_star]
    ident = max(r / (1.0 + r ** theta) * star_seminorm(u, r) for r in rhos)
    tr = trace_estimate(u, ConeSpec(cfg.kappa, t_max=grid.R / cfg.kappa))
    tr_err = float(np.linalg.norm(tr.samples - f.samples, axis=-1).max()
                   / f.magnitude().max())
    rep.add("growth_ratio_lower", u_norm / f_norm,
            1.0 - cfg.tol("lower", 1e-6), "ge",
            "field growth norm dominates the datum growth norm")
    rep.add("growth_ratio_upper", u_norm / f_norm, None, "finite",
            "field growth norm within a constant of the datum growth norm")
    rep.add("seminorm_identity_gap", abs(ident - u_norm) / u_norm,
            cfg.tol("ident", 1e-9), "le",
            "growth norm equals the scaled supremum of star seminorms")
    rep.add("trace_recovery_error", tr_err, cfg.tol("trace", 1e-6),
            "le", "nontangential trace returns the datum")
    return {"growth_ratio_upper": u_norm / f_norm}


def _holder_wellposed(cfg, system, grid, rep) -> dict:
    """Hoelder seminorm against the weighted gradient and cone seminorms."""
    theta = cfg.theta
    battery = weierstrass(grid, theta, system.M, cfg.seed)
    levels = log_levels(grid.h / 2, grid.R)
    ratios_grad = []
    ratios_cone = []
    for f, u in zip(battery, poisson_extend_each(system, battery, levels,
                                                 gradient=True)):
        f_h = holder_seminorm(f, theta, seed=cfg.seed)
        gmag = np.sqrt(np.sum(np.abs(u.gradient) ** 2, axis=(-2, -1)))
        grad_q = float(max((u.heights[li] ** (1.0 - theta) * gmag[li]).max()
                           for li in range(len(u.heights))))
        cone_q = _cone_holder(u, cfg.kappa, theta, cfg.seed)
        ratios_grad.append(grad_q / f_h)
        ratios_cone.append(cone_q / f_h)
    rep.add("gradient_ratio_spread", max(ratios_grad) / min(ratios_grad),
            cfg.tol("spread", 10.0), "le",
            "weighted gradient sup within battery-uniform constants of the "
            "datum seminorm")
    rep.add("cone_ratio_spread", max(ratios_cone) / min(ratios_cone),
            cfg.tol("spread", 10.0), "le",
            "cone-wise Hoelder sup within battery-uniform constants of the "
            "datum seminorm")
    rep.add("gradient_ratio_upper", max(ratios_grad), None, "finite",
            "weighted gradient bound constant")
    rep.add("cone_ratio_upper", max(ratios_cone), None, "finite",
            "cone seminorm bound constant")
    return {"gradient_ratio_upper": max(ratios_grad)}


def _cone_holder(u: HalfSpaceField, kappa: float, theta: float,
                 seed: int) -> float:
    """Largest Hoelder quotient of u over 4000 sampled pairs inside each of
    16 sampled cones.

    The generator draws in a fixed order: the 16 vertices, then per vertex
    a subsample of 64 points of each level with more than 64 in the cone,
    and then the two arrays of pair indices (none for a cone with fewer
    than 2 points).  The quotients of all cones are taken in one pass after
    the draws.
    """
    rng = np.random.default_rng(seed)
    grid = u.grid
    L, B = len(u.heights), grid.node_count
    axes = [m.ravel() for m in grid.meshes()]
    vidx = rng.integers(0, B, 16)
    # lengths sum the squares over the axes in np.linalg.norm's order,
    # without its slow reduction over a short last axis
    dists = np.sqrt(sum((x - x[vidx, None]) ** 2 for x in axes))  # (16, B)
    radii = kappa * u.heights[:, None]
    ends = np.arange(B, L * B, B)
    picked, pairs, start = [], [], 0
    for dist in dists:
        # the cone's flat (level, node) indices, at most 64 per level
        flat = np.flatnonzero(dist < radii)
        takes = np.split(flat, np.searchsorted(flat, ends))
        flat = np.concatenate([rng.choice(take, 64, replace=False)
                               if len(take) > 64 else take for take in takes])
        if len(flat) < 2:
            continue
        i = rng.integers(0, len(flat), 4000)
        j = rng.integers(0, len(flat), 4000)
        keep = i != j
        picked.append(flat)
        pairs.append((i[keep] + start, j[keep] + start))
        start += len(flat)
    if not pairs:
        return 0.0
    flat = np.concatenate(picked)
    coords = [x[flat % B] for x in axes] + [u.heights[flat // B]]
    vals = u.values.reshape(L * B, u.M)[flat]
    i, j = (np.concatenate(k) for k in zip(*pairs))
    dv = np.linalg.norm(vals[i] - vals[j], axis=-1)
    dx = np.sqrt(sum((x[i] - x[j]) ** 2 for x in coords))
    return float((dv / dx ** theta).max(initial=0.0))


def _bmo_carleson(cfg, system, grid, rep) -> dict:
    """Two-sided size comparison between the BMO norm and the Carleson
    quotient, plus the vanishing profile for a uniformly continuous datum."""
    cubes = DyadicCubeFamily(grid, _depth_for(grid))
    battery = [clipped_log(grid, system.M, lam) for lam in (1.0, 0.25, 4.0)]
    battery += periodic_bandlimited(grid, system.M, cfg.seed + 3, count=2)
    # and a smooth compactly supported (VMO) datum for the vanishing profile
    fv = smooth_compact(grid, system.M, cfg.seed, count=1)[0]
    levels = log_levels(grid.h / 4, 2 * grid.R)
    ratios = []
    fields = poisson_extend_each(system, battery + [fv], levels, gradient=True)
    for f, u in zip(battery, fields):     # stops before the VMO field
        _, lp_size, _ = carleson_norms(u, cubes)
        ratios.append(lp_size / bmo_norm(f, cubes))
    _, _, profile = carleson_norms(next(fields), cubes)
    sides = [s for s, _ in profile]
    vals = dict(profile)
    rep.add("ratio_spread", max(ratios) / min(ratios),
            cfg.tol("spread", 10.0), "le",
            "Carleson size within one order of magnitude of the BMO "
            "norm across the battery, dilates included")
    rep.add("ratio_upper", max(ratios), None, "finite",
            "Carleson size bounded by a multiple of the BMO norm")
    rep.add("vanishing_profile_ratio", vals[min(sides)] / vals[max(sides)],
            cfg.tol("vanish", 0.1), "lt", "small-cube Carleson mass "
            "collapses for a uniformly continuous datum")
    rep.plot_data["vanishing_profile"] = np.array(profile)
    return {"ratio_upper": max(ratios)}


def _kernel_column_field(system: EllipticSystem, grid: Grid, levels,
                         vector: np.ndarray, shift=None) -> HalfSpaceField:
    """Field K(., t) a (optionally minus its shift by z'), synthesised
    spectrally, all levels by one inverse FFT; the block carries the shift
    signs, which the action passes through node by node, exactly."""
    nodes = grid.freq_nodes_fftorder()
    block = np.asarray(vector)[:, None] * grid.shift_signs()
    spec = prepared_symbol(system, nodes).action(levels)(block)[0]
    if shift is not None:
        spec *= 1.0 - np.exp(-1j * nodes @ np.asarray(shift, float))
    vals = _level_fields(spec, grid)
    return HalfSpaceField(grid=grid, heights=np.asarray(levels, float),
                          values=vals, provenance={"system": system.label,
                                                   "datum": "kernel_column"})


def _counterexample_kernel_column(cfg, system, grid, rep) -> dict:
    """The kernel column: null trace, divergent sup-inside integral,
    bounded sup-outside integral; measured on the grid and on its two
    successive refinements."""
    a = np.eye(system.M, dtype=complex)[0]
    eps0 = 1.0

    def truncated_integral(grid):
        h = grid.h
        levels = log_levels(h / 4, eps0, per_decade=10)
        u = _kernel_column_field(system, grid, levels, a)
        rad = grid.radii()
        w = 1.0 / (1.0 + rad ** system.n)
        mag = u.magnitude()
        sup_t = mag.max(axis=0)
        inside = float((sup_t * w)[rad > 0].sum() * grid.cell_volume)
        outside = float(max((mag[li] * w).sum() * grid.cell_volume
                            for li in range(len(levels))))
        # trace from grid-resolved heights: below ~4h the column is a spike
        # the grid cannot represent, so extrapolate from ratio-2 levels
        tau = min(8 * h, 0.2)
        u_tr = _kernel_column_field(system, grid, [tau, 2 * tau, 4 * tau], a)
        tr = trace_estimate(u_tr, ConeSpec(cfg.kappa, t_max=1.0))
        off = rad > 3.0
        tr_off = float(tr.magnitude()[off].max())
        nt = nontangential_max(u, ConeSpec(cfg.kappa, t_max=eps0)).meta["values"]
        slope = _fit_slope(rad.ravel(), nt.ravel(), 4 * h, 2.0, grid)
        return inside, outside, tr_off, slope

    h = grid.h
    vals = [truncated_integral(cfg.grid(k * grid.N, h / k)) for k in (1, 2, 4)]
    inner = [v[0] for v in vals]
    incs = np.diff(inner)
    rep.add("finiteness_integral_increment_min", float(incs.min()),
            cfg.tol("divergence", 0.02), "gt",
            "sup-inside weighted integral keeps growing under refinement "
            "(log divergence)")
    rep.add("finiteness_integral_increment_ratio",
            float(incs[1] / incs[0]), None, "finite",
            "near-constant increments per halving, the log-divergence rate")
    outs = np.array([v[1] for v in vals])
    rep.add("sup_outside_integral_max", float(outs.max()), None, "finite",
            "weighted integral with the supremum outside stays bounded")
    rep.add_refinement("sup_outside_integral", outs[1], outs[2])
    rep.add("trace_off_origin", vals[2][2], cfg.tol("trace", 1e-3), "le",
            "nontangential trace vanishes away from the pole")
    rep.add("near_pole_slope_deviation", abs(vals[2][3] + (system.n - 1)),
            cfg.tol("slope", 0.1), "le",
            "maximal function grows at the codimension rate near the pole")
    rep.plot_data["finiteness_integral"] = np.stack(
        [np.log(1.0 / np.array([h, h / 2, h / 4])), np.array(inner)], axis=1)
    return {}


def _counterexample_linear(cfg, system, grid, rep) -> dict:
    """The linear field t a: null trace, constant star seminorms, failed
    Poisson representation."""
    a = np.eye(system.M, dtype=complex)[0]
    rhos = cfg.params.get("rhos", [1.0, 4.0, 16.0])
    eps = 1e-3
    heights = np.unique(np.concatenate(
        [log_levels(1e-4, grid.R / 4),
         [rho * (1.0 - 1e-9) for rho in rhos]]))
    vals = np.tile(a, (len(heights),) + grid.shape + (1,)) \
        * heights.reshape((-1,) + (1,) * (grid.d + 1))
    u = HalfSpaceField(grid=grid, heights=heights, values=vals)
    tr = trace_estimate(u, ConeSpec(cfg.kappa, t_max=grid.R / cfg.kappa))
    rep.add("trace_sup", float(tr.magnitude().max()), 1e-10, "le",
            "linear field has identically vanishing trace")
    worst = max(abs(star_seminorm(u, rho, epsilon=eps) - 1.0) for rho in rhos)
    rep.add("star_seminorm_deviation", worst, 1e-6, "le",
            "truncated star seminorms all equal the slope magnitude")
    re_u = poisson_extend(system, tr, [float(heights[-1])])
    res = float(np.linalg.norm(re_u.values[0] - u.values[-1], axis=-1).max()
                / heights[-1])
    rep.add("representation_failure", res, 0.99, "ge",
            "extension of the trace does not reproduce the field")
    return {}


def _counterexample_dipole(cfg, system, grid, rep) -> dict:
    """Kernel-difference dipole: null trace off the poles, pole and far
    exponents, p-mass stability below the critical index; measured on the
    grid and, whatever the configuration, on its refinement."""
    a = np.eye(system.M, dtype=complex)[0]
    z = float(cfg.params.get("z", 6.0))
    shift = np.zeros(system.n - 1)
    shift[0] = z
    p_sub = float(cfg.params.get("p", 0.95))

    def core(grid):
        h = grid.h
        cone = _cone(grid, cfg.kappa)
        levels = log_levels(h / 4, cone.t_max, per_decade=10)
        u = _kernel_column_field(system, grid, levels, a, shift=shift)
        nt = nontangential_max(u, cone).meta["values"]
        rad = grid.radii()
        near = _fit_slope(rad.ravel(), nt.ravel(), 4 * h, 0.1 * z, grid)
        centre = np.sqrt(sum((mm - (shift[i] / 2 if i == 0 else 0.0)) ** 2
                             for i, mm in enumerate(grid.meshes())))
        far = _fit_slope(centre.ravel(), nt.ravel(), 3 * z, grid.R / 2, grid)
        mass_sub = float((nt ** p_sub).sum() * grid.cell_volume)
        mass_one = float(nt.sum() * grid.cell_volume)
        tau = min(8 * h, 0.2)
        u_tr = _kernel_column_field(system, grid, [tau, 2 * tau, 4 * tau],
                                    a, shift=shift)
        tr = trace_estimate(u_tr, cone)
        off = (rad > 3.0) & (np.sqrt(sum(
            (mm - shift[i]) ** 2 for i, mm in enumerate(grid.meshes()))) > 3.0)
        tr_off = float(tr.magnitude()[off].max())
        order = np.argsort(rad.ravel())
        profile = np.stack([rad.ravel()[order], nt.ravel()[order]], axis=1)
        return {"near": near, "far": far, "sub": mass_sub, "one": mass_one,
                "tr": tr_off, "profile": profile[profile[:, 0] > 0][::16]}

    base = core(grid)
    fine = core(cfg.grid(2 * grid.N, grid.h / 2))
    rep.add("near_pole_slope_deviation", abs(base["near"] + (system.n - 1)),
            cfg.tol("slope", 0.1), "le",
            "maximal function blows up at the codimension rate at the poles")
    rep.add("far_field_slope_deviation", abs(base["far"] + system.n),
            cfg.tol("slope", 0.1), "le",
            "maximal function decays at the dipole rate at infinity")
    rep.add("trace_off_poles", base["tr"], cfg.tol("trace", 1e-3), "le",
            "nontangential trace vanishes off the poles")
    rep.add_refinement("subcritical_mass", base["sub"], fine["sub"])
    growth = (fine["one"] - base["one"]) / base["one"]
    rep.add("critical_mass_growth", growth, cfg.tol("growth", 0.02), "gt",
            "the p = 1 maximal mass keeps growing under refinement")
    rep.plot_data["maximal_profile"] = base["profile"]
    return {}


class _Experiment(NamedTuple):
    """An experiment function (cfg, system, grid, rep) -> refined constants
    and its default grid."""

    run: Callable
    N: int = 1024
    h: float = 0.125


_EXPERIMENTS = {
    "fatou_trace_recovery": _Experiment(_fatou_trace_recovery),
    "weighted_l1_wellposed": _Experiment(_weighted_l1_wellposed),
    "lp_wellposed": _Experiment(_lp_wellposed),
    "h1_atoms": _Experiment(_h1_atoms),
    "linfty_maximum": _Experiment(_linfty_maximum),
    "classical_continuity": _Experiment(_classical_continuity, 2048, 0.0625),
    "scg_local_max": _Experiment(_scg_local_max),
    "slg_wellposed": _Experiment(_slg_wellposed),
    "holder_wellposed": _Experiment(_holder_wellposed, 512, 0.25),
    "bmo_carleson": _Experiment(_bmo_carleson),
    "counterexample_kernel_column": _Experiment(
        _counterexample_kernel_column, 1024, 0.0625),
    "counterexample_linear": _Experiment(_counterexample_linear),
    "counterexample_dipole": _Experiment(
        _counterexample_dipole, 4096, 0.03125),
}


def _experiment(name: str) -> _Experiment:
    if name not in _EXPERIMENTS:
        raise UnknownExperiment("no experiment named %r" % (name,))
    return _EXPERIMENTS[name]


def experiment_names() -> list:
    return sorted(_EXPERIMENTS)


def default_config(name: str, **overrides) -> ExperimentConfig:
    exp = _experiment(name)
    return ExperimentConfig(name=name, **{"N": exp.N, "h": exp.h, **overrides})


def run_experiment(config: ExperimentConfig) -> VerificationReport:
    """Run a named experiment on the configured grid and, with ``refine``,
    re-fit its constants on the refined grid (N doubled, spacing halved,
    same window).  Reports are deterministic per config."""
    exp = _experiment(config.name)
    system = config.build()
    rep = VerificationReport(config.name, fingerprint=config.snapshot())
    coarse = exp.run(config, system, config.grid(), rep)
    if config.refine and coarse:
        # only the refined constants are kept, not the refined metrics
        fine = exp.run(config, system, config.grid(2 * config.N, config.h / 2),
                       VerificationReport(config.name))
        for name, value in coarse.items():
            rep.add_refinement(name, value, fine[name])
    return rep
