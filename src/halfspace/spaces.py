"""Norms, seminorms, and atomic/molecular machinery on grid data.

Sup-type norms (BMO, VMO modulus, Morrey, the maximal Carleson quotient)
range over the dyadic cube family; every comparison made with them is a
two-sided boundedness statement, so the bounded distortion against the
all-cubes supremum is immaterial.  Vanishing-type quantities (VMO, vanishing Carleson) are
reported as profiles over the resolved scales, never extrapolated to 0+.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadDescriptor, BadShape, CubeTooSmall, EmptyWindow,
                     InsufficientLevels)
from .grids import Grid
from .kernels import synthesize_kernel_levels
from .operators import DyadicCubeFamily
from .report import VerificationReport, make_metric
from .solver import BoundaryData, HalfSpaceField, weighted_integrability
from .systems import EllipticSystem

__all__ = [
    "Atom",
    "FiniteAtomicSum",
    "norm",
    "star_seminorm",
    "make_atom",
    "validate_atom",
    "molecule_check",
    "carleson_norms",
]

HOLDER_PAIR_BUDGET = 1_000_000
_SHELLS = 6             # dyadic shells of a molecule check
_SLOPE_FIT_START = 3    # first shell of the molecule decay fit


# ---------------------------------------------------------------------------
# norms


def _lp(mag: np.ndarray, p: float, cell: float) -> float:
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * cell) ** (1.0 / p))


def _bmo_level_oscillations(f: BoundaryData, cubes: DyadicCubeFamily):
    """Mean oscillation of every cube, yielded per level."""
    for level in cubes.levels:
        avg = cubes.cube_averages(f.samples, level)
        centred = f.samples - cubes.broadcast_to_nodes(avg, level)
        osc = cubes.cube_averages(np.linalg.norm(centred, axis=-1), level)
        yield level, osc


def bmo_norm(f: BoundaryData, cubes: DyadicCubeFamily) -> float:
    return max(float(osc.max()) for _, osc in _bmo_level_oscillations(f, cubes))


def vmo_modulus(f: BoundaryData, cubes: DyadicCubeFamily, r: float) -> float:
    """Sup of mean oscillation over family cubes of side at most r."""
    vals = [float(osc.max()) for level, osc in _bmo_level_oscillations(f, cubes)
            if cubes.side(level) <= r]
    if not vals:
        raise CubeTooSmall("no family cube has side <= %g" % r)
    return max(vals)


def holder_seminorm(f: BoundaryData, theta: float, *, seed: int = 0) -> float:
    """Sup of |f(x)-f(y)| / |x-y|^theta over node pairs.

    Exhaustive when the pair count m(m-1)/2 fits HOLDER_PAIR_BUDGET (1-D
    grids up to 1414 nodes, 2-D grids up to 37^2, so 36^2 for an even N);
    otherwise all adjacent pairs plus a seeded sample of that many
    long-range pairs.  The exhaustive sup visits the pairs by grid
    displacement k, shortest first, and stops once 2 max|f| / (|k| h)^theta,
    a bound on every pair left, cannot beat the best.  The stop is exact:
    each pair is still the later node minus the earlier in flat order, so
    its quotient is the float of a scan over all pairs, and the bound's
    slack covers the rounding of the coordinates j h (up to R eps each, so
    |x-y| may fall short of |k| h by N h eps) and of the quotients.
    Lengths sum the squared coordinate differences column by column, the
    order of ``np.linalg.norm`` without its slow reduction over a short axis.
    """
    grid, m = f.grid, f.grid.node_count
    if m * (m - 1) // 2 <= HOLDER_PAIR_BUDGET:
        N, eps = grid.N, np.finfo(float).eps
        meshes = grid.meshes()
        ks = np.stack(np.meshgrid(*[np.arange(1 - N, N)] * grid.d,
                                  indexing="ij"), axis=-1).reshape(-1, grid.d)
        ks = ks[ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)] > 0]
        lengths = np.sqrt((ks ** 2).sum(axis=1))
        order = np.argsort(lengths, kind="stable")
        top = 2.0 * float(np.linalg.norm(f.samples, axis=-1).max()) \
            * (1.0 + 32 * eps)
        short = grid.h * (1.0 - (2 * N + 16) * eps)
        best = 0.0
        for k, length in zip(ks[order].tolist(), lengths[order].tolist()):
            if top / (short * length) ** theta <= best:
                break
            later = tuple(slice(max(c, 0), N + min(c, 0)) for c in k)
            earlier = tuple(slice(max(-c, 0), N - max(c, 0)) for c in k)
            dv = np.linalg.norm(f.samples[later] - f.samples[earlier], axis=-1)
            dx = np.sqrt(sum((x[later] - x[earlier]) ** 2 for x in meshes))
            best = max(best, float((dv / dx ** theta).max()))
        return best
    coords = [mesh.ravel() for mesh in grid.meshes()]
    vals = f.samples.reshape(-1, f.M)
    # adjacent pairs along each axis
    best = 0.0
    for axis in range(grid.d):
        dv = np.linalg.norm(np.diff(f.samples, axis=axis), axis=-1)
        best = max(best, float(dv.max()) / grid.h ** theta)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, m, HOLDER_PAIR_BUDGET)
    j = rng.integers(0, m, HOLDER_PAIR_BUDGET)
    keep = i != j
    i, j = i[keep], j[keep]
    dv = np.linalg.norm(vals[i] - vals[j], axis=-1)
    dx = np.sqrt(sum((x[i] - x[j]) ** 2 for x in coords))
    return max(best, float((dv / dx ** theta).max()))


def morrey_norm(f: BoundaryData, cubes: DyadicCubeFamily, p: float,
                lam: float) -> float:
    """Cube realisation of the Morrey norm: sup over family cubes of
    (side^-lam int_Q |f|^p)^(1/p)."""
    mag = f.magnitude()
    best = 0.0
    for level in cubes.levels:
        mass = cubes.cube_averages(mag ** p, level) \
            * cubes.side(level) ** f.grid.d
        best = max(best, float((cubes.side(level) ** (-lam) * mass).max()))
    return best ** (1.0 / p)


def norm(f: BoundaryData, space: str, **params) -> float:
    """Grid realisation of a function-space norm.

    space is one of lp, lp_weighted, l1_weight, bmo, vmo_modulus, holder,
    slg, morrey; parameters follow the space (p, weights, m, cubes, r,
    theta, lam, seed).
    """
    if space == "lp":
        return _lp(f.magnitude(), float(params["p"]), f.grid.cell_volume)
    if space == "lp_weighted":
        p = float(params["p"])
        w = np.asarray(params["weights"], dtype=float)
        if w.shape != f.grid.shape:
            raise BadShape("weight samples must match the grid")
        if np.isinf(p):
            return float(f.magnitude()[w > 0].max())
        return float((np.sum(f.magnitude() ** p * w)
                      * f.grid.cell_volume) ** (1.0 / p))
    if space == "l1_weight":
        return weighted_integrability(f, float(params["m"]))
    if space == "bmo":
        return bmo_norm(f, params["cubes"])
    if space == "vmo_modulus":
        return vmo_modulus(f, params["cubes"], float(params["r"]))
    if space == "holder":
        return holder_seminorm(f, float(params["theta"]),
                               seed=int(params.get("seed", 0)))
    if space == "slg":
        theta = float(params["theta"])
        return float((f.magnitude() / (1.0 + f.grid.radii() ** theta)).max())
    if space == "morrey":
        return morrey_norm(f, params["cubes"], float(params["p"]),
                           float(params["lam"]))
    raise BadDescriptor("unknown space descriptor %r" % (space,))


def star_seminorm(u: HalfSpaceField, rho: float,
                  epsilon: float | None = None) -> float:
    """Scaled sup seminorms: rho^{-1} sup |u| over the ball of radius rho
    (epsilon None) or over the window epsilon < t < rho, |x'| < rho; one
    masked max over all (level, node) pairs."""
    if not rho > 0:
        raise EmptyWindow("need rho > 0, got rho = %r" % (rho,))
    if epsilon is not None and not 0 <= epsilon < rho:
        raise EmptyWindow("need 0 <= epsilon < rho")
    rad2 = sum(m * m for m in u.grid.meshes()).ravel()
    t = u.heights[:, None]
    if epsilon is None:
        mask = rad2 + t * t <= rho * rho
    else:
        mask = (epsilon < t) & (t < rho) & (rad2 < rho * rho)
    # magnitudes are >= 0, so -1 marks the points outside the window
    best = float(np.where(mask, u.magnitude().reshape(mask.shape), -1.0)
                 .max(initial=-1.0))
    if best < 0:
        raise EmptyWindow("no sampled point in the requested window")
    return best / rho


# ---------------------------------------------------------------------------
# atoms


@dataclass
class Atom:
    """C^M-valued (p, q)-atom supported in a grid-aligned cube."""

    grid: Grid
    center: np.ndarray
    side: float
    p: float
    q: float
    samples: np.ndarray           # (*spatial, M)

    @property
    def measure(self) -> float:
        return self.side ** self.grid.d

    def support_mask(self) -> np.ndarray:
        mask = np.ones(self.grid.shape, dtype=bool)
        for axis, m in enumerate(self.grid.meshes()):
            mask &= np.abs(m - self.center[axis]) < 0.5 * self.side
        return mask

    def as_boundary_data(self) -> BoundaryData:
        return BoundaryData(grid=self.grid, samples=self.samples,
                            space_tag="atomic",
                            meta={"p": self.p, "q": self.q})


def _atom_norm(atom: Atom) -> float:
    mag = np.linalg.norm(atom.samples, axis=-1)
    return _lp(mag, atom.q, atom.grid.cell_volume)


def validate_atom(atom: Atom) -> dict:
    """Check support, L^q normalisation (to a relative slack of 1e-9) and
    cancellation (to 1e-10 of the cube measure); returns the measured
    quantities."""
    mask = atom.support_mask()
    outside = np.linalg.norm(atom.samples, axis=-1)[~mask]
    support_leak = float(outside.max()) if outside.size else 0.0
    lq = _atom_norm(atom)
    bound = atom.measure ** (1.0 / atom.q - 1.0 / atom.p)
    total = np.abs(atom.samples.reshape(-1, atom.samples.shape[-1]).sum(axis=0)
                   * atom.grid.cell_volume).max()
    ok = (support_leak == 0.0 and lq <= bound * (1.0 + 1e-9)
          and total <= atom.measure * 1e-10)
    return {"support_leak": support_leak, "lq_norm": lq, "lq_bound": bound,
            "mean_residual": float(total), "valid": bool(ok)}


def make_atom(grid: Grid, center, side: float, p: float, q: float,
              profile: str = "haar", seed: int = 0, M: int = 1) -> Atom:
    """Construct a validated (p, q)-atom on the cube of the given center
    and side, along the first component of C^M.

    Profiles: ``haar`` (opposite signs on the two halves of the first axis)
    or ``random`` (seeded noise).  The profile is made exactly mean-zero by
    subtracting its cube average, then scaled to saturate the L^q bound.
    """
    if not ((grid.n - 1) / grid.n < p <= 1.0):
        raise BadShape("p must lie in ((n-1)/n, 1]")
    if not q > 1.0:
        raise BadShape("q must exceed 1")
    center = np.asarray(center, dtype=float)
    atom = Atom(grid=grid, center=center, side=float(side), p=p, q=q,
                samples=np.zeros(grid.shape + (M,), dtype=complex))
    mask = atom.support_mask()
    count = int(mask.sum())
    if count < 2 ** grid.d:
        raise CubeTooSmall("cube of side %g holds %d samples" % (side, count))
    if profile == "haar":
        first = grid.meshes()[0]
        prof = np.where(first < center[0], 1.0, -1.0)[mask]
    elif profile == "random":
        rng = np.random.default_rng(seed)
        prof = rng.standard_normal(count)
    else:
        raise BadDescriptor("unknown atom profile %r" % (profile,))
    prof = prof - prof.mean()
    if np.abs(prof).max() == 0.0:
        raise BadShape("degenerate atom profile")
    vals = np.zeros(grid.shape + (M,), dtype=complex)
    vals[mask] = prof[:, None] * np.eye(M, dtype=complex)[0][None, :]
    atom.samples = vals
    lq = _atom_norm(atom)
    target = atom.measure ** (1.0 / q - 1.0 / p)
    atom.samples = vals * (target / lq)
    check = validate_atom(atom)
    if not check["valid"]:
        raise BadShape("atom failed validation: %r" % (check,))
    return atom


@dataclass
class FiniteAtomicSum:
    """f = sum lambda_j a_j with the decomposition quasi-norm bound."""

    p: float
    q: float
    terms: list                      # [(coefficient, Atom)]

    def __post_init__(self):
        if not self.terms:
            raise BadShape("atomic sum needs at least one term")
        for _, atom in self.terms:
            if atom.p != self.p or atom.q != self.q:
                raise BadShape("atom exponents differ from the sum's")
            if not validate_atom(atom)["valid"]:
                raise BadShape("invalid atom in decomposition")

    @property
    def quasi_norm_bound(self) -> float:
        return float(sum(abs(lam) ** self.p for lam, _ in self.terms)
                     ** (1.0 / self.p))

    def as_boundary_data(self) -> BoundaryData:
        grid = self.terms[0][1].grid
        M = self.terms[0][1].samples.shape[-1]
        total = np.zeros(grid.shape + (M,), dtype=complex)
        for lam, atom in self.terms:
            total += lam * atom.samples
        return BoundaryData(grid=grid, samples=total, space_tag="atomic",
                            meta={"p": self.p, "q": self.q,
                                  "quasi_norm_bound": self.quasi_norm_bound})


# ---------------------------------------------------------------------------
# molecules


def molecule_check(system: EllipticSystem, alpha, center, p: float, q: float,
                   *, two_sided_slope: bool = False) -> VerificationReport:
    """Quantify the molecule normalisation of a kernel derivative.

    The molecule built from d^alpha K at height t is tabulated relative to
    its ball (shell norms depend only on the offset, so the tangential
    center only enters the provenance).  Reports the cancellation residual,
    the central-ball constant, per-shell constants, and the fitted shell
    decay exponent against the prediction (n-1)(1/q - 1 - |alpha|/(n-1)).

    The per-shell constants are checked over every shell; the exponent fit
    uses shells >= _SLOPE_FIT_START because the dyadic decay is asymptotic
    (the kernel derivative changes sign inside the first shells, so a fit
    across them measures the transient, not the decay rate).
    """
    alpha = tuple(int(v) for v in alpha)
    if sum(alpha) < 1:
        raise BadShape("molecule needs |alpha| >= 1")
    t = float(center[-1])
    # window twice the outermost shell, so periodisation images stay a few
    # percent below the smallest shell norm; spacing t/8, at most 2^14 nodes
    need = 2.0 ** (_SHELLS + 2) * t
    N = min(1 << int(np.ceil(np.log2(2.0 * need / (t / 8.0)))), 1 << 14)
    grid = Grid(n=system.n, N=N, h=2.0 * need / N)
    stack = synthesize_kernel_levels(system, grid, [t], alpha=alpha)[0]
    # the molecule: t^{|alpha| - (n-1)(1/p - 1)} d^alpha K(., t)
    vals = t ** (sum(alpha) - (system.n - 1) * (1.0 / p - 1.0)) * stack
    d = grid.d
    nminus = system.n - 1

    rep = VerificationReport(
        experiment="molecule:%s" % (alpha,),
        fingerprint={"system": system.label, "alpha": list(alpha),
                     "t": t, "p": p, "q": q, "N": grid.N, "h": grid.h,
                     "center": list(np.asarray(center, float))})

    mag = np.linalg.norm(vals, axis=(-2, -1))
    total = np.abs(vals.reshape(-1, system.M, system.M).sum(axis=0)
                   * grid.cell_volume).max()
    scale = float(mag.sum() * grid.cell_volume)
    rep.metrics.append(make_metric(
        "cancellation_residual", total / max(scale, 1e-300), 1e-6, "le",
        "molecule integrates to zero"))

    rad = grid.radii()
    ball_measure = 2.0 * t if d == 1 else np.pi * t * t
    norm_target = ball_measure ** (1.0 / q - 1.0 / p)

    def band_norm(lo, hi):
        mask = (rad >= lo) & (rad < hi)
        if not mask.any():
            raise InsufficientLevels("grid does not resolve shell [%g, %g)"
                                     % (lo, hi))
        return _lp(mag[mask], q, grid.cell_volume)

    central = band_norm(0.0, t)
    rep.metrics.append(make_metric(
        "central_ball_constant", central / norm_target, None, "finite",
        "L^q size over the central ball against the measure power"))

    eps = sum(alpha) / nminus
    predicted = nminus * (1.0 / q - 1.0 - eps)
    ks = np.arange(1, _SHELLS + 1)
    shell_norms = np.array([band_norm(2.0 ** (k - 1) * t, 2.0 ** k * t)
                            for k in ks])
    consts = shell_norms / (2.0 ** (ks * predicted) * norm_target)
    rep.metrics.append(make_metric(
        "shell_constant_max", consts.max(), None, "finite",
        "shell L^q norms bounded with the predicted dyadic decay"))
    fit = ks >= _SLOPE_FIT_START
    slope = float(np.polyfit(ks[fit], np.log2(shell_norms[fit]), 1)[0])
    if two_sided_slope:
        rep.metrics.append(make_metric(
            "shell_decay_slope_deviation", abs(slope - predicted), 0.15, "le",
            "fitted dyadic shell decay exponent matches (n-1)(1/q-1-eps)"))
    else:
        # the shell estimate is one-sided: decay may only beat the bound
        rep.metrics.append(make_metric(
            "shell_decay_slope_excess", slope - predicted, 0.15, "le",
            "dyadic shell decay at least as fast as (n-1)(1/q-1-eps)"))
    rep.plot_data["shell_norms"] = np.stack([ks, shell_norms], axis=1)
    rep.fingerprint["predicted_slope"] = predicted
    rep.fingerprint["fitted_slope"] = slope
    return rep


# ---------------------------------------------------------------------------
# Carleson / Littlewood-Paley


def carleson_norms(u: HalfSpaceField, cubes: DyadicCubeFamily):
    """Carleson quotient machinery for the Littlewood-Paley measure.

    Returns (carleson, littlewood_paley, vanishing_profile): the maximal
    Carleson quotient of |grad u|^2 t dx dt over the family, its square
    root (the two-sided size used against BMO), and the profile of the
    quotient restricted to cubes of side at most r for each resolved r.
    Requires a field extended with its gradient on log-spaced levels.
    """
    if u.gradient is None:
        raise InsufficientLevels("field was extended without its gradient")
    heights = u.heights
    leaf = cubes.side(cubes.depth)
    if heights[0] > leaf / 2.0:
        raise InsufficientLevels(
            "smallest level %.3g does not resolve leaf side %.3g"
            % (heights[0], leaf))
    energy = np.sum(np.abs(u.gradient) ** 2, axis=(-2, -1))   # (L, *spatial)

    quotients = {}
    for level in cubes.levels:
        side = cubes.side(level)
        use = np.flatnonzero(heights <= side)
        if len(use) < 2:
            raise InsufficientLevels(
                "fewer than two levels below cube side %.3g" % side)
        ts = heights[use]
        # trapezoid in t of the cube-summed integrand t |grad u|^2
        layer = np.stack([cubes.cube_averages(energy[li], level) * ts[i]
                          for i, li in enumerate(use)])
        integral = np.trapezoid(layer, ts, axis=0)
        # cube average over x' of the t-integral (the 1/|Q| mass ratio)
        quotients[side] = integral
    carleson = max(float(q.max()) for q in quotients.values())
    profile = []
    running = 0.0
    for side in sorted(quotients):
        running = max(running, float(quotients[side].max()))
        profile.append((side, running))
    return carleson, float(np.sqrt(carleson)), profile
