"""Discrete cone geometry, nontangential and Hardy-Littlewood maximal operators.

Cones follow the strict-inequality membership |x' - y'| < kappa t, so the
operators are monotone in the aperture by construction.  The cube maximal
operator runs over a dyadic family only; every downstream comparison is a
two-sided boundedness statement, insensitive to the bounded distortion this
introduces relative to the all-cubes supremum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, CubeTooSmall
from .grids import Grid
from .report import VerificationReport, make_metric, make_refinement
from .solver import BoundaryData, HalfSpaceField

__all__ = [
    "ConeSpec",
    "DyadicCubeFamily",
    "nontangential_max",
    "hardy_littlewood",
    "pointwise_max_principle_check",
]


@dataclass(frozen=True)
class ConeSpec:
    """Nontangential approach region: aperture, truncation, and top height."""

    kappa: float
    epsilon: float = 0.0
    t_max: float | None = None       # None resolves to R / kappa at use site

    def __post_init__(self):
        if not self.kappa > 0:
            raise BadShape("cone aperture must be positive")
        if self.epsilon < 0:
            raise BadShape("cone truncation must be nonnegative")
        if self.t_max is not None and not self.epsilon < self.t_max:
            raise BadShape("need epsilon < t_max")

    def resolve_top(self, grid: Grid) -> float:
        return self.t_max if self.t_max is not None else grid.R / self.kappa


@dataclass
class DyadicCubeFamily:
    """Dyadic cubes over the root box [-R, R)^{n-1} down to depth J.

    Level j holds 2^j cubes per axis of side 2R 2^{-j}; children partition
    parents exactly and every leaf keeps at least two samples per axis.
    """

    grid: Grid
    depth: int

    def __post_init__(self):
        N = self.grid.N
        if N & (N - 1):
            raise BadShape("dyadic family needs a power-of-two grid")
        if self.depth < 0 or 2 ** self.depth > N // 2:
            raise CubeTooSmall(
                "depth %d leaves fewer than two samples per axis" % self.depth)

    @property
    def levels(self) -> range:
        return range(self.depth + 1)

    def side(self, level: int) -> float:
        return 2.0 * self.grid.R * 0.5 ** level

    def block(self, level: int) -> int:
        """Samples per axis inside one level-j cube."""
        return self.grid.N // 2 ** level

    def cube_slices(self, level: int, index: tuple) -> tuple:
        b = self.block(level)
        return tuple(slice(i * b, (i + 1) * b) for i in index)

    def cube_averages(self, samples: np.ndarray, level: int) -> np.ndarray:
        """Mean of ``samples`` over each level-j cube; shape (2^j,)*d."""
        d = self.grid.d
        b = self.block(level)
        m = 2 ** level
        shape = []
        for _ in range(d):
            shape += [m, b]
        work = samples.reshape(shape + list(samples.shape[d:]))
        for axis in reversed(range(d)):
            work = work.mean(axis=2 * axis + 1)
        return work

    def broadcast_to_nodes(self, per_cube: np.ndarray, level: int) -> np.ndarray:
        """Expand a (2^j,)*d per-cube array back onto the full grid."""
        b = self.block(level)
        out = per_cube
        for axis in range(self.grid.d):
            out = np.repeat(out, b, axis=axis)
        return out

    def iter_cubes(self, level: int):
        m = 2 ** level
        for index in np.ndindex(*([m] * self.grid.d)):
            yield index


def _half_width(radius_nodes: float) -> int:
    """Largest integer m >= 0 under the radius: strict membership drops the
    rim when the radius is an exact integer."""
    m = int(np.floor(radius_nodes))
    if m >= radius_nodes:
        m -= 1
    return max(m, 0)


def _cone_footprint(radius_nodes: float, d: int) -> np.ndarray:
    """Boolean stencil of offsets with |offset| strictly under the radius."""
    m = _half_width(radius_nodes)
    if d == 1:
        return np.ones(2 * m + 1, dtype=bool)
    ax = np.arange(-m, m + 1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return (X * X + Y * Y) < radius_nodes ** 2


def _row_widths(radius_nodes: float, d: int) -> tuple:
    """Half-width of each row dy = 0, 1, ... of :func:`_cone_footprint`:
    the largest w with w*w + dy*dy < radius**2."""
    if d == 1:
        return (_half_width(radius_nodes),)
    ax = np.arange(_half_width(radius_nodes) + 1)
    inside = ax[:, None] ** 2 + ax ** 2 < radius_nodes ** 2
    return tuple((inside.sum(axis=1) - 1).tolist())


def _window_maxima(a: np.ndarray, widths) -> dict:
    """{(g, w): max of a[g] over the offsets |dx| <= w along the last axis}
    for each w in widths[g], cells off the axis counting as 0.

    One zero-padded sparse table of maxima over 2^k cells (van Herk, Pattern
    Recognit. Lett. 13, 1992): a window of 2w + 1 cells is the max of two
    overlapping blocks of the largest 2^k <= 2w + 1 cells, which is exact.
    The table is flat, its rows apart by the widest window's zeros, so that
    each level is one contiguous maximum.
    """
    n = a.shape[-1]
    # a half-width of n already reaches a padding cell from every node
    wanted = sorted({(min(w, n), w, g) for g, ws in enumerate(widths)
                     for w in ws})
    pad = wanted[-1][0]
    shape = a.shape[:-1] + (n + pad,)
    slab = a[0].size // n * shape[-1]
    table = np.zeros(len(a) * slab + 2 * pad)
    table[pad:pad + len(a) * slab].reshape(shape)[..., :n] = a
    out, size = {}, 1
    for c, w, g in wanted:
        while 2 * size <= 2 * c + 1:
            table = np.maximum(table[:-size], table[size:])
            size *= 2
        row = table[g * slab:(g + 1) * slab].reshape(shape[1:])
        lo, hi = pad - c, pad + c + 1 - size
        out[g, w] = np.maximum(row[..., lo:lo + n], row[..., hi:hi + n])
    return out


def nontangential_max(u: HalfSpaceField, cone: ConeSpec) -> BoundaryData:
    """Discrete nontangential maximal function of a field.

    Per node the maximum of |u| over grid points (y', t) with
    |x' - y'| < kappa t and epsilon < t <= t_max.  Nodes whose truncated
    cone contains no sampled level are flagged and set to zero.  Levels of
    one footprint share one maximum of |u| (max commutes); each row dy of a
    footprint applies its running maximum at the shifts +dy and -dy, cells
    off the grid counting as 0, as in the filter by :func:`_cone_footprint`.
    """
    grid = u.grid
    top = cone.resolve_top(grid)
    # the heights ascend, so the cone's levels are one slice
    cut = slice(*np.searchsorted(u.heights, [cone.epsilon, top], side="right"))
    out = np.zeros(grid.shape)
    flat = out.reshape(-1, grid.shape[-1])
    mag = u.magnitude()[cut].reshape((-1,) + flat.shape)
    rows, shared = len(flat), {}
    for t, level in zip(u.heights[cut], mag):
        # keyed by the footprint's rows that reach the grid
        key = _row_widths(cone.kappa * t / grid.h, grid.d)[:rows]
        shared[key] = np.maximum(shared[key], level) if key in shared \
            else level
    footprints = list(shared)
    runs = _window_maxima(np.stack(list(shared.values())), footprints) \
        if shared else {}
    for g, widths in enumerate(footprints):
        for dy, w in enumerate(widths):
            np.maximum(flat[:rows - dy], runs[g, w][dy:], out=flat[:rows - dy])
            np.maximum(flat[dy:], runs[g, w][:rows - dy], out=flat[dy:])
    data = BoundaryData(grid=grid, samples=out[..., None].astype(complex),
                        space_tag="generic")
    data.meta["empty_cone"] = np.full(grid.shape, len(mag) == 0)
    data.meta["values"] = out
    return data


def hardy_littlewood(f: BoundaryData, cubes: DyadicCubeFamily) -> BoundaryData:
    """Dyadic maximal function: sup over family cubes containing the node
    of the cube average of |f|; computed top-down in O(levels x nodes)."""
    if f.grid is not cubes.grid and f.grid != cubes.grid:
        raise BadShape("data and cube family live on different grids")
    mag = f.magnitude()
    running = None
    for level in cubes.levels:
        avg = cubes.cube_averages(mag, level)
        full = cubes.broadcast_to_nodes(avg, level)
        running = full if running is None else np.maximum(running, full)
    data = BoundaryData(grid=f.grid, samples=running[..., None].astype(complex),
                        space_tag="generic")
    data.meta["values"] = running
    return data


def pointwise_max_principle_check(u: HalfSpaceField, trace: BoundaryData,
                                  cone: ConeSpec, cubes: DyadicCubeFamily,
                                  *, tol: float = 1e-8) -> VerificationReport:
    """Sandwich check |trace| <= N_kappa u <= C M(trace).

    Reports the fraction of nodes satisfying the left inequality, the fitted
    smallest constant for the right one, and the stability of that constant
    under one dyadic coarsening of the grid.  When the trace is numerically
    null the right-hand fit is marked not applicable.
    """
    nt = nontangential_max(u, cone).meta["values"]
    tr = trace.magnitude()
    frac = float(np.mean(tr <= nt + tol))
    rep = VerificationReport(
        experiment="pointwise_max_principle",
        fingerprint={"kappa": cone.kappa, "epsilon": cone.epsilon,
                     "grid_N": u.grid.N, "tol": tol})
    rep.metrics.append(make_metric(
        "left_sandwich_fraction", frac, 1.0, "ge",
        "|trace| <= nontangential maximum at every node"))

    if tr.max() <= tol * max(nt.max(), 1.0):
        rep.metrics.append(make_metric(
            "right_sandwich_not_applicable", 1.0, None, "none",
            "trace numerically null: maximal/trace ratio unbounded by design"))
        return rep

    mf = hardy_littlewood(trace, cubes).meta["values"]
    good = mf > 0
    c_fit = float((nt[good] / mf[good]).max())
    rep.metrics.append(make_metric(
        "right_sandwich_constant", c_fit, None, "finite",
        "nontangential maximum bounded by a multiple of the maximal trace"))

    # stability under one dyadic coarsening (stride-2 subsample)
    stride = (slice(None, None, 2),) * u.grid.d
    coarse_grid = Grid(n=u.grid.n, N=u.grid.N // 2, h=u.grid.h * 2)
    coarse_trace = BoundaryData(grid=coarse_grid,
                                samples=trace.samples[stride],
                                space_tag="trace")
    coarse_cubes = DyadicCubeFamily(coarse_grid,
                                    min(cubes.depth, int(np.log2(coarse_grid.N)) - 1))
    mf_c = hardy_littlewood(coarse_trace, coarse_cubes).meta["values"]
    nt_c = nt[stride]
    good_c = mf_c > 0
    c_coarse = float((nt_c[good_c] / mf_c[good_c]).max())
    rep.refinement.append(make_refinement(
        "right_sandwich_constant", c_coarse, c_fit))
    return rep
