"""Dirichlet solves in the half-space by frequency-domain convolution.

The extension u(., t) = P_t * f is ifft(Khat(., t) fhat), with the spectra
of all height levels stacked and inverted by one FFT per field: the symbol
is exact in t, so no kernel truncation enters the vertical direction, and
Khat fhat is the action of the exponential on fhat, without forming Khat
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).  The
price is periodisation; data must sit in the central half of the grid (or
carry a tail tag), and the wrap-around error bound derived from the kernel
tail is attached to the field.  Its constant C = sup |P(y)| (1+|y|^2)^(n/2)
comes from the closed-form kernel of :mod:`halfspace.kernels` on rays and is
kept with the grid's prepared symbol; no kernel table is built.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import AliasRisk, BadShape, InsufficientLevels
from .grids import Grid, grid_fft, grid_ifft
from .kernels import prepared_symbol
from .systems import EllipticSystem

__all__ = [
    "TailTag",
    "BoundaryData",
    "HalfSpaceField",
    "worker_count",
    "poisson_extend",
    "weighted_integrability",
    "trace_estimate",
]


def worker_count() -> int:
    """Worker cap from the HSP_THREADS environment variable (default: the
    CPU count, at most 4).  The package itself no longer reads it; it stays
    because the benchmark's run header records it."""
    env = os.environ.get("HSP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class TailTag:
    """Power-law continuation |f| ~ amplitude |x'|^exponent (log factor
    optional) beyond the grid; amplitude is fitted on admission."""

    exponent: float
    log: bool = False
    amplitude: float = 0.0


_TAGS = ("generic", "lp", "weighted_l1", "bounded", "continuous", "bmo",
         "holder", "slg", "atomic", "trace")


@dataclass
class BoundaryData:
    """Samples of a C^M-valued boundary datum on a uniform grid."""

    grid: Grid
    samples: np.ndarray          # (*spatial, M), complex
    space_tag: str = "generic"
    tail: TailTag | None = None
    singular: np.ndarray | None = None    # mask of clipped nodes
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape[:-1] != self.grid.shape:
            raise BadShape("samples shape %r does not match grid %r"
                           % (self.samples.shape, self.grid.shape))
        if not np.all(np.isfinite(self.samples)):
            raise BadShape("boundary samples must be finite")
        if self.space_tag not in _TAGS:
            raise BadShape("unknown space tag %r" % (self.space_tag,))
        self._admit()

    @property
    def M(self) -> int:
        return self.samples.shape[-1]

    def magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.samples, axis=-1)

    def _admit(self):
        """Space-tag admission checks; tail tags must match the class."""
        tag, tail = self.space_tag, self.tail
        if tail is not None:
            if not np.isfinite(tail.exponent):
                raise BadShape("tail exponent must be finite")
            if self.tail.amplitude == 0.0:
                amp = self._fit_tail_amplitude()
                self.tail = TailTag(tail.exponent, tail.log, amp)
            if tag == "bounded" and tail.exponent > 0:
                raise BadShape("bounded datum cannot grow at infinity")
            if tag == "slg":
                theta = float(self.meta.get("theta", 1.0))
                if tail.exponent > theta:
                    raise BadShape("tail exponent exceeds the growth order")
            if tag == "weighted_l1" and tail.exponent >= 1.0:
                raise BadShape("tail too heavy for the weighted-L1 class")
        if tag == "slg":
            theta = float(self.meta.get("theta", 1.0))
            rad = self.grid.radii()
            self.meta["slg_value"] = float(
                (self.magnitude() / (1.0 + rad ** theta)).max())
        if tag == "weighted_l1":
            self.meta["weighted_l1_value"] = weighted_integrability(
                self, float(self.grid.n))

    def _fit_tail_amplitude(self) -> float:
        rad = self.grid.radii()
        band = rad >= 0.7 * self.grid.R
        if not band.any():
            return 0.0
        model = rad[band] ** self.tail.exponent
        if self.tail.log:
            model = model * np.log(np.maximum(rad[band], 2.0))
        vals = self.magnitude()[band]
        good = model > 0
        if not good.any():
            return float(vals.max())
        return float(np.median(vals[good] / model[good]))

    def support_radius(self) -> float:
        """Largest |x|_inf carrying non-negligible samples."""
        mag = self.magnitude()
        peak = mag.max()
        if peak == 0.0:
            return 0.0
        mask = mag > 1e-10 * peak
        coords = np.stack([np.abs(m) for m in self.grid.meshes()], axis=0)
        return float(coords.max(axis=0)[mask].max())

    def centrally_supported(self) -> bool:
        return self.support_radius() <= 0.5 * self.grid.R + self.grid.h


@dataclass
class HalfSpaceField:
    """Samples of u on boundary-grid x height-levels."""

    grid: Grid
    heights: np.ndarray            # ascending, strictly positive
    values: np.ndarray             # (L, *spatial, M)
    gradient: np.ndarray | None = None   # (L, *spatial, n, M)
    provenance: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float)
        if np.any(self.heights <= 0) or np.any(np.diff(self.heights) <= 0):
            raise BadShape("heights must be positive and strictly increasing")
        if self.values.shape != (len(self.heights),) + self.grid.shape + (self.M,):
            raise BadShape("field values shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise BadShape("field values must be finite")

    @property
    def M(self) -> int:
        return self.values.shape[-1]

    def magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=-1)

    def level(self, index: int) -> BoundaryData:
        return BoundaryData(grid=self.grid, samples=self.values[index],
                            space_tag="generic")


def _wrap_bound(system: EllipticSystem, f: BoundaryData, t_max: float,
                tail_constant: float) -> float:
    """Kernel-tail bound on the periodisation error, per unit sup of f."""
    margin = f.grid.R - f.support_radius()
    if margin <= 0:
        return np.inf
    n = system.n
    if n == 2:
        geom = 2.0 / margin
    else:
        geom = 2.0 * np.pi / margin
    return float(tail_constant * t_max * geom * f.magnitude().max())


def _level_fields(spectra: np.ndarray, grid: Grid) -> np.ndarray:
    """Fields of stacked spectra (L, M, B), fft order with the nodes last,
    by one inverse FFT over the trailing axes; returns natural-order samples
    laid out level first, (L, *shape, M)."""
    fields = grid_ifft(spectra.reshape(spectra.shape[:2] + grid.shape), grid,
                       tuple(range(-grid.d, 0)))
    return np.ascontiguousarray(np.moveaxis(fields, 1, -1))


def poisson_extend(system: EllipticSystem, f: BoundaryData, heights,
                   *, gradient: bool = False,
                   wrap_tol: float | None = None) -> HalfSpaceField:
    """Extend boundary data to the given height levels.

    The symbol of every level is evaluated, exactly in t, in one batched
    pass and all levels are inverted by one FFT; tangential derivatives
    (when ``gradient`` is requested) are spectral multipliers and the
    vertical derivative is analytic from the symbol.  Raises AliasRisk when
    a wrap tolerance is requested and the periodisation bound exceeds it.
    """
    if system.n != f.grid.n:
        raise BadShape("system and data dimensions differ")
    if f.M != system.M:
        raise BadShape("datum has %d components, system wants %d"
                       % (f.M, system.M))
    heights = np.asarray(sorted(float(t) for t in heights))
    if not (len(heights) and np.isfinite(heights).all()
            and np.all(np.diff(np.r_[0, heights]) > 0)):
        raise BadShape("heights must be finite, positive and distinct, got %s"
                       % heights.tolist())

    grid = f.grid
    nodes = grid.freq_nodes_fftorder()
    prepared = prepared_symbol(system, nodes)
    tail_c = prepared.tail_constant
    compact = f.centrally_supported()
    wrap = _wrap_bound(system, f, heights[-1], tail_c) if compact else np.inf
    if wrap_tol is not None:
        if not compact and f.tail is None:
            raise AliasRisk("data not centrally supported and not tail-tagged")
        if compact and wrap > wrap_tol:
            raise AliasRisk("wrap-around bound %.2e exceeds %.2e"
                            % (wrap, wrap_tol))

    d = grid.d
    M = system.M
    fhat = grid_fft(f.samples, grid).reshape(-1, M)
    uhat, dhat = prepared.apply(heights, fhat.T, gradient)
    values = _level_fields(uhat, grid)
    grad = None
    if gradient:
        grad = np.empty((len(heights),) + grid.shape + (system.n, M),
                        dtype=complex)
        grad[..., d, :] = _level_fields(dhat, grid)
        del dhat
        for r in range(d):
            grad[..., r, :] = _level_fields(1j * nodes[:, r] * uhat, grid)

    return HalfSpaceField(
        grid=grid, heights=heights, values=values, gradient=grad,
        provenance={"system": system.label,
                    "datum": f.meta.get("label", f.space_tag)},
        meta={"wrap_bound": wrap, "tail_constant": tail_c})


def weighted_integrability(f: BoundaryData, m: float) -> float:
    """Riemann sum of |f| / (1 + |x'|^m), plus the analytic tail when tagged.

    Returns inf when the tagged tail makes the integral diverge.
    """
    if not m > 0:
        raise ValueError("weight exponent must be positive")
    rad = f.grid.radii()
    mag = f.magnitude()
    total = float((mag / (1.0 + rad ** m)).sum() * f.grid.cell_volume)
    if f.tail is None:
        return total
    d = f.grid.d
    a, amp, haslog = f.tail.exponent, f.tail.amplitude, f.tail.log
    # radial tail: amp r^a [log r] r^(d-1) / (1 + r^m) from R outward
    if a + d - 1 - m >= -1:
        return np.inf
    surface = 2.0 if d == 1 else 2.0 * np.pi

    def radial(r):
        v = amp * r ** a * r ** (d - 1) / (1.0 + r ** m)
        return v * np.log(r) if haslog else v

    tail_val, _ = integrate.quad(radial, f.grid.R, np.inf, limit=200)
    return total + surface * tail_val


def trace_estimate(u: HalfSpaceField, cone) -> BoundaryData:
    """Nontangential boundary trace by Richardson extrapolation.

    Uses the three smallest admissible levels (each positive, below the
    cone top); the quadratic-in-t extrapolant to t = 0 is second order.
    A per-node convergence indicator and a divergence mask are attached.
    """
    t_top = cone.t_max if cone.t_max is not None else np.inf
    ok = np.flatnonzero((u.heights > cone.epsilon) & (u.heights <= t_top))
    below_one = [i for i in ok if u.heights[i] < 1.0]
    if len(below_one) < 3:
        raise InsufficientLevels("need at least three levels below t = 1")
    i0, i1, i2 = below_one[:3]
    t = u.heights[[i0, i1, i2]]
    v = u.values[[i0, i1, i2]]
    # Lagrange extrapolation to t = 0
    w0 = t[1] * t[2] / ((t[1] - t[0]) * (t[2] - t[0]))
    w1 = t[0] * t[2] / ((t[0] - t[1]) * (t[2] - t[1]))
    w2 = t[0] * t[1] / ((t[0] - t[2]) * (t[1] - t[2]))
    trace = w0 * v[0] + w1 * v[1] + w2 * v[2]
    d01 = np.linalg.norm(v[0] - v[1], axis=-1)
    d12 = np.linalg.norm(v[1] - v[2], axis=-1)
    diverging = d01 > d12 + 1e-14
    out = BoundaryData(grid=u.grid, samples=trace, space_tag="trace")
    out.meta["convergence_indicator"] = d01
    out.meta["no_convergence"] = diverging
    out.meta["levels"] = t
    return out
