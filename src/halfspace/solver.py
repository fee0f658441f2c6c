"""Dirichlet solves in the half-space by frequency-domain convolution.

The extension u(., t) = P_t * f is ifft(Khat(., t) fhat), with the spectra
of all height levels stacked and inverted in place, overwritten, by one FFT
per field and one scaling pass that writes each field once.  Neither
transform shifts: the sign pattern that the forward transform's missing
shift leaves on fhat is the inverse's missing shift (see
:mod:`halfspace.grids`).  The symbol is exact in t, so no kernel truncation
enters the vertical direction, and for M = 3 Khat fhat = Q (E (Q^H fhat))
from the Schur form X0 = Q T Q^H, without forming Khat.
:func:`poisson_extend_each` solves a battery of data on one grid at one set
of heights and yields one field per datum; the symbol of every level
(M = 1), the two scalar fields of Khat = C I + S X0 (M = 2) or the six
fields of E (M = 3) are evaluated once for the battery and released before
the last datum's fields are assembled.
:func:`poisson_extend` is its one-datum case.  The price is periodisation;
data must sit in the central half of the grid (or carry a tail tag).
:func:`wrap_bound` computes the wrap-around error bound from the kernel
tail on request; a solve computes it only for its ``wrap_tol`` guard.
Its constant C = sup |P(y)| (1+|y|^2)^(n/2) comes from the closed-form
kernel on rays, once per system, and is held with its solvent table; no
kernel table is built.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasRisk, BadShape, InsufficientLevels
from .grids import Grid, _fft_unshifted, _ifft_unshifted_into
from .kernels import _GAUSS_RULE, prepared_symbol, tail_constant
from .systems import EllipticSystem

__all__ = [
    "TailTag",
    "BoundaryData",
    "HalfSpaceField",
    "worker_count",
    "wrap_bound",
    "poisson_extend",
    "poisson_extend_each",
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
    """Samples of u on boundary-grid x height-levels.

    Nothing writes ``values`` after construction: :meth:`magnitude`
    computes |u| on its first call and returns that one read-only array
    from then on, so every measurement of the field shares it.
    """

    grid: Grid
    heights: np.ndarray            # ascending, strictly positive
    values: np.ndarray             # (L, *spatial, M)
    gradient: np.ndarray | None = None   # (L, *spatial, n, M)
    provenance: dict = field(default_factory=dict)
    _magnitude: np.ndarray | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float)
        if np.any(self.heights <= 0) or np.any(np.diff(self.heights) <= 0):
            raise BadShape("heights must be positive and strictly increasing")
        shape = (len(self.heights),) + self.grid.shape
        if self.values.shape != shape + (self.M,):
            raise BadShape("field values shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise BadShape("field values must be finite")
        grad_shape = shape + (self.grid.n, self.M)
        if self.gradient is not None and self.gradient.shape != grad_shape:
            raise BadShape("field gradient shape %r is not %r"
                           % (self.gradient.shape, grad_shape))

    @property
    def M(self) -> int:
        return self.values.shape[-1]

    def magnitude(self) -> np.ndarray:
        """|u| at every sample, shape (L, *spatial), computed once: the root
        of |u_1|^2 + ... + |u_M|^2 summed in order, the bits of
        ``np.linalg.norm(values, axis=-1)`` in one pass per component."""
        if self._magnitude is None:
            sq = (self.values.conj() * self.values).real
            if self.M == 1:
                self._magnitude = np.sqrt(sq[..., 0])
            else:
                mag = sq[..., 0] + sq[..., 1]
                for j in range(2, self.M):
                    mag += sq[..., j]
                self._magnitude = np.sqrt(mag, out=mag)
            self._magnitude.flags.writeable = False
        return self._magnitude


def wrap_bound(system: EllipticSystem, f: BoundaryData, t_max: float) -> float:
    """Kernel-tail bound on the periodisation error of the solve of f up to
    height t_max: C t_max (2 / margin) sup|f| in n = 2 (2 pi / margin in
    n = 3), with C the system's :func:`~halfspace.kernels.tail_constant`
    (computed once per system, whatever the grid) and the margin R less the
    support radius; inf when f is not centrally supported."""
    grid = f.grid
    radius = f.support_radius()
    margin = grid.R - radius
    if radius > 0.5 * grid.R + grid.h or margin <= 0:
        return np.inf
    geom = 2.0 / margin if system.n == 2 else 2.0 * np.pi / margin
    return float(tail_constant(system) * t_max * geom * f.magnitude().max())


def _level_fields(spectra: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """Fields (L, *shape, M), ifftn(spectra) / cell_volume with no shift, of
    stacked fft-order spectra (L, M, B), written into ``out`` (a view, else a
    fresh array) by one scaling pass; the FFT overwrites the spectra.  A
    solve's spectra carry the sign pattern of :func:`_fft_unshifted`, so the
    fields come out in natural order; any other spectrum must be multiplied
    by ``grid.shift_signs()`` first."""
    L, M = spectra.shape[:2]
    out = np.empty((L,) + grid.shape + (M,), complex) if out is None else out
    _ifft_unshifted_into(spectra.reshape((L, M) + grid.shape), grid,
                         tuple(range(2, 2 + grid.d)), np.moveaxis(out, -1, 1))
    return out


def poisson_extend(system: EllipticSystem, f: BoundaryData, heights,
                   *, gradient: bool = False,
                   wrap_tol: float | None = None) -> HalfSpaceField:
    """Extend boundary data to the given height levels.

    The symbol of every level is evaluated, exactly in t, in one batched
    pass and all levels are inverted by one FFT; tangential derivatives
    (when ``gradient`` is requested) are spectral multipliers and the
    vertical derivative is analytic from the symbol.  The periodisation
    bound is computed only when a wrap tolerance is requested (call
    :func:`wrap_bound` for it otherwise); AliasRisk is raised when it
    exceeds the tolerance, or when the datum is neither centrally supported
    nor tail-tagged.  This is the one-datum case of
    :func:`poisson_extend_each`.
    """
    return next(poisson_extend_each(system, [f], heights, gradient=gradient,
                                    wrap_tol=wrap_tol))


def poisson_extend_each(system: EllipticSystem, data, heights, *,
                        gradient: bool = False,
                        wrap_tol: float | None = None):
    """Yield one field per datum of a battery on one grid, in order, each
    equal bit for bit to :func:`poisson_extend` of its datum, one at a time.

    Every datum is checked (BadShape for data on two grids) and passes the
    ``wrap_tol`` guard before the first solve.  The symbol of every level
    (M = 1), its closed form's C and S (M = 2) or the six fields of E
    (M = 3) are evaluated once for the battery, and each datum pays one
    contraction.
    """
    data = list(data)
    grids = {f.grid for f in data}
    if len(grids) > 1:
        raise BadShape("battery data lie on %d grids; a battery solve takes "
                       "one" % len(grids))
    for f in data:
        if system.n != f.grid.n:
            raise BadShape("system and data dimensions differ")
        if system.n not in (2, 3):
            raise BadShape("solves cover n = 2 and 3, not %d" % system.n)
        if f.M != system.M:
            raise BadShape("datum has %d components, system wants %d"
                           % (f.M, system.M))
    heights = np.asarray(sorted(float(t) for t in heights))
    if not (len(heights) and np.isfinite(heights).all()
            and np.all(np.diff(np.r_[0, heights]) > 0)):
        raise BadShape("heights must be finite, positive and distinct, got %s"
                       % heights.tolist())
    if wrap_tol is not None:
        for f in data:
            wrap = wrap_bound(system, f, heights[-1])
            if wrap == np.inf and not f.centrally_supported():
                if f.tail is None:
                    raise AliasRisk(
                        "data not centrally supported and not tail-tagged")
            elif wrap > wrap_tol:
                raise AliasRisk("wrap-around bound %.2e exceeds %.2e"
                                % (wrap, wrap_tol))
    return _extend_each(system, data, heights, gradient)


def _extend_each(system: EllipticSystem, data: list, heights: np.ndarray,
                 gradient: bool):
    """The fields of :func:`poisson_extend_each`, solved as they are read."""
    if not data:
        return
    grid = data[0].grid
    nodes = grid.freq_nodes_fftorder()
    act = prepared_symbol(system, nodes).action(heights, gradient)
    d = grid.d
    M = system.M
    for i, f in enumerate(data):
        fhat = _fft_unshifted(f.samples, grid).reshape(-1, M)
        uhat, dhat = act(fhat.T)
        if i + 1 == len(data):
            del act         # free the symbol's fields before the last fields
        grad = None
        if gradient:        # uhat last: the tangential spectra are read off it
            grad = np.empty((len(heights),) + grid.shape + (system.n, M),
                            dtype=complex)
            _level_fields(dhat, grid, grad[..., d, :])
            del dhat
            for r in range(d):
                _level_fields(1j * nodes[:, r] * uhat, grid, grad[..., r, :])
        values = _level_fields(uhat, grid)
        yield HalfSpaceField(
            grid=grid, heights=heights, values=values, gradient=grad,
            provenance={"system": system.label,
                        "datum": f.meta.get("label", f.space_tag)})


def _radial_tail(g, R: float, rate: float) -> float:
    """int_R^inf g(r) dr for g(r) r decaying like e^(-rate s), s = log(r/R):
    Gauss-Legendre on unit panels in s, out to where e^(-rate s) < 1e-20."""
    x, w = _GAUSS_RULE
    r = R * np.exp(np.arange(np.ceil(np.log(1e20) / rate))[:, None]
                   + 0.5 * (x + 1.0))
    return float(0.5 * np.sum(w * g(r) * r))


def weighted_integrability(f: BoundaryData, m: float) -> float:
    """Riemann sum of |f| / (1 + |x'|^m), plus the analytic tail when tagged:
    amp r^(a+d-1) [log r] / (1 + r^m) beyond R is its leading power, in
    closed form, less that power over 1 + r^m, by :func:`_radial_tail`.
    Returns inf when the tagged tail makes the integral diverge.
    """
    if not m > 0:
        raise ValueError("weight exponent must be positive")
    rad = f.grid.radii()
    mag = f.magnitude()
    total = float((mag / (1.0 + rad ** m)).sum() * f.grid.cell_volume)
    if f.tail is None:
        return total
    d, R = f.grid.d, f.grid.R
    a, amp, haslog = f.tail.exponent, f.tail.amplitude, f.tail.log
    rate = m - a - d            # the tail decays like r^-(1 + rate)
    if rate <= 0:
        return np.inf
    lead = R ** -rate / rate * (np.log(R) + 1.0 / rate if haslog else 1.0)

    def rest(r):
        v = r ** (a + d - 1 - m) / (1.0 + r ** m)
        return v * np.log(r) if haslog else v

    surface = 2.0 if d == 1 else 2.0 * np.pi
    return total + surface * amp * (lead - _radial_tail(rest, R, rate + m))


def trace_estimate(u: HalfSpaceField, cone) -> BoundaryData:
    """Nontangential boundary trace by Richardson extrapolation.

    Uses the three smallest admissible levels (each positive, below the
    cone top); the quadratic-in-t extrapolant to t = 0 is second order.
    A per-node convergence indicator and a divergence mask are attached.
    """
    t_top = cone.resolve_top(u.grid)
    ok = np.flatnonzero((u.heights > cone.epsilon) & (u.heights <= t_top))
    below_one = [i for i in ok if u.heights[i] < 1.0]
    if len(below_one) < 3:
        raise InsufficientLevels(
            "need three levels below t = 1 in the cone's window (%g, %g]; %d "
            "of the %d levels lie there" % (cone.epsilon, t_top,
                                            len(below_one), len(u.heights)))
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
