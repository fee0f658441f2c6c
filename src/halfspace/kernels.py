"""Poisson kernel construction for elliptic systems in the half-space.

Symbol route.  For a fixed tangential frequency xi' the vertical profile
v(t) = Khat(xi', t) f of a null solution satisfies the matrix ODE

    M2 v'' + i M1(xi') v' - M0(xi') v = 0,

where sym(xi', tau) = M2 tau^2 + M1 tau + M0.  Its solutions that decay as
t -> oo are v(t) = expm(i t G) v(0), with G the upper right solvent of the
pencil (Higham & Kim, IMA J. Numer. Anal. 20, 2000):

    M2 G^2 + M1 G + M0 = 0,    spec(G) = the roots with Im tau > 0.

By homogeneity Khat(xi', t) = Khat(omega, t |xi'|) for omega = xi'/|xi'|,
so with s = t |xi'|

    Khat(xi', t) = expm(i s G(omega)),    d/ds Khat = i G(omega) Khat.

G is read off the spectral projector P = (I + sign(-i C))/2 of the 2M x 2M
companion matrix C onto its upper roots.  The range of P is the graph
[I; G], so [P21 P22] = G A with A = [P11 P12], and G = [P21 P22] A^H
(A A^H)^{-1}; A A^H is singular exactly when the Lopatinskii condition
fails.  The sign comes from a determinant-scaled Newton iteration, the
exponential from a Taylor scaling-and-squaring that shifts by the trace and
scales by ||X^2||^(1/2) (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
2009): for Lame systems G - i I is nilpotent and no squaring is needed.
The exponential works on stacks of many tiny matrices, so they are stored
nodes-last, (M, M, ..., B), and multiplied entry by entry (the layout of
batched BLAS: Dongarra et al., Procedia Comput. Sci. 108, 2017); one call
covers every height of a solve.  For scalar systems (M = 1) the solvent
is the upper root tau_+(xi') itself, and Khat = exp(i tau_+ t) in closed
form.  Every class goes through one path, :class:`PreparedSymbol`: the
generator (tau_+, or G per node) is stored once per frequency node.  A solve
applies the Taylor polynomial to fhat and forms Khat only where squarings are
due (the action of expm: Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).

Closed form.  Integrating Khat radially, int_0^oo r^(d-1) exp(r A) dr =
(d-1)! (-A)^(-d) with A = i(y.omega + G(omega)) and d = n - 1, gives the
spatial kernel P(y) = K(y, 1) = t^(n-1) K(t y, t) as an average over the
unit directions omega, and for n = 3 one power lower a field F, div F = P:

    n = 2:  P(y) = (i / 2 pi) [(y + G(+1))^(-1) + (G(-1) - y)^(-1)],
    n = 3:  P(y) = -(2 pi)^(-2) int_0^(2 pi) (y.w + G(w))^(-2) dtheta,
            F(y) = (2 pi)^(-2) int_0^(2 pi) w (y.w + G(w))^(-1) dtheta,

w = (cos theta, sin theta).  This is the Fourier-side form of the
Agmon-Douglis-Nirenberg Poisson kernel and of its estimate |K(x', t)| <=
C t (t^2 + |x'|^2)^(-n/2) (Agmon, Douglis & Nirenberg, Comm. Pure Appl.
Math. 17, 1964; Martell, D. Mitrea, I. Mitrea & M. Mitrea, Rev. Mat.
Iberoam. 32, 2016).  P gives the tail constant C of the solver's wrap bound
on rays (:attr:`PreparedSymbol.tail_constant`), K(x', t) = t^(1-n) P(x'/t)
at any point (:func:`kernel_at`) and the tables of
:func:`build_poisson_kernel`.  The mass W_R of P on [-R, R]^(n-1), for
n = 3 the flux of F out of the box, gives the mass I - W_R beyond a table's
window.  The n = 3 integrands are smooth and periodic, so the trapezoid
rule converges geometrically: a point y takes the least power of two
>= _TRAPEZOID_MIN and >= _TRAPEZOID_RATE (1 + |y|) / margin nodes, margin =
min Im spec G: the integrand's poles lie about margin / |y| off the real
angles, and the rule's error falls like exp(-nodes margin / |y|).  More
than _TRAPEZOID_MAX nodes raise OutOfDomain.  In n = 3 the nodes sum terms
far above P(y) ~ |y|^(-3): the relative round-off grows like 1e-17 |y|^3.

Fourier conventions: fhat(xi) = int f exp(-i x.xi) dx with inverse carrying
(2 pi)^{1-n}; Phat(0) = I is the unit mass, that of a table periodised.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (BadShape, ImproperSplit, InsufficientDecay, OutOfDomain,
                     RealAxisRoot, SingularBoundaryMatrix)
from .grids import Grid, grid_ifft
from .report import VerificationReport, make_metric
from .systems import EllipticSystem, real_axis_tolerance

__all__ = [
    "PoissonSymbolTable",
    "PoissonKernelGrid",
    "poisson_symbol_at",
    "poisson_symbol_dt_at",
    "symbol_batch",
    "kernel_derivative_spectrum",
    "synthesize_kernel_levels",
    "build_poisson_kernel",
    "kernel_at",
    "interior_pde_residual",
    "verify_kernel_properties",
]

_SIGN_MAX_ITER = 100      # Newton steps; a root on the real axis never converges
_BOUNDARY_COND_MAX = 1e12  # condition number of A A^H beyond which it is singular
_TAYLOR_TOL = 2.0 ** -56  # bound on the dropped Taylor terms of expm
_MEMO_BYTES = 1 << 25     # per-height symbols kept by one PreparedSymbol
_PREPARED_BYTES = 1 << 28  # per-node arrays kept by _PREPARED_CACHE
_EXPM_BYTES = 1 << 22     # working set of one Taylor chunk in _eval_from_stacks
_SYMBOL_CHUNK = 8192      # nodes per PreparedSymbol of symbol_batch
_TRAPEZOID_MIN = 64       # fewest circle nodes of the closed-form kernel
_TRAPEZOID_RATE = 40.0    # circle nodes per unit of (1 + |y|) / root margin
_TRAPEZOID_MAX = 2 ** 18  # most circle nodes of one closed-form point
_GAUSS_PANEL = 16         # Gauss-Legendre nodes per panel of a window side
_BOUNDARY_TOL = 1e-12     # symbol magnitude at the frequency-box boundary
_XI_CAP = 4096.0          # largest frequency half-width _probe_extent tries
_PROBE_START = 8.0        # first frequency half-width tried by _probe_extent
_PROBE_SEED = 7           # seeds the random probe directions


def _matrix_sign(x: np.ndarray) -> np.ndarray:
    """sign(X) for a (B, m, m) stack by the Newton iteration
    X <- (mu X + (mu X)^{-1}) / 2 with mu = |det X|^(-1/m).

    Scaling stops once a step is below 1e-2, and a node stops one step after
    its step fell below 1e-7, when quadratic convergence has reached
    round-off.  Raises RealAxisRoot when a node does not converge: -i C has
    an eigenvalue on the imaginary axis exactly when a root is real.
    """
    m = x.shape[-1]
    x = x.copy()
    active = np.arange(len(x))
    step = np.full(len(x), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_SIGN_MAX_ITER):
            if not len(active):
                return x
            xa = x[active]
            mu = np.ones(len(active))
            far = step[active] > 1e-2
            mu[far] = np.abs(np.linalg.det(xa[far])) ** (-1.0 / m)
            try:
                inv = np.linalg.inv(xa)
            except np.linalg.LinAlgError:
                break
            new = 0.5 * (mu[:, None, None] * xa + inv / mu[:, None, None])
            if not np.all(np.isfinite(new)):
                break
            new_step = (np.linalg.norm(new - xa, axis=(1, 2))
                        / np.linalg.norm(new, axis=(1, 2)))
            x[active] = new
            done = (new_step <= 1e-14) | (step[active] <= 1e-7)
            step[active] = new_step
            active = active[~done]
    raise RealAxisRoot("sign iteration did not converge: a characteristic "
                       "root lies on the real axis")


def _solvent_stacks(system: EllipticSystem, omega: np.ndarray) -> np.ndarray:
    """Upper solvents G(omega_b), (B, M, M), of unit directions (B, d).

    The roots are checked as :func:`halfspace.systems.characteristic_roots`
    checks them, on the spectra of the upper solvent G and of the lower one
    -G - M2^{-1} M1 (sym(tau) = (tau M2 + M2 G + M1)(tau - G)).
    """
    M = system.M
    d = system.n - 1
    a = system.coeffs
    m2inv = np.linalg.inv(a[:, :, -1, -1])
    g1 = np.einsum("xy,yzr->xzr", m2inv, a[:, :, :d, -1] + a[:, :, -1, :d])
    g0 = np.einsum("xy,yzrs->xzrs", m2inv, a[:, :, :d, :d])
    m1 = np.einsum("xzr,br->bxz", g1, omega)           # M2^{-1} M1
    m0 = np.einsum("xzrs,br,bs->bxz", g0, omega, omega)  # M2^{-1} M0
    # -i C for the companion matrix C = [[0, I], [-M2^-1 M0, -M2^-1 M1]]
    x = np.zeros((len(omega), 2 * M, 2 * M), dtype=complex)
    x[:, :M, M:] = -1j * np.eye(M)
    x[:, M:, :M] = 1j * m0
    x[:, M:, M:] = 1j * m1
    proj = 0.5 * (np.eye(2 * M) + _matrix_sign(x))
    # the trace of a projector is its rank: the number of upper roots
    if np.any(np.rint(np.trace(proj, axis1=1, axis2=2).real) != M):
        raise ImproperSplit("root split differs from M/M in batch")
    top = proj[:, :M]
    top_h = np.conj(np.swapaxes(top, 1, 2))
    aah = top @ top_h
    try:
        aah_inv = np.linalg.inv(aah)
    except np.linalg.LinAlgError:
        raise SingularBoundaryMatrix("boundary matrix A A^H is singular") from None
    cond = (np.abs(aah).sum(axis=1).max(axis=1)
            * np.abs(aah_inv).sum(axis=1).max(axis=1))
    bad = ~(cond <= _BOUNDARY_COND_MAX)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularBoundaryMatrix(
            "boundary matrix A A^H has condition number %.3g at omega=%s"
            % (cond[j], omega[j]))
    g = proj[:, M:] @ top_h @ aah_inv
    tol = real_axis_tolerance(1.0)
    if np.any(np.linalg.eigvals(g).imag < tol) \
            or np.any(np.linalg.eigvals(-g - m1).imag > -tol):
        raise RealAxisRoot("characteristic root too close to the real axis")
    return g


def _expm_stacks(g: np.ndarray) -> dict:
    """Per-node data of expm(i s G) for solvents G (B, M, M), laid out with
    the nodes last: G and X0 = i(G - tr(G)/M I) as (M, M, B), the shift
    mu = i tr(G)/M, and ||X0||_F and ||X0^2||_F^(1/2).  The shift and both
    norms of i s G scale linearly in s >= 0."""
    M = g.shape[-1]
    mu = 1j * np.trace(g, axis1=1, axis2=2) / M
    x0 = 1j * g - mu[:, None, None] * np.eye(M)
    return {"g": np.ascontiguousarray(np.moveaxis(g, 0, -1)),
            "x0": np.ascontiguousarray(np.moveaxis(x0, 0, -1)),
            "mu": mu,
            "nx": np.linalg.norm(x0, axis=(1, 2)),
            "alpha": np.sqrt(np.linalg.norm(x0 @ x0, axis=(1, 2)))}


def _soa_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of M x M matrices a, M x p blocks b, stacks last."""
    M, p = b.shape[:2]
    out = np.empty((M, p) + np.broadcast(a[0, 0], b[0, 0]).shape, complex)
    for i in range(M):
        for j in range(p):
            acc = a[i, 0] * b[0, j]
            for q in range(1, M):
                acc += a[i, q] * b[q, j]
            out[i, j] = acc
    return out


def _taylor_block(x: np.ndarray, b, degree: int, c=1.0) -> np.ndarray:
    """T_m(c X) B for a block B (M, p, ...) by Horner's rule: w <- c X (B +
    w) / j for j = m, ..., 1 from w = 0, then B + w; B = None is the
    identity, added on the diagonal."""
    w = (x if b is None else _soa_matmul(x, b)) * (c / degree)
    for j in range(degree - 1, -1, -1):
        if b is None:
            for i in range(len(w)):
                w[i, i] += 1.0
        else:
            w += b
        if j:
            w = _soa_matmul(x, w)
            w *= c / j
    return w


def _taylor_degrees(nx: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per row of (L, B) scaled norms, the least Taylor degree m whose two
    next terms are bounded by ||X0||^(q mod 2) alpha^(q - q mod 2) / q!
    <= _TAYLOR_TOL (q = m + 1, m + 2) at every node of the row."""
    def worst(q):
        bound = nx ** (q % 2) * alpha ** (q - q % 2) / factorial(q)
        return bound.max(axis=1, initial=0.0)

    degrees = np.full(len(nx), 63)
    open_ = np.ones(len(nx), dtype=bool)
    nxt = worst(2)
    for m in range(1, 64):
        cur, nxt = nxt, worst(m + 2)
        done = open_ & (np.maximum(cur, nxt) <= _TAYLOR_TOL)
        degrees[done] = m
        open_ &= ~done
        if not open_.any():
            break
    return degrees


def _eval_from_stacks(system: EllipticSystem, stacks: dict, s: np.ndarray,
                      want_dt: bool, v: np.ndarray | None = None):
    """Khat = expm(i s G) from prepared per-node data (:func:`_expm_stacks`)
    for s of shape (B,) or (L, B), one row per height; returns Khat of shape
    (M, M) + s.shape, and d/ds Khat = i G Khat when ``want_dt`` is set;
    with a block v (M, p, B), Khat v and d/ds Khat v, (M, p) + s.shape.

    Taylor scaling-and-squaring: X = i s G is shifted by mu s and halved j
    times until alpha = s ||X0^2||^(1/2) <= 1; the degree of a row is the
    least m whose dropped terms are bounded by ||X0||^(k mod 2)
    alpha^(k - k mod 2) / k! <= _TAYLOR_TOL over that row's nodes.  Rows of
    one degree are evaluated together, in node chunks of _EXPM_BYTES, so a
    row's values do not depend on the other rows.  The factor exp(mu s /
    2^j) is applied before squaring, so decaying values never pass through
    an overflowing intermediate.  Only elements with j > 0 form Khat for v.
    """
    rows = np.atleast_2d(np.asarray(s, dtype=float))
    M = stacks["g"].shape[0]
    alpha = rows * stacks["alpha"]
    squarings = np.ceil(np.log2(np.maximum(alpha, 1.0))).astype(int)
    c = rows * 0.5 ** squarings           # X = c X0 after scaling
    degrees = _taylor_degrees(c * stacks["nx"], c * stacks["alpha"])
    k = np.empty((M, M if v is None else v.shape[1]) + rows.shape, complex)
    dk = np.empty_like(k) if want_dt else None
    for degree in np.unique(degrees):
        sel = np.flatnonzero(degrees == degree)
        # x, k and one product of complex M x M stacks per chunk
        span = max(1, _EXPM_BYTES // (3 * 16 * M * M * len(sel)))
        for start in range(0, rows.shape[1], span):
            cols = slice(start, start + span)
            cc, sq = c[sel, cols], squarings[sel, cols]
            x0 = stacks["x0"][:, :, None, cols]
            shift = np.exp(stacks["mu"][None, cols] * cc)
            mat = np.s_[...] if v is None else sq > 0     # forming Khat
            if v is None or mat.any():
                x = np.broadcast_to(x0, (M, M) + cc.shape)[:, :, mat] * cc[mat]
                km = _taylor_block(x, None, degree) * shift[mat]
                for round_ in range(1, int(sq.max(initial=0)) + 1):
                    mm = sq[mat] >= round_
                    km[:, :, mm] = _soa_matmul(km[:, :, mm], km[:, :, mm])
            if v is None:
                kc = km
            else:         # the action, and Khat v where squarings are due
                vc = v[:, :, None, cols]
                kc = _taylor_block(x0, vc, degree, cc) * shift
                if mat.any():
                    kc[:, :, mat] = _soa_matmul(
                        km, np.broadcast_to(vc, kc.shape)[:, :, mat])
            k[:, :, sel, cols] = kc
            if want_dt:
                dk[:, :, sel, cols] = _soa_matmul(
                    1j * stacks["g"][:, :, None, cols], kc)
    if np.ndim(s) == 1:
        return k[:, :, 0], (dk[:, :, 0] if want_dt else None)
    return k, dk


class _DirectionEvaluator:
    """Upper solvents G(omega) of a few unit directions omega (D, n-1)."""

    def __init__(self, system: EllipticSystem, omega):
        self.g = _solvent_stacks(system, np.asarray(omega, dtype=float))


def poisson_symbol_at(system: EllipticSystem, xi_prime, t: float) -> np.ndarray:
    """Khat(xi', t) at one frequency, the one-node case of
    :func:`symbol_batch`; the identity for t = 0 or xi' = 0."""
    return symbol_batch(system, np.atleast_1d(xi_prime)[None], t)[0]


def poisson_symbol_dt_at(system: EllipticSystem, xi_prime, t: float):
    """Pair (Khat, d/dt Khat) at (xi', t); derivative is exact in t."""
    k, dk = symbol_batch(system, np.atleast_1d(xi_prime)[None], t, True)
    return k[0], dk[0]


def _scalar_batch(system: EllipticSystem, xi: np.ndarray) -> dict:
    """Generator of M = 1: the upper root tau_plus(xi) of the scalar
    quadratic, so that Khat = exp(i tau_plus t); both roots vanish at
    xi = 0, where tau_plus is taken as 0.

    The single upper root is always simple and is the M = 1 solvent; this
    is the vectorised limit of the generic construction, cross-checked
    against it in the tests.
    """
    a = system.coeffs[0, 0]
    d = system.n - 1
    ann = a[-1, -1]
    lin = a[:d, -1] + a[-1, :d]
    b = xi @ lin
    c0 = np.einsum("br,rs,bs->b", xi, a[:d, :d], xi)
    disc = np.sqrt(b * b - 4.0 * ann * c0)
    # cancellation-free quadratic roots: qq keeps the large magnitude
    sign = np.where((np.conj(b) * disc).real >= 0.0, 1.0, -1.0)
    qq = -0.5 * (b + sign * disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = qq / ann
        r2 = np.where(qq != 0, c0 / np.where(qq != 0, qq, 1.0), 0.0)
    tau = np.where(r1.imag > 0.0, r1, r2)
    other = np.where(r1.imag > 0.0, r2, r1)
    norms = np.linalg.norm(xi, axis=1)
    nz = norms > 0.0
    tol = real_axis_tolerance(norms[nz])
    if np.any(tau[nz].imag < tol):
        raise RealAxisRoot("scalar characteristic root too close to real axis")
    if np.any(other[nz].imag > -tol):
        raise ImproperSplit("scalar roots do not split across the real axis")
    return {"tau": tau}


def _collinear_batch(system: EllipticSystem, xi: np.ndarray) -> dict:
    """Generator of n = 2, M > 1: every frequency lies on a line, so the
    data of the solvents G(+1) and G(-1) are gathered per node, zero at
    xi = 0."""
    x = xi[:, 0]
    side = np.where(x > 0.0, 0, np.where(x < 0.0, 1, 2))
    pair = _DirectionEvaluator(system, [[1.0], [-1.0]]).g
    g = np.concatenate([pair, np.zeros_like(pair[:1])])
    return {key: v[..., side] for key, v in _expm_stacks(g).items()}


def _general_batch(system: EllipticSystem, xi: np.ndarray) -> dict:
    """Generator of any n, M: the solvent G(xi/|xi|) of every node, zero at
    xi = 0, in the layout of :func:`_expm_stacks`."""
    norms = np.linalg.norm(xi, axis=1)
    nz = norms > 0.0
    g = np.zeros((len(xi), system.M, system.M), dtype=complex)
    g[nz] = _solvent_stacks(system, xi[nz] / norms[nz, None])
    return _expm_stacks(g)


def _node_major(k: np.ndarray) -> np.ndarray:
    """The one height of a (M, M, 1, B) symbol as a (B, M, M) stack."""
    return np.ascontiguousarray(np.moveaxis(k[:, :, 0], -1, 0))


def _nbytes(out) -> int:
    return sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


def _unit_circle(d: int, count: int) -> np.ndarray:
    """``count`` equally spaced unit vectors of R^d, d <= 2."""
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)[:, :d]


def _node_counts(system: EllipticSystem, radii: np.ndarray) -> np.ndarray:
    """Nodes for points at |y| = radii by the rule of the module notes."""
    d = system.n - 1
    g = _solvent_stacks(system, _unit_circle(d, 2 if d == 1 else _TRAPEZOID_MIN))
    need = _TRAPEZOID_RATE * (1.0 + radii) / np.linalg.eigvals(g).imag.min()
    return 2 ** np.ceil(np.log2(np.maximum(need, _TRAPEZOID_MIN)))


def _closed_form_kernel(system: EllipticSystem, y: np.ndarray,
                        div_field: bool = False) -> np.ndarray:
    """P(y) = K(y, 1), (B, M, M), at points y (B, d), d = n - 1 <= 2, as
    the node mean of (d-1)!/(2 pi)^d |S^(d-1)| (-i(y.omega + G(omega)))^(-d)
    = (d pi)^(-1) (...)^(-d), nodes +-1 for d = 1 and those of the module
    notes for d = 2; with ``div_field`` (d = 2), F (B, d, M, M) instead, its
    omega weights carried on the adjugates.  det(s I + G) and adj(s I + G)^p
    are polynomials in s = y.omega (Faddeev-LeVerrier).  No product sums
    over rows, so a point's value does not depend on the others."""
    if system.n not in (2, 3):
        raise BadShape("closed-form kernel covers n = 2 and 3, not %d" % system.n)
    d, M = system.n - 1, system.M
    power = d - div_field
    counts = np.full(len(y), 2)
    if d == 2:
        counts = _node_counts(system, radii := np.linalg.norm(y, axis=1))
        j = int(np.argmax(counts))
        if counts[j] > _TRAPEZOID_MAX:
            raise OutOfDomain("|y| = %.3g needs %d trapezoid nodes, over %d; use "
                              "a larger t" % (radii[j], counts[j], _TRAPEZOID_MAX))
    omega = _unit_circle(d, int(counts.max()))
    h = -_solvent_stacks(system, omega)
    det, adj = [np.ones(len(h))], [np.broadcast_to(np.eye(M), h.shape)]
    for k in range(1, M + 1):      # highest power of s first
        hn = h @ adj[-1]
        det.append(-np.trace(hn, axis1=1, axis2=2) / k)
        adj.append(hn + det[-1][:, None, None] * np.eye(M))
    det, adj = np.array(det[::-1]), adj[-2::-1]    # lowest power first
    if power == 2:
        adj = [sum(adj[i] @ adj[m - i] for i in range(M) if 0 <= m - i < M)
               for m in range(2 * M - 1)]
    adj = [(omega[:, :, None] * a.reshape(-1, 1, M * M) if div_field
            else a).reshape(len(omega), -1) for a in adj]
    scale = (-1.0 if div_field else 1.0) * 1j ** d
    out = np.zeros((len(y), adj[0].shape[1]), dtype=complex)
    for q in np.unique(counts).astype(int):
        nodes = slice(None, None, len(omega) // q)
        om, dq = omega[nodes].T.copy(), det[:, nodes].copy()
        sel = np.flatnonzero(counts == q)
        for rows in np.array_split(sel, -(-len(sel) * q // (1 << 16))):
            # per-row sums: BLAS orders a sum by the number of rows
            s = y[rows, 0, None] * om[0]
            for r in range(1, d):
                s += y[rows, r, None] * om[r]
            den = s + dq[M - 1]                   # det is monic: Horner
            for k in range(M - 2, -1, -1):
                den = den * s + dq[k]
            term = np.reciprocal(den, out=den) * (scale / (d * np.pi * q))
            term *= den if power == 2 else 1.0
            for j, a in enumerate(adj):
                if j:
                    term *= s
                out[rows] += (term[:, None] @ a[nodes])[:, 0]
    return out.reshape((len(y), d, M, M) if div_field else (-1, M, M))


class PreparedSymbol:
    """Symbol evaluator for a fixed frequency set, the one path to Khat.

    Construction stores one generator per node in ``stacks``: the upper
    root tau for M = 1, and for M > 1 the solvent G(xi/|xi|) in the layout
    of :func:`_expm_stacks` (in n = 2 gathered from G(+1) and G(-1)).  The
    generator is zero at the zero frequency, where Khat = I.  Each height is
    then only an exponential: :meth:`levels` evaluates every height of a
    solve at once, :meth:`apply` the action Khat v, and :meth:`at` is the
    one-height case of levels, bit for bit, with per-height results memoised
    up to ``_MEMO_BYTES``, the oldest evicted first.
    """

    def __init__(self, system: EllipticSystem, xi_nodes: np.ndarray):
        self.system = system
        self.xi = np.asarray(xi_nodes, dtype=float)
        self.norms = np.linalg.norm(self.xi, axis=1)
        self._results: dict = {}
        self._lock = threading.Lock()
        if system.M == 1:
            self.stacks = _scalar_batch(system, self.xi)
        elif system.n == 2:
            self.stacks = _collinear_batch(system, self.xi)
        else:
            self.stacks = _general_batch(system, self.xi)

    @property
    def nbytes(self) -> int:
        """Bytes of the per-node arrays: frequencies and generator data."""
        arrays = [self.xi, self.norms, *self.stacks.values()]
        return sum(a.nbytes for a in arrays)

    @cached_property
    def tail_constant(self) -> float:
        """sup ||P(y)||_2 (1 + |y|^2)^(n/2), operator norm, of the closed-form
        kernel on 32 rays (+-1 for n = 2) at |y| = 0 and 40 radii to 40."""
        d = self.system.n - 1
        radii = np.concatenate([[0.0], np.geomspace(1.0 / 16, 40.0, 40)])
        y = np.kron(radii[:, None], _unit_circle(d, 2 if d == 1 else 32))
        mag = np.linalg.norm(_closed_form_kernel(self.system, y), 2, (1, 2))
        return float((mag * (1.0 + (y * y).sum(axis=1)) ** (0.5 + 0.5 * d)).max())

    def levels(self, heights, want_dt: bool = False):
        """Khat at every height, shape (M, M, L, B) with the nodes last, and
        d/dt Khat when ``want_dt`` is set (else None)."""
        heights = np.asarray(heights, dtype=float)
        if self.system.M == 1:
            k = np.exp(np.multiply.outer(heights, 1j * self.stacks["tau"]))
            k = k[None, None]
            return k, (self.dt(k) if want_dt else None)
        k, dk = _eval_from_stacks(self.system, self.stacks,
                                  np.multiply.outer(heights, self.norms),
                                  want_dt)
        return k, (dk * self.norms if want_dt else None)

    def apply(self, heights, v: np.ndarray, want_dt: bool = False):
        """Khat v and d/dt Khat v (else None), each (L, M, B), at every
        height for a block v (M, B) with the nodes last."""
        if self.system.M == 1:     # einsum keeps the contraction's bytes
            return tuple(a if a is None else np.einsum("ijlb,jb->lib", a, v)
                         for a in self.levels(heights, want_dt))
        w, dw = _eval_from_stacks(self.system, self.stacks, np.multiply.outer(
            heights, self.norms), want_dt, v[:, None])
        return w[:, 0].swapaxes(0, 1), (
            dw[:, 0].swapaxes(0, 1) * self.norms if want_dt else None)

    def dt(self, k: np.ndarray) -> np.ndarray:
        """d/dt of a stack (M, M, L, B) of :meth:`levels`: the generator
        product (i |xi'| G) k, or i tau k for M = 1."""
        if self.system.M == 1:
            return 1j * self.stacks["tau"] * k
        return _soa_matmul(1j * self.stacks["g"][:, :, None], k) * self.norms

    def at(self, t: float, want_dt: bool = False):
        key = (float(t), want_dt)
        hit = self._results.get(key)
        if hit is not None:
            return hit
        k, dk = self.levels([t], want_dt)
        out = _node_major(k)
        if want_dt:
            out = (out, _node_major(dk))
        self._remember(key, out)
        return out

    def _remember(self, key, out):
        """Memoise ``out``, evicting the oldest heights beyond the budget."""
        size = _nbytes(out)
        if size > _MEMO_BYTES:
            return
        with self._lock:
            while self._results and size + sum(
                    _nbytes(v) for v in self._results.values()) > _MEMO_BYTES:
                del self._results[next(iter(self._results))]
            self._results[key] = out


_PREPARED_CACHE: dict = {}


def prepared_symbol(system: EllipticSystem, xi_nodes: np.ndarray) -> PreparedSymbol:
    """Cached PreparedSymbol per (system, frequency set): repeated solves on
    one grid reuse the solvents.  The cache holds up to ``_PREPARED_BYTES``
    of per-node arrays and evicts the least recently used entry first."""
    xi_nodes = np.ascontiguousarray(xi_nodes, dtype=float)
    key = (system.key(), hash(xi_nodes.tobytes()))
    prep = _PREPARED_CACHE.pop(key, None)
    if prep is None:
        prep = PreparedSymbol(system, xi_nodes)
    if prep.nbytes > _PREPARED_BYTES:
        return prep
    held = prep.nbytes + sum(p.nbytes for p in _PREPARED_CACHE.values())
    while held > _PREPARED_BYTES:
        held -= _PREPARED_CACHE.pop(next(iter(_PREPARED_CACHE))).nbytes
    _PREPARED_CACHE[key] = prep
    return prep


def _checked_nodes(system: EllipticSystem, xi_nodes, heights) -> np.ndarray:
    """Frequencies as a float (B, n-1) array; ValueError on another shape
    or on a negative height."""
    xi_nodes = np.asarray(xi_nodes, dtype=float)
    if xi_nodes.ndim != 2 or xi_nodes.shape[1] != system.n - 1:
        raise ValueError("xi_nodes must have shape (B, n-1)")
    if np.any(np.asarray(heights) < 0):
        raise ValueError("t must be nonnegative")
    return xi_nodes


def symbol_batch(system: EllipticSystem, xi_nodes: np.ndarray, t: float,
                 want_dt: bool = False):
    """Khat(xi', t) for a stack of frequencies (B, n-1); t a scalar >= 0.

    Returns (B, M, M), or a pair with the exact t-derivative when
    ``want_dt`` is set.  Evaluated by an uncached :class:`PreparedSymbol`
    per chunk of ``_SYMBOL_CHUNK`` nodes, so that one-off calls never hold
    the generators of all nodes at once.
    """
    xi_nodes = _checked_nodes(system, xi_nodes, t)
    k = np.empty((len(xi_nodes), system.M, system.M), dtype=complex)
    dk = np.empty_like(k) if want_dt else None
    for start in range(0, len(xi_nodes), _SYMBOL_CHUNK):
        sl = slice(start, start + _SYMBOL_CHUNK)
        got = PreparedSymbol(system, xi_nodes[sl]).at(t, want_dt)
        if want_dt:
            k[sl], dk[sl] = got
        else:
            k[sl] = got
    return (k, dk) if want_dt else k


def _derivative_levels(system: EllipticSystem, xi_nodes, heights,
                       alphas) -> np.ndarray:
    """d^alpha Khat(xi', t), (B, A, L, M, M), for each of the A multi-indices
    ``alphas`` at every height for frequencies (B, n-1): one uncached
    :class:`PreparedSymbol` per ``_SYMBOL_CHUNK`` nodes serves them all, its
    generator applied alpha_n times, times (i xi')^alpha'."""
    alphas = [tuple(int(x) for x in alpha) for alpha in alphas]
    if any(len(alpha) != system.n for alpha in alphas):
        raise ValueError("alpha must have length n")
    if any(alpha[-1] > 2 for alpha in alphas):
        raise ValueError("vertical derivative order limited to 2")
    xi_nodes = _checked_nodes(system, xi_nodes, heights)
    M = system.M
    out = np.empty((len(xi_nodes), len(alphas), len(heights), M, M),
                   dtype=complex)
    for start in range(0, len(xi_nodes), _SYMBOL_CHUNK):
        sl = slice(start, start + _SYMBOL_CHUNK)
        prep = PreparedSymbol(system, xi_nodes[sl])
        vertical = [prep.levels(heights)[0]]
        while len(vertical) <= max(alpha[-1] for alpha in alphas):
            vertical.append(prep.dt(vertical[-1]))
        for j, alpha in enumerate(alphas):
            out[sl, j] = vertical[alpha[-1]].transpose(3, 2, 0, 1)
    for j, alpha in enumerate(alphas):
        factor = np.prod((1j * xi_nodes) ** np.array(alpha[:-1]), axis=1)
        out[:, j] *= factor[:, None, None, None]
    return out


def kernel_derivative_spectrum(system: EllipticSystem, xi_nodes: np.ndarray,
                               t: float, alpha) -> np.ndarray:
    """Spectrum of d^alpha K(., t), (B, M, M), for a length-n multi-index
    ``alpha`` (last entry vertical, order <= 2): tangential factors
    (i xi')^alpha', vertical derivatives as powers of the generator."""
    return _derivative_levels(system, xi_nodes, [t], [alpha])[:, 0, 0]


def synthesize_kernel_levels(system: EllipticSystem, grid: Grid, heights,
                             alpha=None) -> np.ndarray:
    """Sample d^alpha K(., t) on ``grid`` for each height t.

    Returns an array of shape (len(heights), *grid.shape, M, M), natural
    spatial order.  alpha = None means the kernel itself.  The spectra of
    all heights come from one symbol pass and one inverse FFT.
    """
    if alpha is None:
        alpha = (0,) * system.n
    return _synthesize_derivatives(system, grid, heights, [alpha])[0]


def _synthesize_derivatives(system: EllipticSystem, grid: Grid, heights,
                            alphas) -> np.ndarray:
    """d^alpha K(., t) for each multi-index of ``alphas`` and each height,
    (A, L, *grid.shape, M, M), from one symbol pass and one inverse FFT."""
    spec = _derivative_levels(system, grid.freq_nodes_fftorder(), heights,
                              alphas)
    fields = grid_ifft(spec.reshape(grid.shape + spec.shape[1:]), grid)
    return np.ascontiguousarray(
        np.moveaxis(fields, (grid.d, grid.d + 1), (0, 1)))


# ---------------------------------------------------------------------------
# table and grid containers


@dataclass
class PoissonSymbolTable:
    """Phat = Khat(., 1) tabulated on a uniform frequency grid."""

    system: EllipticSystem
    freq_extent: float
    N: int
    values: np.ndarray        # (*freq_shape, M, M), natural order
    decay_rate: float


@dataclass
class PoissonKernelGrid:
    """Spatial samples of the Poisson kernel P on [-R, R)^{n-1}."""

    system: EllipticSystem
    grid: Grid
    values: np.ndarray        # (*shape, M, M), natural order
    tail_constant: float
    normalization_residual: float
    normalization_residual_full: float
    meta: dict = field(default_factory=dict)


def _window_mass(system: EllipticSystem, R: float) -> np.ndarray:
    """W_R = int P over [-R, R]^(n-1), (M, M), by Gauss-Legendre on panels of
    _GAUSS_PANEL nodes, as many per side as the node rule gives at |y| = R:
    of P on [-R, R] for n = 2, of the flux of F out of the box for n = 3."""
    panels = int(_node_counts(system, np.array([R]))[0]) // _GAUSS_PANEL
    x, w = leggauss(_GAUSS_PANEL)
    half = R / panels                           # panel half-width
    t = (half * (2 * np.arange(panels)[:, None] + 1 + x) - R).ravel()
    w = half * np.resize(w, len(t))
    if system.n == 2:
        return np.einsum("k,kij->ij", w, _closed_form_kernel(system, t[:, None]))
    r = np.full_like(t, R)
    f = _closed_form_kernel(system, np.concatenate(
        [np.stack(p, axis=1) for p in ((r, t), (-r, t), (t, r), (t, -r))]),
        div_field=True).reshape((4, len(t), 2) + (system.M,) * 2)
    flux = f[0, :, 0] - f[1, :, 0] + f[2, :, 1] - f[3, :, 1]
    return np.einsum("k,kij->ij", w, flux)


def _probe_extent(system: EllipticSystem) -> float:
    """Double the frequency half-width until the symbol is below tolerance."""
    d = system.n - 1
    dirs = [np.eye(d)[r] * s for r in range(d) for s in (1.0, -1.0)]
    dirs.append(np.ones(d) / np.sqrt(d))
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(4):
        v = rng.standard_normal(d)
        dirs.append(v / np.linalg.norm(v))
    dirs = np.array(dirs)
    xi = _PROBE_START
    while xi <= _XI_CAP:
        worst = float(np.abs(symbol_batch(system, dirs * xi, 1.0)).max())
        if worst < _BOUNDARY_TOL:
            return xi
        xi *= 2.0
    raise InsufficientDecay(
        "symbol magnitude stays above %.1e out to |xi'| = %g"
        % (_BOUNDARY_TOL, _XI_CAP))


def build_poisson_kernel(system: EllipticSystem, freq_extent: float | None = None,
                         N: int = 1024, *,
                         normalization_tol: float | None = 1e-3):
    """(PoissonSymbolTable, PoissonKernelGrid): Phat on N^(n-1) frequencies
    and P by the closed form on the dual grid over [-R, R)^(n-1), h = pi /
    freq_extent, equal to ``kernel_at(kernel, y, 1.0)`` bit for bit.  N must
    be a power of two; unless given, the frequency half-width doubles until
    the symbol magnitude on every node with |xi'| >= 0.98 of it drops below
    _BOUNDARY_TOL."""
    if N & (N - 1):
        raise ValueError("N must be a power of two")
    if system.n not in (2, 3):
        raise BadShape("kernel tables cover n = 2 and 3, not %d" % system.n)
    d, M = system.n - 1, system.M
    probed = freq_extent is None
    if probed:
        freq_extent = _probe_extent(system)
    while True:
        grid = Grid(n=system.n, N=N, h=np.pi / freq_extent)
        spec = symbol_batch(system, grid.freq_nodes_fftorder(), 1.0)
        table_values = np.fft.fftshift(spec.reshape(grid.shape + (M, M)),
                                       axes=tuple(range(d)))
        fr = np.sqrt(sum(m * m for m in np.meshgrid(
            *[(np.arange(N) - N // 2) * (2 * freq_extent / N)] * d,
            indexing="ij")))
        mag = np.abs(table_values).max(axis=(-2, -1))
        boundary = float(mag[fr >= 0.98 * freq_extent].max())
        if boundary < _BOUNDARY_TOL:
            break
        # the probe sees a few directions at |xi'| = xi only; the guard
        # sees every node in the boundary band, so a probed extent that
        # fails it keeps doubling
        if not probed or 2.0 * freq_extent > _XI_CAP:
            raise InsufficientDecay(
                "boundary symbol magnitude %.2e >= %.1e; enlarge the "
                "frequency extent" % (boundary, _BOUNDARY_TOL))
        freq_extent *= 2.0

    # exponential decay rate of the tabulated symbol
    band = (fr >= 0.25 * freq_extent) & (fr <= 0.75 * freq_extent) & (mag > 0)
    decay_rate = -float(np.polyfit(fr[band], np.log(mag[band]), 1)[0])
    if decay_rate <= 0:
        raise InsufficientDecay("fitted symbol decay rate is not positive")

    y = np.stack([m.ravel() for m in grid.meshes()], axis=1)
    values = _closed_form_kernel(system, y).reshape(grid.shape + (M, M))
    # spatial tail constant sup |P| (1+|x|^2)^(n/2) over the delivered grid
    weight = (1.0 + (y * y).sum(axis=1)) ** (0.5 * system.n)
    tail_constant = float((weight * np.abs(values).max((-2, -1)).ravel()).max())

    # the periodised table has mass Phat(0); the window sum plus the mass
    # I - W_R beyond the window misses I by the window quadrature error alone
    res_full = float(np.abs(table_values[(N // 2,) * d] - np.eye(M)).max())
    window = values.reshape(-1, M, M).sum(axis=0) * grid.cell_volume
    res_corr = float(np.abs(window - _window_mass(system, grid.R)).max())
    if normalization_tol is not None and res_corr > normalization_tol:
        raise InsufficientDecay(
            "tail-corrected normalisation residual %.2e exceeds %.1e"
            % (res_corr, normalization_tol))
    return (PoissonSymbolTable(system=system, freq_extent=float(freq_extent),
                               N=N, values=table_values, decay_rate=decay_rate),
            PoissonKernelGrid(system=system, grid=grid, values=values,
                              tail_constant=tail_constant,
                              normalization_residual=res_corr,
                              normalization_residual_full=res_full,
                              meta={"freq_extent": float(freq_extent),
                                    "boundary_symbol": boundary}))


def kernel_at(kernel: PoissonKernelGrid, x_prime, t: float) -> np.ndarray:
    """K(x', t) = t^{1-n} P(x'/t) by the closed form, at any x': (M, M) at
    one point (n-1,), (P, M, M) at a stack (P, n-1), equal bit for bit.  In
    n = 3 the relative round-off grows like 1e-17 |x'/t|^3 (Laplacian: about
    1e-12 at 40, 1e-8 at 1000, 1e-6 at 3000); in n = 2 it stays at 1e-16."""
    if not t > 0:
        raise OutOfDomain("kernel_at requires t > 0")
    y = np.atleast_1d(np.asarray(x_prime, dtype=float)) / t
    out = _closed_form_kernel(kernel.system, np.atleast_2d(y))
    return t ** (1 - kernel.system.n) * (out[0] if y.ndim == 1 else out)


def discrete_operator(values: np.ndarray, spacings, coeffs: np.ndarray) -> np.ndarray:
    """Second-order centered-difference realisation of the system on a stack.

    ``values`` has shape (T, *spatial, M), axis 0 being the vertical
    direction; ``spacings`` gives the step per coefficient axis in the
    order (x_1 .. x_{n-1}, t).  Returns the result on the interior (every
    differenced axis loses one boundary layer per side).
    """
    n = coeffs.shape[-1]
    arr_axis = [1 + r for r in range(n - 1)] + [0]   # coefficient -> array axis
    out = np.zeros(values.shape[:-1] + (coeffs.shape[0],), dtype=complex)
    for r in range(n):
        for s in range(n):
            c = coeffs[:, :, r, s]
            if not np.any(c):
                continue
            ar, as_ = arr_axis[r], arr_axis[s]
            if r == s:
                d2 = (np.roll(values, -1, ar) + np.roll(values, 1, ar)
                      - 2.0 * values) / spacings[r] ** 2
            else:
                d2 = (np.roll(values, (-1, -1), (ar, as_))
                      - np.roll(values, (-1, 1), (ar, as_))
                      - np.roll(values, (1, -1), (ar, as_))
                      + np.roll(values, (1, 1), (ar, as_))) \
                    / (4.0 * spacings[r] * spacings[s])
            out += np.einsum("ab,...b->...a", c, d2)
    return out[tuple(slice(1, -1) for _ in range(n))]


def interior_pde_residual(system: EllipticSystem, h: float = 1.0 / 16,
                          N: int = 256, t0: float = 1.0,
                          box: float = 2.0) -> float:
    """Max-norm residual of the discrete operator on kernel columns.

    Kernel columns are synthesised spectrally on a stack of uniformly spaced
    heights around ``t0`` and hit with second-order centered differences, so
    the result isolates the O(h^2) truncation of the stencil.
    """
    grid = Grid(n=system.n, N=N, h=h)
    levels = t0 + h * np.arange(-4, 5)
    stack = synthesize_kernel_levels(system, grid, levels)
    M = system.M
    mask = grid.radii() <= box
    mask = mask[tuple(slice(1, -1) for _ in range(grid.d))]
    res = 0.0
    for col in range(M):
        vals = stack[..., :, col]          # (T, *spatial, M)
        out = discrete_operator(vals, [h] * system.n, system.coeffs)
        interior = np.abs(out).max(axis=-1)[:, mask]
        res = max(res, float(interior.max()))
    return res


def classical_oracle_residual(kernel: PoissonKernelGrid) -> float | None:
    """Relative error on |x'| <= 5 against the harmonic kernel
    (1 + |x'|^2)^(-n/2) / ((n - 1) pi) when the system is the flat
    Laplacian; None otherwise."""
    n = kernel.system.n
    if not np.array_equal(kernel.system.coeffs, np.eye(n)[None, None]):
        return None
    r2 = sum(m * m for m in kernel.grid.meshes())
    sel = r2 <= 25.0
    exact = (1.0 + r2[sel]) ** (-0.5 * n) / ((n - 1) * np.pi)
    return float((np.abs(kernel.values[..., 0, 0][sel] - exact) / exact).max())


def verify_kernel_properties(system: EllipticSystem, kernel: PoissonKernelGrid,
                             symbol: PoissonSymbolTable, *, seed: int = 0,
                             pde_check: bool = True) -> VerificationReport:
    """Quantitative report on the defining kernel identities."""
    metrics = []
    M = system.M
    eye = np.eye(M)

    oracle = classical_oracle_residual(kernel)
    if oracle is not None:
        metrics.append(make_metric(
            "classical_oracle_rel_error", oracle, 1e-4, "le",
            "tabulated kernel matches the closed-form harmonic kernel"))

    metrics.append(make_metric(
        "normalization_residual_tail_corrected", kernel.normalization_residual,
        2e-3, "le", "unit kernel mass: window Riemann sum plus the exact mass "
        "I - W_R beyond the window"))
    metrics.append(make_metric(
        "normalization_residual_full_grid", kernel.normalization_residual_full,
        1e-6, "le", "unit mass of the periodised table, Phat(0) = I"))
    centre = (symbol.N // 2,) * (system.n - 1)
    metrics.append(make_metric(
        "symbol_at_zero_identity", float(np.abs(symbol.values[centre] - eye).max()),
        0.0, "le", "Phat(0) equals the identity exactly"))

    metrics.append(make_metric(
        "tail_constant_spatial", kernel.tail_constant, None, "finite",
        "sup |P|(1+|x'|^2)^(n/2) finite"))
    metrics.append(make_metric(
        "tail_constant_spacetime", kernel.tail_constant, None, "finite",
        "sup |K|(t^2+|x|^2)^(n/2)/t finite (equals the spatial constant "
        "by homogeneity)"))

    # far-field decay slope of |P|
    g = kernel.grid
    rad = g.radii()
    mag = np.abs(kernel.values).max(axis=(-2, -1))
    band = (rad >= 10.0) & (rad <= 0.9 * g.R) & (mag > 0)
    if np.count_nonzero(band) < 2:
        raise OutOfDomain(
            "far-field band 10 <= |x'| <= 0.9 R is empty for R = %.3g; "
            "raise N" % g.R)
    slope = float(np.polyfit(np.log(rad[band]), np.log(mag[band]), 1)[0])
    metrics.append(make_metric(
        "far_field_slope_deviation", abs(slope + system.n), 0.1, "le",
        "log-log decay slope of |P| equals -n"))

    # derivative bounds |d^a K| <= C |x|^{1-n-|a|} at t = 1, |a| <= 2
    d = system.n - 1
    alphas = [tuple(order * int(r == s) for s in range(system.n))
              for r in range(system.n) for order in (1, 2)]
    probe_grid = Grid(n=system.n, N=min(g.N, 512), h=g.h * max(1, g.N // 512))
    stacks = _synthesize_derivatives(system, probe_grid, [1.0], alphas)[:, 0]
    for alpha, stack in zip(alphas, stacks):
        amag = np.abs(stack).max(axis=(-2, -1))
        r2 = sum(m * m for m in probe_grid.meshes()) + 1.0
        order = system.n - 1 + sum(alpha)
        c_alpha = float((amag * r2 ** (0.5 * order)).max())
        metrics.append(make_metric(
            "derivative_constant_%s" % (("".join(map(str, alpha))),),
            c_alpha, None, "finite",
            "sup |d^a K| |x|^{n-1+|a|} finite for a=%s" % (alpha,)))

    # interior PDE residual and its convergence order
    if pde_check:
        res_h = interior_pde_residual(system, h=1.0 / 8, N=128)
        res_h2 = interior_pde_residual(system, h=1.0 / 16, N=256)
        order = float(np.log2(res_h / res_h2)) if res_h2 > 0 else np.inf
        metrics.append(make_metric(
            "pde_residual", res_h2, None, "finite",
            "centered-difference operator residual on kernel columns"))
        metrics.append(make_metric(
            "pde_residual_order", order, 1.8, "ge",
            "stencil residual decays at second order under grid halving"))

    # semigroup identity at seeded frequencies
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((100, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.exp(rng.uniform(np.log(0.1), np.log(20.0), 100))
    xi = dirs * radii[:, None]
    k2 = symbol_batch(system, xi, 0.3) @ symbol_batch(system, xi, 0.7)
    worst = float(np.abs(symbol_batch(system, xi, 1.0) - k2).max())
    metrics.append(make_metric(
        "semigroup_residual", worst, 1e-8, "le",
        "Khat(xi,1) = Khat(xi,0.3) Khat(xi,0.7) at 100 seeded frequencies"))

    # non-degeneracy probe: spherical means of |P(lambda w) a| per basis
    # vector a; the norms (BLAS dot) and the means (rows of a 2-D array)
    # sum in the order np.linalg.norm and np.mean use on one vector
    lam_hi = min(100.0, 0.9 * g.R)
    lams = np.logspace(-2, np.log10(lam_hi), 41)
    sphere = _unit_circle(d, 2 if d == 1 else 64)
    pts = (lams[:, None, None] * sphere).reshape(-1, d)
    cols = np.moveaxis(kernel_at(kernel, pts, 1.0), -1, 0)   # (M, P, M)
    norms = np.sqrt(np.vecdot(cols.real, cols.real)
                    + np.vecdot(cols.imag, cols.imag)).reshape(-1, len(sphere))
    probe_min = float(norms.mean(axis=1).reshape(M, -1).max(axis=1).min())
    metrics.append(make_metric(
        "nondegeneracy_probe_min", probe_min, 0.0, "gt",
        "every basis vector sees positive spherical kernel mean at some scale"))

    return VerificationReport(
        experiment="kernel_properties:%s" % system.label,
        metrics=metrics,
        fingerprint={"system": system.label, "N": g.N, "h": g.h,
                     "freq_extent": symbol.freq_extent, "seed": seed})
