"""Poisson kernel construction for elliptic systems in the half-space.

Symbol route.  For a fixed tangential frequency xi' the vertical profile
v(t) = Khat(xi', t) f of a null solution satisfies the matrix ODE

    M2 v'' + i M1(xi') v' - M0(xi') v = 0,

where sym(xi', tau) = M2 tau^2 + M1 tau + M0.  Its decaying solutions are
v(t) = expm(i t G) v(0), G the upper right solvent of the pencil (Higham &
Kim, IMA J. Numer. Anal. 20, 2000):

    M2 G^2 + M1 G + M0 = 0,    spec(G) = the roots with Im tau > 0.

By homogeneity Khat(xi', t) = Khat(omega, t |xi'|) for omega = xi'/|xi'|,
so with s = t |xi'|

    Khat(xi', t) = expm(i s G(omega)),    d/ds Khat = i G(omega) Khat.

G is read off the spectral projector P = (I + sign(-i C))/2 of the 2M x 2M
companion matrix C onto its upper roots.  The range of P is the graph
[I; G], so [P21 P22] = G A with A = [P11 P12], and G = [P21 P22] A^H
(A A^H)^{-1}; A A^H is singular exactly when the Lopatinskii condition
fails.  The sign comes from a determinant-scaled Newton iteration.  Write
i s G = s (mu I + X0) with mu = i tr(G) / M and X0 traceless.  For M = 2,
X0^2 = delta^2 I with delta^2 = -det X0 (Cayley-Hamilton), so

    Khat = e^(s mu) (cosh(s delta) I + s sinhc(s delta) X0) = C I + S X0,

two scalar fields per height and node with no squarings (Moler & Van Loan,
SIAM Rev. 45, 2003; Higham, Functions of Matrices, SIAM 2008, ch. 10;
:func:`_cosh_sinhc`).  For Lame systems G - i I is nilpotent, so delta is
round-off.  For M = 3 each node stores a complex Schur form X0 = Q T Q^H
(:func:`_schur3`), and Khat = e^(s mu) Q expm(s T) Q^H, expm(s T) upper
triangular from the divided differences of exp at s T_ii (Schur-Parlett:
Higham, op. cit., sections 9.1-9.2, 10.4.3; McCurdy, Ng & Parlett, Math.
Comp. 43, 1984; :func:`_eval_from_stacks`).  Stacks of tiny matrices are
stored nodes-last, (M, M, ..., B), and multiplied entry by entry (the layout
of batched BLAS: Dongarra et al., Procedia Comput. Sci. 108, 2017); one call
covers every height of a solve, each element by its own height and node.
For M = 1 the solvent is the upper root tau_+(xi'), and Khat = exp(i tau_+
t).  Every class goes through :class:`PreparedSymbol`, which stores the
generator (tau_+, or G) once per frequency node; a solve contracts each
datum with the levels (M = 1), C and S (M = 2) or expm(s T) (M = 3),
evaluated once for a battery.  Every t-derivative is one product with
i |xi'| G (:meth:`PreparedSymbol.dt`) after the exponential.

Solvent table.  G depends on the system and omega only: each system solves
it once, on first use, into a table held on the system object
(:class:`_DirectionEvaluator`), G(+-1) for n = 2 and G at Q equispaced angles
for n = 3, where Q doubles from _TRAPEZOID_MIN until the trigonometric
interpolant meets direct solves at the midpoints to _TABLE_TOL of max |G|
(OutOfDomain once a doubling does not shrink that error, stalled at the
solves' round-off, or past _TRAPEZOID_MAX angles); it converges geometrically
for the analytic, periodic G(theta) (Trefethen & Weideman, SIAM Rev. 56, 2014).

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
(:func:`tail_constant`, held with the solvent table), K(x', t) = t^(1-n)
P(x'/t) at any point (:func:`kernel_at`) and the tables of
:func:`build_poisson_kernel`.  The mass W_R of P on [-R, R]^(n-1), for
n = 3 the flux of F out of the box, gives the mass I - W_R beyond a table's
window.  In n = 2 P is rational, with poles -spec G(+1) and spec G(-1) at
least the root margin off the real axis; its Gauss-Legendre panels are
graded toward them (:func:`_pole_panels`), so their count grows like
log(R / margin) per pole, not like R / margin.  The n = 3 integrands are
smooth and periodic, so the trapezoid rule converges geometrically: a point
y takes the least power of two >= _TRAPEZOID_MIN and >= _TRAPEZOID_RATE
(1 + |y|) / margin nodes, margin = min Im spec G over the table's first
solves (the root margin, held with the table): the integrand's poles lie
about margin / |y| off the real angles, and the rule's error falls like
exp(-nodes margin / |y|).  The n = 3 W_R takes Gauss-Legendre panels by
the same rule at |y| = R.  More than _TRAPEZOID_MAX nodes raise
OutOfDomain; q <= Q nodes are table entries.

Fourier conventions: fhat(xi) = int f exp(-i x.xi) dx with inverse carrying
(2 pi)^{1-n}; Phat(0) = I is the unit mass, that of a table periodised.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (BadShape, ImproperSplit, InsufficientDecay, OutOfDomain,
                     RealAxisRoot, SingularBoundaryMatrix)
from .grids import Grid, _ifft_unshifted_into
from .report import VerificationReport, make_metric
from .systems import EllipticSystem, _lame_tensor, real_axis_tolerance

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
    "tail_constant",
    "interior_pde_residual",
    "verify_kernel_properties",
]

_SIGN_MAX_ITER = 100      # Newton steps; a root on the real axis never converges
_BOUNDARY_COND_MAX = 1e12  # condition number of A A^H beyond which it is singular
_PREPARED_BYTES = 1 << 28  # per-node arrays kept by _PREPARED_CACHE
_CS_SERIES = 0.5          # |s delta| up to which C and S take their even series
# their 8 terms, w^k / (2k)! and w^k / (2k + 1)! in w = (s delta)^2: the
# first one dropped is below 2^-56 of C and of S / s there
_CS_COEFFS = np.array([[1.0 / factorial(2 * k + j) for k in range(8)]
                       for j in (0, 1)])
_SCHUR_SERIES = 0.125     # s max |T_ii - T_jj| up to which E takes its series
# r = s max |T_ii| up to which its degree d = 4, ..., 18 drops < 2^-53
_SCHUR_RADII = np.array([(2.0 ** -53 * factorial(d - 1)) ** (1.0 / (d - 1))
                         for d in range(4, 19)])
# (row, column) of T's and E's six fields: corner, off-diagonal, diagonal
_FIELDS = (np.array([0, 0, 1, 0, 1, 2]), np.array([2, 1, 2, 0, 1, 2]))
_SYMBOL_CHUNK = 8192      # nodes per PreparedSymbol of symbol_batch
_TRAPEZOID_MIN = 64       # fewest circle nodes of the closed-form kernel
_TRAPEZOID_RATE = 40.0    # circle nodes per unit of (1 + |y|) / root margin
_TRAPEZOID_MAX = 2 ** 18  # most circle nodes of one closed-form point or table
_TABLE_TOL = 1e-14        # interpolation error of a solvent table, of max |G|
_POLISH_ROUNDS = 5        # local grids that refine the tail constant's sup
_GAUSS_PANEL = 16         # Gauss-Legendre nodes per panel of a quadrature
_GAUSS_RULE = leggauss(_GAUSS_PANEL)  # its nodes and weights on [-1, 1]
_POLE_GRADING = 3.0       # least pole distance per panel half-width (n = 2)
_BOUNDARY_TOL = 1e-12     # symbol magnitude at the frequency-box boundary
_EXTENT_START = 8.0       # first frequency half-width of the extent search
_XI_CAP = 4096.0          # largest frequency half-width of the extent search


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
    """Per-node data of expm(i s G) for solvents G (B, M, M), nodes last:
    G (M, M, B) and the shift mu = i tr(G)/M; for M = 2 X0 = i G - mu I and
    delta, a root of delta^2 = -det X0; for M = 3 the Schur vectors Q (3, 3,
    B) of X0 and T's fields (6, B), the diagonal centred on its mean, which
    mu takes in."""
    M = g.shape[-1]
    mu = 1j * np.trace(g, axis1=1, axis2=2) / M
    x0 = 1j * g - mu[:, None, None] * np.eye(M)
    stacks = {"g": np.ascontiguousarray(np.moveaxis(g, 0, -1)), "mu": mu}
    if M == 2:
        stacks["x0"] = np.ascontiguousarray(np.moveaxis(x0, 0, -1))
        stacks["delta"] = np.sqrt(x0[:, 0, 1] * x0[:, 1, 0]
                                  - x0[:, 0, 0] * x0[:, 1, 1])
        return stacks
    q, t = _schur3(x0)
    t = t[(slice(None),) + _FIELDS].T
    mean = t[3:].mean(axis=0)
    return dict(stacks, q=np.ascontiguousarray(np.moveaxis(q, 0, -1)),
                t=np.concatenate([t[:3], t[3:] - mean]), mu=mu + mean)


def _schur3(x0: np.ndarray):
    """(Q, T), X0 = Q T Q^H, of a (B, 3, 3) stack: the reflector taking e1
    to an eigenvector (np.linalg.eig) gives [[l, *], [0, A]]; A's longer
    eigenvector (h + d, A21) or (A12, d - h), h = (A11 - A22) / 2, d^2 = h^2
    + A12 A21, Re(conj(h) d) >= 0, is the first column of the rotation that
    makes A triangular.  T's strict lower part is round-off."""
    v = np.linalg.eig(x0)[1][:, :, 0]
    p = v + np.exp(1j * np.angle(v[:, :1])) * np.eye(3)[0]
    q = np.eye(3) - p[:, :, None] * p[:, None].conj() \
        / (1.0 + np.abs(v[:, 0]))[:, None, None]      # |p|^2 / 2
    a = q @ x0 @ q                                      # q is Hermitian
    h = 0.5 * (a[:, 1, 1] - a[:, 2, 2])
    d = np.sqrt(h * h + a[:, 1, 2] * a[:, 2, 1])
    d *= np.where((h.conj() * d).real < 0, -1.0, 1.0)
    y = np.stack([np.stack([h + d, a[:, 2, 1]], 1),
                  np.stack([a[:, 1, 2], d - h], 1)])
    y = y[np.linalg.norm(y, axis=2).argmax(axis=0), np.arange(len(v))]
    size = np.linalg.norm(y, axis=1, keepdims=True)
    y = np.where(size > 0, y / np.where(size > 0, size, 1.0), [1.0, 0.0])
    q[:, :, 1:] = q[:, :, 1:] @ np.stack(
        [y, np.stack([-y[:, 1].conj(), y[:, 0].conj()], 1)], 2)
    return q, q.conj().swapaxes(1, 2) @ x0 @ q


def _cs_series(s, mu, delta):
    """(C, S) of :func:`_cosh_sinhc` by the even series of cosh and sinhc
    in w = (s delta)^2, each by Horner's rule."""
    z = s * delta
    w = z * z
    c, sc = w * _CS_COEFFS[0, -1], w * _CS_COEFFS[1, -1]
    for a, b in _CS_COEFFS.T[-2:0:-1]:
        c += a
        c *= w
        sc += b
        sc *= w
    c += 1.0
    sc += 1.0
    shift = np.exp(s * mu)
    return shift * c, shift * s * sc


def _cs_exponential(s, mu, delta):
    """(C, S) of :func:`_cosh_sinhc` from e^(s (mu +- delta)), whose real
    parts are -s Im spec G < 0, so no intermediate overflows."""
    plus = np.exp(s * (mu + delta))
    minus = np.exp(s * (mu - delta))
    return (plus + minus) * 0.5, (plus - minus) * (0.5 / delta)


def _cosh_sinhc(stacks: dict, s: np.ndarray):
    """C = e^(s mu) cosh(s delta) and S = e^(s mu) s sinhc(s delta), each
    (L, B), for heights-by-nodes s (L, B): expm(s (mu I + X0)) = C I + S X0
    as X0^2 = delta^2 I, even in delta.  Elements with |s delta| <=
    _CS_SERIES take the series, the others the exponentials, whose
    difference loses a few ulps at most, each element by its own s, mu and
    delta alone."""
    mu, delta = stacks["mu"], stacks["delta"]
    near = s * np.abs(delta) <= _CS_SERIES
    if near.all() or not near.any():
        return (_cs_series if near.all() else _cs_exponential)(s, mu, delta)
    c, sh = np.empty((2,) + s.shape, complex)
    for sel, part in ((near, _cs_series), (~near, _cs_exponential)):
        c[sel], sh[sel] = part(s[sel], *(np.broadcast_to(x, s.shape)[sel]
                                         for x in (mu, delta)))
    return c, sh


def _soa_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of M x M matrices a, M x p blocks b, stacks last."""
    M, p = b.shape[:2]
    out = np.empty((M, p) + np.broadcast(a[0, 0], b[0, 0]).shape, complex)
    for i in range(M):
        for j in range(p):
            np.multiply(a[i, 0], b[0, j], out=out[i, j])
            for q in range(1, M):
                out[i, j] += a[i, q] * b[q, j]
    return out


def _schur_series(s, mu, t, cols):
    """E = e^(s mu) sum_k s^k T^k / k!, (6, *s.shape), by Horner's rule in
    s, T^k / k! formed on the nodes that ``cols`` picks.  An element's corner
    ends at its own degree d of _SCHUR_RADII (zeroed above it), the next
    fields at d - 1 and the diagonal at d - 2, each dropping < r^(d-1) /
    (d-1)!, r = s max |T_ii|."""
    r = s * np.abs(t[3:]).max(axis=0)[cols]
    top = 4 + int(np.searchsorted(_SCHUR_RADII, r.max()))
    terms = [np.eye(3)[_FIELDS].reshape((6,) + (1,) * (t.ndim - 1))]
    for k in range(1, top + 1):          # C_k = C_(k-1) T / k
        c = terms[-1]
        nxt = c * t[[5, 4, 5, 3, 4, 5]]
        nxt[:3] += c[[3, 3, 4]] * t[:3]
        nxt[0] += c[1] * t[2]
        terms.append(nxt / k)
    sc, e = s.astype(complex), np.empty((6,) + s.shape, complex)
    for k in range(top, -1, -1):
        term = np.broadcast_to(terms[k], t.shape)[:, cols]
        for g, rows in enumerate((slice(0, 1), slice(1, 3), slice(3, 6))):
            if k + g < top:
                e[rows] *= sc
                e[rows] += term[rows]
            elif k + g == top:
                e[rows] = term[rows]
            if 4 < k + g <= top:
                e[rows] *= r > _SCHUR_RADII[k + g - 5]
    e *= np.exp(s * mu[cols])
    return e


def _schur_quotients(s, mu, t):
    """E, (6, *s.shape), for per-node mu and t broadcast against s, from
    e^(z_i), z_i = s (mu + T_ii), real parts negative, and G_ab = s g[z_a,
    z_b] = (e^(z_a) - e^(z_b)) / (T_aa - T_bb), or where s |T_aa - T_bb| <=
    _SCHUR_SERIES, S of the M = 2 closed form at the pair's mean and
    half-gap (:func:`_cs_series`); s^2 g[z_0, z_1, z_2] is the quotient of
    two G over the node's largest gap."""
    lam, a, b = t[3:], [0, 1, 0], [1, 2, 2]          # the pairs 01, 12, 02
    gap, mid = lam[a] - lam[b], mu + 0.5 * (lam[a] + lam[b])
    e = np.empty((6,) + s.shape, complex)
    np.exp(s * (mu + lam), out=e[3:])
    with np.errstate(all="ignore"):    # a zero gap's quotients are not read
        inv = 1.0 / gap
        g = (e[3:][a] - e[3:][b]) * inv
        for k in range(3):
            near = s * np.abs(gap[k]) <= _SCHUR_SERIES
            g[k][near] = _cs_series(s[near], *(np.broadcast_to(x[k], s.shape)
                                               [near] for x in (mid, gap / 2)))[1]
        wide = np.abs(gap).argmax(axis=0)[None]   # over gap 01: G_02 - G_12
        two = np.take_along_axis(g, np.array([2, 0, 0])[wide], 0)[0] \
            - np.take_along_axis(g, np.array([1, 2, 1])[wide], 0)[0]
        two *= np.take_along_axis(inv, wide, 0)[0] * t[1] * t[2]
    e[0] = t[0] * g[2] + two
    e[1:3] = t[1:3] * g[:2]
    return e


def _eval_from_stacks(system: EllipticSystem, stacks: dict, s: np.ndarray):
    """The fields of Khat = expm(i s G) from :func:`_expm_stacks` for
    heights-by-nodes s (L, B), each element by its own height and node: for
    M = 2 (C, S), each (L, B), of Khat = C I + S X0 (:func:`_cosh_sinhc`);
    for M = 3 E (6, L, B) of Khat = Q E Q^H, by :func:`_schur_series` where
    s max |T_ii - T_jj| <= _SCHUR_SERIES, else :func:`_schur_quotients`."""
    if stacks["g"].shape[0] == 2:
        return _cosh_sinhc(stacks, s)
    mu, t = stacks["mu"], stacks["t"]
    near = s * np.abs(t[3:] - t[[4, 5, 3]]).max(axis=0) <= _SCHUR_SERIES
    if near.all():
        return _schur_series(s, mu, t[:, None], np.s_[...])
    e = _schur_quotients(s, mu, t[:, None])
    if near.any():                  # the series elements' quotients drop
        e[:, near] = _schur_series(s[near], mu, t, np.nonzero(near)[1])
    return e


class _DirectionEvaluator:
    """The solvent table of one system (module notes): G at the Q directions
    of :func:`_unit_circle`, whose floats doubling Q keeps, so a circle of
    q <= Q nodes reads table entries.  It holds what depends on the system
    alone: ``root_margin``, min Im spec G over the first 2 (n = 2) or
    _TRAPEZOID_MIN solves, and ``tail``, set by :func:`tail_constant`."""

    def __init__(self, system: EllipticSystem):
        q = 2 if system.n == 2 else _TRAPEZOID_MIN
        self.g = _solvent_stacks(system, _unit_circle(system.n - 1, q))
        self.root_margin = float(np.linalg.eigvals(self.g).imag.min())
        self.tail = None
        last = np.inf
        while system.n == 3:
            mid = _solvent_stacks(system, _unit_circle(2, 2 * q)[1::2])
            err = np.abs(self.at(2.0 * np.pi * np.arange(1, 2 * q, 2) / (2 * q)) - mid)
            if err.max() <= _TABLE_TOL * np.abs(self.g).max():
                break
            plateau = err.max() / np.abs(self.g).max()
            if not plateau < last or 2 * q > _TRAPEZOID_MAX:
                raise OutOfDomain(
                    "the solvent table of %s stops at %.1e of max |G| with %d "
                    "angles, root margin %.3g: use a system with a larger margin"
                    % (system.label, plateau, q, self.root_margin))
            last = plateau
            self.g = np.stack([self.g, mid], 1).reshape((2 * q,) + mid.shape[1:])
            q *= 2

    def at(self, theta) -> np.ndarray:
        """G at angles theta (P,) by the barycentric interpolant sum_k w_k G_k /
        sum_k w_k, w_k = (-1)^k cot((theta - theta_k) / 2) (Berrut & Trefethen,
        SIAM Rev. 46, 2004), G_k at theta_k; one row product per point."""
        Q, M = len(self.g), self.g.shape[-1]
        flat = self.g.reshape(Q, -1)
        signed = np.hstack([flat.real, flat.imag, np.ones((Q, 1))]) \
            * (-1.0) ** np.arange(Q)[:, None]
        theta = np.asarray(theta, dtype=float)[:, None]
        sums = np.empty((len(theta), signed.shape[1]))
        for rows in np.array_split(np.arange(len(theta)), max(1, len(theta) * Q >> 16)):
            with np.errstate(divide="ignore"):
                w = 1.0 / np.tan(0.5 * (theta[rows] - 2.0 * np.pi * np.arange(Q) / Q))
            hit = np.isinf(w).any(axis=1)
            w[hit] = np.isinf(w[hit])
            sums[rows] = (w[:, None] @ signed)[:, 0]
        return ((sums[:, :M * M] + 1j * sums[:, M * M:-1])
                / sums[:, -1:]).reshape(-1, M, M)


def _solvents(system: EllipticSystem) -> _DirectionEvaluator:
    """The solvent table of ``system``, built on first use and held on it."""
    return vars(system).get("_solvents") or vars(system).setdefault(
        "_solvents", _DirectionEvaluator(system))


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
    xi = 0: for M = 2 only G, X0, mu and delta, what the closed form and
    :meth:`PreparedSymbol.dt` read."""
    x = xi[:, 0]
    side = np.where(x > 0.0, 0, np.where(x < 0.0, 1, 2))
    pair = _solvents(system).g
    g = np.concatenate([pair, np.zeros_like(pair[:1])])
    return {key: v[..., side] for key, v in _expm_stacks(g).items()}


def _general_batch(system: EllipticSystem, xi: np.ndarray) -> dict:
    """Generator of any n, M: the solvent G(xi/|xi|) of every node, read
    from the system's table at the node's angle (0 or pi for n = 2), zero at
    xi = 0, in the layout of :func:`_expm_stacks`."""
    nz = np.linalg.norm(xi, axis=1) > 0.0
    g = np.zeros((len(xi), system.M, system.M), dtype=complex)
    g[nz] = _solvents(system).at(np.arctan2(xi[nz, 1:].sum(1), xi[nz, 0]))
    return _expm_stacks(g)


def _unit_circle(d: int, count: int) -> np.ndarray:
    """``count`` equally spaced unit vectors of R^d, d <= 2."""
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)[:, :d]


def _node_counts(system: EllipticSystem, radii: np.ndarray) -> np.ndarray:
    """Nodes for points at |y| = radii by the rule of the module notes."""
    need = _TRAPEZOID_RATE * (1.0 + radii) / _solvents(system).root_margin
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
    top = int(counts.max())
    omega = _unit_circle(d, top)
    h = -_solvents(system).at(2.0 * np.pi * np.arange(top) / top)
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


def tail_constant(system: EllipticSystem) -> float:
    """sup ||P(y)||_2 (1 + |y|^2)^(n/2), operator norm, of the closed-form
    kernel for |y| <= 40: the best of 32 rays (+-1 for n = 2) at |y| = 0
    and 40 radii to 40, raised by _POLISH_ROUNDS grids of 5 radii (by 5
    angles for n = 3) around the best point, each a quarter as wide.  It
    depends on the system alone: computed on first request and held with
    the system's solvent table."""
    table = _solvents(system)
    if table.tail is not None:
        return table.tail
    d, rays = system.n - 1, 2 if system.n == 2 else 32

    def best_of(angle, radius):
        angle, radius = [a.ravel() for a in np.meshgrid(angle, radius)]
        y = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)[:, :d]
        mag = np.linalg.norm(_closed_form_kernel(system, y), 2, (1, 2))
        values = mag * (1.0 + (y * y).sum(axis=1)) ** (0.5 + 0.5 * d)
        return max(zip(values, angle, radius), key=lambda v: v[0])

    best = best_of(2.0 * np.pi * np.arange(rays) / rays,
                   np.concatenate([[0.0], np.geomspace(1.0 / 16, 40.0, 40)]))
    step = np.outer([2.0 * np.pi / rays * (d - 1), max(0.2 * best[2], 1 / 16)],
                    np.linspace(-1.0, 1.0, 5))
    for k in range(_POLISH_ROUNDS):
        grid = np.array(best[1:])[:, None] + step / 4 ** k
        near = best_of(np.unique(grid[0]), np.unique(np.clip(grid[1], 0, 40)))
        best = near if near[0] > best[0] else best
    table.tail = float(best[0])
    return table.tail


class PreparedSymbol:
    """Symbol evaluator for a fixed frequency set, the one path to Khat.

    ``stacks`` holds one generator per node, zero at xi = 0: the upper root
    tau for M = 1, else the solvent G(xi/|xi|) from the system's table in
    the layout of :func:`_expm_stacks`.  :meth:`levels` evaluates every
    height of a solve at once, :meth:`action` applies Khat to many blocks,
    and :meth:`dt`, the generator product, is the one d/dt rule.  Nothing
    is kept per height."""

    def __init__(self, system: EllipticSystem, xi_nodes: np.ndarray):
        self.system = system
        self.xi = np.asarray(xi_nodes, dtype=float)
        self.norms = np.linalg.norm(self.xi, axis=1)
        self._results: dict = {}   # always empty; the benchmark clears it
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

    def levels(self, heights) -> np.ndarray:
        """Khat at every height, shape (M, M, L, B) with the nodes last;
        for M = 2 formed as C I + S X0 from the closed form's two fields,
        for M = 3 as Q E Q^H from the six fields of E."""
        heights = np.asarray(heights, dtype=float)
        if self.system.M == 1:
            k = np.exp(np.multiply.outer(heights, 1j * self.stacks["tau"]))
            return k[None, None]
        s = np.multiply.outer(heights, self.norms)
        if self.system.M == 2:
            c, sh = _eval_from_stacks(self.system, self.stacks, s)
            k = sh * self.stacks["x0"][:, :, None]
            k[0, 0] += c
            k[1, 1] += c
            return k
        return self._schur_product(_eval_from_stacks(self.system, self.stacks,
                                                     s), np.eye(3)[:, :, None])

    def action(self, heights, want_dt: bool = False):
        """The map v -> (Khat v, d/dt Khat v), each (L, M, B), at every
        height for blocks v (M, B) with the nodes last; the derivative is
        None unless ``want_dt`` is set.  The exponential is evaluated once,
        here, for all blocks: the levels and their :meth:`dt` for M = 1, C
        and S for M = 2 (a block is C v + S (X0 v)), E for M = 3 (Q (E (Q^H
        v))); for M > 1 the derivative is :meth:`dt` of the block."""
        if self.system.M == 1:     # einsum keeps the contraction's bytes
            k = self.levels(heights)
            ks = (k, self.dt(k) if want_dt else None)
            return lambda v: tuple(
                a if a is None else np.einsum("ijlb,jb->lib", a, v) for a in ks)
        s = np.multiply.outer(heights, self.norms)
        fields = _eval_from_stacks(self.system, self.stacks, s)

        def act(v):
            if self.system.M == 3:
                w = self._schur_product(fields, v[:, None])
            else:
                c, sh = fields
                w = c * v[:, None, None] + sh * _soa_matmul(
                    self.stacks["x0"], v[:, None])[:, :, None]
            return w[:, 0].swapaxes(0, 1), (
                self.dt(w)[:, 0].swapaxes(0, 1) if want_dt else None)

        return act

    def _schur_product(self, e: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Q (E (Q^H v)), (3, p, L, B), for fields E (6, L, B), block v (3, p, B)."""
        q = self.stacks["q"]
        u = _soa_matmul(q.conj().swapaxes(0, 1), v)[:, :, None]
        w = e[3:, None] * u                    # the diagonal, then the rest
        for f, a, b in zip(e[:3], *_FIELDS):
            w[a] += f * u[b]
        return _soa_matmul(q[:, :, None], w)

    def dt(self, k: np.ndarray) -> np.ndarray:
        """d/dt of a stack (M, p, L, B) of :meth:`levels` or of an action
        block, the one t-derivative rule: the generator product
        (i |xi'| G) k, or i tau k for M = 1."""
        if self.system.M == 1:
            return 1j * self.stacks["tau"] * k
        return _soa_matmul(1j * self.stacks["g"][:, :, None], k) * self.norms


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


def symbol_batch(system: EllipticSystem, xi_nodes: np.ndarray, t: float,
                 want_dt: bool = False):
    """Khat(xi', t), (B, M, M), for frequencies (B, n-1) and t >= 0, with
    its exact t-derivative when ``want_dt`` is set: the orders (0, ..., 0)
    and (0, ..., 0, 1) of :func:`_derivative_levels`."""
    zero = (0,) * system.n
    alphas = [zero, zero[:-1] + (1,)] if want_dt else [zero]
    out = _derivative_levels(system, xi_nodes, [t], alphas)[:, :, 0]
    return (out[:, 0], out[:, 1]) if want_dt else out[:, 0]


def _derivative_levels(system: EllipticSystem, xi_nodes, heights,
                       alphas) -> np.ndarray:
    """d^alpha Khat(xi', t), (B, A, L, M, M), for each of the A multi-indices
    ``alphas`` at every height for finite frequencies (B, n-1): one uncached
    :class:`PreparedSymbol` per ``_SYMBOL_CHUNK`` nodes serves them all, its
    generator applied alpha_n times, times (i xi')^alpha' unless alpha' = 0;
    a node set solved again goes through :func:`prepared_symbol` instead."""
    alphas = [tuple(int(x) for x in alpha) for alpha in alphas]
    if any(len(alpha) != system.n for alpha in alphas):
        raise BadShape("alpha must have length n")
    if any(alpha[-1] > 2 for alpha in alphas):
        raise BadShape("vertical derivative order limited to 2")
    xi_nodes = np.asarray(xi_nodes, dtype=float)
    if xi_nodes.ndim != 2 or xi_nodes.shape[1] != system.n - 1:
        raise BadShape("xi_nodes must have shape (B, n-1)")
    bad = np.flatnonzero(~np.isfinite(xi_nodes).all(axis=1))
    if len(bad):
        raise BadShape("xi_nodes must be finite, node %d is %s"
                       % (bad[0], xi_nodes[bad[0]].tolist()))
    if not np.all(np.isfinite(heights) & (np.asarray(heights) >= 0)):
        raise BadShape("t must be finite and nonnegative")
    M = system.M
    out = np.empty((len(xi_nodes), len(alphas), len(heights), M, M),
                   dtype=complex)
    for start in range(0, len(xi_nodes), _SYMBOL_CHUNK):
        sl = slice(start, start + _SYMBOL_CHUNK)
        prep = PreparedSymbol(system, xi_nodes[sl])
        vertical = [prep.levels(heights)]
        while len(vertical) <= max(alpha[-1] for alpha in alphas):
            vertical.append(prep.dt(vertical[-1]))
        for j, alpha in enumerate(alphas):
            out[sl, j] = vertical[alpha[-1]].transpose(3, 2, 0, 1)
    for j, alpha in enumerate(alphas):
        if any(alpha[:-1]):
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
    spatial order.  alpha = None means the kernel itself.  All heights take
    one symbol pass and one unshifted inverse FFT.
    """
    if alpha is None:
        alpha = (0,) * system.n
    return _synthesize_derivatives(system, grid, heights, [alpha])[0]


def _synthesize_derivatives(system: EllipticSystem, grid: Grid, heights,
                            alphas) -> np.ndarray:
    """d^alpha K(., t), (A, L, *grid.shape, M, M), for each of ``alphas`` and
    each height: one symbol pass, times sigma, and one unshifted inverse."""
    spec = _derivative_levels(system, grid.freq_nodes_fftorder(), heights,
                              alphas)
    spec *= grid.shift_signs()[:, None, None, None, None]
    out = np.empty(spec.shape[1:3] + grid.shape + spec.shape[3:], complex)
    _ifft_unshifted_into(spec.reshape(grid.shape + spec.shape[1:]), grid,
                         range(grid.d), np.moveaxis(out, (0, 1), (-4, -3)))
    return out


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


def _pole_panels(system: EllipticSystem, R: float) -> np.ndarray:
    """Panels (2, K), left and right ends in ascending order, that tile
    [-R, R] for the n = 2 window mass: breakpoints at +-R and at the real
    parts of the poles of P, -spec G(+1) and spec G(-1), each at least the
    root margin off the real axis; a panel is halved until its nearest pole
    lies _POLE_GRADING half-widths or more from its centre."""
    g = _solvents(system).g
    poles = np.concatenate([-np.linalg.eigvals(g[0]), np.linalg.eigvals(g[1])])
    edges = np.unique(np.clip(np.append(poles.real, (-R, R)), -R, R))
    lo, hi, done = edges[:-1], edges[1:], []
    while len(lo):
        mid = 0.5 * (lo + hi)
        far = _POLE_GRADING * 0.5 * (hi - lo) \
            <= np.abs(mid[:, None] - poles).min(axis=1)
        done.append(np.stack([lo[far], hi[far]]))
        lo, mid, hi = lo[~far], mid[~far], hi[~far]
        lo, hi = np.append(lo, mid), np.append(mid, hi)
    done = np.concatenate(done, axis=1)
    return done[:, np.argsort(done[0])]


def _window_mass(system: EllipticSystem, R: float) -> np.ndarray:
    """W_R = int P over [-R, R]^(n-1), (M, M), by Gauss-Legendre on panels of
    _GAUSS_PANEL nodes: for n = 2 of P on the :func:`_pole_panels`, for
    n = 3 of the flux of F out of the box, as many equal panels per side as
    the node rule gives at |y| = R."""
    x, w = _GAUSS_RULE
    if system.n == 2:
        lo, hi = _pole_panels(system, R)
        mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
        t = (mid + half * x).ravel()
        return np.einsum("k,kij->ij", (half * w).ravel(),
                         _closed_form_kernel(system, t[:, None]))
    panels = int(_node_counts(system, np.array([R]))[0]) // _GAUSS_PANEL
    half = R / panels                           # panel half-width
    t = (half * (2 * np.arange(panels)[:, None] + 1 + x) - R).ravel()
    w = half * np.resize(w, len(t))
    r = np.full_like(t, R)
    f = _closed_form_kernel(system, np.concatenate(
        [np.stack(p, axis=1) for p in ((r, t), (-r, t), (t, r), (t, -r))]),
        div_field=True).reshape((4, len(t), 2) + (system.M,) * 2)
    flux = f[0, :, 0] - f[1, :, 0] + f[2, :, 1] - f[3, :, 1]
    return np.einsum("k,kij->ij", w, flux)


def build_poisson_kernel(system: EllipticSystem, freq_extent: float | None = None,
                         N: int = 1024, *,
                         normalization_tol: float | None = 1e-3):
    """(PoissonSymbolTable, PoissonKernelGrid): Phat on N^(n-1) frequencies
    and P by the closed form on the dual grid over [-R, R)^(n-1), h = pi /
    freq_extent, equal to ``kernel_at(kernel, y, 1.0)`` bit for bit.  N must
    be a power of two.  The guard: |Phat| < _BOUNDARY_TOL on every node with
    |xi'| >= 0.98 freq_extent, evaluated on those nodes alone.  A given
    extent is checked once; else it doubles from _EXTENT_START until the
    guard passes.  The table is then evaluated once.  The report's mass
    residual compares the window sum with W_R of :func:`_window_mass`, on
    pole-graded panels in n = 2 and as a flux on equal panels in n = 3."""
    if N & (N - 1):
        raise BadShape("N must be a power of two")
    if system.n not in (2, 3):
        raise BadShape("kernel tables cover n = 2 and 3, not %d" % system.n)
    d, M = system.n - 1, system.M
    extent = _EXTENT_START if freq_extent is None else freq_extent
    while True:
        grid = Grid(n=system.n, N=N, h=np.pi / extent)
        nodes = grid.freq_nodes_fftorder()
        edge = np.linalg.norm(nodes, axis=1) >= 0.98 * extent
        boundary = float(np.abs(symbol_batch(system, nodes[edge], 1.0)).max())
        if boundary < _BOUNDARY_TOL:
            break
        if freq_extent is not None or 2.0 * extent > _XI_CAP:
            raise InsufficientDecay(
                "boundary symbol magnitude %.2e >= %.1e at frequency extent "
                "%g" % (boundary, _BOUNDARY_TOL, extent))
        extent *= 2.0
    spec = symbol_batch(system, nodes, 1.0)
    table_values = np.fft.fftshift(spec.reshape(grid.shape + (M, M)),
                                   axes=tuple(range(d)))

    # exponential decay rate of the tabulated symbol over meshgrid radii
    # (the node norms differ from them in the last bit and would move it)
    fr = np.sqrt(sum(m * m for m in np.meshgrid(
        *[(np.arange(N) - N // 2) * (2 * extent / N)] * d,
        indexing="ij")))
    mag = np.abs(table_values).max(axis=(-2, -1))
    band = (fr >= 0.25 * extent) & (fr <= 0.75 * extent) & (mag > 0)
    decay_rate = -float(np.polyfit(fr[band], np.log(mag[band]), 1)[0])
    if decay_rate <= 0:
        raise InsufficientDecay("fitted symbol decay rate is not positive")

    y = np.stack([m.ravel() for m in grid.meshes()], axis=1)
    values = _closed_form_kernel(system, y).reshape(grid.shape + (M, M))
    # spatial tail constant sup |P| (1+|x|^2)^(n/2) over the delivered grid
    weight = (1.0 + (y * y).sum(axis=1)) ** (0.5 * system.n)
    tail = float((weight * np.abs(values).max((-2, -1)).ravel()).max())

    # the periodised table has mass Phat(0); the window sum plus the mass
    # I - W_R beyond the window misses I by the window quadrature error alone
    res_full = float(np.abs(table_values[(N // 2,) * d] - np.eye(M)).max())
    window = values.reshape(-1, M, M).sum(axis=0) * grid.cell_volume
    res_corr = float(np.abs(window - _window_mass(system, grid.R)).max())
    if normalization_tol is not None and res_corr > normalization_tol:
        raise InsufficientDecay(
            "tail-corrected normalisation residual %.2e exceeds %.1e"
            % (res_corr, normalization_tol))
    return (PoissonSymbolTable(system=system, freq_extent=float(extent),
                               N=N, values=table_values, decay_rate=decay_rate),
            PoissonKernelGrid(system=system, grid=grid, values=values,
                              tail_constant=tail,
                              normalization_residual=res_corr,
                              normalization_residual_full=res_full,
                              meta={"freq_extent": float(extent),
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
    differenced axis loses one boundary layer per side): each difference
    reads slices of ``values`` at the interior points and their neighbours.
    """
    n = coeffs.shape[-1]
    arr_axis = [1 + r for r in range(n - 1)] + [0]   # coefficient -> array axis
    sizes = values.shape[:n]

    def near(*steps):
        """``values`` at the interior points moved by (axis, step) pairs."""
        move = [dict(steps).get(a, 0) for a in range(n)]
        return values[tuple(slice(1 + k, size - 1 + k)
                            for k, size in zip(move, sizes))]

    out = np.zeros(near().shape[:-1] + (coeffs.shape[0],), dtype=complex)
    for r in range(n):
        for s in range(n):
            c = coeffs[:, :, r, s]
            if not np.any(c):
                continue
            ar, as_ = arr_axis[r], arr_axis[s]
            if r == s:
                d2 = (near((ar, 1)) + near((ar, -1))
                      - 2.0 * near()) / spacings[r] ** 2
            else:
                d2 = (near((ar, 1), (as_, 1)) - near((ar, 1), (as_, -1))
                      - near((ar, -1), (as_, 1)) + near((ar, -1), (as_, -1))) \
                    / (4.0 * spacings[r] * spacings[s])
            out += np.einsum("ab,...b->...a", c, d2)
    return out


def interior_pde_residual(system: EllipticSystem, h: float = 1.0 / 16,
                          N: int = 256) -> float:
    """Max-norm residual of the discrete operator on kernel columns.

    Kernel columns are synthesised spectrally on a stack of uniformly spaced
    heights around t = 1 and hit with second-order centered differences, so
    the result, the maximum over |x'| <= 2, isolates the O(h^2) truncation
    of the stencil.
    """
    grid = Grid(n=system.n, N=N, h=h)
    levels = 1.0 + h * np.arange(-4, 5)
    stack = synthesize_kernel_levels(system, grid, levels)
    M = system.M
    mask = grid.radii() <= 2.0
    mask = mask[tuple(slice(1, -1) for _ in range(grid.d))]
    res = 0.0
    for col in range(M):
        vals = stack[..., :, col]          # (T, *spatial, M)
        out = discrete_operator(vals, [h] * system.n, system.coeffs)
        interior = np.abs(out).max(axis=-1)[:, mask]
        res = max(res, float(interior.max()))
    return res


def classical_oracle_residual(kernel: PoissonKernelGrid) -> float | None:
    """Error on |x'| <= 5 against a classical kernel; None for systems that
    have none.  For the flat Laplacian it is the pointwise relative error
    against the harmonic kernel (1 + |x'|^2)^(-n/2) / ((n - 1) pi).  A Lame
    tensor is recognised from its coefficients, mu = a[0, 0, 1, 1] and
    lambda + mu = a[0, 1, 0, 1], by an exact match with the Lame tensor of
    those moduli; its error is normwise, max |P - P_exact| / max |P_exact|,
    against P_exact = a |x|^-n I + b x x^T |x|^(-n-2), x = (x', 1), a = 4 mu
    / ((3 mu + lambda) w), b = 2 n (mu + lambda) / ((3 mu + lambda) w), w =
    |S^(n-1)| (the Lame example of Martell, D. Mitrea, I. Mitrea & M.
    Mitrea)."""
    system = kernel.system
    n, coeffs = system.n, system.coeffs
    r2 = sum(m * m for m in kernel.grid.meshes())
    sel = r2 <= 25.0
    if np.array_equal(coeffs, np.eye(n)[None, None]):
        exact = (1.0 + r2[sel]) ** (-0.5 * n) / ((n - 1) * np.pi)
        return float((np.abs(kernel.values[..., 0, 0][sel] - exact)
                      / exact).max())
    if system.M != n:
        return None
    mu, lam = coeffs[0, 0, 1, 1], coeffs[0, 1, 0, 1] - coeffs[0, 0, 1, 1]
    if not np.array_equal(coeffs, _lame_tensor(mu, lam, n)):
        return None
    sphere = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    a = 4.0 * mu / ((3.0 * mu + lam) * sphere)
    b = 2.0 * n * (mu + lam) / ((3.0 * mu + lam) * sphere)
    x = np.stack([m[sel] for m in kernel.grid.meshes()]
                 + [np.ones(np.count_nonzero(sel))], axis=1)
    xx = (1.0 + r2[sel])[:, None, None]
    exact = a * xx ** (-0.5 * n) * np.eye(n) \
        + b * x[:, :, None] * x[:, None, :] * xx ** (-0.5 * n - 1.0)
    return float(np.abs(kernel.values[sel] - exact).max()
                 / np.abs(exact).max())


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
            "classical_oracle_rel_error", oracle, 1e-4 if M == 1 else 1e-10,
            "le", "tabulated kernel matches the closed-form harmonic kernel"
            if M == 1 else "tabulated kernel matches the classical Lame "
            "kernel, normwise"))

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

    # far-field decay slope of |P| on the band 10 <= |x'| <= 0.9 R
    def far_band(grid):
        rad = grid.radii()
        return rad, (rad >= 10.0) & (rad <= 0.9 * grid.R)

    g = kernel.grid
    rad, band = far_band(g)
    mag = np.abs(kernel.values).max(axis=(-2, -1))
    band &= mag > 0
    if np.count_nonzero(band) < 2:
        need = 2 * g.N
        while np.count_nonzero(far_band(Grid(system.n, need, g.h))[1]) < 2:
            need *= 2
        raise OutOfDomain(
            "far-field band 10 <= |x'| <= 0.9 R is empty for R = %.3g; raise "
            "N to %d, the least power of two whose window holds two band "
            "points at h = %.3g" % (g.R, need, g.h))
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
    k = _derivative_levels(system, xi, [0.3, 0.7, 1.0], [(0,) * system.n])
    worst = float(np.abs(k[:, 0, 2] - k[:, 0, 0] @ k[:, 0, 1]).max())
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
