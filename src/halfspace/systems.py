"""Constant complex-coefficient second-order elliptic systems.

A system is stored as the four-index tensor ``a[alpha, beta, r, s]`` acting
through ``(L u)_alpha = a[alpha, beta, r, s] d_r d_s u_beta`` (summation over
repeated indices).  The characteristic matrix is

    sym(xi)[alpha, beta] = a[alpha, beta, r, s] xi_r xi_s,

and ellipticity means ``Re(sym(xi) eta . conj(eta)) >= c |xi|^2 |eta|^2`` for
all real xi and complex eta, for some margin c > 0.  Splitting
``xi = (xi', tau)`` with tau dual to the vertical coordinate yields a
quadratic matrix pencil in tau whose root structure drives the Poisson
kernel construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, EllipticityViolation, ImproperSplit, RealAxisRoot

__all__ = [
    "EllipticSystem",
    "SymbolPencil",
    "RootSplit",
    "build_system",
    "ellipticity_constant",
    "symbol_pencil",
    "characteristic_roots",
    "real_axis_tolerance",
]

#: roots closer than ``REAL_AXIS_TOL * (1 + |xi'|)`` to the real axis are
#: treated as an ellipticity failure
REAL_AXIS_TOL = 1e-8

#: the margin refinement stops once no start falls by more than
#: ``_REFINE_RTOL * max(1, |lambda|)`` in an iteration, or after
#: ``_REFINE_MAXITER`` iterations
_REFINE_RTOL = 1e-15
_REFINE_MAXITER = 200


def real_axis_tolerance(xi_norm):
    return REAL_AXIS_TOL * (1.0 + np.asarray(xi_norm, dtype=float))


@dataclass(frozen=True)
class EllipticSystem:
    """Validated coefficient tensor with its estimated ellipticity margin."""

    n: int
    M: int
    coeffs: np.ndarray              # complex, shape (M, M, n, n)
    ellipticity_margin: float
    label: str = "raw"

    def symbol(self, xi: np.ndarray) -> np.ndarray:
        """Characteristic matrix sym(xi), an (M, M) complex array."""
        xi = np.asarray(xi, dtype=float)
        return np.einsum("abrs,r,s->ab", self.coeffs, xi, xi)

    def key(self) -> tuple:
        """Hashable fingerprint used for caching derived tables."""
        return (self.n, self.M, self.coeffs.tobytes())

    def __repr__(self):
        return "EllipticSystem(%s, n=%d, M=%d, margin=%.3g)" % (
            self.label, self.n, self.M, self.ellipticity_margin)


@dataclass(frozen=True)
class SymbolPencil:
    """Quadratic pencil sym(xi', tau) = M2 tau^2 + M1 tau + M0."""

    xi_prime: np.ndarray
    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray

    def __call__(self, tau: complex) -> np.ndarray:
        return self.M2 * tau * tau + self.M1 * tau + self.M0

    @property
    def M(self) -> int:
        return self.M0.shape[0]


@dataclass(frozen=True)
class RootSplit:
    """Characteristic roots partitioned by the sign of their imaginary part."""

    upper: np.ndarray   # Im > 0, with multiplicity, length M
    lower: np.ndarray   # Im < 0, length M

    @property
    def margin(self) -> float:
        """Smallest distance of any root from the real axis."""
        return float(min(self.upper.imag.min(), -self.lower.imag.max()))


def _hermitian_part_stack(coeffs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Hermitian parts of sym(xi) for a stack of directions xi (B, n)."""
    sym = np.einsum("abrs,kr,ks->kab", coeffs, xi, xi)
    return 0.5 * (sym + np.conj(np.swapaxes(sym, -1, -2)))


def _refine_margin(coeffs: np.ndarray, xi: np.ndarray) -> tuple:
    """Alternating minimisation of F(xi, v) = v^H Herm sym(xi) v over unit
    xi and v from a stack of starts xi (K, n): (values (K,), minimisers).

    F is a Hermitian form in v for fixed xi and a real quadratic form
    xi^T Q(v) xi in xi for fixed v, so each half-step is an exact
    minimisation by a bottom eigenvector and F never increases.  This needs
    no gradient and stops where eigenvalues cross as anywhere else."""
    # Hermitian in (alpha, beta) and symmetric in (r, s): Q(v) is real symmetric
    sym = 0.5 * (coeffs + np.swapaxes(coeffs, 2, 3))
    blocks = 0.5 * (sym + np.conj(np.swapaxes(sym, 0, 1)))
    w, vecs = np.linalg.eigh(_hermitian_part_stack(coeffs, xi))
    best, best_xi = w[:, 0], xi
    for _ in range(_REFINE_MAXITER):
        v = vecs[:, :, 0]
        Q = np.einsum("ka,abrs,kb->krs", np.conj(v), blocks, v).real
        xi = np.linalg.eigh(Q)[1][:, :, 0]
        w, vecs = np.linalg.eigh(_hermitian_part_stack(coeffs, xi))
        drop = best - w[:, 0]
        better = drop > 0.0
        best = np.where(better, w[:, 0], best)
        best_xi = np.where(better[:, None], xi, best_xi)
        if not np.any(drop > _REFINE_RTOL * np.maximum(1.0, np.abs(best))):
            break
    return best, best_xi


def _margin_and_direction(coeffs: np.ndarray, samples: int,
                          seed: int) -> tuple:
    """(margin, unit xi attaining it) from the sphere sweep and refinement."""
    n = coeffs.shape[-1]
    if samples < 1000:
        samples = 1000
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((samples, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    # include the coordinate directions and diagonals
    extra = np.vstack([np.eye(n), -np.eye(n),
                       np.ones((1, n)) / np.sqrt(n)])
    xi = np.vstack([xi, extra])

    herm = _hermitian_part_stack(coeffs, xi)
    mins = np.linalg.eigvalsh(herm)[:, 0] / np.einsum("kr,kr->k", xi, xi)
    floor = int(np.argmin(mins))
    values, minimisers = _refine_margin(coeffs, xi[np.argsort(mins)[:3]])
    k = int(np.argmin(values))
    if values[k] < mins[floor]:
        return float(values[k]), minimisers[k]
    return float(mins[floor]), xi[floor]


def ellipticity_constant(system_or_coeffs, samples: int = 2048,
                         seed: int = 0) -> float:
    """Estimate the ellipticity margin by a seeded sphere sweep.

    Minimises ``lambda_min(Herm sym(xi)) / |xi|^2`` over unit directions:
    the eigenvalue handles the minimisation over complex eta exactly, the
    xi sphere is sampled pseudo-randomly and the three worst samples are
    refined together by alternating exact minimisation over eta and xi
    (each a bottom eigenvector).  The result never exceeds the sampled
    minimum and is deterministic for a fixed seed.  It is an estimate, not
    a certified global minimum: a start can stall at a local minimum.
    """
    if isinstance(system_or_coeffs, EllipticSystem):
        coeffs = system_or_coeffs.coeffs
    else:
        coeffs = np.asarray(system_or_coeffs, dtype=complex)
    return _margin_and_direction(coeffs, samples, seed)[0]


def _validate_tensor(coeffs: np.ndarray) -> tuple:
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 4:
        raise BadShape("coefficient tensor must have four indices")
    M, M2, n, n2 = coeffs.shape
    if M != M2 or n != n2:
        raise BadShape("tensor must have shape (M, M, n, n), got %r"
                       % (coeffs.shape,))
    if n < 2 or M < 1:
        raise BadShape("need n >= 2 and M >= 1")
    if not np.all(np.isfinite(coeffs)):
        raise BadShape("tensor entries must be finite")
    return coeffs, n, M


def _lame_tensor(mu: complex, lam: complex, n: int) -> np.ndarray:
    delta = np.eye(n)
    a = np.zeros((n, n, n, n), dtype=complex)
    a += mu * np.einsum("rs,ab->abrs", delta, delta)
    a += (lam + mu) * np.einsum("ra,sb->abrs", delta, delta)
    return a


def build_system(kind: str, *, n: int = 2, A=None, tensor=None,
                 mu: complex = 1.0, lam: complex = 1.0) -> EllipticSystem:
    """Construct and validate a builtin or raw system.

    kind is one of ``laplacian``, ``scalar`` (requires A, an n-by-n complex
    matrix for div A grad), ``lame`` (requires mu, lam) or ``raw`` (requires
    the full tensor).  Validation estimates the ellipticity margin (the
    default sweep of :func:`ellipticity_constant`) and rejects the system
    when the estimate does not exceed 1e-8.
    """
    if kind == "laplacian":
        coeffs = np.eye(n)[None, None] * 1.0 + 0j
        coeffs = coeffs.reshape(1, 1, n, n)
        label = "laplacian(n=%d)" % n
    elif kind == "scalar":
        if A is None:
            raise BadShape("scalar system requires the matrix A")
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadShape("A must be square")
        n = A.shape[0]
        coeffs = A.reshape(1, 1, n, n)
        label = "scalar(n=%d)" % n
    elif kind == "lame":
        coeffs = _lame_tensor(complex(mu), complex(lam), n)
        label = "lame(mu=%s, lambda=%s, n=%d)" % (mu, lam, n)
    elif kind == "raw":
        if tensor is None:
            raise BadShape("raw system requires the tensor")
        coeffs, n, _ = _validate_tensor(tensor)
        label = "raw"
    else:
        raise BadShape("unknown system kind %r" % (kind,))

    coeffs, n, M = _validate_tensor(coeffs)
    margin, xi = _margin_and_direction(coeffs, 2048, 0)
    if not margin > 1e-8:
        xi = xi * np.sign(xi[np.argmax(np.abs(xi))]) + 0.0
        raise EllipticityViolation(
            "estimated ellipticity margin %.3g <= %.3g for %s, attained at "
            "the unit direction xi = (%s): make the Hermitian part of "
            "sym(xi) = a[:, :, r, s] xi_r xi_s exceed the tolerance there"
            % (margin, 1e-8, label, ", ".join("%.4g" % x for x in xi)))
    return EllipticSystem(n=n, M=M, coeffs=coeffs,
                          ellipticity_margin=margin, label=label)


def symbol_pencil(system: EllipticSystem, xi_prime) -> SymbolPencil:
    """Pencil of sym(xi', tau) in the vertical frequency tau."""
    xi_prime = np.atleast_1d(np.asarray(xi_prime, dtype=float))
    if xi_prime.shape != (system.n - 1,):
        raise BadShape("xi_prime must have length n - 1")
    a = system.coeffs
    n = system.n
    M2 = a[:, :, n - 1, n - 1].copy()
    M1 = np.einsum("abr,r->ab", a[:, :, : n - 1, n - 1], xi_prime) \
        + np.einsum("abs,s->ab", a[:, :, n - 1, : n - 1], xi_prime)
    M0 = np.einsum("abrs,r,s->ab", a[:, :, : n - 1, : n - 1],
                   xi_prime, xi_prime)
    return SymbolPencil(xi_prime=xi_prime, M0=M0, M1=M1, M2=M2)


def companion_matrix(pencil: SymbolPencil) -> np.ndarray:
    """2M-by-2M companion linearisation of the quadratic pencil."""
    M = pencil.M
    C = np.zeros((2 * M, 2 * M), dtype=complex)
    C[:M, M:] = np.eye(M)
    M2inv_M0 = np.linalg.solve(pencil.M2, pencil.M0)
    M2inv_M1 = np.linalg.solve(pencil.M2, pencil.M1)
    C[M:, :M] = -M2inv_M0
    C[M:, M:] = -M2inv_M1
    return C


def characteristic_roots(pencil: SymbolPencil) -> RootSplit:
    """Roots of det sym(xi', tau) = 0 split by half-plane.

    Uses the companion linearisation; raises RealAxisRoot when a root sits
    within the scale-invariant tolerance of the real axis (numerical
    ellipticity failure at this frequency) and ImproperSplit when the
    half-plane counts differ from M.
    """
    xi_norm = float(np.linalg.norm(pencil.xi_prime))
    if xi_norm == 0.0:
        raise BadShape("characteristic roots require xi_prime != 0")
    roots = np.linalg.eigvals(companion_matrix(pencil))
    tol = real_axis_tolerance(xi_norm)
    if np.any(np.abs(roots.imag) < tol):
        raise RealAxisRoot(
            "root within %.2g of the real axis at xi'=%s" % (tol, pencil.xi_prime))
    upper = np.sort_complex(roots[roots.imag > 0.0])
    lower = np.sort_complex(roots[roots.imag < 0.0])
    M = pencil.M
    if len(upper) != M or len(lower) != M:
        raise ImproperSplit(
            "split %d/%d instead of %d/%d at xi'=%s"
            % (len(upper), len(lower), M, M, pencil.xi_prime))
    return RootSplit(upper=upper, lower=lower)
