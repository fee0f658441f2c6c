"""The solvent route against an independent contour-quadrature oracle.

The oracle assembles the decaying solution of the vertical ODE from the
residues at the upper characteristic roots,

    Khat(omega, s) = A(s) A(0)^{-1},
    A(s) = (2 pi i)^{-1} oint exp(i tau s) sym(omega, tau)^{-1} dtau,

on one circle around the upper roots with the Q-node trapezoid rule, and
reaches large s by the semigroup law Khat(2s) = Khat(s)^2.  It shares no
code with the solvent and matrix exponential in halfspace.kernels.
"""
import numpy as np
import pytest

from halfspace import build_system, characteristic_roots, symbol_batch
from halfspace.kernels import _solvent_stacks
from halfspace.systems import symbol_pencil
from test_kernels import _class_system

Q = 256
S_SEED = 1.0          # largest s evaluated by the quadrature itself
HEIGHTS = np.array([0.02, 0.5, 2.0, 9.0, 30.0])


def contour_symbol(system, omega, s):
    """Khat(omega, s) for one unit direction by contour quadrature."""
    pencil = symbol_pencil(system, omega)
    split = characteristic_roots(pencil)
    centre = split.upper.mean()
    spread = np.abs(split.upper - centre).max()
    gap = np.abs(split.lower - centre).min()
    assert spread <= 0.6 * gap, "one circle cannot separate the roots"
    radius = 0.5 * (spread + gap)
    ring = np.exp(2j * np.pi * np.arange(Q) / Q)
    taus = centre + radius * ring
    weights = radius * ring / Q
    inv = np.linalg.inv(np.array([pencil(tau) for tau in taus]))
    a0inv = np.linalg.inv(np.einsum("q,qij->ij", weights, inv))
    squarings = max(0, int(np.ceil(np.log2(s / S_SEED))))
    seed = s / 2.0 ** squarings
    k = np.einsum("q,qij->ij", weights * np.exp(1j * taus * seed), inv) @ a0inv
    for _ in range(squarings):
        k = k @ k
    return k


SYSTEMS = {
    "lame2_real": dict(kind="lame", n=2, mu=1.0, lam=1.0),
    "lame2_complex": dict(kind="lame", n=2, mu=1 + 0.3j, lam=2 - 0.5j),
    "lame2_lam20": dict(kind="lame", n=2, mu=1.0, lam=20.0),
    "lame2_lam-1.99": dict(kind="lame", n=2, mu=1.0, lam=-1.99),
    "lame2_mu0.05": dict(kind="lame", n=2, mu=0.05, lam=1.0),
    "lame3_real": dict(kind="lame", n=3, mu=1.0, lam=1.0),
    "lame3_complex": dict(kind="lame", n=3, mu=1 + 0.3j, lam=2 - 0.5j),
    "lame3_lam20": dict(kind="lame", n=3, mu=1.0, lam=20.0),
}
FIXTURES = ["random_lh3", "complex_scalar"]    # from conftest.py
# the seeded M = 2 class systems of test_kernels.py, whose Khat = C I + S X0
# reaches both sides of the closed form's series switch
CLASSES = {"class_n%d_M2_%s" % (n, "complex" if c else "real"): (n, 2, c)
           for n in (2, 3) for c in (False, True)}


@pytest.fixture(scope="module",
                params=sorted(SYSTEMS) + FIXTURES + sorted(CLASSES))
def system(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param)
    if request.param in CLASSES:
        return _class_system(*CLASSES[request.param])
    spec = dict(SYSTEMS[request.param])
    return build_system(spec.pop("kind"), **spec)


def _directions(system, count=12, seed=3):
    d = system.n - 1
    if d == 1:
        return np.array([[1.0], [-1.0]])
    w = np.random.default_rng(seed).standard_normal((count, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def test_solvent_matches_contour(system, per_node_symbol):
    omega = _directions(system)
    want = np.array([[contour_symbol(system, w, s) for s in HEIGHTS]
                     for w in omega])
    xi = (omega[:, None, :] * HEIGHTS[None, :, None]).reshape(-1, system.n - 1)
    solvent, _ = per_node_symbol(system, xi, 1.0)
    dispatched = symbol_batch(system, xi, 1.0)
    want = want.reshape(solvent.shape)
    assert np.abs(solvent - want).max() <= 1e-12
    assert np.abs(dispatched - want).max() <= 1e-12


def test_solvent_residual(system):
    omega = _directions(system)
    g = _solvent_stacks(system, omega)
    for w, gw in zip(omega, g):
        p = symbol_pencil(system, w)
        residual = p.M2 @ gw @ gw + p.M1 @ gw + p.M0
        assert np.abs(residual).max() <= 1e-12
        upper = characteristic_roots(p).upper
        assert np.allclose(np.sort_complex(np.linalg.eigvals(gw)),
                           np.sort_complex(upper), atol=1e-6)
