import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace import (BadShape, EllipticityViolation, build_system,
                       characteristic_roots, ellipticity_constant,
                       symbol_pencil)


def test_laplacian_margin_exact():
    for n in (2, 3, 4):
        sys_ = build_system("laplacian", n=n)
        assert abs(ellipticity_constant(sys_) - 1.0) < 1e-12


def test_lame_accepts_and_margin(lame2):
    # analytic margin: min(Re mu, Re(2 mu + lambda)) over the sphere sweep
    assert abs(lame2.ellipticity_margin - 1.0) < 1e-10


def test_lame_rejects_bad_moduli():
    with pytest.raises(EllipticityViolation):
        build_system("lame", n=2, mu=1.0, lam=-3.0)


def test_indefinite_scalar_rejected():
    # brute-force sweep finds Re[a xi xi] < 0 on the sphere
    with pytest.raises(EllipticityViolation):
        build_system("scalar", A=[[1.0, 0.0], [0.0, -2.0]])


def test_violation_names_the_direction():
    # Re sym(xi) = xi_1^2 - 2 xi_2^2 is most negative at xi = (0, 1)
    with pytest.raises(EllipticityViolation,
                       match=r"margin -2 <= 1e-08 .* xi = \(0, 1\)"):
        build_system("scalar", A=[[1.0, 0.0], [0.0, -2.0]])


def test_complex_offdiagonal_scalar_is_elliptic():
    # Re[xi1^2 + 10i xi1 xi2 + xi2^2] = |xi|^2: brute-force sweep agrees
    sys_ = build_system("scalar", A=[[1.0, 10j], [0.0, 1.0]])
    assert abs(sys_.ellipticity_margin - 1.0) < 1e-10


def test_raw_tensor_shape_validation():
    with pytest.raises(BadShape):
        build_system("raw", tensor=np.zeros((2, 3, 2, 2)))
    with pytest.raises(BadShape):
        build_system("raw", tensor=np.full((1, 1, 2, 2), np.nan))


def test_roots_laplacian_2d(lap2):
    split = characteristic_roots(symbol_pencil(lap2, [1.0]))
    assert np.allclose(split.upper, [1j])
    assert np.allclose(split.lower, [-1j])


def test_roots_laplacian_3d(lap3):
    # |xi'| = 5 from the 3-4 right triangle
    split = characteristic_roots(symbol_pencil(lap3, [3.0, 4.0]))
    assert np.allclose(split.upper, [5j], atol=1e-10)


def test_roots_lame_double(lame2):
    split = characteristic_roots(symbol_pencil(lame2, [1.0]))
    assert np.allclose(split.upper, [1j, 1j], atol=1e-6)
    assert np.allclose(split.lower, [-1j, -1j], atol=1e-6)
    assert split.margin > 0.999


def test_roots_need_nonzero_frequency(lap2):
    with pytest.raises(BadShape):
        characteristic_roots(symbol_pencil(lap2, [0.0]))


def _elliptic_tensor(rng, n, M):
    """Identity tensor plus a complex perturbation whose blocks sum to at
    most 0.9 in Frobenius norm, so the margin is at least 0.1."""
    pert = rng.standard_normal((M, M, n, n)) + 1j * rng.standard_normal((M, M, n, n))
    pert *= rng.uniform(0.1, 0.9) / np.linalg.norm(pert, axis=(0, 1)).sum()
    return np.einsum("ab,rs->abrs", np.eye(M), np.eye(n)) + pert


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(1, 3),
       st.sampled_from([0.5, 2.0, 3.7]))
@settings(max_examples=25, deadline=None)
def test_symbol_homogeneity(seed, n, M, lam):
    rng = np.random.default_rng(seed)
    sys_ = build_system("raw", tensor=_elliptic_tensor(rng, n, M))
    xi = rng.standard_normal(n)
    lhs = sys_.symbol(lam * xi)
    rhs = lam ** 2 * sys_.symbol(xi)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(1, 3),
       st.sampled_from([0.5, 2.0]))
@settings(max_examples=25, deadline=None)
def test_root_scaling(seed, n, M, lam):
    rng = np.random.default_rng(seed)
    sys_ = build_system("raw", tensor=_elliptic_tensor(rng, n, M))
    direction = rng.standard_normal(n - 1)
    xi = rng.uniform(0.2, 3.0) * direction / np.linalg.norm(direction)
    base = characteristic_roots(symbol_pencil(sys_, xi))
    scaled = characteristic_roots(symbol_pencil(sys_, lam * xi))
    assert np.allclose(np.sort_complex(scaled.upper),
                       np.sort_complex(lam * base.upper), atol=1e-8)


def test_split_always_balanced(lame2, complex_scalar, rng):
    for sys_ in (lame2, complex_scalar):
        for _ in range(1000):
            xi = rng.standard_normal(sys_.n - 1)
            if np.linalg.norm(xi) < 1e-6:
                continue
            split = characteristic_roots(symbol_pencil(sys_, xi))
            assert len(split.upper) == sys_.M
            assert len(split.lower) == sys_.M


def test_pencil_matrices(lame2):
    pencil = symbol_pencil(lame2, [2.0])
    # M2 row: vertical-vertical coefficients; full symbol at (2, tau)
    for tau in (0.7, 1.3 + 0.2j):
        direct = lame2.symbol(np.array([2.0, 0.0])) if tau == 0 else None
        lhs = pencil(tau)
        a = lame2.coeffs
        xi = np.array([2.0, tau], dtype=complex)
        rhs = np.einsum("abrs,r,s->ab", a, xi, xi)
        assert np.abs(lhs - rhs).max() < 1e-12


def _random_tensor(rng, n, M, scale):
    return np.einsum("ab,rs->abrs", np.eye(M), np.eye(n)) + scale * (
        rng.standard_normal((M, M, n, n)) + 1j * rng.standard_normal((M, M, n, n)))


def _lambda_min(coeffs, xi):
    """lambda_min(Herm sym(xi)) for a stack of directions xi (K, n)."""
    sym = np.einsum("abrs,kr,ks->kab", coeffs, xi, xi)
    return np.linalg.eigvalsh(0.5 * (sym + np.conj(np.swapaxes(sym, -1, -2))))[:, 0]


def _oracle_directions(n):
    """Unit directions covering the sphere modulo +-xi, and an upper bound
    on the angle from any unit direction to the nearest of them (or of
    their negatives)."""
    if n == 2:
        theta = np.linspace(0.0, np.pi, 10 ** 5, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), \
            0.5 * np.pi / 10 ** 5
    polar = np.linspace(0.0, np.pi, 400)
    azim = np.linspace(0.0, np.pi, 400, endpoint=False)
    p, a = np.meshgrid(polar, azim, indexing="ij")
    xi = np.stack([np.sin(p) * np.cos(a), np.sin(p) * np.sin(a), np.cos(p)],
                  axis=-1).reshape(-1, 3)
    # a meridian step, then one along the latitude circle
    return xi, 0.5 * (polar[1] - polar[0]) + 0.5 * np.pi / 400


def _oracle(coeffs):
    """(dense-grid min of lambda_min(Herm sym(xi)), its grid error bound).

    At the minimising pair (xi*, v*), xi* is the bottom eigenvector of the
    real form Q(v*)[r, s] = Re(v*^H Herm a_rs v*), so a unit xi at angle
    alpha from xi* has v*^H Herm sym(xi) v* - margin <= sin^2(alpha)
    (max eig Q - min eig Q) <= 2 sin^2(alpha) sum_rs |Herm a_rs|_2."""
    xi, alpha = _oracle_directions(coeffs.shape[-1])
    blocks = 0.5 * (coeffs + np.conj(np.swapaxes(coeffs, 0, 1)))
    spread = 2.0 * np.linalg.norm(blocks, ord=2, axis=(0, 1)).sum()
    return float(_lambda_min(coeffs, xi).min()), spread * np.sin(alpha) ** 2


def test_margin_against_dense_oracle():
    rng = np.random.default_rng(2024)
    margins = []
    for n in (2, 3):
        for M in (1, 2, 3):
            for scale in (0.2, 0.6):
                a = _random_tensor(rng, n, M, scale)
                margin = ellipticity_constant(a)
                oracle, grid_error = _oracle(a)
                assert margin <= oracle + 1e-12
                assert margin >= oracle - grid_error - 1e-12
                margins.append(margin)
    assert min(margins) < 0.0 < max(margins)


@pytest.mark.parametrize("n, mu", [(2, 1.3), (3, 1.3), (3, 0.7 + 0.4j)])
def test_lame_eigenvalue_crossing(n, mu):
    # lambda = -mu: sym(xi) = mu |xi|^2 I, so lambda_min is M-fold everywhere
    sys_ = build_system("lame", n=n, mu=mu, lam=-mu)
    assert abs(sys_.ellipticity_margin - np.real(mu)) < 1e-12


def test_margin_never_exceeds_sampled_floor():
    # isotropic tensors, where every sample is the minimum up to rounding, and
    # random ones
    rng = np.random.default_rng(5)
    tensors = [build_system("laplacian", n=3).coeffs,
               build_system("lame", n=3, mu=1.3, lam=-1.3).coeffs]
    tensors += [_random_tensor(rng, n, M, 0.4)
                for n, M in ((2, 1), (2, 3), (3, 2), (3, 3))]
    for a in tensors:
        n = a.shape[-1]
        for seed in (0, 1):
            # the seeded sweep of ellipticity_constant, replayed
            xi = np.random.default_rng(seed).standard_normal((2048, n))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            xi = np.vstack([xi, np.eye(n), -np.eye(n),
                            np.ones((1, n)) / np.sqrt(n)])
            floor = (_lambda_min(a, xi) / np.einsum("kr,kr->k", xi, xi)).min()
            assert ellipticity_constant(a, seed=seed) <= floor
