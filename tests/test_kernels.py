import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace import (EllipticSystem, Grid, ImproperSplit, OutOfDomain,
                       RealAxisRoot, build_poisson_kernel, kernel_at,
                       poisson_extend, poisson_symbol_at, poisson_symbol_dt_at,
                       symbol_batch)
from halfspace import kernels
from halfspace.harness import smooth_compact
from halfspace.kernels import (interior_pde_residual, kernel_derivative_spectrum,
                               prepared_symbol, synthesize_kernel_levels)


def classical_symbol(xi, t):
    return np.exp(-t * np.abs(xi))


class TestSymbol:
    def test_identity_cases(self, lap2, lame2):
        assert np.allclose(poisson_symbol_at(lap2, [0.0], 1.0), np.eye(1))
        assert np.allclose(poisson_symbol_at(lame2, [2.0], 0.0), np.eye(2))

    def test_laplacian_matches_classical(self, lap2):
        for xi, t in [(1.0, 1.0), (3.0, 0.5), (-2.0, 2.0), (0.3, 4.0)]:
            got = poisson_symbol_at(lap2, [xi], t)[0, 0]
            assert abs(got - classical_symbol(xi, t)) < 1e-13

    def test_laplacian_3d(self, lap3):
        got = poisson_symbol_at(lap3, [3.0, 4.0], 0.7)[0, 0]
        assert abs(got - np.exp(-3.5)) < 1e-13

    def test_large_argument_stable(self, lap2, lame2):
        # squaring route: values underflow gracefully, no blow-up
        v = poisson_symbol_at(lap2, [50.0], 2.0)[0, 0]
        assert abs(v - np.exp(-100.0)) < 1e-30
        w = poisson_symbol_at(lame2, [40.0], 1.0)
        assert np.all(np.isfinite(w))
        assert np.abs(w).max() < 1e-12

    def test_batch_matches_pointwise(self, lame2, complex_scalar):
        for sys_ in (lame2, complex_scalar):
            xis = np.array([[0.4], [1.7], [-3.3], [0.0], [11.0]])
            got = symbol_batch(sys_, xis, 0.9)
            for i, x in enumerate(xis[:, 0]):
                want = poisson_symbol_at(sys_, [x], 0.9)
                assert np.abs(got[i] - want).max() < 1e-12

    def test_batch_general_path_matches(self, lap3):
        from halfspace.kernels import _general_batch
        xis = np.array([[1.0, 0.0], [0.3, -0.4], [3.0, 4.0], [7.0, 1.0]])
        got, _ = _general_batch(lap3, xis, 0.9, False)
        want = symbol_batch(lap3, xis, 0.9)
        assert np.abs(got - want).max() < 1e-12

    def test_dt_matches_finite_difference(self, lame2):
        eps = 1e-6
        k, dk = poisson_symbol_dt_at(lame2, [2.0], 1.0)
        fd = (poisson_symbol_at(lame2, [2.0], 1.0 + eps)
              - poisson_symbol_at(lame2, [2.0], 1.0 - eps)) / (2 * eps)
        assert np.abs(dk - fd).max() < 1e-8

    def test_second_vertical_derivative(self, lame2):
        # ODE-reduced d_t^2 against finite differences of d_t
        xi = np.array([[1.3]])
        eps = 1e-6
        d2 = kernel_derivative_spectrum(lame2, xi, 1.0, (0, 2))[0]
        _, dk_p = poisson_symbol_dt_at(lame2, [1.3], 1.0 + eps)
        _, dk_m = poisson_symbol_dt_at(lame2, [1.3], 1.0 - eps)
        fd = (dk_p - dk_m) / (2 * eps)
        assert np.abs(d2 - fd).max() < 1e-7

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_semigroup_property(self, lame2, seed):
        rng = np.random.default_rng(seed)
        xi = rng.uniform(0.1, 15.0) * rng.choice([-1.0, 1.0])
        t0, t1 = rng.uniform(0.1, 2.0, 2)
        lhs = poisson_symbol_at(lame2, [xi], t0 + t1)
        rhs = poisson_symbol_at(lame2, [xi], t0) @ poisson_symbol_at(lame2, [xi], t1)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_symbol_scaling_identity(self, lame2):
        # Khat(lam xi, t) = Khat(xi, lam t)
        for lam in (0.5, 2.0):
            lhs = poisson_symbol_at(lame2, [lam * 1.2], 0.8)
            rhs = poisson_symbol_at(lame2, [1.2], lam * 0.8)
            assert np.abs(lhs - rhs).max() < 1e-12



def _seeded_nodes(count, seed, d=2):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w * np.exp(rng.uniform(np.log(0.05), np.log(20.0), (count, 1)))


@pytest.fixture(params=["lame3", "lame3_complex"])
def lame3_system(request):
    return request.getfixturevalue(request.param)


class TestLame3:
    """Matrix systems in n = 3: the solvent path through the identities."""

    def test_identity_at_zero_frequency(self, lame3_system):
        xi = np.vstack([np.zeros((1, 2)), _seeded_nodes(7, 0)])
        k, dk = symbol_batch(lame3_system, xi, 0.8, want_dt=True)
        assert np.array_equal(k[0], np.eye(3))
        assert np.array_equal(dk[0], np.zeros((3, 3)))
        k, dk = prepared_symbol(lame3_system, xi).at(0.8, want_dt=True)
        assert np.array_equal(k[0], np.eye(3))
        assert np.array_equal(dk[0], np.zeros((3, 3)))

    def test_semigroup(self, lame3_system):
        xi = _seeded_nodes(64, 1)
        k12 = symbol_batch(lame3_system, xi, 1.7)
        k1 = symbol_batch(lame3_system, xi, 0.4)
        k2 = symbol_batch(lame3_system, xi, 1.3)
        assert np.abs(k12 - k1 @ k2).max() <= 1e-12

    def test_conjugation_symmetry_real_coefficients(self, lame3):
        xi = _seeded_nodes(64, 2)
        plus = symbol_batch(lame3, xi, 0.9)
        minus = symbol_batch(lame3, -xi, 0.9)
        assert np.abs(minus - np.conj(plus)).max() <= 1e-12

    def test_dt_matches_finite_difference(self, lame3_system):
        xi = _seeded_nodes(16, 3) / 4.0
        eps = 1e-6
        _, dk = symbol_batch(lame3_system, xi, 1.0, want_dt=True)
        fd = (symbol_batch(lame3_system, xi, 1.0 + eps)
              - symbol_batch(lame3_system, xi, 1.0 - eps)) / (2 * eps)
        assert np.abs(dk - fd).max() < 1e-8

    def test_poisson_extend_conserves_mass(self, lame3_system):
        grid = Grid(n=3, N=32, h=0.25)
        f = smooth_compact(grid, 3, 5, count=1)[0]
        u = poisson_extend(lame3_system, f, [0.05, 0.6, 3.0], gradient=True)
        mass0 = f.samples.sum(axis=(0, 1))
        masses = u.values.sum(axis=(1, 2))
        assert np.abs(masses - mass0).max() <= 1e-12 * np.abs(mass0).max()


class TestMemo:
    def test_memo_bounded_by_bytes(self, lame3, monkeypatch):
        xi = _seeded_nodes(100, 4)
        prep = kernels.PreparedSymbol(lame3, xi)
        per_height = prep.at(0.1).nbytes
        monkeypatch.setattr(kernels, "_MEMO_BYTES", 3 * per_height)
        for t in (0.2, 0.3, 0.4, 0.5):
            prep.at(t)
        assert sorted(key[0] for key in prep._results) == [0.3, 0.4, 0.5]
        hit = prep.at(0.5)
        assert hit is prep._results[(0.5, False)]
        prep.at(0.6, want_dt=True)      # K and dK: two heights' worth
        assert sorted(prep._results) == [(0.5, False), (0.6, True)]

    def test_memo_shared_by_threads(self, lame3, monkeypatch):
        xi = _seeded_nodes(50, 5)
        prep = kernels.PreparedSymbol(lame3, xi)
        monkeypatch.setattr(kernels, "_MEMO_BYTES", 4 * prep.at(0.1).nbytes)
        heights = np.tile(np.linspace(0.2, 3.0, 16), 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(prep.at, heights, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        held = sum(v.nbytes for v in prep._results.values())
        assert 0 < held <= kernels._MEMO_BYTES
        fresh = kernels.PreparedSymbol(lame3, xi)
        for t, k in zip(heights[:16], got[:16]):
            assert np.array_equal(k, fresh.at(t))

class TestBuild:
    def test_laplacian_2d_closed_form(self, lap2_kernel):
        table, kernel = lap2_kernel
        x = kernel.grid.axis()
        sel = np.abs(x) <= 5.0
        exact = (1.0 / np.pi) / (1.0 + x ** 2)
        rel = np.abs(kernel.values[..., 0, 0][sel] - exact[sel]) / exact[sel]
        assert rel.max() < 1e-4

    def test_symbol_table_zero_exact(self, lap2_kernel):
        table, _ = lap2_kernel
        centre = table.values[table.N // 2]
        assert np.array_equal(centre, np.eye(1))

    def test_symbol_decay_rate(self, lap2_kernel):
        table, _ = lap2_kernel
        assert 0.9 < table.decay_rate < 1.1

    def test_normalization_residuals(self, lap2_kernel, lame2_kernel):
        _, klap = lap2_kernel
        assert klap.normalization_residual_full < 1e-12
        assert klap.normalization_residual < 1e-4
        _, klame = lame2_kernel
        assert klame.normalization_residual_full < 1e-12
        assert klame.normalization_residual < 1e-3

    def test_tail_constant_near_classical(self, lap2_kernel):
        # P = (1/pi)(1+x^2)^{-1}: the sup of |P|(1+x^2) is exactly 1/pi;
        # periodisation images inflate the fit slightly at the window edge
        _, kernel = lap2_kernel
        assert abs(kernel.tail_constant - 1.0 / np.pi) < 5e-3

    def test_far_field_slope(self, lame2_kernel):
        _, kernel = lame2_kernel
        g = kernel.grid
        rad = g.radii()
        mag = np.abs(kernel.values).max(axis=(-2, -1))
        band = (rad >= 10) & (rad <= 0.9 * g.R)
        slope = np.polyfit(np.log(rad[band]), np.log(mag[band]), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_requires_power_of_two(self, lap2):
        with pytest.raises(ValueError):
            build_poisson_kernel(lap2, N=1000)


class TestKernelAt:
    def test_center_value(self, lap2_kernel):
        _, kernel = lap2_kernel
        got = kernel_at(kernel, [0.0], 1.0)[0, 0]
        assert abs(got - 1.0 / np.pi) < 1e-5

    def test_homogeneity_exact(self, lap2_kernel):
        _, kernel = lap2_kernel
        k1 = kernel_at(kernel, [1.2], 0.7)
        k2 = kernel_at(kernel, [2.4], 1.4)
        assert np.abs(k2 - 0.5 * k1).max() < 1e-15

    def test_out_of_domain(self, lap2_kernel):
        _, kernel = lap2_kernel
        with pytest.raises(OutOfDomain):
            kernel_at(kernel, [1.0], 1e-4)

    def test_unit_mass_at_heights(self, lap2_kernel):
        # int K(x'-y', t) dy' = 1 realised on the grid for several t
        table, kernel = lap2_kernel
        g = kernel.grid
        from halfspace.kernels import synthesize_kernel_levels
        stack = synthesize_kernel_levels(kernel.system, Grid(n=2, N=512, h=0.125),
                                         [0.5, 1.0, 2.0])
        grid = Grid(n=2, N=512, h=0.125)
        for li in range(3):
            total = stack[li].reshape(-1, 1, 1).sum(axis=0) * grid.cell_volume
            assert np.abs(total - 1.0).max() < 1e-12


class TestPde:
    def test_residual_second_order(self, lame2):
        res_h = interior_pde_residual(lame2, h=1.0 / 8, N=128)
        res_h2 = interior_pde_residual(lame2, h=1.0 / 16, N=256)
        order = np.log2(res_h / res_h2)
        assert order >= 1.8

    def test_complex_scalar_residual(self, complex_scalar):
        res_h = interior_pde_residual(complex_scalar, h=1.0 / 8, N=128)
        res_h2 = interior_pde_residual(complex_scalar, h=1.0 / 16, N=256)
        assert np.log2(res_h / res_h2) >= 1.8


class TestVerifyProperties:
    def test_lame_kernel_report_passes(self, lame2, lame2_kernel):
        from halfspace import verify_kernel_properties
        table, kernel = lame2_kernel
        rep = verify_kernel_properties(lame2, kernel, table, pde_check=False)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert rep.value("semigroup_residual") < 1e-8
        assert rep.value("nondegeneracy_probe_min") > 0.0
        assert rep.value("far_field_slope_deviation") <= 0.1


class TestRefinementMonotonicity:
    def test_normalization_residual_improves(self, lap2):
        _, k1 = build_poisson_kernel(lap2, N=512)
        _, k2 = build_poisson_kernel(lap2, N=1024)
        assert k2.normalization_residual <= k1.normalization_residual

    def test_classical_oracle_metric_in_report(self, lap2, lap2_kernel):
        from halfspace import verify_kernel_properties
        table, kernel = lap2_kernel
        rep = verify_kernel_properties(lap2, kernel, table, pde_check=False)
        assert rep.value("classical_oracle_rel_error") <= 1e-4


class TestGuards:
    def test_insufficient_decay_fixed_extent(self, lap2):
        from halfspace import InsufficientDecay
        with pytest.raises(InsufficientDecay):
            build_poisson_kernel(lap2, freq_extent=4.0, N=256)

    @pytest.mark.parametrize("A, error", [
        ([[-2.0, -1.5j], [-1.5j, 1.0]], ImproperSplit),   # roots i and 2i
        ([[-1.0, 0.3], [0.2, 1.0]], RealAxisRoot),        # real roots
    ])
    def test_solvent_root_errors(self, A, error):
        # not elliptic, so built past the validation of build_system
        system = EllipticSystem(n=2, M=1, ellipticity_margin=1.0,
                                coeffs=np.asarray(A, complex).reshape(1, 1, 2, 2))
        with pytest.raises(error):
            kernels._general_batch(system, np.array([[1.0], [-2.0]]), 1.0, False)
        with pytest.raises(error):
            poisson_symbol_at(system, [1.0], 1.0)

    def test_dt_rejects_negative_height(self, lame2):
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_symbol_dt_at(lame2, [1.0], -1.0)

    def test_dt_at_zero_frequency(self, lame2):
        from halfspace import poisson_symbol_dt_at
        k, dk = poisson_symbol_dt_at(lame2, [0.0], 1.0)
        assert np.array_equal(k, np.eye(2))
        assert np.array_equal(dk, np.zeros((2, 2)))
