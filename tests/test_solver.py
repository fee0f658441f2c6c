import sys

import numpy as np
import pytest
from scipy import integrate

from halfspace import (AliasRisk, BadShape, BoundaryData, ConeSpec, Grid,
                       HalfSpaceField, InsufficientLevels, TailTag,
                       build_poisson_kernel, build_system,
                       poisson_extend, trace_estimate,
                       weighted_integrability)
from halfspace import kernels
from halfspace.grids import grid_fft, grid_ifft
from halfspace.harness import sign_changing, smooth_compact


@pytest.fixture(scope="module")
def grid():
    return Grid(n=2, N=1024, h=0.125)


def gaussian_datum(grid, width=1.0):
    prof = np.exp(-(grid.axis() / width) ** 2)
    return BoundaryData(grid=grid, samples=prof[:, None].astype(complex),
                        space_tag="lp")


class TestExtend:
    def test_constant_reproduced_exactly(self, lap2, grid):
        f = BoundaryData(grid=grid, samples=np.full((1024, 1), 2.5 + 1j))
        u = poisson_extend(lap2, f, [0.5, 1.0, 2.0])
        assert np.abs(u.values - (2.5 + 1j)).max() < 1e-14

    def test_gaussian_against_quadrature_oracle(self, lap2):
        big = Grid(n=2, N=8192, h=0.25)
        f = gaussian_datum(big)
        u = poisson_extend(lap2, f, [0.3, 1.0])
        for li, t in enumerate(u.heights):
            oracle, _ = integrate.quad(
                lambda y: (t / np.pi) / (t * t + y * y) * np.exp(-y * y),
                -np.inf, np.inf, limit=200)
            got = u.values[li, big.N // 2, 0].real
            assert abs(got - oracle) < 1e-6

    def test_positivity_for_laplacian(self, lap2, grid):
        u = poisson_extend(lap2, gaussian_datum(grid), [0.2, 1.0, 4.0])
        assert u.values.real.min() > -1e-12

    def test_linearity(self, lap2, grid):
        x = grid.axis()
        fa = gaussian_datum(grid)
        fb = BoundaryData(grid=grid, samples=(np.sin(x) * np.exp(-0.3 * x * x))
                          [:, None].astype(complex))
        combo = BoundaryData(grid=grid, samples=2 * fa.samples - 3j * fb.samples)
        ua = poisson_extend(lap2, fa, [0.7])
        ub = poisson_extend(lap2, fb, [0.7])
        uc = poisson_extend(lap2, combo, [0.7])
        assert np.abs(uc.values - 2 * ua.values + 3j * ub.values).max() < 1e-13

    def test_vertical_semigroup(self, lame2, grid):
        prof = np.exp(-grid.axis() ** 2)
        f = BoundaryData(grid=grid, samples=np.stack(
            [prof, 0.5 * prof], axis=-1).astype(complex), space_tag="lp")
        u = poisson_extend(lame2, f, [0.4, 1.0])
        level = BoundaryData(grid=grid, samples=u.values[0])
        again = poisson_extend(lame2, level, [0.6])
        assert np.abs(again.values[0] - u.values[1]).max() < 1e-10

    def test_sup_contraction_laplacian(self, lap2, grid):
        x = grid.axis()
        f = BoundaryData(grid=grid, samples=(np.sin(3 * x) * np.exp(-x * x))
                         [:, None].astype(complex))
        u = poisson_extend(lap2, f, np.geomspace(1e-6, 8, 30))
        assert u.magnitude().max() <= f.magnitude().max() * (1 + 1e-6)

    def test_alias_risk_raised(self, lap2, grid):
        wide = np.exp(-(grid.axis() / (0.9 * grid.R)) ** 2)
        f = BoundaryData(grid=grid, samples=wide[:, None].astype(complex))
        with pytest.raises(AliasRisk):
            poisson_extend(lap2, f, [1.0], wrap_tol=1e-9)

    def test_wrap_bound_attached(self, lap2, grid):
        u = poisson_extend(lap2, gaussian_datum(grid), [1.0])
        assert np.isfinite(u.meta["wrap_bound"])

    def test_gradient_matches_finite_differences(self, lap2, grid):
        f = gaussian_datum(grid, width=2.0)
        u = poisson_extend(lap2, f, [0.999, 1.0, 1.001], gradient=True)
        # vertical derivative vs centered difference across levels
        fd_t = (u.values[2] - u.values[0]) / 0.002
        assert np.abs(u.gradient[1, ..., 1, :] - fd_t).max() < 1e-5
        # tangential derivative vs numpy gradient of the samples
        fd_x = np.gradient(u.values[1][:, 0], grid.h)
        assert np.abs(u.gradient[1, :, 0, 0] - fd_x).max() < 1e-3

    def test_dimension_mismatch(self, lap3, grid):
        with pytest.raises(BadShape):
            poisson_extend(lap3, gaussian_datum(grid), [1.0])

    def test_n4_raises_named_error(self):
        # the closed-form kernel behind the wrap bound covers n = 2 and 3
        g = Grid(n=4, N=8, h=0.5)
        prof = np.exp(-sum(m * m for m in g.meshes()))[..., None]
        f = BoundaryData(grid=g, samples=prof.astype(complex), space_tag="lp")
        with pytest.raises(BadShape, match="n = 2 and 3"):
            poisson_extend(build_system("laplacian", n=4), f, [1.0])

    def test_n4_kernel_table_raises_named_error(self):
        with pytest.raises(BadShape, match="n = 2 and 3"):
            build_poisson_kernel(build_system("laplacian", n=4), N=8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("heights", [[0.5, np.nan], [np.inf], [0.5, 0.5],
                                         [], [0.0, 1.0], [-1.0]])
    def test_bad_heights_fail_before_the_symbol_pass(self, lap2, grid,
                                                     heights, monkeypatch):
        def no_symbol(*args, **kwargs):
            raise AssertionError("symbol pass reached")

        monkeypatch.setattr(kernels.PreparedSymbol, "apply", no_symbol)
        with pytest.raises(BadShape, match="finite, positive and distinct"):
            poisson_extend(lap2, gaussian_datum(grid), heights)


def _datum(kind, grid, M):
    if kind == "gaussian":
        prof = np.exp(-grid.axis() ** 2)[:, None] * np.eye(M)[0]
        return BoundaryData(grid=grid, samples=prof, space_tag="lp")
    make = smooth_compact if kind == "smooth_compact" else sign_changing
    return make(grid, M, 3, count=1)[0]


@pytest.mark.parametrize("kind", ["gaussian", "smooth_compact",
                                  "windowed_cosine"])
@pytest.mark.parametrize("system_name", ["lap2", "lame2"])
def test_wrap_bound_exceeds_measured_periodisation(system_name, kind,
                                                   request):
    """With the closed-form tail constant the wrap bound still bounds the
    periodisation error, measured against the same datum zero-padded to an
    8x wider box at the same spacing."""
    system = request.getfixturevalue(system_name)
    grid, wide = Grid(n=2, N=256, h=0.125), Grid(n=2, N=2048, h=0.125)
    f = _datum(kind, grid, system.M)
    lo = (wide.N - grid.N) // 2
    padded = np.zeros((wide.N, system.M), dtype=complex)
    padded[lo:lo + grid.N] = f.samples
    heights = [0.25, 1.0, 4.0]
    u = poisson_extend(system, f, heights)
    ref = poisson_extend(system, BoundaryData(grid=wide, samples=padded),
                         heights)
    err = np.abs(u.values - ref.values[:, lo:lo + grid.N]).max()
    assert np.isfinite(u.meta["wrap_bound"])
    assert 0.0 < err <= u.meta["wrap_bound"]


def test_solve_builds_no_kernel(lame3_complex, monkeypatch):
    """A fresh Lame n=3 solve takes its tail constant from the closed form,
    never from an FFT kernel build."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_poisson_kernel called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "halfspace" \
                and hasattr(module, "build_poisson_kernel"):
            monkeypatch.setattr(module, "build_poisson_kernel", refuse)
    monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
    f = smooth_compact(Grid(n=3, N=16, h=0.25), 3, 1, count=1)[0]
    u = poisson_extend(lame3_complex, f, [0.5, 1.0])
    assert u.meta["tail_constant"] == pytest.approx(0.349026, abs=1e-6)
    assert np.isfinite(u.meta["wrap_bound"])


class TestWeightedIntegrability:
    def test_constant_gives_pi(self, grid):
        f = BoundaryData(grid=grid, samples=np.ones((1024, 1), complex),
                         tail=TailTag(exponent=0.0))
        # int dx/(1+x^2) over the line
        assert abs(weighted_integrability(f, 2.0) - np.pi) < 1e-4

    def test_zero(self, grid):
        f = BoundaryData(grid=grid, samples=np.zeros((1024, 1), complex))
        assert weighted_integrability(f, 2.0) == 0.0

    def test_divergent_tail_flagged(self, grid):
        f = BoundaryData(grid=grid,
                         samples=np.abs(grid.axis())[:, None].astype(complex),
                         tail=TailTag(exponent=1.0))
        assert weighted_integrability(f, 2.0) == np.inf

    def test_requires_positive_weight(self, grid):
        f = BoundaryData(grid=grid, samples=np.ones((1024, 1), complex))
        with pytest.raises(ValueError):
            weighted_integrability(f, 0.0)


class TestTrace:
    def test_smooth_datum_recovered(self, lap2, grid):
        f = gaussian_datum(grid)
        u = poisson_extend(lap2, f, np.geomspace(1e-6, 1.0, 12))
        tr = trace_estimate(u, ConeSpec(1.0, t_max=2.0))
        assert np.abs(tr.samples - f.samples).max() < 1e-8
        assert not tr.meta["no_convergence"].all()

    def test_linear_field_trace_zero(self, grid):
        hts = np.geomspace(0.01, 2.0, 12)
        vals = np.broadcast_to(hts[:, None, None], (12, 1024, 1)).astype(complex)
        u = HalfSpaceField(grid=grid, heights=hts, values=np.array(vals))
        tr = trace_estimate(u, ConeSpec(1.0, t_max=4.0))
        assert np.abs(tr.samples).max() < 1e-12

    def test_needs_three_levels(self, lap2, grid):
        u = poisson_extend(lap2, gaussian_datum(grid), [0.5, 2.0])
        with pytest.raises(InsufficientLevels):
            trace_estimate(u, ConeSpec(1.0, t_max=4.0))


class TestAdmission:
    def test_rejects_nonfinite(self, grid):
        bad = np.ones((1024, 1), complex)
        bad[3] = np.nan
        with pytest.raises(BadShape):
            BoundaryData(grid=grid, samples=bad)

    def test_rejects_heavy_tail_for_bounded(self, grid):
        with pytest.raises(BadShape):
            BoundaryData(grid=grid, samples=np.ones((1024, 1), complex),
                         space_tag="bounded", tail=TailTag(exponent=0.5))

    def test_slg_value_recorded(self, grid):
        rad = grid.radii()
        f = BoundaryData(grid=grid,
                         samples=((1 + rad) ** 0.5)[:, None].astype(complex),
                         space_tag="slg", meta={"theta": 0.5},
                         tail=TailTag(exponent=0.5))
        assert np.isfinite(f.meta["slg_value"])


class TestThreads:
    def test_worker_count_env(self, monkeypatch):
        from halfspace.solver import worker_count
        monkeypatch.setenv("HSP_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("HSP_THREADS", "junk")
        assert worker_count() >= 1

    def test_results_independent_of_workers(self, lap2, lame3_complex, grid,
                                            monkeypatch):
        rows = [(lap2, gaussian_datum(grid)),
                (lame3_complex,
                 smooth_compact(Grid(n=3, N=32, h=0.25), 3, 2, count=1)[0])]
        for system, f in rows:
            fields = []
            for threads in ("1", "4"):
                monkeypatch.setenv("HSP_THREADS", threads)
                kernels._PREPARED_CACHE.clear()     # no memoised heights
                fields.append(poisson_extend(system, f, np.geomspace(0.1, 4, 12),
                                             gradient=True))
            assert np.array_equal(fields[0].values, fields[1].values)
            assert np.array_equal(fields[0].gradient, fields[1].gradient)


def per_height_reference(system, f, heights):
    """One symbol application and one inverse FFT per height and component,
    the way poisson_extend solved before it stacked the heights: for M = 1
    the contraction of the symbol ``at`` each height, for M > 1 its action
    at each height (the contraction differs from the action in the last
    bits)."""
    grid, M, d = f.grid, system.M, f.grid.d
    fhat = grid_fft(f.samples, grid).reshape(-1, M)
    nodes = grid.freq_nodes_fftorder()
    prepared = kernels.prepared_symbol(system, nodes)
    values = np.empty((len(heights),) + grid.shape + (M,), dtype=complex)
    grad = np.empty((len(heights),) + grid.shape + (system.n, M),
                    dtype=complex)
    for li, t in enumerate(heights):
        if M == 1:
            ksym, dksym = prepared.at(t, want_dt=True)
            uhat = np.einsum("bij,bj->bi", ksym, fhat)
            dhat = np.einsum("bij,bj->bi", dksym, fhat)
        else:
            uhat, dhat = (a[0].T for a in prepared.apply([t], fhat.T, True))
        values[li] = grid_ifft(uhat.reshape(grid.shape + (M,)), grid)
        for r in range(d):
            ghat = 1j * nodes[:, r, None] * uhat
            grad[li, ..., r, :] = grid_ifft(
                ghat.reshape(grid.shape + (M,)), grid)
        grad[li, ..., d, :] = grid_ifft(dhat.reshape(grid.shape + (M,)), grid)
    return values, grad


@pytest.mark.parametrize("row", ["lame2", "lame3_complex", "lap2"])
def test_batched_levels_match_per_height_reference(row, request):
    system = request.getfixturevalue(row)
    if system.n == 2:
        grid = Grid(n=2, N=1024, h=0.125)
        f = smooth_compact(grid, system.M, 3, count=1)[0]
    else:
        f = smooth_compact(Grid(n=3, N=32, h=0.25), system.M, 2, count=1)[0]
    heights = np.geomspace(0.1, 4, 12)
    kernels._PREPARED_CACHE.clear()
    u = poisson_extend(system, f, heights, gradient=True)
    kernels._PREPARED_CACHE.clear()
    values, grad = per_height_reference(system, f, u.heights)
    assert np.array_equal(u.values, values)
    assert np.array_equal(u.gradient, grad)


class TestManufacturedElasticity:
    """Independent oracle for the matrix solve chain: a plane-strain
    equilibrium field built from holomorphic potentials, reproduced by the
    Poisson extension of its own boundary values."""

    @staticmethod
    def km_field(x, t, mu=1.0, lam=1.0):
        # 2 mu (u1 + i u2) = kappa phi(z) - z conj(phi') - conj(psi),
        # z = x + i t, with phi = psi = (z + 2i)^-3 decaying upward
        kappa = (lam + 3 * mu) / (lam + mu)
        z = x + 1j * t
        phi = (z + 2j) ** -3
        dphi = -3 * (z + 2j) ** -4
        psi = (z + 2j) ** -3
        w = (kappa * phi - z * np.conj(dphi) - np.conj(psi)) / (2 * mu)
        return np.stack([w.real, w.imag], axis=-1)

    def test_field_is_a_null_solution(self, lame2):
        from halfspace.kernels import discrete_operator
        h = 0.02
        xs = (np.arange(128) - 64) * h
        ts = 1.0 + h * np.arange(-4, 5)
        vals = np.stack([self.km_field(xs, t) for t in ts]).astype(complex)
        res = discrete_operator(vals, [h, h], lame2.coeffs)
        assert np.abs(res).max() < 5e-4      # O(h^2) stencil truncation

    def test_solve_reproduces_manufactured_solution(self, lame2):
        grid = Grid(n=2, N=2048, h=0.0625)
        x = grid.axis()
        f = BoundaryData(grid=grid, samples=self.km_field(x, 0.0).astype(complex))
        u = poisson_extend(lame2, f, [0.5, 1.0, 2.0])
        for li, t in enumerate(u.heights):
            err = np.abs(u.values[li] - self.km_field(x, t)).max()
            assert err < 2e-5, (t, err)
