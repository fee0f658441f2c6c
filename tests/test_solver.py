import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from halfspace import (AliasRisk, BadShape, BoundaryData, ConeSpec, Grid,
                       HalfSpaceField, InsufficientLevels, TailTag,
                       build_poisson_kernel, build_system,
                       poisson_extend, poisson_extend_each, trace_estimate,
                       weighted_integrability, wrap_bound)
from halfspace import kernels
from halfspace.grids import grid_fft, grid_ifft
from halfspace.harness import sign_changing, smooth_compact
from halfspace.solver import _radial_tail
from test_kernels import _class_system


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
        assert wrap_bound(lap2, f, 1.0) == np.inf
        for tol in (1e-9, np.inf):
            with pytest.raises(AliasRisk, match="not centrally supported"):
                poisson_extend(lap2, f, [1.0], wrap_tol=tol)
        tagged = BoundaryData(grid=grid, samples=f.samples,
                              tail=TailTag(exponent=0.0))
        poisson_extend(lap2, tagged, [1.0], wrap_tol=1e-9)

    def test_wrap_bound_on_request(self, lap2, grid):
        f = gaussian_datum(grid)
        wrap = wrap_bound(lap2, f, 2.0)
        assert np.isfinite(wrap)
        poisson_extend(lap2, f, [0.5, 2.0], wrap_tol=wrap)
        with pytest.raises(AliasRisk, match="wrap-around bound"):
            poisson_extend(lap2, f, [0.5, 2.0], wrap_tol=0.99 * wrap)

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

        monkeypatch.setattr(kernels.PreparedSymbol, "action", no_symbol)
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
    wrap = wrap_bound(system, f, max(heights))
    assert np.isfinite(wrap)
    assert 0.0 < err <= wrap


def test_solve_builds_no_kernel(lame3_complex, monkeypatch):
    """A cold Lame n=3 solve and its wrap bound take the tail constant from
    the closed form, never from an FFT kernel build."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_poisson_kernel called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "halfspace" \
                and hasattr(module, "build_poisson_kernel"):
            monkeypatch.setattr(module, "build_poisson_kernel", refuse)
    monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
    system = dataclasses.replace(lame3_complex)     # no held tail constant
    f = smooth_compact(Grid(n=3, N=16, h=0.25), 3, 1, count=1)[0]
    poisson_extend(system, f, [0.5, 1.0])
    assert np.isfinite(wrap_bound(system, f, 1.0))
    assert kernels.tail_constant(system) == pytest.approx(0.349026, abs=1e-6)


def test_solve_computes_no_wrap_bound(lame3_complex, monkeypatch):
    """Without a wrap tolerance a cold solve never evaluates the closed-form
    kernel behind the tail constant."""
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form kernel evaluated")

    monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
    monkeypatch.setattr(kernels, "_closed_form_kernel", refuse)
    system = dataclasses.replace(lame3_complex)     # no held tail constant
    f = smooth_compact(Grid(n=3, N=16, h=0.25), 3, 1, count=1)[0]
    u = poisson_extend(system, f, [0.25, 0.5, 1.0], gradient=True)
    assert np.isfinite(u.values).all() and np.isfinite(u.gradient).all()
    with pytest.raises(AssertionError, match="closed-form"):
        wrap_bound(system, f, 1.0)


def _count_symbol_work(monkeypatch):
    """Record the _closed_form_kernel calls and PreparedSymbol builds."""
    seen = {"closed_form": 0, "prepared": 0}
    closed_form = kernels._closed_form_kernel
    prepare = kernels.PreparedSymbol.__init__

    def counting_closed_form(*args, **kwargs):
        seen["closed_form"] += 1
        return closed_form(*args, **kwargs)

    def counting_prepare(self, *args, **kwargs):
        seen["prepared"] += 1
        prepare(self, *args, **kwargs)

    monkeypatch.setattr(kernels, "_closed_form_kernel", counting_closed_form)
    monkeypatch.setattr(kernels.PreparedSymbol, "__init__", counting_prepare)
    monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
    return seen


def test_wrap_bound_computes_the_constant_once_per_system(lame3_complex,
                                                          monkeypatch):
    """The tail constant depends on the system alone: wrap bounds on two
    grids evaluate the closed form for one ray sweep and its polish, and
    prepare no grid's symbol."""
    seen = _count_symbol_work(monkeypatch)
    system = dataclasses.replace(lame3_complex)
    for N in (16, 32):
        f = smooth_compact(Grid(n=3, N=N, h=0.25), 3, 1, count=1)[0]
        assert np.isfinite(wrap_bound(system, f, 1.0))
    assert seen == {"closed_form": 1 + kernels._POLISH_ROUNDS, "prepared": 0}


def test_uncached_guarded_solves_share_the_constant(lame3_complex,
                                                    monkeypatch):
    """A grid past the prepared-symbol cap is prepared anew by every solve,
    but its wrap guard reads the constant held with the system."""
    seen = _count_symbol_work(monkeypatch)
    monkeypatch.setattr(kernels, "_PREPARED_BYTES", 1024)
    system = dataclasses.replace(lame3_complex)
    f = smooth_compact(Grid(n=3, N=16, h=0.25), 3, 1, count=1)[0]
    fields = [poisson_extend(system, f, [0.5, 1.0], wrap_tol=10.0)
              for _ in range(3)]
    assert not kernels._PREPARED_CACHE
    assert seen == {"closed_form": 1 + kernels._POLISH_ROUNDS, "prepared": 3}
    assert all(np.array_equal(u.values, fields[0].values) for u in fields)


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
        with pytest.raises(BadShape):
            weighted_integrability(f, 0.0)


TAIL_RADII = [4.0, 16.0, 128.0]


def tight_quad(g, R):
    return integrate.quad(g, R, np.inf, epsabs=0, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("R", TAIL_RADII)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("haslog", [False, True])
def test_weighted_tail_matches_tight_quad(R, n, haslog):
    # the tagged tail of weighted_integrability, amp r^a [log r] r^(d-1) /
    # (1 + r^m) beyond R, with zero samples inside the grid
    d, m = n - 1, float(n)
    grid = Grid(n=n, N=int(2 * R), h=1.0)
    f = BoundaryData(grid=grid, samples=np.zeros(grid.shape + (1,), complex),
                     tail=TailTag(exponent=0.0, log=haslog, amplitude=1.0))
    surface = 2.0 if d == 1 else 2.0 * np.pi
    got = weighted_integrability(f, m) / surface

    def radial(r):
        v = r ** (d - 1) / (1.0 + r ** m)
        return v * np.log(r) if haslog else v

    want = tight_quad(radial, R)
    assert abs(got / want - 1.0) <= 1e-14
    assert abs(_radial_tail(radial, R, m - d) / want - 1.0) <= 1e-14


@pytest.mark.parametrize("R", TAIL_RADII)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rho", [2.0, 16.0])
def test_local_max_tail_matches_tight_quad(R, n, rho):
    # the log datum's weighted tail of scg_local_max
    def radial(r):
        return np.log(np.maximum(r, 2.0)) * r ** (n - 2) * rho \
            / (rho ** n + r ** n)

    want = tight_quad(radial, R)
    assert abs(_radial_tail(radial, R, 1.0) / want - 1.0) <= 1e-14


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

    def test_default_top_is_box_over_aperture(self):
        # R = 1, so the default top R / kappa = 0.5 leaves two levels in
        # (epsilon, top], while an infinite top admits a third
        grid = Grid(n=2, N=16, h=0.125)
        hts = np.array([0.1, 0.2, 0.4, 0.8])
        vals = np.broadcast_to(hts[:, None, None] ** 2, (4, 16, 1))
        u = HalfSpaceField(grid=grid, heights=hts, values=vals.astype(complex))
        tr = trace_estimate(u, ConeSpec(2.0, epsilon=0.15, t_max=np.inf))
        assert tr.meta["levels"].tolist() == [0.2, 0.4, 0.8]
        assert np.abs(tr.samples).max() < 1e-12
        with pytest.raises(InsufficientLevels,
                           match=r"window \(0\.15, 0\.5\]; 2 of the 4 levels"):
            trace_estimate(u, ConeSpec(2.0, epsilon=0.15))


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


class TestField:
    def test_magnitude_is_computed_once_and_read_only(self, grid):
        rng = np.random.default_rng(3)
        shape = (4,) + grid.shape + (3,)
        u = HalfSpaceField(grid=grid, heights=[0.1, 0.2, 0.5, 1.0],
                           values=rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        mag = u.magnitude()
        assert u.magnitude() is mag
        assert mag.tobytes() == np.linalg.norm(u.values, axis=-1).tobytes()
        with pytest.raises(ValueError):
            mag[0, 0] = 1.0

    def test_one_component_magnitude_is_the_norm(self, grid):
        """M = 1 skips the norm's one-term sum and keeps its bits."""
        rng = np.random.default_rng(8)
        shape = (40,) + grid.shape + (1,)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values[0, :4, 0] = [0.0, -0.0, 1e-200 + 1e-200j, 1e200 - 3e200j]
        for vals in (values, values.real.copy()):
            u = HalfSpaceField(grid=grid, heights=np.arange(1.0, 41.0),
                               values=vals)
            with np.errstate(over="ignore"):       # |1e200 - 3e200j| = inf
                mag, want = u.magnitude(), np.linalg.norm(vals, axis=-1)
            assert mag.dtype == np.float64
            assert mag.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [2, 3])
    def test_summed_squares_magnitude_is_the_norm(self, grid, M):
        """M > 1 sums |u_j|^2 in order and keeps the norm's bits."""
        rng = np.random.default_rng(M)
        shape = (12,) + grid.shape + (M,)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values[0, :5, 0] = [0.0, -0.0, 1e-200 + 1e-200j, 1e200 - 3e200j,
                            1e-170]
        values[0, 0] = 0.0
        for vals in (values, values.real.copy()):
            u = HalfSpaceField(grid=grid, heights=np.arange(1.0, 13.0),
                               values=vals)
            with np.errstate(over="ignore", under="ignore"):
                mag, want = u.magnitude(), np.linalg.norm(vals, axis=-1)
            assert mag.dtype == np.float64 and mag.flags.c_contiguous
            assert mag.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 5), (2, 1024, 1, 1), (2, 1024, 2, 2),
                                       (3, 1024, 2, 1), (2, 1024, 1)])
    def test_gradient_of_wrong_shape_is_rejected(self, grid, shape):
        values = np.ones((2,) + grid.shape + (1,), complex)
        with pytest.raises(BadShape, match="gradient shape"):
            HalfSpaceField(grid=grid, heights=[0.5, 1.0], values=values,
                           gradient=np.ones(shape, complex))
        u = HalfSpaceField(grid=grid, heights=[0.5, 1.0], values=values,
                           gradient=np.ones((2,) + grid.shape + (2, 1), complex))
        assert u.gradient.shape == (2, 1024, 2, 1)


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
                kernels._PREPARED_CACHE.clear()     # cold symbol cache
                fields.append(poisson_extend(system, f, np.geomspace(0.1, 4, 12),
                                             gradient=True))
            assert np.array_equal(fields[0].values, fields[1].values)
            assert np.array_equal(fields[0].gradient, fields[1].gradient)


def per_height_reference(system, f, heights):
    """One symbol application and one inverse FFT per height and component,
    the way poisson_extend solved before it stacked the heights: for M = 1
    the contraction of the symbol's levels at each height, for M > 1 its
    action at each height (the contraction differs from the action in the last
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
            k = prepared.levels([t])
            ksym, dksym = (np.moveaxis(a[:, :, 0], -1, 0)
                           for a in (k, prepared.dt(k)))
            uhat = np.einsum("bij,bj->bi", ksym, fhat)
            dhat = np.einsum("bij,bj->bi", dksym, fhat)
        else:
            uhat, dhat = (a[0].T for a in prepared.action([t], True)(fhat.T))
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


def shifted_chain(system, f, heights, gradient):
    """The solve as it ran with both shifts, field by field:
    fftshift(ifftn(Khat fftn(ifftshift f) vol)) / vol, as (values, gradient)
    in the layout of a HalfSpaceField."""
    grid, M, d = f.grid, system.M, f.grid.d
    axes, sp = tuple(range(d)), tuple(range(2, 2 + d))
    fhat = np.fft.fftn(np.fft.ifftshift(f.samples, axes=axes),
                       axes=axes) * grid.cell_volume
    nodes = grid.freq_nodes_fftorder()
    uhat, dhat = kernels.prepared_symbol(system, nodes).action(
        heights, gradient)(fhat.reshape(-1, M).T)

    def field(spec):
        x = np.fft.ifftn(spec.reshape(spec.shape[:2] + grid.shape), axes=sp)
        x = np.fft.fftshift(x / grid.cell_volume, axes=sp)
        return np.moveaxis(x, 1, -1)

    if not gradient:
        return field(uhat), None
    parts = [field(1j * nodes[:, r] * uhat) for r in range(d)] + [field(dhat)]
    return field(uhat), np.stack(parts, axis=-2)


def _random_solve(n, M, N, gradient):
    system = _class_system(n, M, True)
    grid = Grid(n=n, N=N, h=0.3)
    rng = np.random.default_rng([n, M, N])
    shape = grid.shape + (M,)
    f = BoundaryData(grid=grid, samples=rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
    heights = np.array([0.05, 0.5, 2.0])
    return (poisson_extend(system, f, heights, gradient=gradient),
            shifted_chain(system, f, heights, gradient))


SOLVE_CLASSES = [(n, M) for n in (2, 3) for M in (1, 2, 3)]


@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("n,M", SOLVE_CLASSES)
def test_unshifted_solve_keeps_the_shifted_bits(n, M, N, gradient):
    """For N a power of two the FFT keeps the shift signs exact, so a solve
    with no shift has the bits of the chain with both."""
    u, (values, grad) = _random_solve(n, M, N, gradient)
    assert np.array_equal(u.values, values)
    assert (u.gradient is None) if not gradient else \
        np.array_equal(u.gradient, grad)


@pytest.mark.parametrize("N", [6, 96])
@pytest.mark.parametrize("n,M", SOLVE_CLASSES)
def test_unshifted_solve_within_round_off_of_the_shifted_chain(n, M, N):
    """Other even N may move in round-off: at most 8 eps of the largest
    value of each field (measured at most 4.7e-16 relative)."""
    u, (values, grad) = _random_solve(n, M, N, True)
    tol = 8 * np.finfo(float).eps
    assert np.abs(u.values - values).max() <= tol * np.abs(values).max()
    assert np.abs(u.gradient - grad).max() <= tol * np.abs(grad).max()


def test_gradient_solve_holds_few_spectra_beyond_its_fields(lame3_complex):
    # a warm complex Lame n = 3 gradient solve: besides the fields it
    # returns, at most two stacked spectra (L, M, N^2) live at any time
    grid = Grid(n=3, N=64, h=0.25)
    f = smooth_compact(grid, 3, 5, count=1)[0]
    heights = np.geomspace(0.01, 8.0, 12)
    poisson_extend(lame3_complex, f, heights, gradient=True)
    tracemalloc.start()
    try:
        u = poisson_extend(lame3_complex, f, heights, gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spectrum = len(heights) * 3 * grid.node_count * 16
    extra = peak - u.values.nbytes - u.gradient.nbytes
    assert extra <= 2 * spectrum, extra / spectrum


class TestBattery:
    """poisson_extend_each: one symbol pass for a battery on one grid."""

    @staticmethod
    def _battery(system, grid):
        return smooth_compact(grid, system.M, 4, count=3) \
            + sign_changing(grid, system.M, 9, count=2)

    @pytest.mark.parametrize("row, n, gradient", [
        ("lap2", 2, False), ("lame2_complex", 2, False),
        ("lame3_complex", 3, True)])
    def test_each_field_equals_its_own_solve(self, row, n, gradient, request):
        system = request.getfixturevalue(row) if row != "lame2_complex" \
            else build_system("lame", n=2, mu=1 + 0.3j, lam=2 - 0.5j)
        grid = Grid(n=2, N=512, h=0.125) if n == 2 else Grid(n=3, N=32, h=0.25)
        battery = self._battery(system, grid)
        heights = np.geomspace(0.05, 4, 9)
        fields = list(poisson_extend_each(system, battery, heights,
                                          gradient=gradient))
        assert len(fields) == len(battery)
        for f, u in zip(battery, fields):
            ref = poisson_extend(system, f, heights, gradient=gradient)
            assert np.array_equal(u.heights, ref.heights)
            assert np.array_equal(u.values, ref.values)
            if gradient:
                assert np.array_equal(u.gradient, ref.gradient)
            else:
                assert u.gradient is None
            assert u.provenance == ref.provenance

    def test_one_symbol_pass_for_a_scalar_battery(self, lap2, monkeypatch):
        calls = []
        inner = kernels.PreparedSymbol.levels

        def counting(self, heights):
            calls.append(len(heights))
            return inner(self, heights)

        monkeypatch.setattr(kernels.PreparedSymbol, "levels", counting)
        grid = Grid(n=2, N=256, h=0.125)
        battery = self._battery(lap2, grid)
        for _ in poisson_extend_each(lap2, battery, [0.5, 1.0], gradient=True):
            pass
        assert calls == [2]

    def test_one_closed_form_pass_for_a_lame2_battery(self, monkeypatch):
        """A Lame n = 2 battery of three data evaluates C and S of Khat =
        C I + S X0 once; each field equals its own solve bit for bit."""
        self._one_pass(2, monkeypatch)

    def test_one_schur_pass_for_a_lame3_battery(self, monkeypatch):
        """A Lame n = 3 battery of three data evaluates the six fields of E
        in Khat = Q E Q^H once; each field equals its own solve bit for
        bit."""
        self._one_pass(3, monkeypatch)

    @staticmethod
    def _one_pass(n, monkeypatch):
        system = build_system("lame", n=n, mu=1 + 0.3j, lam=2 - 0.5j)
        grid = Grid(n=2, N=256, h=0.125) if n == 2 else Grid(n=3, N=32, h=0.25)
        battery = smooth_compact(grid, n, 4, count=2) \
            + sign_changing(grid, n, 9, count=1)
        heights = np.geomspace(0.05, 4, 7)
        calls = []
        inner = kernels._eval_from_stacks

        def counting(system, stacks, s):
            calls.append(s.shape)
            return inner(system, stacks, s)

        monkeypatch.setattr(kernels, "_eval_from_stacks", counting)
        fields = list(poisson_extend_each(system, battery, heights,
                                          gradient=True))
        assert calls == [(len(heights), grid.node_count)]
        for f, u in zip(battery, fields):
            ref = poisson_extend(system, f, heights, gradient=True)
            assert np.array_equal(u.values, ref.values)
            assert np.array_equal(u.gradient, ref.gradient)

    def test_data_on_two_grids_raise(self, lap2):
        a = gaussian_datum(Grid(n=2, N=256, h=0.125))
        b = gaussian_datum(Grid(n=2, N=512, h=0.125))
        with pytest.raises(BadShape, match="2 grids"):
            poisson_extend_each(lap2, [a, b], [1.0])

    def test_datum_with_wrong_components_raises(self, lame2):
        grid = Grid(n=2, N=256, h=0.125)
        battery = smooth_compact(grid, 2, 1, count=2) \
            + smooth_compact(grid, 1, 1, count=1)
        with pytest.raises(BadShape, match="1 components, system wants 2"):
            poisson_extend_each(lame2, battery, [1.0])

    def test_wrap_guard_checks_every_datum(self, lap2):
        grid = Grid(n=2, N=256, h=0.125)
        wide = BoundaryData(grid=grid, samples=np.ones((grid.N, 1), complex))
        with pytest.raises(AliasRisk, match="not centrally supported"):
            poisson_extend_each(lap2, [gaussian_datum(grid), wide], [1.0],
                                wrap_tol=1.0)

    def test_empty_battery_yields_nothing(self, lap2):
        assert list(poisson_extend_each(lap2, [], [1.0])) == []


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
