import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace import (EllipticSystem, Grid, ImproperSplit, OutOfDomain,
                       RealAxisRoot, build_poisson_kernel, build_system,
                       kernel_at, poisson_extend, poisson_symbol_at,
                       poisson_symbol_dt_at, symbol_batch)
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

    def test_batch_general_path_matches(self, lap3, per_node_symbol):
        xis = np.array([[1.0, 0.0], [0.3, -0.4], [3.0, 4.0], [7.0, 1.0]])
        got, _ = per_node_symbol(lap3, xis, 0.9)
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


class TestLevels:
    """PreparedSymbol.levels, the one batched pass over all heights of a
    solve, against its one-height case at()."""

    def test_levels_match_at_bit_for_bit(self, random_lh3, monkeypatch):
        nodes = Grid(n=3, N=16, h=0.25).freq_nodes_fftorder()
        heights = np.geomspace(0.02, 30.0, 9)
        prep = kernels.PreparedSymbol(random_lh3, nodes)
        # the heights mix Taylor degrees and squaring counts, also per row
        s = np.multiply.outer(heights, prep.norms)
        alpha = s * prep.stacks["alpha"]
        squarings = np.ceil(np.log2(np.maximum(alpha, 1.0)))
        scaled = s * 0.5 ** squarings
        degrees = kernels._taylor_degrees(scaled * prep.stacks["nx"],
                                          scaled * prep.stacks["alpha"])
        assert len(set(degrees)) >= 3
        assert squarings.max() >= 8
        assert any(len(set(row)) > 2 for row in squarings)
        # node chunks of a few dozen split the rows of every degree
        monkeypatch.setattr(kernels, "_EXPM_BYTES", 48 * 9 * 100)
        k, dk = prep.levels(heights, want_dt=True)
        assert k.shape == dk.shape == (3, 3, len(heights), len(nodes))
        for li, t in enumerate(heights):
            kt, dkt = prep.at(t, want_dt=True)
            assert np.array_equal(np.moveaxis(k[:, :, li], -1, 0), kt)
            assert np.array_equal(np.moveaxis(dk[:, :, li], -1, 0), dkt)


APPLY_HEIGHTS = np.geomspace(0.01, 8.0, 9)


def _apply_setup(system):
    """A prepared symbol on a small grid and a seeded complex block v."""
    grid = Grid(n=system.n, N=256 if system.n == 2 else 16, h=0.25)
    prep = kernels.PreparedSymbol(system, grid.freq_nodes_fftorder())
    rng = np.random.default_rng(system.M)
    shape = (system.M, len(prep.xi))
    return prep, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("row", ["lap2", "lap3", "complex_scalar", "lame2",
                                 "lame3_complex", "random_lh3"])
class TestApply:
    """PreparedSymbol.apply, the action Khat v of the exponential, against
    the contraction of the matrices of levels with v."""

    def test_matches_contraction_of_levels(self, row, request):
        system = request.getfixturevalue(row)
        prep, v = _apply_setup(system)
        got = prep.apply(APPLY_HEIGHTS, v, want_dt=True)
        for g, k in zip(got, prep.levels(APPLY_HEIGHTS, want_dt=True)):
            want = np.einsum("ijlb,jb->lib", k, v)
            assert g.shape == want.shape == (len(APPLY_HEIGHTS),) + v.shape
            if system.M == 1:
                assert np.array_equal(g, want)
            err = np.abs(g - want).max(axis=(1, 2))
            assert np.all(err <= 1e-14 * np.abs(want).max(axis=(1, 2)))
        assert prep.apply(APPLY_HEIGHTS, v)[1] is None

    def test_batched_equals_per_height_and_chunks(self, row, request,
                                                  monkeypatch):
        prep, v = _apply_setup(request.getfixturevalue(row))
        w, dw = prep.apply(APPLY_HEIGHTS, v, want_dt=True)
        for li, t in enumerate(APPLY_HEIGHTS):
            wt, dwt = prep.apply([t], v, want_dt=True)
            assert np.array_equal(w[li], wt[0])
            assert np.array_equal(dw[li], dwt[0])
        # one node per chunk: squarings are decided per element, not chunk
        monkeypatch.setattr(kernels, "_EXPM_BYTES", 1)
        wc, dwc = prep.apply(APPLY_HEIGHTS, v, want_dt=True)
        assert np.array_equal(w, wc) and np.array_equal(dw, dwc)


def test_apply_heights_mix_action_and_squaring(random_lh3):
    """The heights of TestApply send some random_lh3 elements of one row
    through the action and others through the squared matrix."""
    prep, _ = _apply_setup(random_lh3)
    alpha = np.multiply.outer(APPLY_HEIGHTS, prep.norms) * prep.stacks["alpha"]
    squared = alpha > 1.0
    assert 0.2 < squared.mean() < 0.9
    assert np.any(squared.any(axis=1) & ~squared.all(axis=1))


def _class_system(n, M, complex_coeffs):
    """Seeded tensor delta_ab delta_rs + 0.2 noise of one system class;
    its Legendre-Hadamard margins are 0.26-1.0."""
    rng = np.random.default_rng([n, M, complex_coeffs])
    noise = rng.standard_normal((M, M, n, n))
    if complex_coeffs:
        noise = noise + 1j * rng.standard_normal((M, M, n, n))
    tensor = np.einsum("ab,rs->abrs", np.eye(M), np.eye(n)) + 0.2 * noise
    return build_system("raw", tensor=tensor)


@pytest.fixture(scope="module", params=[
    (n, M, c) for n in (2, 3) for M in (1, 2, 3) for c in (False, True)],
    ids=lambda p: "n%d-M%d-%s" % (p[0], p[1], "complex" if p[2] else "real"))
def class_system(request):
    return _class_system(*request.param)


class TestSystemClasses:
    """One prepared path for every class n in {2, 3}, M in {1, 2, 3}."""

    HEIGHTS = [0.0, 0.3, 1.1, 4.0]

    def _nodes(self, system):
        d = system.n - 1
        return np.vstack([np.zeros((1, d)), _seeded_nodes(40, 6, d=d)])

    def test_symbol_batch_is_a_row_of_levels(self, class_system):
        xi = self._nodes(class_system)
        k, dk = kernels.PreparedSymbol(class_system, xi).levels(
            self.HEIGHTS, True)
        for li, t in enumerate(self.HEIGHTS):
            kt, dkt = symbol_batch(class_system, xi, t, want_dt=True)
            assert np.array_equal(np.moveaxis(k[:, :, li], -1, 0), kt)
            assert np.array_equal(np.moveaxis(dk[:, :, li], -1, 0), dkt)

    def test_matches_per_node_solvents(self, class_system, per_node_symbol):
        xi = self._nodes(class_system)
        for t in self.HEIGHTS:
            k, dk = symbol_batch(class_system, xi, t, want_dt=True)
            want_k, want_dk = per_node_symbol(class_system, xi, t)
            assert np.abs(k - want_k).max() <= 1e-12
            assert np.abs(dk - want_dk).max() <= 1e-12

    def test_identity_at_zero_frequency(self, class_system):
        M = class_system.M
        xi = self._nodes(class_system)
        k, dk = symbol_batch(class_system, xi, 1.0, want_dt=True)
        assert np.array_equal(k[0], np.eye(M))
        assert np.array_equal(dk[0], np.zeros((M, M)))
        k, dk = poisson_symbol_dt_at(class_system, xi[0], 1.0)
        assert np.array_equal(k, np.eye(M))
        assert np.array_equal(dk, np.zeros((M, M)))

    def test_second_vertical_derivative_solves_the_ode(self, class_system):
        """d_t^2 Khat from generator powers against the vertical ODE
        M2 K'' = M0 K - i M1 K', solved for K''."""
        xi = self._nodes(class_system)
        d = class_system.n - 1
        a = class_system.coeffs
        m2inv = np.linalg.inv(a[:, :, -1, -1])
        m1 = np.einsum("xyr,br->bxy", a[:, :, :d, -1] + a[:, :, -1, :d], xi)
        m0 = np.einsum("xyrs,br,bs->bxy", a[:, :, :d, :d], xi, xi)
        for t in self.HEIGHTS:
            k, dk = symbol_batch(class_system, xi, t, want_dt=True)
            want = m2inv @ (m0 @ k - 1j * m1 @ dk)
            got = kernel_derivative_spectrum(class_system, xi, t,
                                             (0,) * d + (2,))
            err = np.abs(got - want).max(axis=(1, 2))
            assert np.all(err <= 1e-10 * np.abs(want).max(axis=(1, 2)))

    def test_nbytes_counts_the_generators(self, class_system):
        prep = kernels.PreparedSymbol(class_system, self._nodes(class_system))
        generators = sum(v.nbytes for v in prep.stacks.values())
        assert generators >= len(prep.xi) * 16 * class_system.M ** 2
        assert prep.nbytes == generators + prep.xi.nbytes + prep.norms.nbytes


def test_symbol_batch_prepares_node_chunks(lame2, monkeypatch):
    """One-off calls hold the generators of one chunk of nodes at a time;
    the chunks agree with one whole pass to round-off."""
    xi = _seeded_nodes(40, 7, d=1)
    whole = symbol_batch(lame2, xi, 0.8)
    built = []
    inner = kernels._collinear_batch

    def recording(system, nodes):
        built.append(len(nodes))
        return inner(system, nodes)

    monkeypatch.setattr(kernels, "_collinear_batch", recording)
    monkeypatch.setattr(kernels, "_SYMBOL_CHUNK", 16)
    chunked = symbol_batch(lame2, xi, 0.8)
    assert built == [16, 16, 8]
    assert np.abs(chunked - whole).max() <= 1e-15


def test_synthesis_prepares_each_node_chunk_once(lame2, monkeypatch):
    """All heights of one synthesis share the generators of a node chunk:
    9 heights on 256 nodes build the collinear solvents once."""
    built = []
    inner = kernels._collinear_batch

    def recording(system, nodes):
        built.append(len(nodes))
        return inner(system, nodes)

    monkeypatch.setattr(kernels, "_collinear_batch", recording)
    grid = Grid(n=2, N=256, h=1.0 / 16)
    stack = synthesize_kernel_levels(lame2, grid, 1.0 + np.arange(-4, 5) / 16)
    assert built == [256]
    assert stack.shape == (9, 256, 2, 2)


def test_derivative_multi_indices_share_one_preparation(lame2, monkeypatch):
    """The derivative constants of verify_kernel_properties come from one
    preparation of the probe nodes for all multi-indices, bit for bit equal
    to one synthesis per multi-index."""
    grid = Grid(n=2, N=256, h=1.0 / 8)
    alphas = [(1, 0), (2, 0), (0, 1), (0, 2)]
    single = [synthesize_kernel_levels(lame2, grid, [1.0], alpha=a)
              for a in alphas]
    built = []
    inner = kernels._collinear_batch

    def recording(system, nodes):
        built.append(len(nodes))
        return inner(system, nodes)

    monkeypatch.setattr(kernels, "_collinear_batch", recording)
    joint = kernels._synthesize_derivatives(lame2, grid, [1.0], alphas)
    assert built == [256]
    assert joint.shape == (4, 1, 256, 2, 2)
    for one, stack in zip(single, joint):
        assert np.array_equal(one, stack)


def test_derivative_spectrum_rejects_bad_multi_index(lame2):
    xi = np.array([[1.0]])
    with pytest.raises(ValueError, match="length n"):
        kernel_derivative_spectrum(lame2, xi, 1.0, (0, 0, 1))
    with pytest.raises(ValueError, match="limited to 2"):
        kernel_derivative_spectrum(lame2, xi, 1.0, (0, 3))


class TestPreparedCache:
    def test_lru_evicts_only_the_least_recently_used(self, lame3,
                                                     monkeypatch):
        monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
        sets = [_seeded_nodes(40, seed) for seed in (10, 11, 12, 13)]
        probe = kernels.PreparedSymbol(lame3, sets[0])
        size = probe.nbytes     # counts the solvent data and the nodes
        assert size > sum(v.nbytes for v in probe.stacks.values())
        monkeypatch.setattr(kernels, "_PREPARED_BYTES", 3 * size)
        first = [prepared_symbol(lame3, xi) for xi in sets[:3]]
        assert prepared_symbol(lame3, sets[0]) is first[0]   # hit: now newest
        last = prepared_symbol(lame3, sets[3])               # past the budget
        assert list(kernels._PREPARED_CACHE.values()) == \
            [first[2], first[0], last]
        assert prepared_symbol(lame3, sets[2]) is first[2]

    def test_entry_over_budget_is_not_kept(self, lame3, monkeypatch):
        monkeypatch.setattr(kernels, "_PREPARED_CACHE", {})
        xi = _seeded_nodes(40, 10)
        monkeypatch.setattr(kernels, "_PREPARED_BYTES",
                            kernels.PreparedSymbol(lame3, xi).nbytes - 1)
        assert prepared_symbol(lame3, xi).nbytes > kernels._PREPARED_BYTES
        assert not kernels._PREPARED_CACHE


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
        # P = (1/pi)(1+x^2)^{-1}: the sup of |P|(1+x^2) is exactly 1/pi
        _, kernel = lap2_kernel
        assert abs(kernel.tail_constant - 1.0 / np.pi) < 1e-15

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

    @pytest.mark.parametrize("name", ["lap2_kernel", "lame2_kernel",
                                      "lame3_small_kernel"])
    def test_table_is_kernel_at(self, name, request):
        """The table is the closed form on the grid: sampled points equal
        kernel_at at t = 1 bit for bit, one by one."""
        _, kernel = request.getfixturevalue(name)
        y = np.stack([m.ravel() for m in kernel.grid.meshes()], axis=1)
        flat = kernel.values.reshape((-1,) + kernel.values.shape[-2:])
        for j in np.random.default_rng(4).choice(len(y), 8, replace=False):
            assert np.array_equal(kernel_at(kernel, y[j], 1.0), flat[j])

    @pytest.mark.parametrize("N", [64, 128])
    def test_lap3_builds_at_default_tolerance(self, lap3, N):
        # the window sum plus the exact outer mass, not a periodised sum
        _, kernel = build_poisson_kernel(lap3, N=N)
        assert kernel.normalization_residual <= 1e-4
        assert kernel.normalization_residual_full == 0.0
        assert kernels.classical_oracle_residual(kernel) <= 1e-4


class TestWindowMass:
    """W_R, the exact mass of P on [-R, R]^(n-1), as a flux of F."""

    @pytest.mark.parametrize("R", [0.5, 6.283185307179586, 16.0])
    def test_laplacian_exact(self, lap2, lap3, R):
        w2 = kernels._window_mass(lap2, R)[0, 0]
        assert abs(w2 - 2.0 / np.pi * np.arctan(R)) <= 1e-14
        w3 = kernels._window_mass(lap3, R)[0, 0]
        exact = 2.0 / np.pi * np.arctan(R * R / np.sqrt(1.0 + 2.0 * R * R))
        assert abs(w3 - exact) <= 1e-14

    def test_field_divergence_is_kernel(self, lame3_complex):
        # central differences of F against P, O(h^2) with h = 1e-3
        y = np.array([[0.3, -0.7], [2.0, 1.5], [-4.0, 0.5]])
        e, h = np.eye(2), 1e-3
        div = sum((kernels._closed_form_kernel(lame3_complex, y + h * e[r],
                                               div_field=True)[:, r]
                   - kernels._closed_form_kernel(lame3_complex, y - h * e[r],
                                                 div_field=True)[:, r])
                  / (2.0 * h) for r in range(2))
        p = kernels._closed_form_kernel(lame3_complex, y)
        assert np.abs(div - p).max() <= 1e-6 * np.abs(p).max()

    @pytest.mark.parametrize("name, R", [("lap3", 8.0),
                                         ("lame3_complex", 2.0),
                                         ("random_lh3", 1.0)])
    def test_node_rule_converged(self, name, R, request, monkeypatch):
        """Doubling every node count (Gauss-Legendre per side and the
        trapezoid rule per point) moves W_R by at most 1e-14."""
        system = request.getfixturevalue(name)
        base = kernels._window_mass(system, R)
        monkeypatch.setattr(kernels, "_TRAPEZOID_MIN",
                            2 * kernels._TRAPEZOID_MIN)
        monkeypatch.setattr(kernels, "_TRAPEZOID_RATE",
                            2 * kernels._TRAPEZOID_RATE)
        assert np.abs(kernels._window_mass(system, R) - base).max() <= 1e-14

    @pytest.mark.parametrize("name", ["lame2", "lame3_complex"])
    def test_mass_tends_to_identity(self, name, request):
        # I - W_R decays like 1/R: a tail of order R^(-n) over the sphere
        system = request.getfixturevalue(name)
        rest = [np.abs(kernels._window_mass(system, R)
                       - np.eye(system.M)).max() for R in (2.0, 8.0)]
        assert rest[1] <= 0.35 * rest[0] and rest[1] <= 0.2


def _tail_constant(system):
    """The closed-form tail constant, on a fresh one-node PreparedSymbol."""
    return kernels.PreparedSymbol(system, np.zeros((1, system.n - 1))) \
        .tail_constant


class TestClosedForm:
    """P(y) = K(y, 1) from the solvents, the values of every table."""

    @staticmethod
    def _points(d, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((400, d))
        y *= rng.uniform(0.0, 20.0, (400, 1)) / np.linalg.norm(y, axis=1,
                                                             keepdims=True)
        return np.vstack([np.zeros((1, d)), y])

    @pytest.mark.parametrize("n", [2, 3])
    def test_laplacian_exact(self, n, lap2, lap3):
        system = lap2 if n == 2 else lap3
        y = self._points(n - 1, n)
        exact = (1.0 + (y * y).sum(axis=1)) ** (-0.5 * n) / (np.pi * (n - 1))
        got = kernels._closed_form_kernel(system, y)[:, 0, 0]
        assert (np.abs(got - exact) / exact).max() <= 1e-12
        assert abs(_tail_constant(system)
                   - 1.0 / (np.pi * (n - 1))) <= 1e-10

    @pytest.mark.parametrize("name", ["lame2_kernel", "lame3_small_kernel"])
    def test_fft_tables_within_their_images(self, name, request):
        """An FFT synthesis on the table's grid, an oracle independent of
        the closed form, is the kernel periodised on the box of half-width
        Rs = R: its error at y is the sum over k != 0 of P(y + 2 Rs k), at
        most C sum (1 + |y + 2 Rs k|^2)^(-n/2) with C the closed-form tail
        constant.  The lattice sum is cut at |k|_inf <= K; with
        u = 2 Rs - |y|_inf, the shells beyond add at most C d 2^d / (K u^n).
        1e-12 covers the symbol cut at the frequency box (below
        _BOUNDARY_TOL = 1e-12) and round-off."""
        _, kernel = request.getfixturevalue(name)
        system, grid = kernel.system, kernel.grid
        n, d, K = system.n, grid.d, (200 if grid.d == 1 else 20)
        y = np.stack([m.ravel() for m in grid.meshes()], axis=1)
        fft = synthesize_kernel_levels(system, grid, [1.0])[0]
        err = np.abs(fft.reshape(-1, system.M, system.M)
                     - kernels._closed_form_kernel(system, y)).max(axis=(1, 2))
        c = _tail_constant(system)
        rs = grid.R
        ks = np.stack(np.meshgrid(*[np.arange(-K, K + 1)] * d, indexing="ij"),
                      axis=-1).reshape(-1, d)
        ks = ks[np.any(ks != 0, axis=1)]
        z = y[:, None, :] + 2.0 * rs * ks[None]
        images = c * ((1.0 + (z * z).sum(axis=2)) ** (-0.5 * n)).sum(axis=1)
        rest = c * d * 2 ** d / (K * (2.0 * rs - np.abs(y).max(axis=1)) ** n)
        assert np.all(err <= images + rest + 1e-12)
        assert err.max() > 0.1 * images.min()   # the images are what is seen

    def test_node_count_rule_converged(self, random_lh3, monkeypatch):
        """Doubling every trapezoid node count moves the tail constant by
        less than 1e-6: the count grows with |y| / margin out to |y| = 40,
        where a fixed 512 nodes are far from converged."""
        base = _tail_constant(random_lh3)
        monkeypatch.setattr(kernels, "_TRAPEZOID_MIN",
                            2 * kernels._TRAPEZOID_MIN)
        monkeypatch.setattr(kernels, "_TRAPEZOID_RATE",
                            2 * kernels._TRAPEZOID_RATE)
        assert abs(_tail_constant(random_lh3) - base) < 1e-6 * base

    def test_tail_constant_bounds_operator_norm(self, random_lh3,
                                                monkeypatch):
        """The wrap bound multiplies the constant by the Euclidean sup of f,
        so it must dominate ||P(y)||_2 (1 + |y|^2)^(3/2), not only the
        largest entry, at every ray point it reads."""
        seen = []
        inner = kernels._closed_form_kernel

        def recording(system, y):
            seen.append((y, inner(system, y)))
            return seen[-1][1]

        monkeypatch.setattr(kernels, "_closed_form_kernel", recording)
        c = _tail_constant(random_lh3)
        (y, p), = seen
        weighted = np.linalg.svd(p, compute_uv=False)[:, 0] \
            * (1.0 + (y * y).sum(axis=1)) ** 1.5
        assert len(y) == 41 * 32 and weighted.max() <= c * (1 + 1e-12)

    def test_tail_constant_kept_with_prepared_nodes(self, lame3_complex):
        prep = kernels.PreparedSymbol(lame3_complex, _seeded_nodes(8, 3))
        assert prep.tail_constant == pytest.approx(0.349026, abs=1e-6)
        assert prep.__dict__["tail_constant"] is prep.tail_constant


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

    @pytest.mark.parametrize("x, t", [(1.0, 1e-4), (1e6, 1.0)])
    def test_laplacian_beyond_the_window(self, lap2_kernel, x, t):
        # both points lie far outside the tabulated window |x'/t| < R
        _, kernel = lap2_kernel
        exact = t / (np.pi * (x * x + t * t))
        assert abs(kernel_at(kernel, [x], t)[0, 0] - exact) <= 1e-15 * exact

    def test_laplacian_3d(self, lap3):
        _, kernel = build_poisson_kernel(lap3, N=32, normalization_tol=None)
        rng = np.random.default_rng(5)
        t = 0.6
        pts = rng.standard_normal((200, 2))
        pts *= rng.uniform(0.0, 40.0 * t, (200, 1)) / np.linalg.norm(
            pts, axis=1, keepdims=True)
        exact = t * (t * t + (pts * pts).sum(axis=1)) ** -1.5 / (2.0 * np.pi)
        got = kernel_at(kernel, pts, t)[:, 0, 0]
        assert (np.abs(got - exact) / exact).max() <= 1e-11

    @pytest.mark.parametrize("name", ["lame2_kernel", "lame3_small_kernel"])
    def test_stack_matches_single_points(self, name, request):
        _, kernel = request.getfixturevalue(name)
        d = kernel.grid.d
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.4, 0.4, (40, d)) * kernel.grid.R
        stack = kernel_at(kernel, pts, 0.8)
        assert stack.shape == (40,) + (kernel.system.M,) * 2
        for p, k in zip(pts, stack):
            assert np.array_equal(kernel_at(kernel, p, 0.8), k)

    def test_node_cap_raises_at_once(self, lame3_small_kernel):
        # |x'/t| = 1e8 would need 2^32 trapezoid nodes
        _, kernel = lame3_small_kernel
        start = time.perf_counter()
        with pytest.raises(OutOfDomain, match="a larger t"):
            kernel_at(kernel, [1e4, 0.0], 1e-4)
        assert time.perf_counter() - start < 1.0

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
    def test_probe_min_exact_on_laplacian(self, lap2, lap2_kernel):
        # the probe's largest spherical mean is |P(0.01)| = 1/(pi (1 + 1e-4))
        from halfspace import verify_kernel_properties
        table, kernel = lap2_kernel
        rep = verify_kernel_properties(lap2, kernel, table, pde_check=False)
        assert abs(rep.value("nondegeneracy_probe_min")
                   - 1.0 / (np.pi * (1.0 + 1e-4))) <= 1e-15

    def test_lame_kernel_report_passes(self, lame2, lame2_kernel):
        from halfspace import verify_kernel_properties
        table, kernel = lame2_kernel
        rep = verify_kernel_properties(lame2, kernel, table, pde_check=False)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert rep.value("semigroup_residual") < 1e-8
        assert rep.value("nondegeneracy_probe_min") > 0.0
        assert rep.value("far_field_slope_deviation") <= 0.1

    def test_small_window_raises_named_error(self, lap2):
        # R = 6.3 at N = 128: the far-field band 10 <= |x'| <= 0.9 R is empty
        from halfspace import verify_kernel_properties
        table, kernel = build_poisson_kernel(lap2, N=128)
        with pytest.raises(OutOfDomain, match="raise N"):
            verify_kernel_properties(lap2, kernel, table, pde_check=False)


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

    def test_probed_extent_passes_its_guard(self):
        # the probe's directions read below tolerance at |xi'| = 64, while
        # nodes off them in the boundary band do not; the build doubles on
        from halfspace import verify_kernel_properties
        system = build_system("scalar", A=[[1.0, 0.9], [0.9, 1.0]])
        assert kernels._probe_extent(system) == 64.0
        table, kernel = build_poisson_kernel(system, N=4096)
        assert kernel.meta["freq_extent"] == 128.0
        assert kernel.meta["boundary_symbol"] < kernels._BOUNDARY_TOL
        assert kernel.normalization_residual < 1e-7
        assert verify_kernel_properties(system, kernel, table).passed

    @pytest.mark.parametrize("A, error", [
        ([[-2.0, -1.5j], [-1.5j, 1.0]], ImproperSplit),   # roots i and 2i
        ([[-1.0, 0.3], [0.2, 1.0]], RealAxisRoot),        # real roots
    ])
    def test_solvent_root_errors(self, A, error):
        # not elliptic, so built past the validation of build_system
        system = EllipticSystem(n=2, M=1, ellipticity_margin=1.0,
                                coeffs=np.asarray(A, complex).reshape(1, 1, 2, 2))
        with pytest.raises(error):
            kernels._general_batch(system, np.array([[1.0], [-2.0]]))
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
