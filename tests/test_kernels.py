import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss
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


def _semigroup_residual(system, seed):
    """|Khat(xi', t0 + t1) - Khat(xi', t0) Khat(xi', t1)| at a seeded
    frequency, 0.1 <= |xi'| <= 15, and seeded heights in [0.1, 2]."""
    rng = np.random.default_rng(seed)
    if system.n == 2:
        xi = [rng.uniform(0.1, 15.0) * rng.choice([-1.0, 1.0])]
    else:
        w = rng.standard_normal(system.n - 1)
        xi = rng.uniform(0.1, 15.0) * w / np.linalg.norm(w)
    t0, t1 = rng.uniform(0.1, 2.0, 2)
    lhs = poisson_symbol_at(system, xi, t0 + t1)
    rhs = poisson_symbol_at(system, xi, t0) @ poisson_symbol_at(system, xi, t1)
    return np.abs(lhs - rhs).max()


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
        # large s: values underflow gracefully, no blow-up
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
        assert _semigroup_residual(lame2, seed) < 1e-10

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
        prep = prepared_symbol(lame3_system, xi)
        k = prep.levels([0.8])
        dk = prep.dt(k)
        assert np.array_equal(k[:, :, 0, 0], np.eye(3))
        assert np.array_equal(dk[:, :, 0, 0], np.zeros((3, 3)))

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
    solve, against its one-height case levels([t])."""

    def test_levels_match_one_height_bit_for_bit(self, random_lh3):
        nodes = Grid(n=3, N=16, h=0.25).freq_nodes_fftorder()
        heights = np.geomspace(0.02, 30.0, 9)
        prep = kernels.PreparedSymbol(random_lh3, nodes)
        # the heights mix the series and the quotients, also within a row,
        # and series of several degrees
        near, degree = _schur_branches(prep, heights)
        assert any(row.any() and not row.all() for row in near)
        assert len(set(degree[near])) >= 3
        k = prep.levels(heights)
        dk = prep.dt(k)
        assert k.shape == dk.shape == (3, 3, len(heights), len(nodes))
        for li, t in enumerate(heights):
            kt = prep.levels([t])
            dkt = prep.dt(kt)
            assert np.array_equal(k[:, :, li], kt[:, :, 0])
            assert np.array_equal(dk[:, :, li], dkt[:, :, 0])
        # the Taylor scaling and squaring the Schur form replaced would have
        # taken several degrees and up to 8 squarings here
        squarings, degrees = _taylor_copy(prep, heights)[1:]
        assert len(set(degrees)) >= 3 and squarings.max() >= 8


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
    """PreparedSymbol.action, the one way to apply Khat and d/dt Khat to a
    block v, against the contraction of levels and their dt with v."""

    def test_matches_contraction_of_levels(self, row, request):
        system = request.getfixturevalue(row)
        prep, v = _apply_setup(system)
        got = prep.action(APPLY_HEIGHTS, want_dt=True)(v)
        levels = prep.levels(APPLY_HEIGHTS)
        for g, k in zip(got, (levels, prep.dt(levels))):
            want = np.einsum("ijlb,jb->lib", k, v)
            assert g.shape == want.shape == (len(APPLY_HEIGHTS),) + v.shape
            if system.M == 1:
                assert np.array_equal(g, want)
            err = np.abs(g - want).max(axis=(1, 2))
            assert np.all(err <= 1e-14 * np.abs(want).max(axis=(1, 2)))
        assert prep.action(APPLY_HEIGHTS)(v)[1] is None

    def test_batched_equals_per_height_and_chunks(self, row, request):
        system = request.getfixturevalue(row)
        prep, v = _apply_setup(system)
        w, dw = prep.action(APPLY_HEIGHTS, want_dt=True)(v)
        for li, t in enumerate(APPLY_HEIGHTS):
            wt, dwt = prep.action([t], want_dt=True)(v)
            assert np.array_equal(w[li], wt[0])
            assert np.array_equal(dw[li], dwt[0])
        # node chunks: every element is its own, whatever shares its call
        for nodes in (np.arange(1, len(prep.xi), 7), np.arange(3)):
            sub = kernels.PreparedSymbol(system, prep.xi[nodes])
            ws, dws = sub.action(APPLY_HEIGHTS, want_dt=True)(v[:, nodes])
            assert np.array_equal(w[..., nodes], ws)
            assert np.array_equal(dw[..., nodes], dws)


def test_apply_heights_mix_series_and_quotients(random_lh3):
    """The heights of TestApply send some random_lh3 elements of one row
    through the series and others through the divided differences."""
    prep, _ = _apply_setup(random_lh3)
    near = _schur_branches(prep, APPLY_HEIGHTS)[0]
    assert 0.05 < near.mean() < 0.9
    assert np.any(near.any(axis=1) & ~near.all(axis=1))


def _class_system(n, M, complex_coeffs):
    """Seeded tensor delta_ab delta_rs + 0.2 noise of one system class;
    its Legendre-Hadamard margins are 0.26-1.0."""
    rng = np.random.default_rng([n, M, complex_coeffs])
    noise = rng.standard_normal((M, M, n, n))
    if complex_coeffs:
        noise = noise + 1j * rng.standard_normal((M, M, n, n))
    tensor = np.einsum("ab,rs->abrs", np.eye(M), np.eye(n)) + 0.2 * noise
    return build_system("raw", tensor=tensor)


CLASSES = [(n, M, c) for n in (2, 3) for M in (1, 2, 3) for c in (False, True)]


def _class_id(p):
    return "n%d-M%d-%s" % (p[0], p[1], "complex" if p[2] else "real")


@pytest.fixture(scope="module", params=CLASSES, ids=_class_id)
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
        prep = kernels.PreparedSymbol(class_system, xi)
        k = prep.levels(self.HEIGHTS)
        dk = prep.dt(k)
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

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_semigroup_property(self, class_system, seed):
        assert _semigroup_residual(class_system, seed) < 1e-10

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


@pytest.mark.parametrize("row", CLASSES + ["random_lh3"], ids=lambda p: p
                         if isinstance(p, str) else _class_id(p))
def test_levels_derivative_is_dt_of_levels(row, request):
    """action's d/dt Khat v is dt of the action block for every class, bit
    for bit equal to an in-test copy of the product (i G Khat v) |xi'| in
    _soa_matmul's order, at heights that reach the series of degree above 4
    and the quotients (M = 3, where the block is Q (E (Q^H v))) or both
    sides of the closed form's series switch (M = 2, where the block is
    C v + S (X0 v)); for M = 1 it is the contraction of i tau Khat with v."""
    system = request.getfixturevalue(row) if isinstance(row, str) \
        else _class_system(*row)
    d, M = system.n - 1, system.M
    xi = np.vstack([np.zeros((1, d)), _seeded_nodes(40, 6, d=d)])
    heights = np.geomspace(0.05, 30.0, 6)
    prep = kernels.PreparedSymbol(system, xi)
    re, im = np.random.default_rng(M).standard_normal((2, M, len(xi)))
    v = re + 1j * im
    w, dw = prep.action(heights, want_dt=True)(v)
    if M == 1:
        k = prep.levels(heights)
        want = np.einsum("ijlb,jb->lib", 1j * prep.stacks["tau"] * k, v)
        assert np.array_equal(dw, want)
        return
    s = np.multiply.outer(heights, prep.norms)
    if M == 2:
        near = s * np.abs(prep.stacks["delta"]) <= kernels._CS_SERIES
        assert near.any() and not near.all()
        c, sh = kernels._eval_from_stacks(system, prep.stacks, s)
        x0 = prep.stacks["x0"]
        xv = x0[:, 0] * v[0] + x0[:, 1] * v[1]     # _soa_matmul's order
        block = (c * v[:, None] + sh * xv[:, None])[:, None]
    else:
        near, degree = _schur_branches(prep, heights)
        assert near.any() and not near.all() and degree.max() > 4
        e = kernels._eval_from_stacks(system, prep.stacks, s)
        q = prep.stacks["q"]
        u = q[0].conj() * v[0] + q[1].conj() * v[1] + q[2].conj() * v[2]
        y = e[3:, None] * u[:, None, None]        # the action's order
        for f, a, b in zip(e[:3], *kernels._FIELDS):
            y[a, 0] += f * u[b]
        block = kernels._soa_matmul(q[:, :, None], y)
    assert np.array_equal(w, block[:, 0].swapaxes(0, 1))
    g = 1j * prep.stacks["g"]
    inner = np.empty_like(block)
    for i in range(M):     # the loop's product, summed in _soa_matmul's order
        acc = g[i, 0, None] * block[0, 0]
        for q in range(1, M):
            acc += g[i, q, None] * block[q, 0]
        inner[i, 0] = acc
    assert np.array_equal(dw, inner[:, 0].swapaxes(0, 1) * prep.norms)


M2_ROWS = [p for p in CLASSES if p[1] == 2] + ["lame2", "lame2_complex"]


def _m2_system(row, request):
    if row == "lame2_complex":
        return build_system("lame", n=2, mu=1 + 0.3j, lam=2 - 0.5j)
    return request.getfixturevalue(row) if isinstance(row, str) \
        else _class_system(*row)


def _taylor_reference(x):
    """expm of a (P, 2, 2) stack by scaling and squaring: X / 2^j with
    ||X / 2^j||_1 <= 1/2, a 30-term Taylor sum, j squarings."""
    j = np.ceil(np.log2(np.maximum(
        2.0 * np.abs(x).sum(axis=1).max(axis=1), 1.0))).astype(int)
    y = x / (2.0 ** j)[:, None, None]
    k, term = np.broadcast_to(np.eye(2), x.shape).astype(complex), np.eye(2)
    for q in range(1, 31):
        term = term @ y / q
        k += term
    for round_ in range(1, j.max(initial=0) + 1):
        k[j >= round_] = k[j >= round_] @ k[j >= round_]
    return k


@pytest.mark.parametrize("row", M2_ROWS, ids=lambda p: p
                         if isinstance(p, str) else _class_id(p))
class TestClosedFormM2:
    """Khat = C I + S X0 for every M = 2 generator: no Taylor degree, no
    squaring, and each element's value set by its own node and height."""

    HEIGHTS = np.geomspace(0.02, 3.0, 8)

    def _prep(self, system):
        d = system.n - 1
        xi = np.vstack([np.zeros((1, d)), _seeded_nodes(40, 6, d=d)])
        return kernels.PreparedSymbol(system, xi)

    def test_both_sides_of_the_switch_match_taylor(self, row, request):
        """Against an in-test scaling and squaring of e^(s mu) expm(s X0)
        on both sides of the series switch |s delta| = _CS_SERIES: within
        1e-14 (1 + s) of max |Khat| per element, s up to 58.  Measured:
        at most 3.1e-14 on the class systems and 2.1e-13 on complex Lame,
        mostly the reference's own squarings (against 50-digit expm, the
        closed form is 0.9e-12 and the reference 3.0e-11 at s = 500)."""
        system = _m2_system(row, request)
        prep = self._prep(system)
        k = prep.levels(self.HEIGHTS)
        s = np.multiply.outer(self.HEIGHTS, prep.norms)
        near = s * np.abs(prep.stacks["delta"]) <= kernels._CS_SERIES
        if system.label.startswith("lame"):
            assert near.all()      # X0 is nilpotent up to round-off
        else:
            assert near.any() and not near.all()
        x0 = np.moveaxis(prep.stacks["x0"], -1, 0)
        ref = _taylor_reference(s.reshape(-1)[:, None, None]
                                * np.tile(x0, (len(self.HEIGHTS), 1, 1)))
        ref *= np.exp(s * prep.stacks["mu"]).reshape(-1)[:, None, None]
        got = np.moveaxis(k, (0, 1), (-2, -1)).reshape(ref.shape)
        err = np.abs(got - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * (1.0 + s.reshape(-1))
                      * np.abs(ref).max(axis=(1, 2)))

    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 8.0])
    def test_subset_equals_full_call(self, row, t, request):
        system = _m2_system(row, request)
        xi = self._prep(system).xi
        full = symbol_batch(system, xi, t)
        for subset in (np.arange(1, len(xi), 3), np.arange(len(xi))[::-1]):
            assert np.array_equal(symbol_batch(system, xi[subset], t),
                                  full[subset])

    def test_no_taylor_degrees(self, row, request, monkeypatch):
        """No M = 2 symbol reaches the M = 3 exponential, once a Taylor
        scaling and squaring and now the Schur form."""
        def forbidden(*args):
            raise AssertionError("an M = 2 symbol reached the M = 3 path")

        for name in ("_schur3", "_schur_series", "_schur_quotients"):
            monkeypatch.setattr(kernels, name, forbidden)
        system = _m2_system(row, request)
        prep = self._prep(system)
        prep.levels(self.HEIGHTS)
        prep.action(self.HEIGHTS, want_dt=True)(np.ones((2, len(prep.xi))))
        symbol_batch(system, prep.xi, 3.0, want_dt=True)


def _schur_branches(prep, heights):
    """Per element of a prepared M = 3 symbol at ``heights``: whether it
    takes the series, and that series' degree, as _eval_from_stacks and
    _schur_series decide them."""
    s = np.multiply.outer(heights, prep.norms)
    lam = prep.stacks["t"][3:]
    spread = np.abs(lam[:, None] - lam[None]).max(axis=(0, 1))
    r = s * np.abs(lam).max(axis=0)
    return (s * spread <= kernels._SCHUR_SERIES,
            4 + np.searchsorted(kernels._SCHUR_RADII, r))


def _taylor_copy(prep, heights):
    """(Khat (3, 3, L, B), squarings (L, B), degrees (L,)) of a prepared
    M = 3 symbol by an in-test copy of the Taylor scaling and squaring that
    _eval_from_stacks ran before the Schur form: X = s (mu I + X0) halved
    j times until s ||X0^2||_F^(1/2) <= 1, one degree per height from the
    row's worst node (both next terms <= 2^-56), Horner's rule, then
    e^(s mu / 2^j) and j squarings."""
    g = np.moveaxis(prep.stacks["g"], -1, 0)
    mu = 1j * np.trace(g, axis1=1, axis2=2) / 3
    x0 = 1j * g - mu[:, None, None] * np.eye(3)
    nx = np.linalg.norm(x0, axis=(1, 2))
    alpha = np.sqrt(np.linalg.norm(x0 @ x0, axis=(1, 2)))
    x0 = np.moveaxis(x0, 0, -1)
    s = np.multiply.outer(heights, prep.norms)
    squarings = np.ceil(np.log2(np.maximum(s * alpha, 1.0))).astype(int)
    c = s * 0.5 ** squarings
    k = np.empty((3, 3) + s.shape, complex)
    degrees = []
    for row, (cr, sq) in enumerate(zip(c, squarings)):
        def bound(q):
            return ((cr * nx) ** (q % 2) * (cr * alpha) ** (q - q % 2)
                    / math.factorial(q)).max()

        m = next(m for m in range(1, 64)
                 if max(bound(m + 1), bound(m + 2)) <= 2.0 ** -56)
        degrees.append(m)
        x = x0 * cr
        w = x * (1.0 / m)
        for j in range(m - 1, -1, -1):
            for i in range(3):
                w[i, i] += 1.0
            if j:
                w = kernels._soa_matmul(x, w) * (1.0 / j)
        w *= np.exp(mu * cr)
        for round_ in range(1, sq.max(initial=0) + 1):
            more = sq >= round_
            w[:, :, more] = kernels._soa_matmul(w[:, :, more], w[:, :, more])
        k[:, :, row] = w
    return k, squarings, np.array(degrees)


M3_ROWS = ["random_lh3", "lame3_complex", "lame3", "lame3_neg"]
M3_HEIGHTS = np.array([0.05, 0.3, 1.0, 8.0])


def _m3_prep(row, request):
    """A prepared M = 3 symbol at the zero frequency and 64 seeded nodes
    with 0.14 <= |xi'| <= 57, so s = t |xi'| reaches 456."""
    system = build_system("lame", n=3, mu=1.0, lam=-1.9) \
        if row == "lame3_neg" else request.getfixturevalue(row)
    xi = np.vstack([np.zeros((1, 2)), 2.85 * _seeded_nodes(64, 9)])
    return kernels.PreparedSymbol(system, xi)


@pytest.mark.parametrize("row", M3_ROWS)
class TestSchurM3:
    """Khat = e^(s mu) Q E Q^H for every M = 3 generator: no squaring, and
    each element's value set by its own node and height."""

    def test_schur_form(self, row, request):
        """Q is unitary and Q T Q^H rebuilds X0 = i G - mu I from the upper
        fields of T alone, the strict lower part of T being round-off."""
        prep = _m3_prep(row, request)
        q = np.moveaxis(prep.stacks["q"], -1, 0)
        t = np.zeros((len(q), 3, 3), complex)
        t[(slice(None),) + kernels._FIELDS] = prep.stacks["t"].T
        g = np.moveaxis(prep.stacks["g"], -1, 0)
        mu = prep.stacks["mu"][:, None, None]
        x0 = 1j * g - mu * np.eye(3)
        scale = np.abs(x0).max(axis=(1, 2))[:, None, None] + 1e-300
        qh = q.conj().swapaxes(1, 2)
        assert np.abs(qh @ q - np.eye(3)).max() <= 1e-14
        assert np.all(np.abs(q @ t @ qh - x0) <= 1e-14 * scale)

    def test_matches_taylor_and_expm(self, row, request):
        """Within 2e-11 of max |Khat| per element of the in-test Taylor copy
        and 1e-10 of ``scipy.linalg.expm``, at s up to 456.  Measured: at
        most 6.1e-12 and 2.8e-11.  Against 50-digit expm at 8 nodes to
        |xi'| = 57 the Schur form read at most 6.4e-12, the Taylor copy
        6.7e-12 and scipy 4.2e-11, real Lame (1, -1.9) the worst."""
        prep = _m3_prep(row, request)
        k = prep.levels(M3_HEIGHTS)
        scale = np.abs(k).max(axis=(0, 1))
        taylor = _taylor_copy(prep, M3_HEIGHTS)[0]
        assert np.all(np.abs(k - taylor).max(axis=(0, 1)) <= 2e-11 * scale)
        s = np.multiply.outer(M3_HEIGHTS, prep.norms)[..., None, None]
        g = np.moveaxis(prep.stacks["g"], -1, 0)
        ref = np.moveaxis(scipy.linalg.expm(1j * s * g), (-2, -1), (0, 1))
        assert np.all(np.abs(k - ref).max(axis=(0, 1)) <= 1e-10 * scale)

    @pytest.mark.parametrize("t", M3_HEIGHTS)
    def test_subset_equals_full_call(self, row, t, request):
        prep = _m3_prep(row, request)
        full = symbol_batch(prep.system, prep.xi, t)
        for subset in (np.arange(1, len(prep.xi), 3),
                       np.arange(len(prep.xi))[::-1]):
            assert np.array_equal(symbol_batch(prep.system, prep.xi[subset], t),
                                  full[subset])


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


# the half-width R of an N = 4096 table at frequency extent 32, as built for
# lap2_kernel, lame2_kernel and every kernel_lame2 op
TABLE_R = Grid(n=2, N=4096, h=np.pi / 32).R
LAME2_MODULI = [(1.0, 1.0), (1 + 0.3j, 2 - 0.5j), (0.05, 1.0), (1.0, -1.9),
                (1.0, -1.99)]


def equal_panel_mass(system, R):
    """The earlier n = 2 W_R: equal Gauss-Legendre panels, as many as the
    n = 3 trapezoid node rule gives at |y| = R."""
    panels = int(kernels._node_counts(system, np.array([R]))[0]) \
        // kernels._GAUSS_PANEL
    x, w = leggauss(kernels._GAUSS_PANEL)
    half = R / panels
    t = (half * (2 * np.arange(panels)[:, None] + 1 + x) - R).ravel()
    return np.einsum("k,kij->ij", half * np.resize(w, len(t)),
                     kernels._closed_form_kernel(system, t[:, None]))


class TestWindowMass:
    """W_R, the exact mass of P on [-R, R]^(n-1): on pole-graded panels in
    n = 2, as a flux of F in n = 3."""

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

    @pytest.mark.parametrize("mu, lam", LAME2_MODULI)
    def test_lame2_exact(self, mu, lam):
        """W_R of Lame n = 2 is diagonal: with a = arctan R, q = R/(1+R^2),
        W_11, W_22 = [4 mu a + 2 (mu+lam)(a -+ q)] / ((3 mu + lam) pi).  At
        the R of an N = 4096 table the pole-graded panels beat the equal
        panels of the n = 3 node rule."""
        system = build_system("lame", n=2, mu=mu, lam=lam)
        for R in (0.5, 6.0, TABLE_R):
            a, q = np.arctan(R), R / (1.0 + R * R)
            exact = np.diag([4 * mu * a + 2 * (mu + lam) * (a - q),
                             4 * mu * a + 2 * (mu + lam) * (a + q)]) \
                / ((3 * mu + lam) * np.pi)
            err = np.abs(kernels._window_mass(system, R) - exact).max()
            assert err <= 1e-14
        assert err <= np.abs(equal_panel_mass(system, R) - exact).max()

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.99, 0.9999])
    def test_sheared_scalar_exact(self, b):
        """A = [[1, b], [b, 1]]: poles at -b + i sigma and b + i sigma,
        sigma = sqrt(1 - b^2), and W_R = [arctan((R+b)/sigma) +
        arctan((R-b)/sigma)] / pi."""
        system = build_system("scalar", A=[[1.0, b], [b, 1.0]])
        sigma = np.sqrt(1.0 - b * b)
        for R in (0.5, 6.0, TABLE_R):
            exact = (np.arctan((R + b) / sigma)
                     + np.arctan((R - b) / sigma)) / np.pi
            assert abs(kernels._window_mass(system, R)[0, 0] - exact) <= 1e-14

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize("R", [6.0, TABLE_R])
    def test_panels_converged(self, M, complex_coeffs, R, monkeypatch):
        """Halving every panel of an n = 2 class system moves W_R by at
        most 1e-14."""
        system = _class_system(2, M, complex_coeffs)
        base = kernels._window_mass(system, R)
        panels = kernels._pole_panels

        def halved(system, R):
            lo, hi = panels(system, R)
            mid = 0.5 * (lo + hi)
            return np.stack([np.ravel([lo, mid], order="F"),
                             np.ravel([mid, hi], order="F")])

        monkeypatch.setattr(kernels, "_pole_panels", halved)
        assert np.abs(kernels._window_mass(system, R) - base).max() <= 1e-14

    @pytest.mark.parametrize("mu, lam", LAME2_MODULI + [
        (complex(*rng.uniform((0.7, -0.4), (1.5, 0.4))),
         complex(*rng.uniform((0.5, -0.6), (2.5, 0.6))))
        for rng in map(np.random.default_rng, (5, 77))])
    def test_lame2_table_mass_point_count(self, mu, lam, monkeypatch):
        """At the R of an N = 4096 table, as in every kernel report of the
        benchmark's kernel_lame2 (whose moduli ranges the last two draw from),
        W_R evaluates the closed form at 23 panels of 16 points (the n = 3
        node rule gave 8192), and the panels tile [-R, R]."""
        system = build_system("lame", n=2, mu=mu, lam=lam)
        lo, hi = kernels._pole_panels(system, TABLE_R)
        assert lo[0] == -TABLE_R and hi[-1] == TABLE_R
        assert np.array_equal(lo[1:], hi[:-1])
        closed_form, rows = kernels._closed_form_kernel, []

        def counted(system, y, div_field=False):
            rows.append(len(y))
            return closed_form(system, y, div_field)

        monkeypatch.setattr(kernels, "_closed_form_kernel", counted)
        kernels._window_mass(system, TABLE_R)
        assert rows == [368]

    @pytest.mark.parametrize("name", ["lame2", "lame3_complex"])
    def test_mass_tends_to_identity(self, name, request):
        # I - W_R decays like 1/R: a tail of order R^(-n) over the sphere
        system = request.getfixturevalue(name)
        rest = [np.abs(kernels._window_mass(system, R)
                       - np.eye(system.M)).max() for R in (2.0, 8.0)]
        assert rest[1] <= 0.35 * rest[0] and rest[1] <= 0.2


def _tail_constant(system):
    """The closed-form tail constant, computed anew on a fresh copy of the
    system: the session fixture's copy holds its constant from test to
    test."""
    return kernels.tail_constant(dataclasses.replace(system))


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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mu, lam", LAME2_MODULI[:4])
    def test_lame_exact(self, n, mu, lam):
        """The classical Lame kernel: with omega = |S^(n-1)|, x = (y, 1),
        a = 4 mu / ((3 mu + lam) omega), b = 2 n (mu + lam) / ((3 mu + lam)
        omega), P(y) = a |x|^-n I + b x x^T |x|^(-n-2).  So (1 + |y|^2)^(n/2)
        P(y) = a I + b xh xh^T, xh = x / |x|, a normal matrix of norm
        max(|a|, |a + b|) at every y.  Measured: the kernel to 1.1e-15 (n =
        2) and 1.4e-15 (n = 3) of max |P| at these points, and to 3.7e-15
        at 30 seeds; the tail constant to 8.7e-16 relative in n = 2 and
        2.4e-12 in n = 3 (1, -1.9), whose sup runs to |y| = 40, where the
        n = 3 round-off is about 1e-17 |y|^3 over the ellipticity 0.1."""
        system = build_system("lame", n=n, mu=mu, lam=lam)
        omega = 2.0 * np.pi if n == 2 else 4.0 * np.pi
        a = 4.0 * mu / ((3.0 * mu + lam) * omega)
        b = 2.0 * n * (mu + lam) / ((3.0 * mu + lam) * omega)
        y = np.random.default_rng(n).uniform(-6.0, 6.0, (50, n - 1))
        x = np.hstack([y, np.ones((50, 1))])
        r2 = (x * x).sum(axis=1)[:, None, None]
        exact = a * r2 ** (-0.5 * n) * np.eye(n) \
            + b * x[:, :, None] * x[:, None, :] * r2 ** (-0.5 * n - 1.0)
        err = np.abs(kernels._closed_form_kernel(system, y) - exact).max()
        assert err <= (4e-15 if n == 2 else 2e-14) * np.abs(exact).max()
        norm = max(abs(a), abs(a + b))
        assert abs(kernels.tail_constant(system) - norm) \
            <= (4e-15 if n == 2 else 5e-12) * norm

    @pytest.mark.parametrize("n, N", [(2, 1024), (3, 32)])
    @pytest.mark.parametrize("mu, lam", LAME2_MODULI[:4])
    def test_lame_oracle(self, n, N, mu, lam):
        """classical_oracle_residual knows a Lame tensor by its coefficients,
        whatever its label: the normwise error against the classical kernel
        is within 1e-14 (measured: 1.0e-15 at most on these moduli), and the
        n = 2 report holds its row to 1e-10.  A tensor off the Lame form
        has no oracle."""
        from halfspace import verify_kernel_properties
        system = build_system("lame", n=n, mu=mu, lam=lam)
        table, kernel = build_poisson_kernel(system, N=N,
                                             normalization_tol=None)
        err = kernels.classical_oracle_residual(kernel)
        assert err <= 1e-14
        raw = build_system("raw", tensor=system.coeffs)
        assert raw.label == "raw"
        assert kernels.classical_oracle_residual(
            dataclasses.replace(kernel, system=raw)) == err
        coeffs = system.coeffs.copy()
        coeffs[0, 0, 0, 1] += 1e-3
        off = dataclasses.replace(system, coeffs=coeffs)
        assert kernels.classical_oracle_residual(
            dataclasses.replace(kernel, system=off)) is None
        if n == 2:
            metric = verify_kernel_properties(
                system, kernel, table, pde_check=False).metric(
                    "classical_oracle_rel_error")
            assert metric.value == err and metric.tolerance == 1e-10
            assert metric.passed

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
        largest entry, at every ray point and every polished point it
        reads; on random_lh3 the polish reads above the rays and one of
        its points attains the constant."""
        seen = []
        inner = kernels._closed_form_kernel

        def recording(system, y):
            seen.append((y, inner(system, y)))
            return seen[-1][1]

        monkeypatch.setattr(kernels, "_closed_form_kernel", recording)
        c = _tail_constant(random_lh3)
        weighted = [np.linalg.svd(p, compute_uv=False)[:, 0]
                    * (1.0 + (y * y).sum(axis=1)) ** 1.5 for y, p in seen]
        assert len(seen[0][0]) == 41 * 32
        assert len(seen) == 1 + kernels._POLISH_ROUNDS
        assert all(len(y) == 25 for y, _ in seen[1:])
        assert max(w.max() for w in weighted) == c
        assert weighted[0].max() < c * (1 - 1e-3)

    @pytest.mark.parametrize("name", ["random_lh3", "complex_scalar"])
    def test_tail_constant_matches_optimizer(self, name, request):
        """Nelder-Mead from the best ray point (scipy.optimize, an oracle
        independent of the polish) finds the same sup to 1e-6."""
        from scipy.optimize import minimize
        system = request.getfixturevalue(name)
        d = system.n - 1

        def weighted(y):
            y = np.atleast_2d(y)
            p = kernels._closed_form_kernel(system, y)
            return np.linalg.norm(p, 2, (1, 2)) \
                * (1.0 + (y * y).sum(axis=1)) ** (0.5 * system.n)

        radii = np.concatenate([[0.0], np.geomspace(1.0 / 16, 40.0, 40)])
        rays = np.kron(radii[:, None],
                       kernels._unit_circle(d, 2 if d == 1 else 32))
        start = rays[np.argmax(weighted(rays))]
        oracle = -minimize(lambda y: -weighted(y)[0], start,
                           method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-15}).fun
        assert oracle > weighted(start)[0] * (1 + 1e-4)
        assert abs(_tail_constant(system) - oracle) <= 1e-6 * oracle

    def test_tail_constant_kept_with_the_system(self, lame3_complex,
                                                monkeypatch):
        """The constant is held with the system's solvent table: asked
        again, it evaluates no closed form; a copy of the system computes
        its own, and no PreparedSymbol carries one."""
        system = dataclasses.replace(lame3_complex)
        c = kernels.tail_constant(system)
        assert c == pytest.approx(0.349026, abs=1e-6)
        assert kernels._solvents(system).tail == c

        def refuse(*args, **kwargs):
            raise AssertionError("closed-form kernel evaluated")

        monkeypatch.setattr(kernels, "_closed_form_kernel", refuse)
        assert kernels.tail_constant(system) == c
        with pytest.raises(AssertionError, match="closed-form"):
            kernels.tail_constant(dataclasses.replace(system))
        assert not hasattr(kernels.PreparedSymbol, "tail_constant")


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


def _near_margin_scalar(b=0.99875):
    """Scalar n = 3 system A = [[1, 0, b], [0, 1, 0], [b, 0, 1]] whose
    characteristic roots come within 0.05 of the real axis (0.02 at
    b = 0.9998); its solvent table needs 1024 angles."""
    return build_system("scalar", A=[[1.0, 0.0, b], [0.0, 1.0, 0.0],
                                     [b, 0.0, 1.0]])


def _counting_solves(monkeypatch):
    """Patch ``kernels._solvent_stacks`` to record each call's direction
    count in the returned list."""
    solved = []
    inner = kernels._solvent_stacks

    def counting(system, omega):
        solved.append(len(omega))
        return inner(system, omega)

    monkeypatch.setattr(kernels, "_solvent_stacks", counting)
    return solved


class TestSolventTable:
    """One table of solvents G per system, read by every consumer."""

    def test_lame2_kernel_op_solves_once(self, monkeypatch):
        from halfspace import verify_kernel_properties
        calls = _counting_solves(monkeypatch)
        system = build_system("lame", n=2, mu=1.2 + 0.1j, lam=1.5 - 0.3j)
        table, kernel = build_poisson_kernel(system, N=4096)
        assert verify_kernel_properties(system, kernel, table).passed
        assert calls == [2]

    # the table size Q of every n = 3 system of the tests
    TABLE_SIZES = {"lap3": 64, "lame3": 64, "lame3_complex": 64,
                   "random_lh3": 128, "near_margin": 1024,
                   "class-M1-real": 64, "class-M1-complex": 64,
                   "class-M2-real": 64, "class-M2-complex": 128,
                   "class-M3-real": 128, "class-M3-complex": 128}

    @pytest.mark.parametrize("name", [
        "lap3", "lame3", "lame3_complex", "random_lh3", "near_margin"] + [
        "class-M%d-%s" % (M, c) for M in (1, 2, 3) for c in ("real", "complex")])
    def test_interpolant_matches_direct_solves(self, name, request):
        if name == "near_margin":
            system = _near_margin_scalar()
        elif name.startswith("class"):
            system = _class_system(3, int(name[7]), name.endswith("complex"))
        else:
            system = request.getfixturevalue(name)
        theta = np.random.default_rng(9).uniform(-np.pi, np.pi, 10 ** 4)
        direct = kernels._solvent_stacks(
            system, np.stack([np.cos(theta), np.sin(theta)], axis=1))
        err = np.abs(kernels._solvents(system).at(theta) - direct)
        assert np.all(err.max(axis=(1, 2))
                      <= 1e-13 * np.abs(direct).max(axis=(1, 2)))
        assert len(kernels._solvents(system).g) == self.TABLE_SIZES[name]

    @pytest.mark.parametrize("name", ["lame3_complex", "random_lh3"])
    def test_general_batch_rows_bit_for_bit(self, name, request):
        system = request.getfixturevalue(name)
        nodes = Grid(n=3, N=16, h=0.25).freq_nodes_fftorder()
        rows = np.random.default_rng(2).choice(len(nodes), 37, replace=False)
        full = kernels._general_batch(system, nodes)
        part = kernels._general_batch(system, nodes[rows])
        for key, value in full.items():
            assert np.array_equal(value[..., rows], part[key])

    def test_closed_form_stack_equals_points_past_the_table(self, random_lh3):
        """Points whose node count exceeds the table's read the interpolant
        at the circle's angles, the same floats in a stack or alone."""
        y = _seeded_nodes(12, 11) * 2.0
        counts = kernels._node_counts(random_lh3, np.linalg.norm(y, axis=1))
        assert counts.max() > len(kernels._solvents(random_lh3).g)
        stack = kernels._closed_form_kernel(random_lh3, y)
        for point, value in zip(y, stack):
            assert np.array_equal(
                kernels._closed_form_kernel(random_lh3, point[None])[0], value)

    def test_table_past_the_cap_raises_at_once(self, monkeypatch):
        """With the cap at 256 angles the near-margin system raises once the
        256-angle table fails its midpoints, before any larger solve."""
        solved = _counting_solves(monkeypatch)
        monkeypatch.setattr(kernels, "_TRAPEZOID_MAX", 256)
        system = _near_margin_scalar()
        with pytest.raises(OutOfDomain, match="larger margin"):
            kernels._closed_form_kernel(system, np.array([[0.5, 0.0]]))
        assert solved == [64, 64, 128, 256]
        assert "_solvents" not in vars(system)

    def test_table_at_its_noise_floor_raises_at_once(self, monkeypatch):
        """At root margin 0.02 the midpoint error stops falling at the
        solves' round-off (2.0e-14, then 2.8e-14 of max |G|): the table
        raises on the first doubling that does not shrink it, after the
        8192-angle table and its midpoints, below the cap of 2^14."""
        solved = _counting_solves(monkeypatch)
        monkeypatch.setattr(kernels, "_TRAPEZOID_MAX", 2 ** 14)
        system = _near_margin_scalar(0.9998)
        with pytest.raises(OutOfDomain, match="8192 angles, root margin 0.02"
                           ".*larger margin"):
            kernels._solvents(system)
        assert sum(solved) == 16384
        assert "_solvents" not in vars(system)


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


def rolled_operator(values, spacings, coeffs):
    """The earlier discrete_operator: differences of np.roll copies of the
    whole stack, cropped to the interior at the end."""
    n = coeffs.shape[-1]
    arr_axis = [1 + r for r in range(n - 1)] + [0]
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


class TestDiscreteOperator:
    """Differences on interior slices, bit for bit those of np.roll copies."""

    @pytest.mark.parametrize("n, N", [(2, 128), (2, 256), (3, 32)])
    def test_kernel_stacks_equal_rolled_copies(self, n, N):
        system = build_system("lame", n=n, mu=1 + 0.3j, lam=2 - 0.5j)
        h = 1.0 / 16
        stack = synthesize_kernel_levels(system, Grid(n=n, N=N, h=h),
                                         1.0 + h * np.arange(-4, 5))
        for col in range(system.M):
            vals = stack[..., :, col]
            got = kernels.discrete_operator(vals, [h] * n, system.coeffs)
            want = rolled_operator(vals, [h] * n, system.coeffs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_uneven_axes_and_steps(self, random_lh3):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((5, 7, 6, 3)) \
            + 1j * rng.standard_normal((5, 7, 6, 3))
        steps = [0.1, 0.2, 0.3]
        got = kernels.discrete_operator(vals, steps, random_lh3.coeffs)
        want = rolled_operator(vals, steps, random_lh3.coeffs)
        assert got.shape == (3, 5, 4, 3)
        assert got.tobytes() == want.tobytes()


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
        # R = 6.3 at N = 128: the far-field band 10 <= |x'| <= 0.9 R is
        # empty; at h = pi / 32 it first holds grid points at N = 256 (R =
        # 12.6), as R >= 10 / 0.9 needs N >= 226.4
        from halfspace import verify_kernel_properties
        table, kernel = build_poisson_kernel(lap2, N=128)
        with pytest.raises(OutOfDomain, match="raise N to 256, the least"):
            verify_kernel_properties(lap2, kernel, table, pde_check=False)
        table, kernel = build_poisson_kernel(lap2, table.freq_extent, N=256)
        assert kernel.grid.h == np.pi / 32
        rep = verify_kernel_properties(lap2, kernel, table, pde_check=False)
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

    def test_probed_extent_passes_its_guard(self):
        # the symbol is below tolerance at |xi'| = 64 but not on all of the
        # band 0.98 * 64 <= |xi'| <= 64 that the guard checks, so the
        # extent search goes on to 128
        from halfspace import verify_kernel_properties
        system = build_system("scalar", A=[[1.0, 0.9], [0.9, 1.0]])
        edge = np.array([[64.0], [-64.0]])
        assert np.abs(symbol_batch(system, edge, 1.0)).max() \
            < kernels._BOUNDARY_TOL
        assert np.abs(symbol_batch(system, 0.98 * edge, 1.0)).max() \
            >= kernels._BOUNDARY_TOL
        table, kernel = build_poisson_kernel(system, N=4096)
        assert kernel.meta["freq_extent"] == 128.0
        assert kernel.meta["boundary_symbol"] < kernels._BOUNDARY_TOL
        assert kernel.normalization_residual < 1e-7
        assert verify_kernel_properties(system, kernel, table).passed

    def test_table_is_evaluated_once(self, monkeypatch):
        """The extent search evaluates the guard's nodes at 8, 16, ..., 128
        and then the 4096-node table, once."""
        calls = []
        inner = kernels.symbol_batch

        def counting(system, xi_nodes, t, want_dt=False):
            calls.append(len(xi_nodes))
            return inner(system, xi_nodes, t, want_dt)

        monkeypatch.setattr(kernels, "symbol_batch", counting)
        system = build_system("scalar", A=[[1.0, 0.9], [0.9, 1.0]])
        table, _ = build_poisson_kernel(system, N=4096)
        assert table.freq_extent == 128.0
        assert len(calls) == 6 and calls[-1] == 4096
        assert max(calls[:-1]) < 4096

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

    @pytest.mark.parametrize("row", ["lap2", "lame2", "lame3"])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_height_raises(self, row, t, request):
        """M = 1, 2 and 3: every entry point that evaluates Khat at given
        heights raises before any arithmetic, so no RuntimeWarning."""
        system = request.getfixturevalue(row)
        xi = np.ones((1, system.n - 1))
        grid = Grid(n=system.n, N=8, h=0.5)
        calls = [lambda: symbol_batch(system, xi, t),
                 lambda: poisson_symbol_at(system, xi[0], t),
                 lambda: poisson_symbol_dt_at(system, xi[0], t),
                 lambda: kernel_derivative_spectrum(system, xi, t,
                                                    (0,) * system.n),
                 lambda: synthesize_kernel_levels(system, grid, [1.0, t])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError,
                                   match="t must be finite and nonnegative"):
                    call()

    @pytest.mark.parametrize("row", ["lap2", "lame2", "lame3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_raises(self, row, value, request):
        """M = 1, 2 and 3: a NaN or infinite frequency node raises, named,
        before any arithmetic, so no RuntimeWarning and no NaN or 0 out."""
        system = request.getfixturevalue(row)
        xi = np.ones((3, system.n - 1))
        xi[1, -1] = value
        calls = [lambda: symbol_batch(system, xi, 1.0),
                 lambda: symbol_batch(system, xi, 1.0, want_dt=True),
                 lambda: poisson_symbol_at(system, xi[1], 1.0),
                 lambda: kernel_derivative_spectrum(system, xi, 1.0,
                                                    (0,) * system.n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError,
                                   match="xi_nodes must be finite, node"):
                    call()
        with pytest.raises(ValueError, match=r"node 1 is \[.*%s\]" % value):
            symbol_batch(system, xi, 1.0)

    def test_dt_at_zero_frequency(self, lame2):
        from halfspace import poisson_symbol_dt_at
        k, dk = poisson_symbol_dt_at(lame2, [0.0], 1.0)
        assert np.array_equal(k, np.eye(2))
        assert np.array_equal(dk, np.zeros((2, 2)))
