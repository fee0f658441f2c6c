import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from halfspace import (BoundaryData, DyadicCubeFamily, FiniteAtomicSum, Grid,
                       HalfSpaceField, make_atom, molecule_check, norm,
                       poisson_extend, star_seminorm, validate_atom)
from halfspace.errors import BadDescriptor, CubeTooSmall, EmptyWindow
from halfspace.harness import weierstrass
from halfspace.spaces import HOLDER_PAIR_BUDGET, carleson_norms, holder_seminorm


@pytest.fixture(scope="module")
def grid():
    return Grid(n=2, N=1024, h=0.125)


@pytest.fixture(scope="module")
def cubes(grid):
    return DyadicCubeFamily(grid, 8)


def as_data(grid, values, **kw):
    return BoundaryData(grid=grid, samples=np.asarray(values, complex)[..., None],
                        **kw)


def clipped_log(grid, lam=1.0):
    rad = grid.radii()
    vals = np.where(rad > 0, np.log(np.maximum(lam * rad, 1e-300)),
                    np.log(lam * grid.h / 2))
    return as_data(grid, vals)


def holder_all_pairs(f, theta):
    """The exhaustive Hoelder sup as a scan over every node against all
    later ones: the oracle for the pruned scan of holder_seminorm."""
    pts = np.stack([m.ravel() for m in f.grid.meshes()], axis=-1)
    vals = f.samples.reshape(-1, f.M)
    best = 0.0
    for i in range(len(pts) - 1):
        dv = np.linalg.norm(vals[i + 1:] - vals[i], axis=-1)
        dx = np.linalg.norm(pts[i + 1:] - pts[i], axis=-1)
        best = max(best, float((dv / dx ** theta).max()))
    return best


def norm_length_holder(f, theta, seed=0):
    """The earlier holder_seminorm, its lengths by np.linalg.norm over the
    short coordinate axis."""
    grid, m = f.grid, f.grid.node_count
    if m * (m - 1) // 2 <= HOLDER_PAIR_BUDGET:
        N, eps = grid.N, np.finfo(float).eps
        pts = np.stack(grid.meshes(), axis=-1)
        ks = np.stack(np.meshgrid(*[np.arange(1 - N, N)] * grid.d,
                                  indexing="ij"), axis=-1).reshape(-1, grid.d)
        ks = ks[ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)] > 0]
        lengths = np.sqrt((ks ** 2).sum(axis=1))
        order = np.argsort(lengths, kind="stable")
        top = 2.0 * float(np.linalg.norm(f.samples, axis=-1).max()) \
            * (1.0 + 32 * eps)
        short = grid.h * (1.0 - (2 * N + 16) * eps)
        best = 0.0
        for k, length in zip(ks[order].tolist(), lengths[order].tolist()):
            if top / (short * length) ** theta <= best:
                break
            later = tuple(slice(max(c, 0), N + min(c, 0)) for c in k)
            earlier = tuple(slice(max(-c, 0), N - max(c, 0)) for c in k)
            dv = np.linalg.norm(f.samples[later] - f.samples[earlier], axis=-1)
            dx = np.linalg.norm(pts[later] - pts[earlier], axis=-1)
            best = max(best, float((dv / dx ** theta).max()))
        return best
    pts = np.stack([mesh.ravel() for mesh in grid.meshes()], axis=-1)
    vals = f.samples.reshape(-1, f.M)
    best = 0.0
    for axis in range(grid.d):
        dv = np.linalg.norm(np.diff(f.samples, axis=axis), axis=-1)
        best = max(best, float(dv.max()) / grid.h ** theta)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, m, HOLDER_PAIR_BUDGET)
    j = rng.integers(0, m, HOLDER_PAIR_BUDGET)
    keep = i != j
    i, j = i[keep], j[keep]
    dv = np.linalg.norm(vals[i] - vals[j], axis=-1)
    dx = np.linalg.norm(pts[i] - pts[j], axis=-1)
    return max(best, float((dv / dx ** theta).max()))


class TestHolderSup:
    """The exhaustive branch stops once no pair left can win; its sup must
    be the all-pairs scan's float, bit for bit."""

    @pytest.mark.parametrize("N", [512, 1024])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_weierstrass_1d_equals_all_pairs(self, N, theta):
        for f in weierstrass(Grid(n=2, N=N, h=0.25), theta, 1, 11):
            assert holder_seminorm(f, theta) == holder_all_pairs(f, theta)

    @pytest.mark.parametrize("N", [16, 24, 36])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.0])
    def test_2d_equals_all_pairs(self, N, M, theta):
        grid = Grid(n=3, N=N, h=0.3)
        rng = np.random.default_rng(N + M)
        noise = rng.standard_normal(grid.shape + (M,)) \
            + 1j * rng.standard_normal(grid.shape + (M,))
        data = weierstrass(grid, theta, M, 5) + [
            BoundaryData(grid=grid, samples=noise)]
        for f in data:
            assert holder_seminorm(f, theta) == holder_all_pairs(f, theta)

    @pytest.mark.parametrize("n, N", [(2, 512), (2, 2048), (3, 24), (3, 64)])
    def test_column_lengths_equal_norm_lengths(self, n, N):
        """Exhaustive (n = 2, N = 512; n = 3, N = 24) and sampled branches:
        the sup's bits equal those of lengths by np.linalg.norm."""
        grid = Grid(n=n, N=N, h=0.25)
        for f in weierstrass(grid, 0.5, 2, 3, count=2):
            for seed in (0, 9):
                got = holder_seminorm(f, 0.5, seed=seed)
                assert got.hex() == norm_length_holder(f, 0.5, seed).hex()

    def test_constant_is_zero(self):
        grid = Grid(n=3, N=24, h=0.5)
        f = BoundaryData(grid=grid, samples=np.full(grid.shape + (2,), 1 - 2j))
        assert holder_seminorm(f, 0.5) == 0.0

    def test_branch_limit(self):
        """m(m-1)/2 pairs within the budget: exhaustive up to 37^2 nodes in
        2-D (36^2 for an even N), sampled from 38^2 on."""
        assert 37 ** 2 * (37 ** 2 - 1) // 2 <= HOLDER_PAIR_BUDGET \
            < 38 ** 2 * (38 ** 2 - 1) // 2
        rng = np.random.default_rng(2)
        for N, exhaustive in ((36, True), (38, False)):
            grid = Grid(n=3, N=N, h=0.5)
            f = BoundaryData(grid=grid,
                             samples=rng.standard_normal(grid.shape + (1,)))
            sups = {holder_seminorm(f, 0.3, seed=seed) for seed in range(3)}
            if exhaustive:
                assert sups == {holder_all_pairs(f, 0.3)}
            else:       # the seeded sample decides
                assert len(sups) > 1
                assert max(sups) <= holder_all_pairs(f, 0.3)


class TestNorms:
    def test_constants(self, grid, cubes):
        f = as_data(grid, np.full(grid.N, 3.0))
        assert norm(f, "bmo", cubes=cubes) == 0.0
        assert norm(f, "holder", theta=0.5) == 0.0
        assert np.isclose(norm(f, "slg", theta=0.5), 3.0)

    def test_lp_scaling(self, grid):
        f = as_data(grid, np.exp(-grid.axis() ** 2))
        for p in (1.0, 2.0, 4.0):
            assert np.isclose(norm(BoundaryData(grid=grid, samples=2 * f.samples),
                                   "lp", p=p), 2 * norm(f, "lp", p=p))

    def test_l2_gaussian_exact(self, grid):
        # ||exp(-x^2)||_2 = (pi/2)^(1/4)
        f = as_data(grid, np.exp(-grid.axis() ** 2))
        assert abs(norm(f, "lp", p=2.0) - (np.pi / 2) ** 0.25) < 1e-6

    def test_bmo_half_indicator_matches_bruteforce(self, grid, cubes):
        f = as_data(grid, (grid.axis() >= 0).astype(float))
        got = norm(f, "bmo", cubes=cubes)
        best = 0.0
        for level in cubes.levels:
            for index in cubes.iter_cubes(level):
                sl = cubes.cube_slices(level, index)
                block = f.samples[sl][..., 0].real
                best = max(best, np.abs(block - block.mean()).mean())
        assert got == pytest.approx(best)
        assert got == pytest.approx(0.5)

    def test_bmo_dilation_invariance_log(self, grid, cubes):
        base = norm(clipped_log(grid), "bmo", cubes=cubes)
        for lam in (0.25, 4.0):
            scaled = norm(clipped_log(grid, lam), "bmo", cubes=cubes)
            assert abs(scaled - base) / base < 0.05

    def test_bmo_constant_shift_invariance(self, grid, cubes):
        f = clipped_log(grid)
        g = BoundaryData(grid=grid, samples=f.samples + 7.5)
        assert norm(f, "bmo", cubes=cubes) == pytest.approx(
            norm(g, "bmo", cubes=cubes))

    def test_bmo_translation_invariance(self, grid, cubes):
        # exact when the shift maps every family cube onto a family cube
        # (a half-box roll); leaf-size shifts only move the norm slightly
        rng = np.random.default_rng(3)
        vals = np.repeat(rng.standard_normal(grid.N // 4), 4)
        f = as_data(grid, vals)
        g = as_data(grid, np.roll(vals, grid.N // 2))
        assert norm(f, "bmo", cubes=cubes) == pytest.approx(
            norm(g, "bmo", cubes=cubes))
        leaf = as_data(grid, np.roll(vals, cubes.block(cubes.depth)))
        got = norm(leaf, "bmo", cubes=cubes)
        base = norm(f, "bmo", cubes=cubes)
        assert abs(got - base) / base < 0.25

    def test_vmo_modulus_monotone(self, grid, cubes):
        f = clipped_log(grid)
        small = norm(f, "vmo_modulus", cubes=cubes, r=1.0)
        large = norm(f, "vmo_modulus", cubes=cubes, r=16.0)
        assert small <= large + 1e-15

    def test_holder_weierstrass_finite(self, grid):
        theta = 0.5
        base = 4 * np.pi / grid.R
        x = grid.axis()
        prof = sum(2.0 ** (-k * theta) * np.cos(base * 2 ** k * x)
                   for k in range(8))
        f = as_data(grid, prof)
        s = norm(f, "holder", theta=theta)
        assert 0.1 < s < 100.0

    def test_holder_inclusion_in_slg(self, grid):
        # Hoelder datum admitted with comparable growth norm
        x = grid.axis()
        f = as_data(grid, np.abs(np.sin(x)) ** 0.5)
        h = norm(f, "holder", theta=0.5)
        s = norm(f, "slg", theta=0.5)
        assert s <= 2.0 * (h + float(np.abs(f.samples[grid.N // 2]).max()))

    def test_morrey_constant(self, grid, cubes):
        f = as_data(grid, np.ones(grid.N))
        lam = 0.5
        # largest cube dominates: (side^(1-lam))^(1/p) with p = 2
        want = max((cubes.side(j) ** (1 - lam)) for j in cubes.levels) ** 0.5
        assert np.isclose(norm(f, "morrey", cubes=cubes, p=2.0, lam=lam), want)

    def test_bad_descriptor(self, grid):
        with pytest.raises(BadDescriptor):
            norm(as_data(grid, np.ones(grid.N)), "sobolev")

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["lp", "bmo", "slg", "holder"]))
    @settings(max_examples=16, deadline=None)
    def test_absolute_homogeneity(self, grid, cubes, seed, which):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.N) * np.exp(-0.1 * grid.axis() ** 2)
        f = as_data(grid, vals)
        g = BoundaryData(grid=grid, samples=-2.5j * f.samples)
        kw = {"lp": {"p": 2.0}, "bmo": {"cubes": cubes},
              "slg": {"theta": 0.5}, "holder": {"theta": 0.5}}[which]
        assert norm(g, which, **kw) == pytest.approx(2.5 * norm(f, which, **kw))


class TestStarSeminorm:
    def test_constant(self, grid):
        hts = np.geomspace(0.01, 8, 30)
        u = HalfSpaceField(grid=grid, heights=hts,
                           values=np.full((30, grid.N, 1), 2.0 + 0j))
        assert star_seminorm(u, 4.0) == pytest.approx(0.5)

    def test_linear_field_windowed(self, grid):
        rho = 3.0
        hts = np.array([0.5, 1.0, rho * (1 - 1e-9)])
        vals = hts[:, None, None] * np.ones((3, grid.N, 1))
        u = HalfSpaceField(grid=grid, heights=hts, values=vals.astype(complex))
        got = star_seminorm(u, rho, epsilon=0.1)
        assert abs(got - 1.0) < 1e-8

    def test_window_inequality(self, grid, rng):
        hts = np.geomspace(0.05, 12, 25)
        vals = (rng.standard_normal((25, grid.N, 1))
                * np.exp(-0.01 * grid.radii())[None, :, None]).astype(complex)
        u = HalfSpaceField(grid=grid, heights=hts, values=vals)
        for rho in (1.0, 3.0, 7.0):
            lhs = star_seminorm(u, rho, epsilon=0.1)
            rhs = np.sqrt(2) * star_seminorm(u, np.sqrt(2) * rho)
            assert lhs <= rhs + 1e-12

    def test_averaging_bound(self, grid, rng):
        # ||u||_{*,rho} <= (2/log 2) int_rho^{2 rho} ||u||_{*,t} dt/t
        hts = np.geomspace(0.05, 12, 25)
        vals = (rng.standard_normal((25, grid.N, 1))
                * np.exp(-0.02 * grid.radii())[None, :, None]).astype(complex)
        u = HalfSpaceField(grid=grid, heights=hts, values=vals)
        for rho in (1.0, 2.0, 4.0):
            ts = np.linspace(rho, 2 * rho, 65)
            integral = integrate.trapezoid(
                [star_seminorm(u, t) / t for t in ts], ts)
            assert star_seminorm(u, rho) <= (2.0 / np.log(2.0)) * integral + 1e-12

    def test_empty_window(self, grid):
        u = HalfSpaceField(grid=grid, heights=np.array([5.0]),
                           values=np.ones((1, grid.N, 1), complex))
        with pytest.raises(EmptyWindow):
            star_seminorm(u, 1.0, epsilon=0.5)

    @pytest.mark.parametrize("rho", [-2.0, 0.0, np.nan])
    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_bad_radius_is_named(self, grid, rho, epsilon):
        u = HalfSpaceField(grid=grid, heights=np.array([0.5, 1.0]),
                           values=np.ones((2, grid.N, 1), complex))
        with pytest.raises(EmptyWindow, match="rho"):
            star_seminorm(u, rho, epsilon=epsilon)

    @staticmethod
    def per_level(u, rho, epsilon):
        """The earlier star_seminorm: one masked max per level."""
        rad2 = sum(m * m for m in u.grid.meshes())
        mag = np.linalg.norm(u.values, axis=-1)
        best = None
        for li, t in enumerate(u.heights):
            if epsilon is None:
                mask = rad2 + t * t <= rho * rho
            elif epsilon < t < rho:
                mask = rad2 < rho * rho
            else:
                continue
            if np.any(mask):
                v = float(mag[li][mask].max())
                best = v if best is None else max(best, v)
        return best / rho

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("epsilon", [None, 0.05, 0.7])
    def test_one_masked_max_equals_per_level_loop(self, n, epsilon):
        grid = Grid(n=n, N=64 if n == 2 else 24, h=0.25)
        hts = np.geomspace(0.02, 6, 23)
        rng = np.random.default_rng(n)
        shape = (len(hts),) + grid.shape + (2,)
        u = HalfSpaceField(grid=grid, heights=hts,
                           values=rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        for rho in (0.8, 1.0, 2.5, 3.0, 5.9):
            want = self.per_level(u, rho, epsilon)
            assert star_seminorm(u, rho, epsilon).hex() == want.hex()


class TestAtoms:
    def test_haar_unit_cube(self, grid):
        atom = make_atom(grid, [0.0], 1.0, p=1.0, q=2.0, profile="haar")
        check = validate_atom(atom)
        assert check["valid"]
        # |Q| = 1: L2 bound is exactly 1 and the haar profile saturates it
        assert check["lq_bound"] == pytest.approx(1.0)
        assert check["lq_norm"] == pytest.approx(1.0, rel=1e-9)

    def test_mean_zero(self, grid):
        atom = make_atom(grid, [2.0], 1.5, p=0.95, q=2.0, profile="random",
                         seed=7)
        total = np.abs(atom.samples.sum(axis=tuple(range(grid.d)))
                       * grid.cell_volume).max()
        assert total <= atom.measure * 1e-10

    def test_scaled_cube_passes(self, grid):
        for lam in (0.5, 2.0):
            atom = make_atom(grid, [0.0], lam * 2.0, p=1.0, q=2.0,
                             profile="haar")
            assert validate_atom(atom)["valid"]

    def test_cube_too_small(self, grid):
        with pytest.raises(CubeTooSmall):
            make_atom(grid, [0.0], grid.h / 2, p=1.0, q=2.0)

    def test_quasi_norm(self, grid):
        a1 = make_atom(grid, [0.0], 1.0, p=1.0, q=2.0)
        a2 = make_atom(grid, [4.0], 2.0, p=1.0, q=2.0, profile="random")
        s = FiniteAtomicSum(p=1.0, q=2.0, terms=[(2.0, a1), (-1j, a2)])
        assert s.quasi_norm_bound == pytest.approx(3.0)
        f = s.as_boundary_data()
        assert f.meta["quasi_norm_bound"] == pytest.approx(3.0)

    def test_quasi_norm_scaling(self, grid):
        a1 = make_atom(grid, [0.0], 1.0, p=0.95, q=2.0)
        s1 = FiniteAtomicSum(p=0.95, q=2.0, terms=[(1.0, a1)])
        s2 = FiniteAtomicSum(p=0.95, q=2.0, terms=[(-3.0, a1)])
        assert s2.quasi_norm_bound == pytest.approx(3.0 * s1.quasi_norm_bound)


class TestMolecule:
    def test_vertical_derivative_molecule(self, lap2):
        rep = molecule_check(lap2, (0, 1), (0.0, 1.0), 0.95, 2.0,
                             two_sided_slope=True)
        assert rep.passed
        assert rep.value("cancellation_residual") < 1e-6
        assert abs(rep.fingerprint["fitted_slope"]
                   - rep.fingerprint["predicted_slope"]) < 0.15

    def test_shell_norms_match_bruteforce_oracle(self, lap2):
        # closed-form differentiated harmonic kernel, brute-force quadrature
        rep = molecule_check(lap2, (0, 1), (0.0, 1.0), 0.95, 2.0)
        ks, norms = rep.plot_data["shell_norms"].T
        f = lambda z: (1 / np.pi) * (z * z - 1) / (1 + z * z) ** 2
        for k, got in zip(ks, norms):
            lo, hi = 2.0 ** (k - 1), 2.0 ** k
            val, _ = integrate.quad(lambda z: f(z) ** 2, lo, hi)
            want = np.sqrt(2 * val)
            assert abs(got - want) / want < 0.05

    def test_translation_scale_covariance(self, lap2):
        r1 = molecule_check(lap2, (0, 1), (0.0, 1.0), 0.95, 2.0)
        r2 = molecule_check(lap2, (0, 1), (10.0, 2.0), 0.95, 2.0)
        c1 = r1.value("central_ball_constant")
        c2 = r2.value("central_ball_constant")
        assert abs(c1 - c2) / c1 < 0.05

    def test_tangential_derivative_beats_bound(self, lap2):
        rep = molecule_check(lap2, (1, 0), (0.0, 1.0), 0.95, 2.0)
        assert rep.passed      # one-sided: faster decay is compliant


class TestCarleson:
    def test_constant_zero(self, lap2, grid, cubes):
        f = as_data(grid, np.full(grid.N, 5.0))
        u = poisson_extend(lap2, f, np.geomspace(grid.h / 4, 2 * grid.R, 60),
                           gradient=True)
        c, size, profile = carleson_norms(u, cubes)
        assert c == 0.0 and size == 0.0

    def test_log_comparable_to_bmo(self, lap2, grid, cubes):
        f = clipped_log(grid)
        u = poisson_extend(lap2, f, np.geomspace(grid.h / 4, 2 * grid.R, 60),
                           gradient=True)
        _, size, _ = carleson_norms(u, cubes)
        b = norm(f, "bmo", cubes=cubes)
        assert 0.2 < size / b < 5.0

    def test_vanishing_profile_for_smooth(self, lap2, grid, cubes):
        x = grid.axis()
        w = np.exp(-(x / 8) ** 2)
        f = as_data(grid, w)
        u = poisson_extend(lap2, f, np.geomspace(grid.h / 4, 2 * grid.R, 60),
                           gradient=True)
        _, size, profile = carleson_norms(u, cubes)
        sides = [s for s, _ in profile]
        vals = dict(profile)
        assert vals[min(sides)] < 0.1 * vals[max(sides)]

    def test_gradient_required(self, lap2, grid, cubes):
        f = as_data(grid, np.exp(-grid.axis() ** 2))
        u = poisson_extend(lap2, f, np.geomspace(grid.h / 4, 2 * grid.R, 30))
        from halfspace.errors import InsufficientLevels
        with pytest.raises(InsufficientLevels):
            carleson_norms(u, cubes)


class TestMatrixMolecule:
    def test_lame_vertical_molecule(self, lame2):
        rep = molecule_check(lame2, (0, 1), (0.0, 1.0), 0.95, 2.0)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert rep.value("cancellation_residual") < 1e-6


class TestAtomSupNormalised:
    def test_sup_normalised_atom(self, grid):
        # q = inf: the L^q bound becomes measure^(-1/p)
        atom = make_atom(grid, [0.0], 2.0, p=1.0, q=np.inf, profile="haar")
        check = validate_atom(atom)
        assert check["valid"]
        assert check["lq_bound"] == pytest.approx(atom.measure ** -1.0)


class TestVmoGuard:
    def test_no_small_cube(self, grid, cubes):
        from halfspace.errors import CubeTooSmall
        f = as_data(grid, np.ones(grid.N))
        with pytest.raises(CubeTooSmall):
            norm(f, "vmo_modulus", cubes=cubes, r=grid.h / 8)
