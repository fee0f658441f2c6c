import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from halfspace import (BoundaryData, ConeSpec, DyadicCubeFamily, Grid,
                       HalfSpaceField, hardy_littlewood, nontangential_max,
                       poisson_extend, pointwise_max_principle_check)
from halfspace.errors import BadShape, CubeTooSmall
from halfspace.operators import _cone_footprint, _row_widths, _window_maxima


def hardy_littlewood_bruteforce(f, cubes):
    """Direct enumeration over every cube; cross-check for small grids."""
    mag = f.magnitude()
    out = np.zeros(f.grid.shape)
    for level in cubes.levels:
        for index in cubes.iter_cubes(level):
            sl = cubes.cube_slices(level, index)
            out[sl] = np.maximum(out[sl], mag[sl].mean())
    return out


@pytest.fixture(scope="module")
def small():
    return Grid(n=2, N=64, h=0.25)


def as_data(grid, values):
    return BoundaryData(grid=grid, samples=np.asarray(values, complex)[..., None])


class TestDyadic:
    def test_family_geometry(self, small):
        fam = DyadicCubeFamily(small, 4)
        assert fam.side(0) == 2 * small.R
        assert fam.side(4) == 2 * small.R / 16
        assert fam.block(4) == 4

    def test_leaf_needs_two_samples(self, small):
        with pytest.raises(CubeTooSmall):
            DyadicCubeFamily(small, 6)

    def test_children_partition_parent(self, small):
        fam = DyadicCubeFamily(small, 3)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64)
        for level in range(3):
            parent = fam.cube_averages(f, level)
            child = fam.cube_averages(f, level + 1)
            rebuilt = 0.5 * (child[0::2] + child[1::2])
            assert np.allclose(parent, rebuilt)


class TestHardyLittlewood:
    def test_matches_bruteforce(self, small, rng):
        fam = DyadicCubeFamily(small, 4)
        f = as_data(small, rng.standard_normal(64))
        got = hardy_littlewood(f, fam).meta["values"]
        want = hardy_littlewood_bruteforce(f, fam)
        assert np.array_equal(got, want)

    def test_constant(self, small):
        fam = DyadicCubeFamily(small, 4)
        f = as_data(small, np.full(64, -3.0))
        assert np.allclose(hardy_littlewood(f, fam).meta["values"], 3.0)

    def test_leaf_indicator_value(self):
        grid = Grid(n=2, N=16, h=0.5)
        fam = DyadicCubeFamily(grid, 3)
        vals = np.zeros(16)
        vals[0:2] = 1.0                 # exactly the first leaf cube
        f = as_data(grid, vals)
        m = hardy_littlewood(f, fam).meta["values"]
        # far node: smallest shared cube is the root, average 2/16
        assert np.isclose(m[15], 2.0 / 16.0)
        assert np.isclose(m[0], 1.0)    # inside the leaf itself

    def test_smooth_data_dominated(self, small):
        # |f| <= Mf up to the leaf-average quadrature gap
        fam = DyadicCubeFamily(small, 4)
        x = small.axis()
        f = as_data(small, np.exp(-0.1 * x ** 2))
        m = hardy_littlewood(f, fam).meta["values"]
        gap = fam.side(4) * np.abs(np.gradient(np.exp(-0.1 * x ** 2), x)).max()
        assert np.all(f.magnitude() <= m + gap)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sublinear(self, small, seed):
        fam = DyadicCubeFamily(small, 4)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(64)
        g = rng.standard_normal(64)
        mf = hardy_littlewood(as_data(small, f), fam).meta["values"]
        mg = hardy_littlewood(as_data(small, g), fam).meta["values"]
        mfg = hardy_littlewood(as_data(small, f + g), fam).meta["values"]
        assert np.all(mfg <= mf + mg + 1e-12)


class TestNontangential:
    def test_constant_field(self, lap2, small):
        f = as_data(small, np.full(64, 1.5))
        u = poisson_extend(lap2, f, np.geomspace(1e-3, 8, 30))
        nt = nontangential_max(u, ConeSpec(1.0)).meta["values"]
        assert np.allclose(nt, 1.5)
        assert np.isclose(nt.max(), u.magnitude().max())

    def test_linear_field_hits_cone_top(self, small):
        hts = np.geomspace(0.01, 2.0, 25)
        vals = np.broadcast_to(hts[:, None, None], (25, 64, 1)).astype(complex)
        u = HalfSpaceField(grid=small, heights=hts, values=np.array(vals))
        nt = nontangential_max(u, ConeSpec(0.5, t_max=2.0)).meta["values"]
        assert np.allclose(nt, 2.0)

    def test_monotone_in_aperture(self, lap2, small):
        x = small.axis()
        f = as_data(small, np.exp(-x ** 2) * np.sin(2 * x))
        u = poisson_extend(lap2, f, np.geomspace(1e-3, 8, 40))
        n_half = nontangential_max(u, ConeSpec(0.5)).meta["values"]
        n_one = nontangential_max(u, ConeSpec(1.0)).meta["values"]
        n_two = nontangential_max(u, ConeSpec(2.0)).meta["values"]
        assert np.all(n_half <= n_one + 1e-15)
        assert np.all(n_one <= n_two + 1e-15)

    def test_truncation_ordering(self, lap2, small):
        x = small.axis()
        f = as_data(small, np.exp(-x ** 2))
        u = poisson_extend(lap2, f, np.geomspace(1e-3, 8, 40))
        full = nontangential_max(u, ConeSpec(1.0)).meta["values"]
        t1 = nontangential_max(u, ConeSpec(1.0, epsilon=0.1)).meta["values"]
        t2 = nontangential_max(u, ConeSpec(1.0, epsilon=0.5)).meta["values"]
        assert np.all(t2 <= t1 + 1e-15)
        assert np.all(t1 <= full + 1e-15)

    def test_empty_cone_flagged(self, small):
        hts = np.array([0.5])
        vals = np.ones((1, 64, 1), complex)
        u = HalfSpaceField(grid=small, heights=hts, values=vals)
        nt = nontangential_max(u, ConeSpec(1.0, epsilon=0.7, t_max=2.0))
        assert nt.meta["empty_cone"].all()
        assert np.allclose(nt.meta["values"], 0.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_sublinear(self, lap2, small, seed):
        rng = np.random.default_rng(seed)
        x = small.axis()
        w = np.exp(-0.5 * x ** 2)
        fa = as_data(small, w * rng.standard_normal(64))
        fb = as_data(small, w * rng.standard_normal(64))
        fab = BoundaryData(grid=small, samples=fa.samples + fb.samples)
        levels = np.geomspace(0.05, 4, 20)
        cone = ConeSpec(1.0)
        na = nontangential_max(poisson_extend(lap2, fa, levels), cone).meta["values"]
        nb = nontangential_max(poisson_extend(lap2, fb, levels), cone).meta["values"]
        nab = nontangential_max(poisson_extend(lap2, fab, levels), cone).meta["values"]
        assert np.all(nab <= na + nb + 1e-12)

    def test_sup_norm_identity(self, lap2, small):
        # for bounded data the maximal sup equals the field sup
        x = small.axis()
        f = as_data(small, np.cos(x) * np.exp(-0.2 * x ** 2))
        u = poisson_extend(lap2, f, np.geomspace(1e-4, 16, 50))
        nt = nontangential_max(u, ConeSpec(1.0)).meta["values"]
        assert np.isclose(nt.max(), u.magnitude().max(), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cones_share_the_field_magnitude(self, lap2, lap3, n):
        # two cones on one field read the field's one magnitude; each
        # equals the maximum over a fresh field of its own levels, whose
        # magnitude is the norm of exactly those values
        system, grid = (lap2, Grid(n=2, N=128, h=0.25)) if n == 2 \
            else (lap3, Grid(n=3, N=32, h=0.25))
        rng = np.random.default_rng(n)
        f = BoundaryData(grid=grid, samples=np.exp(-grid.radii() ** 2)[..., None]
                         * (rng.standard_normal(grid.shape + (1,)) + 1j))
        u = poisson_extend(system, f, np.geomspace(0.02, 4, 21))
        for cone in (ConeSpec(1.0, epsilon=0.1, t_max=2.0), ConeSpec(0.5)):
            cut = slice(*np.searchsorted(
                u.heights, [cone.epsilon, cone.resolve_top(grid)],
                side="right"))
            fresh = HalfSpaceField(grid=grid, heights=u.heights[cut],
                                   values=u.values[cut])
            assert np.linalg.norm(u.values[cut], axis=-1).tobytes() \
                == u.magnitude()[cut].tobytes()
            got = nontangential_max(u, cone).meta["values"]
            assert got.tobytes() \
                == nontangential_max(fresh, cone).meta["values"].tobytes()

    def test_cone_spec_validation(self):
        with pytest.raises(BadShape):
            ConeSpec(kappa=-1.0)
        with pytest.raises(BadShape):
            ConeSpec(kappa=1.0, epsilon=2.0, t_max=1.0)


class TestSandwich:
    def test_gaussian_sandwich(self, lap2):
        grid = Grid(n=2, N=256, h=0.125)
        x = grid.axis()
        f = as_data(grid, np.exp(-x ** 2) * np.sin(2 * x))
        u = poisson_extend(lap2, f, np.geomspace(1e-10, 16, 80))
        rep = pointwise_max_principle_check(u, f, ConeSpec(1.0),
                                            DyadicCubeFamily(grid, 6))
        assert rep.value("left_sandwich_fraction") == 1.0
        assert np.isfinite(rep.value("right_sandwich_constant"))
        assert rep.passed

    def test_constant_tight(self, lap2):
        grid = Grid(n=2, N=256, h=0.125)
        f = as_data(grid, np.full(256, 2.0))
        u = poisson_extend(lap2, f, np.geomspace(1e-10, 16, 40))
        rep = pointwise_max_principle_check(u, f, ConeSpec(1.0),
                                            DyadicCubeFamily(grid, 6))
        assert abs(rep.value("right_sandwich_constant") - 1.0) < 1e-9

    def test_null_trace_flagged(self, small):
        hts = np.geomspace(0.01, 2.0, 25)
        vals = np.broadcast_to(hts[:, None, None], (25, 64, 1)).astype(complex)
        u = HalfSpaceField(grid=small, heights=hts, values=np.array(vals))
        zero = as_data(small, np.zeros(64))
        rep = pointwise_max_principle_check(u, zero, ConeSpec(1.0, t_max=2.0),
                                            DyadicCubeFamily(small, 4))
        names = [m.name for m in rep.metrics]
        assert "right_sandwich_not_applicable" in names


class TestPlanarBoundary:
    """Brute-force cross-checks of the d = 2 (ambient n = 3) paths."""

    @pytest.fixture()
    def grid3(self):
        return Grid(n=3, N=16, h=0.5)

    def test_nontangential_matches_bruteforce(self, grid3, rng):
        hts = np.array([0.4, 0.9, 1.7, 3.0])
        vals = (rng.standard_normal((4,) + grid3.shape + (1,))
                + 1j * rng.standard_normal((4,) + grid3.shape + (1,)))
        u = HalfSpaceField(grid=grid3, heights=hts, values=vals)
        cone = ConeSpec(kappa=1.3, epsilon=0.5, t_max=2.0)
        got = nontangential_max(u, cone).meta["values"]
        mag = u.magnitude()
        X, Y = grid3.meshes()
        want = np.zeros(grid3.shape)
        for li, t in enumerate(hts):
            if not (cone.epsilon < t <= cone.t_max):
                continue
            for i in range(grid3.N):
                for j in range(grid3.N):
                    dist = np.sqrt((X - X[i, j]) ** 2 + (Y - Y[i, j]) ** 2)
                    inside = dist < cone.kappa * t
                    if inside.any():
                        want[i, j] = max(want[i, j], mag[li][inside].max())
        assert np.array_equal(got, want)

    @staticmethod
    def footprint_max(u, cone):
        """The cone maximum by a footprint filter per level, which the 1-D
        runs replace."""
        top = cone.resolve_top(u.grid)
        mag = u.magnitude()
        want = np.zeros(u.grid.shape)
        for li, t in enumerate(u.heights):
            if cone.epsilon < t <= top:
                foot = _cone_footprint(cone.kappa * t / u.grid.h, u.grid.d)
                want = np.maximum(want, ndimage.maximum_filter(
                    mag[li], footprint=foot, mode="constant", cval=0.0))
        return want

    @staticmethod
    def sparse_field(grid, heights, rng):
        shape = (len(heights),) + grid.shape + (2,)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals[rng.random(shape[:-1]) < 0.3] = 0.0
        return HalfSpaceField(grid=grid, heights=np.asarray(heights),
                              values=vals)

    @pytest.mark.parametrize("radius", [0.3, 0.5, 1, 2, 3, 5, 7, 12, 40])
    def test_runs_match_footprint_filter(self, grid3, radius, rng):
        # h = 0.5 and kappa = 1: the radius in nodes is exactly 2 t, so the
        # integer radii put footprint rims exactly on the cone boundary
        u = self.sparse_field(grid3, [radius / 2.0], rng)
        cone = ConeSpec(kappa=1.0)
        got = nontangential_max(u, cone).meta["values"]
        assert np.array_equal(got, self.footprint_max(u, cone))

    @pytest.mark.parametrize("cone", [
        ConeSpec(kappa=1.0),
        ConeSpec(kappa=1.3, epsilon=0.5, t_max=2.0),
        ConeSpec(kappa=0.7, epsilon=0.25, t_max=6.0),
        ConeSpec(kappa=2.0, t_max=1.0)])
    def test_runs_match_footprint_filter_truncated(self, cone, rng):
        grid = Grid(n=3, N=32, h=0.25)
        heights = [0.05, 0.25, 0.5, 0.75, 1.0, 1.6, 2.0, 2.5, 3.0, 4.0, 6.0,
                   9.0]
        u = self.sparse_field(grid, heights, rng)
        got = nontangential_max(u, cone).meta["values"]
        assert np.array_equal(got, self.footprint_max(u, cone))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (3, 9), (2, 5, 9)])
    def test_window_maxima_match_filter1d(self, shape, rng):
        # signed values, so that the zero cells off the axis show
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.2] = 0.0
        widths = [[0, 1, 3], [4, 8], [9, 20]][:len(a)]
        runs = _window_maxima(a, widths)
        assert sorted(runs) == sorted((g, w) for g in range(len(a))
                                      for w in widths[g])
        for (g, w), got in runs.items():
            want = ndimage.maximum_filter1d(a[g], size=2 * w + 1, axis=-1,
                                            mode="constant", cval=0.0)
            assert np.array_equal(got, want), (shape, g, w)

    @pytest.mark.parametrize("n,N", [(2, 64), (3, 32)])
    def test_shared_footprints_match_footprint_filter(self, n, N, rng):
        # dense heights: several levels share one footprint, and their
        # maximum is taken before the running maxima
        grid = Grid(n=n, N=N, h=0.25)
        heights = np.linspace(0.1, 3.0, 60)
        keys = {_row_widths(t / grid.h, grid.d) for t in heights}
        assert len(keys) < len(heights)
        u = self.sparse_field(grid, heights, rng)
        for cone in (ConeSpec(kappa=1.0), ConeSpec(1.5, epsilon=0.3,
                                                   t_max=2.0)):
            got = nontangential_max(u, cone).meta["values"]
            assert np.array_equal(got, self.footprint_max(u, cone))

    def test_hardy_littlewood_matches_bruteforce(self, grid3, rng):
        # staged axis means differ from flat means by summation order only
        fam = DyadicCubeFamily(grid3, 3)
        f = BoundaryData(grid=grid3,
                         samples=rng.standard_normal(grid3.shape + (1,)) + 0j)
        got = hardy_littlewood(f, fam).meta["values"]
        want = hardy_littlewood_bruteforce(f, fam)
        assert np.abs(got - want).max() < 4e-16 * max(1.0, want.max())

    def test_bmo_matches_bruteforce(self, grid3, rng):
        from halfspace.spaces import bmo_norm
        fam = DyadicCubeFamily(grid3, 3)
        f = BoundaryData(grid=grid3,
                         samples=rng.standard_normal(grid3.shape + (1,)) + 0j)
        got = bmo_norm(f, fam)
        best = 0.0
        for level in fam.levels:
            for index in fam.iter_cubes(level):
                sl = fam.cube_slices(level, index)
                block = f.samples[sl][..., 0]
                best = max(best, float(np.abs(block - block.mean()).mean()))
        assert got == pytest.approx(best)
