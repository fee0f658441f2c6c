import numpy as np
import pytest

from halfspace import Grid, grid_fft, grid_ifft


def direct_transform(samples, grid):
    """O(N^2) reference for the forward transform convention."""
    x = grid.axis()
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    if grid.d == 1:
        phase = np.exp(-1j * np.outer(xi, x))
        return phase @ samples * grid.h
    X, Y = grid.meshes()
    out = np.zeros((grid.N, grid.N), dtype=complex)
    for a in range(grid.N):
        for b in range(grid.N):
            out[a, b] = np.sum(samples * np.exp(-1j * (xi[a] * X + xi[b] * Y)))
    return out * grid.cell_volume


def test_forward_matches_direct_sum_1d():
    grid = Grid(n=2, N=16, h=0.5)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    got = grid_fft(f, grid)
    want = direct_transform(f, grid)
    assert np.abs(got - want).max() < 1e-12


def test_forward_matches_direct_sum_2d():
    grid = Grid(n=3, N=8, h=0.7)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((8, 8))
    got = grid_fft(f, grid)
    want = direct_transform(f, grid)
    assert np.abs(got - want).max() < 1e-12


def test_roundtrip_identity():
    grid = Grid(n=2, N=64, h=0.25)
    rng = np.random.default_rng(2)
    f = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    back = grid_ifft(grid_fft(f, grid), grid)
    assert np.abs(back - f).max() < 1e-12


def test_zero_frequency_is_riemann_sum():
    grid = Grid(n=2, N=32, h=0.3)
    f = np.cos(grid.axis())
    assert np.isclose(grid_fft(f, grid)[0], f.sum() * grid.h)


def test_gaussian_transform_closed_form():
    # fhat(xi) = sqrt(pi) exp(-xi^2/4) for f = exp(-x^2)
    grid = Grid(n=2, N=512, h=0.125)
    f = np.exp(-grid.axis() ** 2)
    got = grid_fft(f, grid)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    want = np.sqrt(np.pi) * np.exp(-xi ** 2 / 4.0)
    assert np.abs(got - want).max() < 1e-10


def test_grid_geometry():
    grid = Grid(n=3, N=16, h=0.5)
    assert grid.R == 4.0
    assert grid.shape == (16, 16)
    assert grid.node_count == 256
    with pytest.raises(ValueError):
        Grid(n=2, N=15, h=0.5)
    with pytest.raises(ValueError):
        Grid(n=2, N=16, h=-1.0)


def test_trailing_axes_2d():
    grid = Grid(n=3, N=8, h=0.5)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((8, 8, 2)) + 1j * rng.standard_normal((8, 8, 2))
    back = grid_ifft(grid_fft(f, grid), grid)
    assert np.abs(back - f).max() < 1e-12
    # each component transforms independently
    one = grid_fft(f[..., 0], grid)
    assert np.abs(grid_fft(f, grid)[..., 0] - one).max() < 1e-14
