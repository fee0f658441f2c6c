import numpy as np
import pytest

from halfspace import Grid, grid_fft, grid_ifft, kernels
from halfspace.grids import _invert_into
from halfspace.solver import _level_fields


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


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def shifted_inverse(x, grid, axes):
    """The chain the package inverted by before it worked in place."""
    return np.fft.fftshift(np.fft.ifftn(x, axes=axes) / grid.cell_volume,
                           axes=axes)


def random_spectra(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


CASES = [(n, M, N) for n in (2, 3) for M in (1, 3) for N in (6, 64)]


@pytest.mark.parametrize("n,M,N", CASES)
def test_in_place_inversion_matches_reference_chain_bit_for_bit(n, M, N):
    # stacked level spectra (L, M, *shape), written level first
    # (L, *shape, M) into a fresh array and into a strided gradient slot:
    # _invert_into with the shift, _level_fields with none
    grid = Grid(n=n, N=N, h=0.3)
    d, L = grid.d, 4
    spec = random_spectra((L, M) + grid.shape, n * N + M)
    axes = tuple(range(-d, 0))
    want = np.moveaxis(shifted_inverse(spec, grid, axes), 1, -1)
    fresh = np.empty((L,) + grid.shape + (M,), dtype=complex)
    got = _invert_into(spec.copy(), grid, axes, np.moveaxis(fresh, -1, 1))
    assert same_bits(fresh, want)
    assert np.shares_memory(got, fresh)
    want = np.moveaxis(np.fft.ifftn(spec, axes=axes) / grid.cell_volume, 1, -1)
    grad = np.zeros((L,) + grid.shape + (n, M), dtype=complex)
    for r in range(n):
        _level_fields(spec.reshape(L, M, -1).copy(), grid, grad[..., r, :])
        assert same_bits(grad[..., r, :], want)
    assert same_bits(_level_fields(spec.reshape(L, M, -1).copy(), grid), want)


@pytest.mark.parametrize("n,N", [(2, 6), (2, 64), (3, 6), (3, 64)])
def test_shift_signs_shift_the_inverse(n, N):
    """sigma x inverts with no shift to the shifted inverse of x."""
    grid = Grid(n=n, N=N, h=0.3)
    sigma = grid.shift_signs()
    assert set(np.unique(sigma)) == {-1.0, 1.0} and sigma[0] == 1.0
    spec = random_spectra((2, 1, grid.node_count), n + N)
    axes = tuple(range(-grid.d, 0))
    want = np.moveaxis(shifted_inverse(
        spec.reshape((2, 1) + grid.shape), grid, axes), 1, -1)
    got = _level_fields(spec * sigma, grid)
    assert np.abs(got - want).max() <= 8e-16 * np.abs(want).max()
    if N == 64:
        assert same_bits(got, want)


def divided_inverse(work, grid, axes, dest):
    """The earlier _invert_into: the same in-place inversion and swaps, then
    numpy's complex division by the real cell volume."""
    for ax in reversed(axes):
        np.fft.ifft(work, axis=ax, out=work)
    w, v = (np.moveaxis(x, axes, range(len(axes))) for x in (work, dest))
    halves = slice(None, grid.N // 2), slice(grid.N // 2, None)
    for corner in np.ndindex((2,) * len(axes)):
        np.divide(w[tuple(halves[c] for c in corner)], grid.cell_volume,
                  out=v[tuple(halves[1 - c] for c in corner)])
    return dest


# cell volumes 0.0625, 0.09 and 1/7
@pytest.mark.parametrize("n,h", [(3, 0.25), (3, 0.3), (2, 1 / 7)])
def test_reciprocal_scaling_matches_division_bit_for_bit(n, h):
    grid = Grid(n=n, N=16, h=h)
    L, M = 5, 3
    axes = tuple(range(2, 2 + grid.d))
    for seed in range(3):
        spec = random_spectra((L, M) + grid.shape, seed)
        want = np.empty((L,) + grid.shape + (M,), dtype=complex)
        divided_inverse(spec.copy(), grid, axes, np.moveaxis(want, -1, 1))
        fresh = np.empty_like(want)
        _invert_into(spec.copy(), grid, axes, np.moveaxis(fresh, -1, 1))
        assert same_bits(fresh, want)
        grad = np.zeros((L,) + grid.shape + (n, M), dtype=complex)
        for r in range(n):
            _invert_into(spec.copy(), grid, axes,
                         np.moveaxis(grad[..., r, :], -1, 1))
            assert same_bits(grad[..., r, :], want)
    # exact zeros agree in value (the division may give -0.0 for +0.0)
    zero = np.zeros((1, M) + grid.shape, dtype=complex)
    got = _invert_into(zero.copy(), grid, axes, np.empty_like(zero))
    assert np.array_equal(got, divided_inverse(zero, grid, axes,
                                               np.empty_like(zero)))


@pytest.mark.parametrize("n,M,N", CASES)
def test_public_transforms_match_reference_chain_bit_for_bit(n, M, N):
    grid = Grid(n=n, N=N, h=0.3)
    axes = tuple(range(grid.d))
    spec = random_spectra(grid.shape + (M,), n * N + M + 1)
    kept = spec.copy()
    assert same_bits(grid_ifft(spec, grid), shifted_inverse(spec, grid, axes))
    assert same_bits(spec, kept)            # the input is left as it was
    moved = np.moveaxis(spec, -1, 0)
    assert same_bits(grid_ifft(moved, grid, tuple(range(1, grid.d + 1))),
                     shifted_inverse(moved, grid, tuple(range(1, grid.d + 1))))
    assert same_bits(grid_fft(spec, grid), np.fft.fftn(
        np.fft.ifftshift(spec, axes=axes), axes=axes) * grid.cell_volume)


@pytest.mark.parametrize("row", ["lap2", "lame3"])
@pytest.mark.parametrize("N", [6, 64])
def test_kernel_synthesis_matches_reference_chain_bit_for_bit(row, N,
                                                                request):
    system = request.getfixturevalue(row)
    grid = Grid(n=system.n, N=N, h=0.3)
    d = grid.d
    heights = [0.5, 1.0, 2.0]
    alphas = [(0,) * system.n, (1,) + (0,) * d, (0,) * d + (1,)]
    spec = kernels._derivative_levels(system, grid.freq_nodes_fftorder(),
                                      heights, alphas)
    want = np.moveaxis(shifted_inverse(
        spec.reshape(grid.shape + spec.shape[1:]), grid, tuple(range(d))),
        (d, d + 1), (0, 1))
    assert same_bits(kernels._synthesize_derivatives(system, grid, heights,
                                                     alphas), want)
