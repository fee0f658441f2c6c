"""Uniform boundary grids and the discrete Fourier transform conventions.

All spatial grids are uniform over ``[-R, R)^d`` with ``N`` nodes per axis,
``d = n - 1`` the boundary dimension.  The continuous transform pair used
throughout is

    fhat(xi) = int f(x) exp(-i x.xi) dx,
    f(x)     = (2 pi)^(-d) int fhat(xi) exp(i x.xi) dxi,

discretised so that ``grid_ifft(grid_fft(f)) == f`` to round-off and the
zero-frequency entry of ``grid_fft(f)`` equals the Riemann sum of ``f``.  An
inversion overwrites what it inverts; an even N makes the shift a block swap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [-R, R)^d, d = n - 1, with N samples per axis."""

    n: int          # ambient dimension; boundary has n - 1 axes
    N: int          # samples per axis
    h: float        # grid spacing

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.N < 2 or self.N % 2:
            raise ValueError("N must be even, got %r" % (self.N,))
        if not self.h > 0:
            raise ValueError("grid spacing must be positive")

    @property
    def d(self) -> int:
        return self.n - 1

    @property
    def R(self) -> float:
        return 0.5 * self.N * self.h

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def node_count(self) -> int:
        return self.N ** self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis, natural (ascending) order."""
        return (np.arange(self.N) - self.N // 2) * self.h

    def meshes(self) -> list:
        ax = self.axis()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        return np.sqrt(sum(m * m for m in self.meshes()))

    def freq_nodes_fftorder(self) -> np.ndarray:
        """All frequency nodes, fft order, flattened to (N^d, d)."""
        ax = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)
        ms = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack([m.ravel() for m in ms], axis=-1)


def grid_fft(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform of natural-order samples; result in fft order.

    ``samples`` may carry trailing component axes beyond the first
    ``grid.d`` spatial axes.
    """
    sp_axes = tuple(range(grid.d))
    out = np.fft.fftn(np.fft.ifftshift(samples, axes=sp_axes), axes=sp_axes)
    return np.multiply(out, grid.cell_volume, out=out)


def grid_ifft(spectrum: np.ndarray, grid: Grid, sp_axes=None) -> np.ndarray:
    """Inverse of :func:`grid_fft` over the first ``grid.d`` axes, or over
    ``sp_axes``; natural-order samples of a copy of ``spectrum``."""
    sp_axes = tuple(range(grid.d)) if sp_axes is None else sp_axes
    work = np.array(spectrum, dtype=np.result_type(spectrum, 1j))
    return _invert_into(work, grid, sp_axes, np.empty_like(work))


def _invert_into(work: np.ndarray, grid: Grid, axes, dest: np.ndarray):
    """Invert fft-order spectra ``work`` over ``axes`` in place, as ifftn, then
    write fftshift(work) / cell_volume into ``dest`` by half-block swaps.

    The scaling multiplies by the real 1 / cell_volume, which rounds as
    numpy's complex division by the real cell_volume does (that division
    multiplies by the reciprocal too); only the sign of an exact zero may
    differ, since the division adds -0.0 + 0.0."""
    for ax in reversed(axes):
        np.fft.ifft(work, axis=ax, out=work)
    w, v = (np.moveaxis(x, axes, range(len(axes))) for x in (work, dest))
    halves = slice(None, grid.N // 2), slice(grid.N // 2, None)
    scale = 1.0 / grid.cell_volume
    for corner in np.ndindex((2,) * len(axes)):
        np.multiply(w[tuple(halves[c] for c in corner)], scale,
                    out=v[tuple(halves[1 - c] for c in corner)])
    return dest
