"""Uniform boundary grids and the discrete Fourier transform conventions.

All spatial grids are uniform over ``[-R, R)^d`` with ``N`` nodes per axis,
``d = n - 1`` the boundary dimension.  The continuous transform pair used
throughout is

    fhat(xi) = int f(x) exp(-i x.xi) dx,
    f(x)     = (2 pi)^(-d) int fhat(xi) exp(i x.xi) dxi,

discretised so that ``grid_ifft(grid_fft(f)) == f`` to round-off and the
zero-frequency entry of ``grid_fft(f)`` equals the Riemann sum of ``f``.
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

    def freq_axis(self) -> np.ndarray:
        """Frequency nodes along one axis, natural (ascending) order."""
        return (np.arange(self.N) - self.N // 2) * self.freq_spacing

    @property
    def freq_spacing(self) -> float:
        return 2.0 * np.pi / (self.N * self.h)

    @property
    def freq_extent(self) -> float:
        """Half-width of the frequency grid."""
        return 0.5 * self.N * self.freq_spacing

    def meshes(self) -> list:
        ax = self.axis()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        ms = self.meshes()
        return np.sqrt(sum(m * m for m in ms))

    def freq_meshes_fftorder(self) -> list:
        ax = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)
        return list(np.meshgrid(*([ax] * self.d), indexing="ij"))

    def freq_nodes_fftorder(self) -> np.ndarray:
        """All frequency nodes, fft order, flattened to (N^d, d)."""
        ms = self.freq_meshes_fftorder()
        return np.stack([m.ravel() for m in ms], axis=-1)


def grid_fft(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform of natural-order samples; result in fft order.

    ``samples`` may carry trailing component axes beyond the first
    ``grid.d`` spatial axes.
    """
    d = grid.d
    sp_axes = tuple(range(d))
    shifted = np.fft.ifftshift(samples, axes=sp_axes)
    return np.fft.fftn(shifted, axes=sp_axes) * grid.cell_volume


def grid_ifft(spectrum: np.ndarray, grid: Grid, sp_axes=None) -> np.ndarray:
    """Inverse of :func:`grid_fft` over the first ``grid.d`` axes, or over
    ``sp_axes``; returns natural-order samples."""
    sp_axes = tuple(range(grid.d)) if sp_axes is None else sp_axes
    out = np.fft.ifftn(spectrum, axes=sp_axes) / grid.cell_volume
    return np.fft.fftshift(out, axes=sp_axes)
