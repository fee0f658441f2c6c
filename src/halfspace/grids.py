"""Uniform boundary grids and the discrete Fourier transform conventions.

All spatial grids are uniform over ``[-R, R)^d`` with ``N`` nodes per axis,
``d = n - 1`` the boundary dimension.  The continuous transform pair used
throughout is

    fhat(xi) = int f(x) exp(-i x.xi) dx,
    f(x)     = (2 pi)^(-d) int fhat(xi) exp(i x.xi) dxi,

discretised so that ``grid_ifft(grid_fft(f)) == f`` to round-off and the
zero-frequency entry of ``grid_fft(f)`` equals the Riemann sum of ``f``.  An
inversion overwrites what it inverts; an even N makes the shift a block swap.

A solve needs neither shift.  For even N, ``fftn(ifftshift(f))`` is ``fftn(f)``
times the sign pattern sigma = (-1)^(k_1 + ... + k_d) on the fft-order nodes,
and ``fftshift(ifftn(x))`` is ``ifftn(sigma x)``; a symbol applied node by node
carries sigma through, and sigma^2 = 1, so :func:`_fft_unshifted` and
:func:`_ifft_unshifted_into` take a solve from natural-order samples to its
natural-order field with no shift and one scaling pass.  For N a power of two
the FFT keeps sigma exact and the fields have the bits of the shifted chain;
other even N may move in round-off (about 2e-16 to 5e-16 relative at
N = 6 and 96).
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

    def shift_signs(self) -> np.ndarray:
        """sigma = (-1)^(k_1 + ... + k_d) at every frequency node, fft order,
        flattened to (N^d,): a spectrum times sigma inverts, with no shift, to
        the natural-order samples of the spectrum itself."""
        return 1.0 - 2.0 * (np.indices(self.shape).sum(axis=0).ravel() % 2)


def grid_fft(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform of natural-order samples; result in fft order.

    ``samples`` may carry trailing component axes beyond the first
    ``grid.d`` spatial axes.
    """
    return _fft_unshifted(np.fft.ifftshift(samples, axes=tuple(range(grid.d))),
                          grid)


def _fft_unshifted(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """fftn(samples) times the cell volume over the first ``grid.d`` axes,
    with no shift: :func:`grid_fft` of natural-order samples times sigma."""
    out = np.fft.fftn(samples, axes=tuple(range(grid.d)))
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


def _ifft_unshifted_into(work: np.ndarray, grid: Grid, axes,
                         dest: np.ndarray):
    """Invert fft-order spectra ``work`` over ``axes`` in place, as ifftn, then
    write work / cell_volume into ``dest`` in one pass, with no shift: a
    solve's spectrum already carries sigma from :func:`_fft_unshifted`."""
    for ax in reversed(axes):
        np.fft.ifft(work, axis=ax, out=work)
    return np.multiply(work, 1.0 / grid.cell_volume, out=dest)
