"""Uniform periodic grids on a centered line.

A grid covers [-L/2, L/2) with N equispaced nodes, N a power of two.  Nodes
sit at x_j = -L/2 + j*h with h = L/N, so the left edge is a node and the
right edge wraps around.  The package is one-dimensional: the constructor
rejects any other dimension.  Lengths and sizes stay one-element tuples so
the per-axis accessors read the same as the spectral formulas they serve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    lengths: tuple[float, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.lengths) != 1 or len(self.sizes) != 1:
            raise GridError(
                f"grids are one-dimensional, got {len(self.lengths)} lengths "
                f"and {len(self.sizes)} sizes")
        for L in self.lengths:
            if not (np.isfinite(L) and L > 0):
                raise GridError(f"box length must be positive and finite, got {L}")
        for n in self.sizes:
            if not (_is_power_of_two(n) and n >= 8):
                raise GridError(f"grid size must be a power of two >= 8, got {n}")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @classmethod
    def line(cls, length: float, size: int) -> "PeriodicGrid":
        return cls((length,), (size,))

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.sizes))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis: -L/2 + j*h."""
        L, n = self.lengths[axis], self.sizes[axis]
        return -L / 2 + (L / n) * np.arange(n)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as a one-element tuple; callers take `nodes[0]`."""
        return (self.axis_nodes(0),)

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers 2*pi*fftfreq in FFT ordering."""
        L, n = self.lengths[axis], self.sizes[axis]
        return 2 * np.pi * np.fft.fftfreq(n, d=L / n)

    @cached_property
    def wavenumber_sq(self) -> np.ndarray:
        """|k|^2 on the FFT-ordered spectral grid."""
        return self.axis_wavenumbers(0) ** 2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep |k| <= (2/3) * k_max."""
        k = np.abs(self.axis_wavenumbers(0))
        return k <= (2.0 / 3.0) * k.max()

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for points inside the closed box [-L/2, L/2]."""
        pts = np.asarray(points, dtype=float).reshape(-1)
        half = self.lengths[0] / 2
        return (pts >= -half) & (pts <= half)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map arbitrary coordinates into the box by periodicity."""
        L = self.lengths[0]
        return np.mod(np.asarray(points, dtype=float) + L / 2, L) - L / 2
