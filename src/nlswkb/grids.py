"""Uniform periodic grids on a centered line.

A grid covers [-L/2, L/2) with N equispaced nodes, N a power of two.  Nodes
sit at x_j = -L/2 + j*h with h = L/N, so the left edge is a node and the
right edge wraps around.  The package is one-dimensional: the constructor
rejects any other dimension.  Lengths, sizes and nodes stay one-element
tuples, the layout the field-dump sidecar records.
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

    def axis_nodes(self) -> np.ndarray:
        """Node coordinates: -L/2 + j*h."""
        L, n = self.lengths[0], self.sizes[0]
        return -L / 2 + (L / n) * np.arange(n)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as a one-element tuple; callers take `nodes[0]`."""
        return (self.axis_nodes(),)

    def axis_wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*fftfreq in FFT ordering."""
        L, n = self.lengths[0], self.sizes[0]
        return 2 * np.pi * np.fft.fftfreq(n, d=L / n)

    @cached_property
    def wavenumber_sq(self) -> np.ndarray:
        """|k|^2 on the FFT-ordered spectral grid."""
        return self.axis_wavenumbers() ** 2

    def derivative_multiplier(self, order: int) -> np.ndarray:
        """(i k)^order in FFT ordering, cached per order and read-only.  An
        even-sized axis carries an unpaired Nyquist mode whose odd
        derivative has no consistent sign, so for odd orders it is dropped:
        odd derivatives of real samples stay real and skew-symmetric."""
        mult = self._multipliers.get(order)
        if mult is None:
            mult = (1j * self.axis_wavenumbers()) ** order
            if order % 2 == 1:
                mult[self.sizes[0] // 2] = 0.0
            mult.setflags(write=False)
            self._multipliers[order] = mult
        return mult

    @cached_property
    def _multipliers(self) -> dict[int, np.ndarray]:
        return {}

    @property
    def ik(self) -> np.ndarray:
        """The first-derivative multiplier, cached and read-only."""
        return self.derivative_multiplier(1)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep |k| <= (2/3) * k_max."""
        k = np.abs(self.axis_wavenumbers())
        return k <= (2.0 / 3.0) * k.max()

    @cached_property
    def kept_band_top(self) -> np.ndarray:
        """Top third of the dealiased band: (4/9) k_max < |k| <= (2/3) k_max,
        the modes the phase-amplitude tail monitor watches."""
        k = np.abs(self.axis_wavenumbers())
        kept = (2.0 / 3.0) * k.max()
        band = (k > (2.0 / 3.0) * kept) & self.dealias_mask
        band.setflags(write=False)
        return band

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for points inside the closed box [-L/2, L/2]."""
        pts = np.asarray(points, dtype=float)
        half = self.lengths[0] / 2
        return (pts >= -half) & (pts <= half)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map arbitrary coordinates into the box by periodicity."""
        L = self.lengths[0]
        return np.mod(np.asarray(points, dtype=float) + L / 2, L) - L / 2
