"""Uniform periodic grids on a centered line.

A grid is one box length L and one node count N, a power of two, and
covers [-L/2, L/2) with nodes x_j = -L/2 + j*h, h = L/N: the left edge is
a node and the right edge wraps around.  Nodes, wavenumbers and the
spectral multipliers are cached read-only arrays of shape (N,).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class PeriodicGrid:
    length: float
    size: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise GridError(f"box length must be positive and finite, got {self.length}")
        if not (_is_power_of_two(self.size) and self.size >= 8):
            raise GridError(f"grid size must be a power of two >= 8, got {self.size}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "size", int(self.size))

    @property
    def sizes(self) -> tuple[int]:
        # read by perfbench/spans.py (the band_limited_interpolate return
        # hook); goes when that hook stops sizing the interpolation matrix
        return (self.size,)

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates: -L/2 + j*h."""
        return _frozen(-self.length / 2 + self.spacing * np.arange(self.size))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*fftfreq in FFT ordering."""
        return _frozen(2 * np.pi * np.fft.fftfreq(self.size, d=self.spacing))

    @cached_property
    def wavenumber_sq(self) -> np.ndarray:
        """k^2 on the FFT-ordered spectral grid."""
        return _frozen(self.wavenumbers ** 2)

    @cached_property
    def ik(self) -> np.ndarray:
        """The first-derivative multiplier i k in FFT ordering, read-only.
        The unpaired Nyquist mode of the even-sized grid has no consistent
        sign, so it is dropped: derivatives of real samples stay real and
        skew-symmetric."""
        mult = 1j * self.wavenumbers
        mult[self.size // 2] = 0.0
        return _frozen(mult)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep |k| <= (2/3) * k_max."""
        k = np.abs(self.wavenumbers)
        return _frozen(k <= (2.0 / 3.0) * k.max())

    @cached_property
    def kept_band_top(self) -> np.ndarray:
        """Top third of the dealiased band: (4/9) k_max < |k| <= (2/3) k_max."""
        k = np.abs(self.wavenumbers)
        kept = (2.0 / 3.0) * k.max()
        return _frozen((k > (2.0 / 3.0) * kept) & self.dealias_mask)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for points inside the closed box [-L/2, L/2]."""
        pts = np.asarray(points, dtype=float)
        half = self.length / 2
        return (pts >= -half) & (pts <= half)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map arbitrary coordinates into the box by periodicity."""
        L = self.length
        return np.mod(np.asarray(points, dtype=float) + L / 2, L) - L / 2
