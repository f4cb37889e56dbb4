"""Sampled fields on periodic grids and the spectral operations on them.

Conventions.  With N samples f_j on the nodes of a PeriodicGrid of length
L, the discrete spectrum is fhat = fft(f)/N so that

    f(x) = sum_k fhat_k exp(i k (x + L/2)),

the shift accounting for the node origin at the left box edge.  Integral
norms are Plancherel-compatible:  sum over modes of |fhat_k|^2 times the box
length L equals the trapezoidal approximation of the integral of |f|^2,
exact for band-limited f.  The Nyquist mode of the even-sized grid is
treated as a cosine so that interpolation of real samples is real and the
first derivative is skew-symmetric (the Nyquist mode is zeroed there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .grids import PeriodicGrid


@dataclass(frozen=True, eq=False)
class _Field:
    grid: PeriodicGrid
    values: np.ndarray
    role: str = ""

    _dtype = None  # set by subclasses

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.size,):
            raise FieldError(
                f"sample shape {vals.shape} does not match grid size {self.grid.size}"
            )
        vals = vals.astype(self._dtype, copy=True)
        if not np.all(np.isfinite(vals)):
            raise FieldError(f"non-finite samples in field role={self.role!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: PeriodicGrid, role: str = ""):
        return cls(grid, np.zeros(grid.size, dtype=cls._dtype), role=role)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def _combine(self, other, op):
        if isinstance(other, _Field):
            if other.grid != self.grid:
                raise FieldError("fields live on different grids")
            other = other.values
        out = op(self.values, other)
        if np.iscomplexobj(out):
            return ComplexField(self.grid, out)
        return RealField(self.grid, out)


@dataclass(frozen=True, eq=False)
class RealField(_Field):
    _dtype = np.float64


@dataclass(frozen=True, eq=False)
class ComplexField(_Field):
    _dtype = np.complex128

    def abs2(self, role: str = "") -> RealField:
        return RealField(self.grid, np.abs(self.values) ** 2, role=role)


# ---------------------------------------------------------------------------
# spectral operations on raw sample arrays (used heavily in solver loops)


def derivative_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """d/dx of the band-limited interpolant, sampled at nodes."""
    out = np.fft.ifft(np.fft.fft(values) * grid.ik)
    return out if np.iscomplexobj(values) else out.real


def laplacian_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    out = np.fft.ifft(-grid.wavenumber_sq * np.fft.fft(values))
    return out if np.iscomplexobj(values) else out.real


def tail_fraction(spec: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Fraction of the power of each row of the spectrum `spec` that lies
    in the modes `band` (a boolean mask); 0 for a row without power."""
    power = spec.real ** 2 + spec.imag ** 2
    total = power.sum(axis=-1)
    # masked, so that a row sums in one order whether stacked or not
    tail = np.sum(power, axis=-1, where=band)
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0)


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: _Field, p: float = 2) -> float:
    """Quadrature L^p norm over the box; p = inf gives the node maximum."""
    if not p > 0:
        raise FieldError(f"p must be positive, got {p}")
    mags = np.abs(f.values)
    if np.isinf(p):
        return float(mags.max())
    return float((f.grid.spacing * np.sum(mags**p)) ** (1.0 / p))


def sobolev_norm(f: _Field, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order s via the discrete spectrum.

    Weight w(k) = |k| when homogeneous else (1 + |k|^2)^(1/2); the s = 0
    inhomogeneous norm reproduces the integral L^2 norm.
    """
    grid = f.grid
    spec = np.fft.fft(f.values) / grid.size
    k2 = grid.wavenumber_sq
    if homogeneous:
        weight = k2**s if s != 0 else np.ones_like(k2)
    else:
        weight = (1.0 + k2) ** s
    total = grid.length * np.sum(weight * np.abs(spec) ** 2)
    return float(np.sqrt(total))


def l2_linf_norm(f: _Field) -> float:
    """max(L^2, L^inf): the metric used for profile-convergence verdicts."""
    return max(lp_norm(f, 2), lp_norm(f, np.inf))


# ---------------------------------------------------------------------------
# trigonometric interpolation


def band_limited_interpolate(f: _Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant at arbitrary points in the box.

    `points`: shape (M,).  Points must lie inside the closed box;
    evaluation reproduces grid samples at the nodes and is exact for
    resolved Fourier modes.  Returns complex or real values matching the
    field kind.

    With z = exp(i dk (x + L/2)) the interpolant is z^(-N/2) times a
    polynomial of degree N in z whose coefficients are the spectrum from
    mode -N/2 to N/2, the Nyquist coefficient split evenly between its two
    ends (the cosine convention).  Horner's rule evaluates it in O(M)
    memory.
    """
    grid = f.grid
    pts = np.asarray(points, dtype=float)
    if not np.all(grid.contains(pts)):
        raise FieldError("interpolation points outside the periodic box")
    n = grid.size
    ny = n // 2
    spec = np.fft.fft(f.values) / n
    # coefficients of z^j for j = N/2, N/2 - 1, ..., -N/2 (Horner order)
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = coeffs[n] = 0.5 * spec[ny]
    coeffs[1:ny + 1] = spec[ny - 1::-1]
    coeffs[ny + 1:n] = spec[:ny:-1]
    angle = (2.0 * np.pi / grid.length) * (pts + grid.length / 2)
    z = np.exp(1j * angle)
    out = np.full(pts.shape, coeffs[0])
    for c in coeffs[1:].tolist():
        out *= z
        out += c
    out *= np.exp(-1j * ny * angle)
    return out if isinstance(f, ComplexField) else out.real


def interpolate_periodic(f: _Field, points: np.ndarray) -> np.ndarray:
    """Interpolation with arbitrary coordinates wrapped into the box first.

    Used when evaluating periodic data at ray labels, which may leave the
    box for non-periodic phase fixtures.
    """
    return band_limited_interpolate(f, f.grid.wrap(points))
