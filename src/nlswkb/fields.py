"""Sampled fields on periodic grids and the spectral operations on them.

Conventions.  With samples f_j on the nodes of a PeriodicGrid, the discrete
spectrum is fhat = fftn(f)/prod(N) so that

    f(x) = sum_k fhat_k exp(i k . (x + L/2)),

the shift accounting for the node origin at the left box edge.  Integral
norms are Plancherel-compatible:  sum over modes of |fhat_k|^2 times the box
volume equals the trapezoidal approximation of the integral of |f|^2, exact
for band-limited f.  The Nyquist column of even-sized axes is treated as a
cosine so that interpolation of real samples is real and odd-order
derivatives are skew-symmetric (the Nyquist mode is zeroed there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .grids import PeriodicGrid


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class _Field:
    grid: PeriodicGrid
    values: np.ndarray
    role: str = ""

    _dtype = None  # set by subclasses

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != self.grid.shape:
            raise FieldError(
                f"sample shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        vals = vals.astype(self._dtype, copy=True)
        if not np.all(np.isfinite(vals)):
            raise FieldError(f"non-finite samples in field role={self.role!r}")
        object.__setattr__(self, "values", _frozen(vals))

    @classmethod
    def zeros(cls, grid: PeriodicGrid, role: str = ""):
        return cls(grid, np.zeros(grid.shape, dtype=cls._dtype), role=role)

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


def derivative_values(grid: PeriodicGrid, values: np.ndarray, axis: int = 0,
                      order: int = 1) -> np.ndarray:
    """(d/dx_axis)^order of the band-limited interpolant, sampled at nodes."""
    if not 0 <= axis < grid.dim:
        raise FieldError(f"axis {axis} out of range for dim {grid.dim}")
    if order < 1:
        raise FieldError(f"derivative order must be >= 1, got {order}")
    k = grid.axis_wavenumbers(axis)
    mult = (1j * k) ** order
    if order % 2 == 1:
        # even-sized axes carry an unpaired Nyquist mode; its odd derivative
        # has no consistent sign, so it is dropped
        mult[grid.sizes[axis] // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = grid.sizes[axis]
    spec = np.fft.fft(values, axis=axis)
    out = np.fft.ifft(spec * mult.reshape(shape), axis=axis)
    return out if np.iscomplexobj(values) else out.real


def gradient_values(grid: PeriodicGrid, values: np.ndarray) -> list[np.ndarray]:
    return [derivative_values(grid, values, axis=a, order=1) for a in range(grid.dim)]


def laplacian_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    spec = np.fft.fftn(values)
    out = np.fft.ifftn(-grid.wavenumber_sq * spec)
    return out if np.iscomplexobj(values) else out.real


def spectral_derivative(f: _Field, axis: int = 0, order: int = 1):
    out = derivative_values(f.grid, f.values, axis=axis, order=order)
    if isinstance(f, RealField):
        return RealField(f.grid, out)
    return ComplexField(f.grid, out)


def laplacian(f: _Field):
    out = laplacian_values(f.grid, f.values)
    if isinstance(f, RealField):
        return RealField(f.grid, out)
    return ComplexField(f.grid, out)


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: _Field | np.ndarray, p: float = 2, grid: PeriodicGrid | None = None) -> float:
    """Quadrature L^p norm over the box; p = inf gives the node maximum."""
    if isinstance(f, _Field):
        grid, vals = f.grid, f.values
    else:
        if grid is None:
            raise FieldError("grid required when passing a bare array")
        vals = np.asarray(f)
    mags = np.abs(vals)
    if np.isinf(p):
        return float(mags.max())
    if p <= 0:
        raise FieldError(f"p must be positive, got {p}")
    return float((grid.cell_volume * np.sum(mags**p)) ** (1.0 / p))


def sobolev_norm(f: _Field | np.ndarray, s: float, homogeneous: bool = False,
                 grid: PeriodicGrid | None = None) -> float:
    """Sobolev norm of order s via the discrete spectrum.

    Weight w(k) = |k| when homogeneous else (1 + |k|^2)^(1/2); the s = 0
    inhomogeneous norm reproduces the integral L^2 norm.
    """
    if isinstance(f, _Field):
        grid, vals = f.grid, f.values
    else:
        if grid is None:
            raise FieldError("grid required when passing a bare array")
        vals = np.asarray(f)
    spec = np.fft.fftn(vals) / np.prod(grid.sizes)
    k2 = grid.wavenumber_sq
    if homogeneous:
        weight = k2**s if s != 0 else np.ones_like(k2)
    else:
        weight = (1.0 + k2) ** s
    total = grid.volume * np.sum(weight * np.abs(spec) ** 2)
    return float(np.sqrt(total))


def l2_linf_norm(f: _Field) -> float:
    """max(L^2, L^inf): the metric used for profile-convergence verdicts."""
    return max(lp_norm(f, 2), lp_norm(f, np.inf))


# ---------------------------------------------------------------------------
# trigonometric interpolation


def _axis_eval_matrix(grid: PeriodicGrid, axis: int, coords: np.ndarray) -> np.ndarray:
    """exp(i k (x + L/2)) per FFT mode, Nyquist column as a cosine."""
    L = grid.lengths[axis]
    k = grid.axis_wavenumbers(axis)
    shifted = coords + L / 2
    mat = np.exp(1j * np.outer(shifted, k))
    ny = grid.sizes[axis] // 2
    mat[:, ny] = np.cos(np.abs(k[ny]) * shifted)
    return mat


def band_limited_interpolate(f: _Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant at arbitrary points in the box.

    `points`: shape (M,) or (M, 1).  Points must lie inside the closed box;
    evaluation reproduces grid samples at the nodes and is exact for
    resolved Fourier modes.  Returns complex or real values matching the
    field kind.
    """
    grid = f.grid
    pts = np.asarray(points, dtype=float).reshape(-1)
    if not np.all(grid.contains(pts)):
        raise FieldError("interpolation points outside the periodic box")
    spec = np.fft.fftn(f.values) / np.prod(grid.sizes)
    out = _axis_eval_matrix(grid, 0, pts) @ spec
    return out if isinstance(f, ComplexField) else out.real


def interpolate_periodic(f: _Field, points: np.ndarray) -> np.ndarray:
    """Interpolation with arbitrary coordinates wrapped into the box first.

    Used when evaluating periodic data at ray labels, which may leave the
    box for non-periodic phase fixtures.
    """
    return band_limited_interpolate(f, f.grid.wrap(points))
