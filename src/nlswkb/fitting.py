"""Least-squares power-law fits on log-log axes.

Convergence verdicts hinge on the slope of error-versus-eps lines, so the
fit is kept deliberately simple: exact linear algebra on (log x, log y),
with the coefficient of determination reported so callers can reject
fits that are not actually lines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float      # log of the prefactor
    r2: float

    @property
    def prefactor(self) -> float:
        return float(np.exp(self.intercept))


def fit_power_law(x, y, min_points: int = 3) -> PowerLawFit:
    """Fit y = C x^p by least squares in log-log coordinates.

    All inputs must be strictly positive.  On synthetic data y = C x^p the
    recovered slope matches p to machine precision.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ConfigError("x and y must have matching lengths")
    if len(x) < min_points:
        raise ConfigError(f"need at least {min_points} points, got {len(x)}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ConfigError("power-law fit needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(slope=slope, intercept=intercept, r2=r2)
