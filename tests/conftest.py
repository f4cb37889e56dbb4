"""Fixtures and the reference RK4 step shared by the solver tests, and the
shipped-config runs shared by the acceptance and golden tests."""
import json
from pathlib import Path

import numpy as np
import pytest

from nlswkb.config import config_from_dict
from nlswkb.experiments import run_experiment
from nlswkb.fitting import fit_power_law
from nlswkb.grids import PeriodicGrid
from nlswkb.nls import solve_nls_sweep
from nlswkb.plan import Plan
from nlswkb.problem import SemiclassicalProblem, gaussian_field

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class FFTCounter:
    """Counts the np.fft transform calls made while it is installed, and
    the lines they transform: a call on an array of shape (..., n)
    transforms the product of its leading dimensions."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.lines = 0
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, self._counted(getattr(np.fft, name)))

    def reset(self):
        self.calls = self.lines = 0

    def _counted(self, fn):
        def counted(a, *args, **kwargs):
            self.calls += 1
            self.lines += int(np.prod(np.shape(a)[:-1]))
            return fn(a, *args, **kwargs)
        return counted


def stagewise_rk4(rhs, state, h):
    """One RK4 step of a tuple of arrays with a fresh array for every
    stage and sum: the reference whose arithmetic problem.rk4 must
    reproduce bit for bit."""
    k1 = rhs(*state)
    k2 = rhs(*(s + 0.5 * h * k for s, k in zip(state, k1)))
    k3 = rhs(*(s + 0.5 * h * k for s, k in zip(state, k2)))
    k4 = rhs(*(s + h * k for s, k in zip(state, k3)))
    return tuple(s + (h / 6) * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4))


@pytest.fixture
def fft_counter(monkeypatch):
    return FFTCounter(monkeypatch)


@pytest.fixture(scope="session")
def step_audit():
    """Self-convergence of the split-step solver on the stock kappa = 1
    Gaussian problem: the L2 error at t = 0.1 of each dt against a solve at
    the finest dt divided by four, and the fitted log-log slope (expect 2).
    The NLS tests and acceptance criterion 11 both read it."""
    grid = PeriodicGrid(32.0, 1024)
    problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                   a0=gaussian_field(grid, 1.0, 1.0))
    dts = [1e-4, 2e-4, 4e-4]
    ref, *solutions = solve_nls_sweep([problem] * 4, 0.1, [dts[0] / 4.0] + dts)
    errors = [float(np.sqrt(grid.spacing * np.sum(
        np.abs(sol.final().values - ref.final().values) ** 2)))
        for sol in solutions]
    fit = fit_power_law(dts, errors)
    return {"slope": fit.slope, "r2": fit.r2}


@pytest.fixture(scope="session")
def shipped_result():
    """shipped_result(name) runs configs/<name> once per session and hands
    every later caller the same ExperimentResult."""
    results = {}

    def get(name):
        if name not in results:
            with open(CONFIG_DIR / name, encoding="utf-8") as fh:
                config = config_from_dict(json.load(fh))
            results[name] = run_experiment(config, Plan.build(config))
        return results[name]
    return get


@pytest.fixture(scope="session")
def critical_result(shipped_result):
    return shipped_result("critical.json")


@pytest.fixture(scope="session")
def subcritical_result(shipped_result):
    return shipped_result("subcritical.json")


@pytest.fixture(scope="session")
def supercritical_result(shipped_result):
    return shipped_result("supercritical.json")


@pytest.fixture(scope="session")
def corrector_result(shipped_result):
    return shipped_result("corrector.json")


@pytest.fixture(scope="session")
def skewfree_result(shipped_result):
    return shipped_result("skewfree.json")


@pytest.fixture(scope="session")
def instability_result(shipped_result):
    return shipped_result("instability.json")


@pytest.fixture(scope="session")
def normgrowth_result(shipped_result):
    return shipped_result("normgrowth.json")
