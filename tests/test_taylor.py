"""Small-time expansion of the strongly coupled phase system."""
import numpy as np
import pytest

from nlswkb.errors import FieldError
from nlswkb.fields import ComplexField
from nlswkb.fitting import fit_power_law
from nlswkb.grids import PeriodicGrid
from nlswkb.phase_amplitude import solve_phase_amplitude
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field
from nlswkb import taylor


@pytest.fixture(scope="module")
def setup():
    grid = PeriodicGrid(32.0, 1024)
    problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                   a0=gaussian_field(grid, 1.0, 1.0),
                                   potential=PotentialSpec.zero(),
                                   phase=InitialPhaseSpec.zero())
    coeffs = taylor.taylor_phase_coefficients(problem.initial_amplitude(), 3)
    return grid, problem, coeffs


class TestCoefficients:
    def test_leading_phase_is_minus_density(self, setup):
        grid, problem, coeffs = setup
        dens = np.abs(problem.a0.values) ** 2
        assert np.max(np.abs(coeffs.phases[0].values + dens)) <= 1e-14

    def test_constant_data_truncates_after_first_order(self):
        # gradients vanish, so the expansion collapses to the pointwise
        # oscillator phase -t c^2
        grid = PeriodicGrid(32.0, 64)
        c = ComplexField(grid, np.full(grid.size, 0.7 + 0j))
        coeffs = taylor.taylor_phase_coefficients(c, 3)
        assert np.max(np.abs(coeffs.phases[0].values + 0.49)) <= 1e-14
        for j in (1, 2):
            assert np.max(np.abs(coeffs.phases[j].values)) <= 1e-13
            assert np.max(np.abs(coeffs.amplitudes[j].values)) <= 1e-13

    def test_order_bounds_enforced(self, setup):
        _, problem, _ = setup
        with pytest.raises(FieldError):
            taylor.taylor_phase_coefficients(problem.a0, 0)
        with pytest.raises(FieldError):
            taylor.taylor_phase_coefficients(problem.a0, taylor.MAX_ORDER + 1)

    @pytest.mark.parametrize("order", [0, 4])
    def test_phase_sum_order_within_the_computed_range(self, setup, order):
        _, _, coeffs = setup
        with pytest.raises(FieldError, match=f"order {order} outside computed "
                                             r"range \[1, 3\]"):
            taylor.phase_sum(coeffs, 0.1, order=order)


class TestRemainderSlopes:
    def test_truncation_order_2k_plus_1(self, setup):
        grid, problem, coeffs = setup
        ts = [0.2, 0.1, 0.05]
        traj = solve_phase_amplitude(problem, 0.2, 2e-4, variant="skew_free",
                                     store_every=250)
        targets = {1: 3.0, 2: 5.0, 3: 7.0}
        for order, want in targets.items():
            rems = []
            for t in ts:
                phi = traj.state_at(t).phi.values
                rems.append(np.max(np.abs(
                    phi - taylor.phase_sum(coeffs, t, order=order).values)))
            fit = fit_power_law(np.array(ts), np.array(rems))
            assert abs(fit.slope - want) <= 0.3, (order, fit.slope)


class TestParity:
    def test_phase_odd_amplitude_even_under_time_reversal(self, setup):
        _, problem, _ = setup
        fwd = solve_phase_amplitude(problem, 0.2, 1e-3, variant="skew_free")
        bwd = solve_phase_amplitude(problem, -0.2, 1e-3, variant="skew_free")
        assert np.max(np.abs(fwd.final().phi.values +
                             bwd.final().phi.values)) <= 1e-8
        assert np.max(np.abs(fwd.final().a.values -
                             bwd.final().a.values)) <= 1e-8


class TestAssembly:
    def test_uk_has_data_modulus_and_truncated_phase(self, setup):
        _, problem, coeffs = setup
        u = taylor.assemble_uK(coeffs, eps=0.1, t=0.1, order=2)
        a0 = coeffs.a0.values
        assert np.max(np.abs(np.abs(u.values) - np.abs(a0))) <= 1e-13
        phase = taylor.phase_sum(coeffs, 0.1, order=2).values
        exact = a0 * np.exp(1j * phase / 0.1)
        assert np.max(np.abs(u.values - exact)) <= 1e-13

    def test_order_one_is_pointwise_oscillator(self, setup):
        # K = 1 solves i eps du/dt = |u|^2 u exactly
        _, problem, coeffs = setup
        eps, t = 0.05, 0.3
        u = taylor.assemble_uK(coeffs, eps=eps, t=t, order=1)
        a0 = coeffs.a0.values
        exact = a0 * np.exp(-1j * t * np.abs(a0) ** 2 / eps)
        assert np.max(np.abs(u.values - exact)) <= 1e-12


class TestValidityHorizon:
    def test_power_law(self):
        assert taylor.validity_horizon(1e-3, 1) == pytest.approx(1e-1)
        assert taylor.validity_horizon(1e-2, 2) == pytest.approx(10 ** (-0.4))
        assert taylor.validity_horizon(0.1, 3) == pytest.approx(10 ** (-1 / 7))

    def test_shrinks_with_eps_grows_with_order(self):
        assert taylor.validity_horizon(1e-4, 2) < taylor.validity_horizon(1e-2, 2)
        assert taylor.validity_horizon(1e-2, 3) > taylor.validity_horizon(1e-2, 1)
