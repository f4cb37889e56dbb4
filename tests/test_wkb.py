"""Geometric-optics profile oracles: transport, self-modulation, assembly."""
import numpy as np
import pytest

from nlswkb.errors import FieldError
from nlswkb.grids import PeriodicGrid
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field
from nlswkb import rays, wkb


@pytest.fixture(scope="module")
def eval_grid():
    return PeriodicGrid.line(32.0, 256)


@pytest.fixture(scope="module")
def flat_case(eval_grid):
    """V = 0, zero phase: the flow is the identity and G = -t|a0|^2."""
    problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                   a0=gaussian_field(eval_grid, 1.0, 1.0),
                                   potential=PotentialSpec.zero(),
                                   phase=InitialPhaseSpec.zero())
    bundle = rays.integrate_flow(problem, eval_grid, 0.6, dt=1e-3)
    return problem, bundle


@pytest.fixture(scope="module")
def focusing_case():
    """V = 0 with phase -x^2/2: J = 1-t, labels y = x/(1-t)."""
    markers = PeriodicGrid.line(128.0, 1024)
    problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                   a0=gaussian_field(markers, 1.0, 1.0),
                                   potential=PotentialSpec.zero(),
                                   phase=InitialPhaseSpec.quadratic(-1.0))
    bundle = rays.integrate_flow(problem, markers, 0.6, dt=1e-3)
    return problem, bundle


class TestTransportAmplitude:
    def test_focusing_profile(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        x = eval_grid.nodes[0]
        amp = wkb.transport_amplitude(bundle, problem.a0, 0.5, eval_grid)
        # a = a0(2x)/sqrt(1/2)
        exact = np.exp(-(2 * x) ** 2) * np.sqrt(2.0)
        assert np.max(np.abs(amp.values - exact)) <= 1e-12

    def test_harmonic_profile_at_pi_over_4(self, eval_grid):
        markers = PeriodicGrid.line(128.0, 512)
        problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                       a0=gaussian_field(markers, 1.0, 1.0),
                                       potential=PotentialSpec.harmonic(1.0),
                                       phase=InitialPhaseSpec.zero())
        t = float(np.pi / 4)
        bundle = rays.integrate_flow(problem, markers, t, dt=1e-3)
        amp = wkb.transport_amplitude(bundle, problem.a0, t, eval_grid)
        x = eval_grid.nodes[0]
        # cos(pi/4) = 1/sqrt(2): a = a0(sqrt(2) x) * 2^(1/4)
        exact = np.exp(-2 * x ** 2) * 2.0 ** 0.25
        assert np.max(np.abs(amp.values - exact)) <= 1e-12

    def test_identity_flow_returns_data(self, flat_case, eval_grid):
        problem, bundle = flat_case
        amp = wkb.transport_amplitude(bundle, problem.a0, 0.4, eval_grid)
        assert np.max(np.abs(amp.values - problem.a0.values)) <= 1e-12


class TestSelfModulation:
    def test_flat_flow_linear_in_time(self, flat_case, eval_grid):
        problem, bundle = flat_case
        dens = np.abs(problem.a0.values) ** 2
        for t in (0.2, 0.5):
            g = wkb.self_modulation_phase(bundle, problem.a0, t, eval_grid)
            assert np.max(np.abs(g.values + t * dens)) <= 1e-10

    def test_focusing_flow_log_profile(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        x = eval_grid.nodes[0]
        g = wkb.self_modulation_phase(bundle, problem.a0, 0.5, eval_grid)
        # G = |a0(2x)|^2 * log(1-t) at t = 1/2
        exact = np.exp(-2 * (2 * x) ** 2) * np.log(0.5)
        assert np.max(np.abs(g.values - exact)) <= 1e-10

    def test_additivity_on_flat_flow(self, flat_case, eval_grid):
        problem, bundle = flat_case
        g1 = wkb.self_modulation_phase(bundle, problem.a0, 0.2, eval_grid)
        g2 = wkb.self_modulation_phase(bundle, problem.a0, 0.3, eval_grid)
        g12 = wkb.self_modulation_phase(bundle, problem.a0, 0.5, eval_grid)
        assert np.max(np.abs(g12.values - g1.values - g2.values)) <= 1e-10


class TestAssembly:
    def test_critical_flat_matches_oscillator_solution(self, flat_case):
        problem, bundle = flat_case
        t = 0.3
        approx = wkb.build_approximant(problem, bundle, t)
        dens = np.abs(problem.a0.values) ** 2
        exact = problem.a0.values * np.exp(-1j * t * dens)
        assert np.max(np.abs(approx.assemble().values - exact)) <= 1e-10

    def test_modulus_equals_amplitude(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        approx = wkb.build_approximant(problem, bundle, 0.5, x_grid=eval_grid)
        u = approx.assemble()
        assert np.max(np.abs(np.abs(u.values) -
                             np.abs(approx.amplitude.values))) <= 1e-12

    def test_subcritical_slow_phase_is_eps_times_g(self, flat_case, eval_grid):
        problem, bundle = flat_case
        weak = SemiclassicalProblem(eps=problem.eps, kappa=2.0, a0=problem.a0,
                                    potential=problem.potential,
                                    phase=problem.phase)
        approx = wkb.build_approximant(weak, bundle, 0.3, x_grid=eval_grid)
        g = wkb.self_modulation_phase(bundle, problem.a0, 0.3, eval_grid)
        assert np.max(np.abs(approx.slow_phase.values -
                             weak.eps * g.values)) <= 1e-14

    def test_free_profile_has_no_modulation(self, flat_case, eval_grid):
        problem, bundle = flat_case
        approx = wkb.build_approximant(problem, bundle, 0.3, x_grid=eval_grid,
                                       include_modulation=False)
        assert np.max(np.abs(approx.slow_phase.values)) == 0.0

    def test_extract_amplitude_round_trip(self, flat_case, eval_grid):
        problem, bundle = flat_case
        approx = wkb.build_approximant(problem, bundle, 0.3, x_grid=eval_grid)
        u = approx.assemble()
        back = wkb.extract_amplitude(u, approx.fast_phase, problem.eps)
        slow = approx.amplitude.values * np.exp(1j * approx.slow_phase.values)
        assert np.max(np.abs(back.values - slow)) <= 1e-12

    def test_build_approximant_rejects_strong_coupling(self, flat_case):
        # kappa = 0 goes through the phase-amplitude solver, not the rays
        problem, bundle = flat_case
        strong = SemiclassicalProblem(eps=problem.eps, kappa=0.0, a0=problem.a0,
                                      potential=problem.potential,
                                      phase=problem.phase)
        with pytest.raises(FieldError):
            wkb.build_approximant(strong, bundle, 0.3)


class TestSeparationProfile:
    def grid_data(self):
        grid = PeriodicGrid.line(32.0, 256)
        a0 = gaussian_field(grid, 1.0, 1.0)
        b0 = gaussian_field(grid, 1.0, 1.0)
        return grid, a0, b0

    def test_identical_data_gives_zero(self):
        _, a0, _ = self.grid_data()
        prof = wkb.separation_profile(a0, a0, delta=0.1, eps=0.01, t=0.5)
        assert np.max(np.abs(prof.values)) == 0.0

    def test_small_argument_linear_in_time(self):
        _, a0, b0 = self.grid_data()
        delta = 1e-4
        tilde = a0 + delta * b0
        p1 = wkb.separation_profile(a0, tilde, delta, eps=1.0, t=1e-3)
        p2 = wkb.separation_profile(a0, tilde, delta, eps=1.0, t=2e-3)
        ratio = np.max(p2.values) / np.max(p1.values)
        assert ratio == pytest.approx(2.0, rel=1e-5)

    def test_nonpositive_delta_rejected(self):
        _, a0, b0 = self.grid_data()
        with pytest.raises(FieldError):
            wkb.separation_profile(a0, a0 + 0.1 * b0, delta=0.0, eps=0.01, t=0.1)

    def test_grid_mismatch_rejected(self):
        _, a0, _ = self.grid_data()
        other = gaussian_field(PeriodicGrid.line(32.0, 128), 1.0, 1.0)
        with pytest.raises(FieldError):
            wkb.separation_profile(a0, other, delta=0.1, eps=0.01, t=0.1)
