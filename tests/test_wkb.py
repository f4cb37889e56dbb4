"""Geometric-optics profile oracles: transport, self-modulation, assembly."""
from dataclasses import replace

import numpy as np
import pytest

from nlswkb.errors import CausticError, FieldError
from nlswkb.grids import PeriodicGrid
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import March, SemiclassicalProblem, gaussian_field
from nlswkb import rays, wkb


@pytest.fixture(scope="module")
def eval_grid():
    return PeriodicGrid(32.0, 256)


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
    markers = PeriodicGrid(128.0, 1024)
    problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                   a0=gaussian_field(markers, 1.0, 1.0),
                                   potential=PotentialSpec.zero(),
                                   phase=InitialPhaseSpec.quadratic(-1.0))
    bundle = rays.integrate_flow(problem, markers, 0.6, dt=1e-3)
    return problem, bundle


class TestTransportAmplitude:
    def test_focusing_profile(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        x = eval_grid.nodes
        amp = wkb.transport_amplitude(rays.invert_flow(bundle, 0.5, eval_grid), problem.a0)
        # a = a0(2x)/sqrt(1/2)
        exact = np.exp(-(2 * x) ** 2) * np.sqrt(2.0)
        assert np.max(np.abs(amp.values - exact)) <= 1e-12

    def test_harmonic_profile_at_pi_over_4(self, eval_grid):
        markers = PeriodicGrid(128.0, 512)
        problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                       a0=gaussian_field(markers, 1.0, 1.0),
                                       potential=PotentialSpec.harmonic(1.0),
                                       phase=InitialPhaseSpec.zero())
        t = float(np.pi / 4)
        bundle = rays.integrate_flow(problem, markers, t, dt=1e-3)
        amp = wkb.transport_amplitude(rays.invert_flow(bundle, t, eval_grid), problem.a0)
        x = eval_grid.nodes
        # cos(pi/4) = 1/sqrt(2): a = a0(sqrt(2) x) * 2^(1/4)
        exact = np.exp(-2 * x ** 2) * 2.0 ** 0.25
        assert np.max(np.abs(amp.values - exact)) <= 1e-12

    def test_nonpositive_jacobian_is_refused(self, focusing_case, eval_grid):
        # no solve makes J <= 0 before the caustic guard of invert_flow
        # stops it; a label map whose bundle has J < 0 on an affine flow
        # reaches the guard of the transport itself
        problem, bundle = focusing_case
        lmap = rays.invert_flow(bundle, 0.5, eval_grid)
        flipped = replace(lmap, bundle=replace(bundle, jac=-bundle.jac))
        with pytest.raises(CausticError, match="Jacobian not positive") as caught:
            wkb.transport_amplitude(flipped, problem.a0)
        assert caught.value.time == 0.5

    def test_identity_flow_returns_data(self, flat_case, eval_grid):
        problem, bundle = flat_case
        amp = wkb.transport_amplitude(rays.invert_flow(bundle, 0.4, eval_grid), problem.a0)
        assert np.max(np.abs(amp.values - problem.a0.values)) <= 1e-12


class TestSelfModulation:
    def test_flat_flow_linear_in_time(self, flat_case, eval_grid):
        problem, bundle = flat_case
        dens = np.abs(problem.a0.values) ** 2
        for t in (0.2, 0.5):
            g = wkb.self_modulation_phase(rays.invert_flow(bundle, t, eval_grid), problem.a0)
            assert np.max(np.abs(g.values + t * dens)) <= 1e-10

    def test_focusing_flow_log_profile(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        x = eval_grid.nodes
        g = wkb.self_modulation_phase(rays.invert_flow(bundle, 0.5, eval_grid), problem.a0)
        # G = |a0(2x)|^2 * log(1-t) at t = 1/2
        exact = np.exp(-2 * (2 * x) ** 2) * np.log(0.5)
        assert np.max(np.abs(g.values - exact)) <= 1e-10

    def test_additivity_on_flat_flow(self, flat_case, eval_grid):
        problem, bundle = flat_case
        g1 = wkb.self_modulation_phase(rays.invert_flow(bundle, 0.2, eval_grid), problem.a0)
        g2 = wkb.self_modulation_phase(rays.invert_flow(bundle, 0.3, eval_grid), problem.a0)
        g12 = wkb.self_modulation_phase(rays.invert_flow(bundle, 0.5, eval_grid), problem.a0)
        assert np.max(np.abs(g12.values - g1.values - g2.values)) <= 1e-10

    def test_guarded_past_caustic(self, focusing_case):
        # J = 1-t crosses the 0.1 threshold at t = 0.9: the modulation
        # integral past it is refused like the amplitude and the phase.  It
        # has no (bundle, a0, t, grid) entry that could skip the guard; it
        # takes a label map, and invert_flow makes none past the horizon
        problem, _ = focusing_case
        bundle = rays.integrate_flow(problem, problem.grid, 0.95, dt=1e-3)
        assert abs(bundle.t_caustic - 0.9) <= 1e-6
        grid = PeriodicGrid(4.0, 64)
        with pytest.raises(TypeError):
            wkb.self_modulation_phase(bundle, problem.a0, 0.95, grid)
        with pytest.raises(CausticError):
            wkb.self_modulation_phase(rays.invert_flow(bundle, 0.95, grid), problem.a0)


class TestAssembly:
    def test_critical_flat_matches_oscillator_solution(self, flat_case):
        problem, bundle = flat_case
        t = 0.3
        profile = wkb.build_approximant(problem, bundle, t)
        dens = np.abs(problem.a0.values) ** 2
        exact = problem.a0.values * np.exp(-1j * t * dens)
        assert np.max(np.abs(profile.assemble(problem.eps).values - exact)) <= 1e-10

    def test_modulus_equals_amplitude(self, focusing_case, eval_grid):
        problem, bundle = focusing_case
        profile = wkb.build_approximant(problem, bundle, 0.5, x_grid=eval_grid)
        u = profile.assemble(problem.eps)
        assert np.max(np.abs(np.abs(u.values) -
                             np.abs(profile.a.values))) <= 1e-12

    def test_subcritical_slow_phase_is_eps_times_g(self, flat_case, eval_grid):
        problem, bundle = flat_case
        weak = SemiclassicalProblem(eps=problem.eps, kappa=2.0, a0=problem.a0,
                                    potential=problem.potential,
                                    phase=problem.phase)
        profile = wkb.build_approximant(weak, bundle, 0.3, x_grid=eval_grid)
        g = wkb.self_modulation_phase(rays.invert_flow(bundle, 0.3, eval_grid), problem.a0)
        # phi = 0 on the flat flow: the assembled phase is the slow phase alone
        slow = np.angle(profile.assemble(weak.eps).values / profile.a.values)
        assert np.max(np.abs(slow - weak.eps * g.values)) <= 1e-14

    def test_free_profile_has_no_modulation(self, flat_case, eval_grid):
        problem, bundle = flat_case
        profile = wkb.build_approximant(problem, bundle, 0.3, x_grid=eval_grid)
        free = profile.assemble(problem.eps, include_modulation=False)
        fast = profile.a.values * np.exp(1j * profile.phi.values / problem.eps)
        assert np.max(np.abs(free.values - fast)) == 0.0

    def test_build_approximant_rejects_strong_coupling(self, flat_case):
        # kappa = 0 goes through the phase-amplitude solver, not the rays
        problem, bundle = flat_case
        strong = SemiclassicalProblem(eps=problem.eps, kappa=0.0, a0=problem.a0,
                                      potential=problem.potential,
                                      phase=problem.phase)
        with pytest.raises(FieldError):
            wkb.build_approximant(strong, bundle, 0.3)


class TestSimpsonWeights:
    """RK4 puts Simpson's weights 1/6, 4/6, 1/6 on a rate that depends on
    time alone, so the ray march integrates a cubic exactly at any step
    count."""

    @pytest.mark.parametrize("n", [2, 4, 10, 3, 5, 9])
    def test_integrate_a_cubic_exactly(self, n):
        # a force-free potential triple whose value is 1/2 - p: the ray from
        # y = 0 at unit speed has x = t, so the action rate xi^2/2 - V is
        # p(t), and int_0^1 (1 - 2t + 3t^2 + 4t^3) dt = 2
        flat = PotentialSpec(
            lambda x: 0.5 - (1 - 2 * x + 3 * x**2 + 4 * x**3),
            np.zeros_like, np.zeros_like, periodic=False, quadratic=True)
        zero, one = np.zeros(1), np.ones(1)
        times, *_, action, _, _ = rays.integrate_ray_state(
            flat, zero, one, one, zero, zero, 0.0, March(1.0, 1.0 / n))
        assert len(times) == n + 1
        assert abs(action[-1, 0] - 2.0) <= 1e-14


class TestSeparationProfile:
    def grid_data(self):
        grid = PeriodicGrid(32.0, 256)
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
        other = gaussian_field(PeriodicGrid(32.0, 128), 1.0, 1.0)
        with pytest.raises(FieldError):
            wkb.separation_profile(a0, other, delta=0.1, eps=0.01, t=0.1)
