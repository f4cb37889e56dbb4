"""Direct split-step solver: exact solutions, invariants, scaling law."""
import numpy as np
import pytest

from nlswkb.errors import ConfigError, ResolutionError
from nlswkb.fields import ComplexField, lp_norm
from nlswkb.grids import PeriodicGrid
from nlswkb.nls import (nls_energy, segment_steps, solve_nls,
                        step_convergence_audit)
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field


def make_problem(eps=1e-2, kappa=1.0, size=1024, a0=None, potential=None):
    grid = PeriodicGrid.line(32.0, size)
    return SemiclassicalProblem(
        eps=eps, kappa=kappa,
        a0=a0 if a0 is not None else gaussian_field(grid, 1.0, 1.0),
        potential=potential or PotentialSpec.zero(),
        phase=InitialPhaseSpec.zero())


class TestExactSolutions:
    def test_constant_data_oscillator(self):
        # a0 = c solves u = c exp(-i c^2 eps^(kappa-1) t), both sub-steps exact
        grid = PeriodicGrid.line(32.0, 256)
        c = 0.8
        for kappa in (0.0, 1.0, 2.0):
            problem = SemiclassicalProblem(
                eps=0.05, kappa=kappa,
                a0=ComplexField(grid, np.full(grid.shape, c + 0j)),
                potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
            sol = solve_nls(problem, 0.3, dt=1e-3)
            phase = -(0.05 ** (kappa - 1)) * c ** 2 * 0.3
            exact = c * np.exp(1j * phase)
            assert np.max(np.abs(sol.final().values - exact)) <= 1e-12

    def test_constant_data_independent_of_dt(self):
        grid = PeriodicGrid.line(32.0, 256)
        problem = SemiclassicalProblem(
            eps=0.05, kappa=0.0,
            a0=ComplexField(grid, np.full(grid.shape, 0.8 + 0j)),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        a = solve_nls(problem, 0.3, dt=1e-3).final()
        b = solve_nls(problem, 0.3, dt=3e-3).final()
        assert np.max(np.abs(a.values - b.values)) <= 1e-13

    def test_plane_wave_dispersion_relation(self):
        # u = c exp(i(kx - wt)), w = eps^(kappa-1) c^2 + eps k^2/2
        grid = PeriodicGrid.line(32.0, 256)
        x = grid.nodes[0]
        k = 2 * np.pi * 8 / 32.0
        c, eps, kappa, t = 0.7, 0.1, 1.0, 0.4
        problem = SemiclassicalProblem(
            eps=eps, kappa=kappa, a0=ComplexField(grid, c * np.exp(1j * k * x)),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        sol = solve_nls(problem, t, dt=1e-3)
        omega = eps ** (kappa - 1) * c ** 2 + eps * k ** 2 / 2
        exact = c * np.exp(1j * (k * x - omega * t))
        assert np.max(np.abs(sol.final().values - exact)) <= 1e-11


class TestInvariants:
    def test_mass_and_energy_drift(self):
        problem = make_problem()
        sol = solve_nls(problem, 0.2)
        assert sol.mass_drift() <= 1e-10
        assert sol.energy_drift() <= 1e-6

    def test_mass_with_potential(self):
        problem = make_problem(potential=PotentialSpec.cosine(0.5, 32.0, 1))
        sol = solve_nls(problem, 0.2)
        assert sol.mass_drift() <= 1e-10

    def test_gauge_equivariance(self):
        problem = make_problem(eps=0.05)
        theta = 0.77
        rotated = SemiclassicalProblem(
            eps=problem.eps, kappa=problem.kappa,
            a0=ComplexField(problem.a0.grid,
                            problem.a0.values * np.exp(1j * theta)),
            potential=problem.potential, phase=problem.phase)
        base = solve_nls(problem, 0.2).final()
        rot = solve_nls(rotated, 0.2).final()
        assert np.max(np.abs(rot.values -
                             base.values * np.exp(1j * theta))) <= 1e-12

    def test_energy_functional_value(self):
        # constant profile: kinetic term zero, quartic term (eps^kappa/2)c^4 L
        grid = PeriodicGrid.line(32.0, 256)
        c, eps = 0.5, 0.1
        problem = SemiclassicalProblem(
            eps=eps, kappa=1.0,
            a0=ComplexField(grid, np.full(grid.shape, c + 0j)),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        e = nls_energy(problem, problem.initial_state())
        assert e == pytest.approx((eps / 2) * c ** 4 * 32.0, rel=1e-12)


class TestStepping:
    def test_self_convergence_second_order(self):
        problem = make_problem()
        audit = step_convergence_audit(problem, 0.1, [4e-4, 2e-4, 1e-4])
        assert abs(audit["slope"] - 2.0) <= 0.2
        assert audit["r2"] >= 0.99

    def test_output_times_respected(self):
        problem = make_problem()
        sol = solve_nls(problem, 0.2, output_times=[0.05, 0.1, 0.2])
        assert list(sol.times[-3:]) == [
            pytest.approx(0.05), pytest.approx(0.1), pytest.approx(0.2)]
        st = sol.state_at(0.1)
        assert st.values.shape == problem.grid.shape
        with pytest.raises(ValueError):
            sol.state_at(0.013)

    def test_final_time_appended_when_missing(self):
        problem = make_problem()
        sol = solve_nls(problem, 0.2, output_times=[0.1])
        assert sol.times[-1] == pytest.approx(0.2)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ConfigError):
            solve_nls(make_problem(), -0.1)


def strang_reference(problem, outputs, dt):
    """Plain Strang splitting, four FFTs per step: kinetic half-step,
    potential-plus-nonlinear phase, kinetic half-step."""
    eps, kappa = problem.eps, problem.kappa
    ksq = problem.grid.wavenumber_sq
    vvals = problem.potential_field().values
    u = problem.initial_state().values.copy()
    states = []
    t_cur = 0.0
    for t_next in outputs:
        n = max(1, int(np.ceil((t_next - t_cur) / dt - 1e-12)))
        h = (t_next - t_cur) / n
        half = np.exp(-0.25j * eps * ksq * h)
        for _ in range(n):
            u = np.fft.ifft(np.fft.fft(u) * half)
            u = u * np.exp(-1j * (h / eps) * (vvals + eps**kappa * np.abs(u) ** 2))
            u = np.fft.ifft(np.fft.fft(u) * half)
        states.append(u.copy())
        t_cur = t_next
    return states


class TestFusedStepper:
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("n_outputs", [1, 8])
    def test_matches_the_four_fft_strang_loop(self, kappa, n_outputs):
        problem = make_problem(eps=0.05, kappa=kappa, size=512,
                               potential=PotentialSpec.cosine(0.5, 32.0))
        t_final, dt = 0.1, 2e-3
        outputs = [t_final * (j + 1) / n_outputs for j in range(n_outputs)]
        sol = solve_nls(problem, t_final, dt=dt, output_times=outputs)
        expected = strang_reference(problem, outputs, dt)
        assert len(sol.states) == n_outputs + 1
        for state, ref in zip(sol.states[1:], expected):
            gap = np.linalg.norm(state.values - ref) / np.linalg.norm(ref)
            assert gap <= 1e-10

    def test_initial_state_untouched_and_states_distinct(self):
        problem = make_problem(eps=0.05, size=256)
        start = problem.initial_state()
        before = start.values.copy()
        sol = solve_nls(problem, 0.1, dt=1e-3, output_times=[0.05, 0.1],
                        initial_state=start)
        assert np.array_equal(start.values, before)
        arrays = [s.values for s in sol.states] + [start.values]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(sol.states[0].values, before)

    def test_segment_steps_rule(self):
        assert segment_steps([0.5], 0.1) == [5]
        assert segment_steps([0.05, 0.1, 0.3], 0.02) == [3, 3, 10]
        assert segment_steps([1e-4], 0.1) == [1]

    def test_errors_carry_eps_and_time(self):
        problem = make_problem(eps=0.01, kappa=0.0, size=128)
        with pytest.raises(ResolutionError) as caught:
            solve_nls(problem, 0.2)
        assert caught.value.eps == 0.01
        assert caught.value.time == pytest.approx(0.2)


class TestResolutionAlarm:
    def test_eps_oscillation_outruns_the_grid(self):
        # strong coupling writes wavenumbers ~ t/eps; N = 128 holds only
        # |k| <= 12.6, so the tail monitor must abort the run
        problem = make_problem(eps=0.01, kappa=0.0, size=128)
        with pytest.raises(ResolutionError):
            solve_nls(problem, 0.2)


class TestScalingLaw:
    def test_rescaled_solution_solves_rescaled_problem(self):
        # psi(t,x) = lam^(3/2) u(lam^(5/2) t, lam x) maps an eps = lam^(1/2)
        # solution to an eps = lam solution (1D, s = -1); all factors dyadic
        lam = 0.25
        n = 1024
        psi_grid = PeriodicGrid.line(32.0, n)
        a0 = gaussian_field(psi_grid, 1.0, 1.0)
        psi_problem = SemiclassicalProblem(
            eps=lam, kappa=0.0, a0=a0,
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())

        u_grid = PeriodicGrid.line(32.0 * lam, n)
        xu = u_grid.nodes[0]
        u0 = ComplexField(u_grid, lam ** -1.5 * np.exp(-(xu / lam) ** 2))
        u_problem = SemiclassicalProblem(
            eps=lam ** 0.5, kappa=0.0, a0=u0,
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())

        t_psi = 0.064
        psi = solve_nls(psi_problem, t_psi, dt=1e-3).final()
        u = solve_nls(u_problem, t_psi * lam ** 2.5, dt=1e-3 * lam ** 2.5).final()
        mapped = lam ** 1.5 * u.values
        err = np.sqrt(psi_grid.cell_volume * np.sum(np.abs(psi.values - mapped) ** 2))
        assert err <= 1e-6
        assert lp_norm(psi, 2) > 0.5
