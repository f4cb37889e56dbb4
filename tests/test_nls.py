"""Direct split-step solver: exact solutions, invariants, scaling law."""
import numpy as np
import pytest

from nlswkb import nls
from nlswkb.errors import ConfigError, DivergenceError, ResolutionError
from nlswkb.fields import ComplexField, lp_norm
from nlswkb.grids import PeriodicGrid
from nlswkb.nls import nls_energy, solve_nls, solve_nls_sweep
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import March, SemiclassicalProblem, gaussian_field


def make_problem(eps=1e-2, kappa=1.0, size=1024, a0=None, potential=None):
    grid = PeriodicGrid(32.0, size)
    return SemiclassicalProblem(
        eps=eps, kappa=kappa,
        a0=a0 if a0 is not None else gaussian_field(grid, 1.0, 1.0),
        potential=potential or PotentialSpec.zero(),
        phase=InitialPhaseSpec.zero())


def chirp_probe(size=64):
    # the chirp exp(-2i x^2) of the data outruns 64 nodes on L = 32
    grid = PeriodicGrid(32.0, size)
    chirp = np.exp(-2j * grid.nodes ** 2)
    return make_problem(size=size, a0=ComplexField(
        grid, gaussian_field(grid, 1.0, 1.0).values * chirp))


class TestExactSolutions:
    def test_constant_data_oscillator(self):
        # a0 = c solves u = c exp(-i c^2 eps^(kappa-1) t), both sub-steps exact
        grid = PeriodicGrid(32.0, 256)
        c = 0.8
        for kappa in (0.0, 1.0, 2.0):
            problem = SemiclassicalProblem(
                eps=0.05, kappa=kappa,
                a0=ComplexField(grid, np.full(grid.size, c + 0j)),
                potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
            sol = solve_nls(problem, 0.3, dt=1e-3)
            phase = -(0.05 ** (kappa - 1)) * c ** 2 * 0.3
            exact = c * np.exp(1j * phase)
            assert np.max(np.abs(sol.final().values - exact)) <= 1e-12

    def test_constant_data_independent_of_dt(self):
        grid = PeriodicGrid(32.0, 256)
        problem = SemiclassicalProblem(
            eps=0.05, kappa=0.0,
            a0=ComplexField(grid, np.full(grid.size, 0.8 + 0j)),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        a = solve_nls(problem, 0.3, dt=1e-3).final()
        b = solve_nls(problem, 0.3, dt=3e-3).final()
        assert np.max(np.abs(a.values - b.values)) <= 1e-13

    def test_plane_wave_dispersion_relation(self):
        # u = c exp(i(kx - wt)), w = eps^(kappa-1) c^2 + eps k^2/2
        grid = PeriodicGrid(32.0, 256)
        x = grid.nodes
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
        grid = PeriodicGrid(32.0, 256)
        c, eps = 0.5, 0.1
        problem = SemiclassicalProblem(
            eps=eps, kappa=1.0,
            a0=ComplexField(grid, np.full(grid.size, c + 0j)),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        e = nls_energy(problem, problem.initial_state())
        assert e == pytest.approx((eps / 2) * c ** 4 * 32.0, rel=1e-12)


class TestStepping:
    def test_self_convergence_second_order(self, step_audit):
        audit = step_audit
        assert abs(audit["slope"] - 2.0) <= 0.2
        assert audit["r2"] >= 0.99

    def test_output_times_respected(self):
        problem = make_problem()
        sol = solve_nls(problem, 0.2, output_times=[0.05, 0.1, 0.2])
        assert list(sol.times[-3:]) == [
            pytest.approx(0.05), pytest.approx(0.1), pytest.approx(0.2)]
        st = sol.state_at(0.1)
        assert st.values.shape == (problem.grid.size,)
        with pytest.raises(ValueError):
            sol.state_at(0.013)

    def test_final_time_appended_when_missing(self):
        problem = make_problem()
        sol = solve_nls(problem, 0.2, output_times=[0.1])
        assert sol.times[-1] == pytest.approx(0.2)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ConfigError):
            solve_nls(make_problem(), -0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"output_times": [0.1, 0.05]},
         "output_times must be strictly increasing and positive"),
        ({"output_times": [0.0, 0.1]},
         "output_times must be strictly increasing and positive"),
        ({"output_times": [0.1, 0.3]}, "output_times may not pass t_final"),
        ({"output_times": []}, "output_times must name at least one time"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -1.0}, "dt must be positive, got -1.0"),
        ({"dt": float("nan")}, "dt must be positive, got nan"),
        ({"dt": float("inf")}, "dt must be positive, got inf"),
    ], ids=["decreasing", "zero", "past-t-final", "empty", "dt", "dt-negative",
            "dt-nan", "dt-inf"])
    def test_argument_checks_fire(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            solve_nls(make_problem(size=256), 0.2, **kwargs)


def segment_steps(outputs, dt):
    """The step count of each output segment [0, t_1], [t_1, t_2], ...: that
    of a problem.March of dt over it."""
    bounds = [0.0, *outputs]
    return [March(b - a, dt).steps for a, b in zip(bounds, outputs)]


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
        sol = solve_nls(problem, 0.1, dt=1e-3, output_times=[0.05, 0.1])
        arrays = [s.values for s in sol.states] + [problem.a0.values]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(sol.states[0].values,
                              problem.initial_state().values)

    def test_an_output_costs_four_transform_calls(self, fft_counter):
        # 8 steps of 2 calls however t = 0.1 is split; each output adds the
        # state's inverse transform, an energy pair and the next segment's
        # opening transform; the check of the initial state adds one
        problem = make_problem(eps=0.05, size=256)
        calls = {}
        for n_outputs in (1, 2, 4):
            fft_counter.reset()
            solve_nls(problem, 0.1, dt=0.0125, output_times=[
                0.1 * (j + 1) / n_outputs for j in range(n_outputs)])
            calls[n_outputs] = fft_counter.calls
        assert calls == {1: 23, 2: 27, 4: 35}

    def test_segment_steps_rule(self):
        # seg / dt rounded up: 0.05 / 0.02 = 2.5 takes 3 steps
        assert segment_steps([0.5], 0.1) == [5]
        assert segment_steps([0.05, 0.1, 0.3], 0.02) == [3, 3, 10]
        assert segment_steps([1e-4], 0.1) == [1]

    def test_errors_carry_eps_and_time(self):
        problem = make_problem(eps=0.01, kappa=0.0, size=128)
        with pytest.raises(ResolutionError) as caught:
            solve_nls(problem, 0.2)
        assert caught.value.eps == 0.01
        assert caught.value.time == pytest.approx(0.2)


def sweep_problems(eps_kappa=((0.1, 0.0), (0.05, 1.0), (0.03, 1.0)),
                   size=256):
    # a chirped amplitude and a cosine potential exercise V and a complex
    # state; kappa 0 and 1 give the rows different phase scales
    grid = PeriodicGrid(32.0, size)
    x = grid.nodes
    a0 = ComplexField(grid, np.exp(-x ** 2) * np.exp(0.5j * x ** 2 / (1 + x ** 2)))
    return [SemiclassicalProblem(eps=eps, kappa=kappa, a0=a0,
                                 potential=PotentialSpec.cosine(0.5, 32.0),
                                 phase=InitialPhaseSpec.zero())
            for eps, kappa in eps_kappa]


def _assert_same_solution(got, ref):
    assert got.problem is ref.problem and got.dt == ref.dt
    for name in ("times", "mass", "energy"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    for a, b in zip(got.states, ref.states, strict=True):
        assert np.array_equal(a.values, b.values)


class TestSweep:
    OUTPUTS = [0.05, 0.1]
    DTS = [2e-3, 7e-4, None]       # None: eps/50 = 6e-4

    def test_every_row_equals_its_single_solve(self):
        problems = sweep_problems()
        swept = solve_nls_sweep(problems, 0.1, self.DTS,
                                output_times=self.OUTPUTS)
        assert len(swept) == len(problems)
        for got, problem, dt in zip(swept, problems, self.DTS):
            ref = solve_nls(problem, 0.1, dt=dt, output_times=self.OUTPUTS)
            _assert_same_solution(got, ref)
        steps = {sum(segment_steps(self.OUTPUTS, sol.dt)) for sol in swept}
        assert len(steps) == len(problems)

    def test_matches_the_four_fft_strang_loop(self):
        problems = sweep_problems()
        swept = solve_nls_sweep(problems, 0.1, self.DTS,
                                output_times=self.OUTPUTS)
        for sol, problem in zip(swept, problems):
            expected = strang_reference(problem, self.OUTPUTS, sol.dt)
            for state, ref in zip(sol.states[1:], expected, strict=True):
                gap = np.linalg.norm(state.values - ref) / np.linalg.norm(ref)
                assert gap <= 1e-10

    def test_failed_rows_come_back_as_their_own_errors(self):
        good = sweep_problems()
        grid = good[0].grid
        # strong coupling writes wavenumbers ~ t/eps: at N = 256 this row
        # passes its check at t = 0.05 and fails it at t = 0.1
        unresolved = make_problem(eps=0.03, kappa=0.0, size=256,
                                  potential=PotentialSpec.cosine(0.5, 32.0))
        # |u|^2 overflows in the first nonlinear phase
        huge = SemiclassicalProblem(
            eps=0.02, kappa=0.0, a0=ComplexField(grid, 1e200 * good[0].a0.values),
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())
        problems = [good[0], huge, unresolved, good[1]]
        dts = [2e-3, None, 1e-3, 7e-4]
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve_nls_sweep(problems, 0.1, dts, output_times=self.OUTPUTS)
        assert isinstance(out[1], DivergenceError)
        assert (out[1].eps, out[1].time) == (0.02, 0.05)
        assert isinstance(out[2], ResolutionError)
        assert (out[2].eps, out[2].time) == (0.03, 0.1)
        for i in (1, 2):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(type(out[i])) as single:
                solve_nls(problems[i], 0.1, dt=dts[i],
                          output_times=self.OUTPUTS)
            assert (single.value.eps, single.value.time) == (
                out[i].eps, out[i].time)
            assert str(single.value) == str(out[i])
        for i in (0, 3):
            ref = solve_nls(problems[i], 0.1, dt=dts[i],
                            output_times=self.OUTPUTS)
            _assert_same_solution(out[i], ref)

    def test_fft_calls_do_not_grow_with_rows(self, fft_counter):
        problems = sweep_problems(
            [(eps, 1.0) for eps in np.geomspace(0.1, 0.05, 5)])
        counts, lines = {}, {}
        for rows in (1, 5):
            for dt in (1e-2, 5e-3):
                fft_counter.reset()
                solve_nls_sweep(problems[:rows], 0.1, [dt] * rows,
                                output_times=self.OUTPUTS)
                counts[rows, dt] = fft_counter.calls
                lines[rows, dt] = fft_counter.lines
        assert counts[1, 1e-2] == counts[5, 1e-2]
        assert counts[1, 5e-3] == counts[5, 5e-3]
        # 5 more steps in each of the 2 segments, 2 calls per step
        assert counts[1, 5e-3] - counts[1, 1e-2] == 20
        # and each call transforms every row once
        assert lines[5, 5e-3] - lines[5, 1e-2] == 5 * 20

    def test_a_row_unresolved_at_t0_leaves_before_the_first_step(self):
        # a width-2 profile fits 64 nodes; the chirped one fails at t = 0
        probe = chirp_probe()
        wide = make_problem(eps=0.1, size=64,
                            a0=gaussian_field(probe.grid, 2.0, 1.0))
        out = solve_nls_sweep([probe, wide], 0.1, [None, None],
                              output_times=self.OUTPUTS)
        assert isinstance(out[0], ResolutionError)
        assert (out[0].eps, out[0].time) == (0.01, 0.0)
        _assert_same_solution(out[1], solve_nls(wide, 0.1,
                                                output_times=self.OUTPUTS))

    def test_problems_must_share_one_grid(self):
        problems = [make_problem(size=256), make_problem(size=512)]
        with pytest.raises(ConfigError):
            solve_nls_sweep(problems, 0.1, [1e-3, 1e-3])

    def test_one_dt_per_problem(self):
        with pytest.raises(ConfigError):
            solve_nls_sweep(sweep_problems(), 0.1, [1e-3, 1e-3])

    def test_initial_states_untouched_and_states_distinct(self):
        problems = sweep_problems()
        swept = solve_nls_sweep(problems, 0.1, self.DTS,
                                output_times=self.OUTPUTS)
        # the problems share one a0
        arrays = ([s.values for sol in swept for s in sol.states]
                  + [problems[0].a0.values])
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for sol, problem in zip(swept, problems):
            assert np.array_equal(sol.states[0].values,
                                  problem.initial_state().values)


class TestResolutionAlarm:
    def test_an_unresolved_initial_state_fails_at_t0(self, monkeypatch):
        monkeypatch.setattr(nls, "_step",
                            lambda *args: pytest.fail("the march took a step"))
        with pytest.raises(ResolutionError) as caught:
            solve_nls(chirp_probe(), 0.2)
        assert (caught.value.eps, caught.value.time) == (0.01, 0.0)

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
        psi_grid = PeriodicGrid(32.0, n)
        a0 = gaussian_field(psi_grid, 1.0, 1.0)
        psi_problem = SemiclassicalProblem(
            eps=lam, kappa=0.0, a0=a0,
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())

        u_grid = PeriodicGrid(32.0 * lam, n)
        xu = u_grid.nodes
        u0 = ComplexField(u_grid, lam ** -1.5 * np.exp(-(xu / lam) ** 2))
        u_problem = SemiclassicalProblem(
            eps=lam ** 0.5, kappa=0.0, a0=u0,
            potential=PotentialSpec.zero(), phase=InitialPhaseSpec.zero())

        t_psi = 0.064
        psi = solve_nls(psi_problem, t_psi, dt=1e-3).final()
        u = solve_nls(u_problem, t_psi * lam ** 2.5, dt=1e-3 * lam ** 2.5).final()
        mapped = lam ** 1.5 * u.values
        err = np.sqrt(psi_grid.spacing * np.sum(np.abs(psi.values - mapped) ** 2))
        assert err <= 1e-6
        assert lp_norm(psi, 2) > 0.5
