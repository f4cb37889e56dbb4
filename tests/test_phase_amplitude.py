"""Phase-amplitude (strong-coupling) solver: variants, corrector, residuals."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import stagewise_rk4

from nlswkb import phase_amplitude
from nlswkb.errors import ConfigError, DivergenceError, ResolutionError
from nlswkb.fields import ComplexField, derivative_values, sobolev_norm
from nlswkb.grids import PeriodicGrid
from nlswkb.phase_amplitude import (euler_residual, solve_corrector,
                                    solve_phase_amplitude,
                                    solve_phase_amplitude_sweep)
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field


def flat_problem(eps=1e-2, size=1024, a1=None):
    grid = PeriodicGrid(32.0, size)
    a1f = gaussian_field(grid, 1.5, 0.5) if a1 == "gaussian" else None
    return SemiclassicalProblem(eps=eps, kappa=0.0,
                                a0=gaussian_field(grid, 1.0, 1.0), a1=a1f,
                                potential=PotentialSpec.zero(),
                                phase=InitialPhaseSpec.zero())


class TestSolverBasics:
    def test_mass_conserved_all_variants(self):
        problem = flat_problem()
        for variant, tol in (("limit", 1e-12), ("skew_free", 1e-12),
                             ("full", 1e-12)):
            traj = solve_phase_amplitude(problem, 0.2, 2e-3, variant=variant)
            assert traj.mass_drift() <= tol, variant

    def test_skew_free_equals_limit_without_corrections(self):
        # with a0 alone the eps-dependence of the skew-free system sits in
        # the data; identical data means identical trajectories
        problem = flat_problem()
        lim = solve_phase_amplitude(problem, 0.2, 2e-3, variant="limit")
        skw = solve_phase_amplitude(problem, 0.2, 2e-3, variant="skew_free")
        assert np.max(np.abs(lim.final().a.values -
                             skw.final().a.values)) <= 1e-14
        assert np.max(np.abs(lim.final().phi.values -
                             skw.final().phi.values)) <= 1e-14

    def test_velocity_is_phase_gradient(self):
        problem = flat_problem()
        traj = solve_phase_amplitude(problem, 0.2, 2e-3, variant="full")
        st = traj.final()
        gradient_defect = np.abs(derivative_values(st.grid, st.phi.values)
                                 - st.v.values).max()
        assert gradient_defect <= 1e-10

    def test_state_lookup(self):
        problem = flat_problem()
        traj = solve_phase_amplitude(problem, 0.2, 2e-3, variant="limit",
                                     store_every=10)
        st = traj.state_at(0.1)
        assert st.time == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(ValueError):
            traj.state_at(0.013)

    def test_spatial_resolution_already_converged(self):
        # doubling N leaves the solution unchanged on the shared nodes
        coarse = solve_phase_amplitude(flat_problem(size=1024), 0.2, 2e-3,
                                       variant="limit")
        fine = solve_phase_amplitude(flat_problem(size=2048), 0.2, 2e-3,
                                     variant="limit")
        assert np.max(np.abs(coarse.final().a.values -
                             fine.final().a.values[::2])) <= 1e-9
        assert np.max(np.abs(coarse.final().phi.values -
                             fine.final().phi.values[::2])) <= 1e-9

    def test_dt_refinement_fourth_order(self):
        problem = flat_problem()
        ref = solve_phase_amplitude(problem, 0.2, 5e-4, variant="limit")
        errs = []
        for dt in (8e-3, 4e-3):
            traj = solve_phase_amplitude(problem, 0.2, dt, variant="limit")
            errs.append(np.max(np.abs(traj.final().a.values -
                                      ref.final().a.values)))
        assert 12.0 <= errs[0] / errs[1] <= 20.0


class TestGuards:
    def test_unbounded_potential_rejected(self):
        grid = PeriodicGrid(32.0, 256)
        problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                       a0=gaussian_field(grid, 1.0, 1.0),
                                       potential=PotentialSpec.harmonic(1.0),
                                       phase=InitialPhaseSpec.zero())
        with pytest.raises(ConfigError):
            solve_phase_amplitude(problem, 0.1, 1e-3, variant="full")
        with pytest.raises(ConfigError):
            solve_corrector(problem, 0.1, 1e-3)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            solve_phase_amplitude(flat_problem(), 0.1, 1e-3, variant="exact")

    def test_unresolved_grid_raises_alarm(self):
        # N = 64 on L = 32 cannot hold a width-1 profile to 1e-8
        with pytest.raises(ResolutionError):
            solve_phase_amplitude(flat_problem(size=64), 0.1, 1e-3,
                                  variant="limit")

    @pytest.mark.parametrize("solve", [solve_phase_amplitude, solve_corrector])
    def test_an_unresolved_initial_state_fails_at_t0(self, solve, monkeypatch):
        # the chirp exp(-2i x^2) of the data outruns 64 nodes on L = 32
        problem = flat_problem(size=64)
        x = problem.grid.nodes
        chirped = dataclasses.replace(problem, a0=ComplexField(
            problem.grid, problem.a0.values * np.exp(-2j * x ** 2)))
        monkeypatch.setattr(phase_amplitude, "rk4",
                            lambda *args: pytest.fail("the march took a step"))
        with pytest.raises(ResolutionError) as info:
            solve(chirped, 0.2, 2e-3)
        assert (info.value.eps, info.value.time) == (0.01, 0.0)


class TestEulerResidual:
    def test_residual_refines_second_order(self):
        problem = flat_problem()
        res = []
        for dt in (4e-3, 2e-3):
            traj = solve_phase_amplitude(problem, 0.2, dt, variant="limit")
            res.append(euler_residual(traj)["max"])
        assert 3.0 <= res[0] / res[1] <= 5.0

    def test_full_variant_rejected(self):
        traj = solve_phase_amplitude(flat_problem(), 0.1, 2e-3, variant="full")
        with pytest.raises(ConfigError):
            euler_residual(traj)

    def test_needs_three_stored_states(self):
        traj = solve_phase_amplitude(flat_problem(size=256), 0.01, 2e-3,
                                     variant="limit", store_every=100)
        assert len(traj.states) == 2
        with pytest.raises(ConfigError, match="at least three"):
            euler_residual(traj)


class TestCorrector:
    def test_real_data_keeps_phase_shift_zero(self):
        # real a0, no a1: the first-order phase stays identically zero and
        # the first-order amplitude is purely imaginary
        corr = solve_corrector(flat_problem(), 0.2, 2e-3, store_every=5)
        for st in corr.states:
            assert np.max(np.abs(st.phi1.values)) <= 1e-10
            assert np.max(np.abs(st.a1.values.real)) <= 1e-10

    def test_correction_data_enters_linearly_at_t0(self):
        problem = flat_problem(a1="gaussian")
        corr = solve_corrector(problem, 0.1, 2e-3, store_every=5)
        first = corr.states[0]
        assert np.max(np.abs(first.a1.values - problem.a1.values)) <= 1e-12
        assert np.max(np.abs(first.phi1.values)) <= 1e-12

    def test_corrector_improves_the_limit_description(self):
        # one eps: distance of the full solve to the corrected profile is
        # far below its distance to the bare limit profile
        eps = 1e-2
        problem = flat_problem(eps=eps, a1="gaussian")
        full = solve_phase_amplitude(problem, 0.1, 1e-3, variant="full")
        corr = solve_corrector(problem, 0.1, 1e-3, store_every=10)
        fs, cs = full.final(), corr.final()
        err_limit = sobolev_norm(fs.a - cs.a, 0)
        corrected = cs.a.values + eps * cs.a1.values
        err_corr = float(np.sqrt(problem.grid.spacing *
                                 np.sum(np.abs(fs.a.values - corrected) ** 2)))
        assert err_corr <= 0.05 * err_limit

    @pytest.mark.parametrize("store_every", [1, 3])
    def test_stored_limit_is_the_limit_march(self, store_every):
        problem = sweep_problems(size=256)[0]
        corr = solve_corrector(problem, 0.02, 2e-3, store_every=store_every)
        limit = solve_phase_amplitude(problem, 0.02, 2e-3, variant="limit",
                                      store_every=store_every)
        assert corr.dt == limit.dt
        assert [st.time for st in corr.states] == list(limit.times)
        for got, ref in zip(corr.states, limit.states, strict=True):
            assert np.array_equal(got.phi.values, ref.phi.values)
            assert np.array_equal(got.a.values, ref.a.values)

    def test_lookup_and_mass_drift_are_the_limit_march(self):
        # the stored limit rows are the limit march's bit for bit, so the
        # stored times, the state lookup and the mass drift are too
        problem = sweep_problems(size=256)[0]
        corr = solve_corrector(problem, 0.2, 2e-3, store_every=10)
        limit = solve_phase_amplitude(problem, 0.2, 2e-3, variant="limit",
                                      store_every=10)
        assert np.array_equal(corr.times, limit.times)
        got, want = corr.state_at(0.1), limit.state_at(0.1)
        assert np.array_equal(got.phi.values, want.phi.values)
        assert np.array_equal(got.a.values, want.a.values)
        assert corr.mass_drift() == limit.mass_drift() > 0

    def test_divergence_carries_eps_and_time(self):
        # a1 data near the float ceiling has a finite transform, and the
        # corrector rates overflow in the first RK4 step
        problem = flat_problem(eps=0.02, size=256)
        huge = dataclasses.replace(
            problem, a1=ComplexField(problem.grid, 1e306 * problem.a0.values))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="corrector") as info:
            solve_corrector(huge, 0.02, 2e-3)
        assert info.value.eps == 0.02
        assert info.value.time == pytest.approx(2e-3)

    def test_limit_divergence_carries_eps_and_time(self):
        # a0 near the float ceiling has a finite transform, and |a|^2
        # overflows the limit in its first step
        grid = PeriodicGrid(32.0, 256)
        problem = SemiclassicalProblem(
            eps=0.02, kappa=0.0,
            a0=ComplexField(grid, 1e305 * (-1.0) ** np.arange(grid.size) + 0j))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="phase-amplitude") as info:
            solve_corrector(problem, 0.02, 2e-3)
        assert (info.value.eps, info.value.time) == (0.02, pytest.approx(2e-3))
        # the limit march words and times the failure the same way
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as ref:
            solve_phase_amplitude(problem, 0.02, 2e-3, variant="limit")
        assert (str(info.value), info.value.time) == (str(ref.value), ref.value.time)

    def test_unresolved_limit_raises_at_every_step(self):
        # the limit is checked after every step, whatever store_every says
        problem = flat_problem(eps=0.03, size=64)
        with pytest.raises(ResolutionError) as ref:
            solve_phase_amplitude(problem, 0.1, 1e-3, variant="limit")
        with pytest.raises(ResolutionError) as info:
            solve_corrector(problem, 0.1, 1e-3, store_every=100)
        assert str(info.value) == str(ref.value)
        assert (info.value.eps, info.value.time) == (0.03, ref.value.time)


def _rel(x, y):
    return np.max(np.abs(x - y)) / max(np.max(np.abs(y)), 1e-300)


def _assert_same_trajectory(got, ref, tol=1e-12):
    assert got.problem is ref.problem and got.dt == ref.dt
    assert np.array_equal(got.times, ref.times)
    for sg, sr in zip(got.states, ref.states, strict=True):
        assert _rel(sg.phi.values, sr.phi.values) <= tol
        assert _rel(sg.a.values, sr.a.values) <= tol
        assert _rel(sg.v.values, sr.v.values) <= tol
    assert _rel(got.mass, ref.mass) <= tol
    # a row's tail sums run in the same order stacked or alone
    assert np.array_equal(got.tail_fraction, ref.tail_fraction)


def sweep_problems(eps_list=(0.1, 0.03, 0.01), size=256):
    # a1 makes the skew-free data depend on eps; the cosine potential and
    # the chirp exercise V and a complex amplitude
    grid = PeriodicGrid(32.0, size)
    x = grid.nodes
    a0 = ComplexField(grid, np.exp(-x ** 2) * np.exp(0.5j * x ** 2 / (1 + x ** 2)))
    return [SemiclassicalProblem(eps=eps, kappa=0.0, a0=a0,
                                 a1=gaussian_field(grid, 1.5, 0.5),
                                 potential=PotentialSpec.cosine(0.3, 32.0, 2),
                                 phase=InitialPhaseSpec.zero())
            for eps in eps_list]


def _plain_march(problem, t_final, dt, variant):
    """The phase-amplitude march in physical space, nine transforms per
    right-hand side: the reference the spectral sweep must reproduce."""
    grid = problem.grid
    k = grid.wavenumbers
    ik = 1j * k
    ik[grid.size // 2] = 0.0
    mask = grid.dealias_mask
    v = problem.potential_field().values

    def deriv(f, mult):
        out = np.fft.ifft(np.fft.fft(f) * mult)
        return out if np.iscomplexobj(f) else out.real

    def dealias(f):
        return deriv(f, mask)

    def rhs(phi, a):
        gphi, lphi, ga = deriv(phi, ik), deriv(phi, -k * k), deriv(a, ik)
        return (dealias(-0.5 * gphi ** 2 - v - np.abs(a) ** 2),
                dealias(-gphi * ga - 0.5 * a * lphi))

    def rk4(phi, a, h):
        k1 = rhs(phi, a)
        k2 = rhs(phi + 0.5 * h * k1[0], a + 0.5 * h * k1[1])
        k3 = rhs(phi + 0.5 * h * k2[0], a + 0.5 * h * k2[1])
        k4 = rhs(phi + h * k3[0], a + h * k3[1])
        return (phi + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                a + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

    phi = problem.initial_phase_field().values.copy()
    a = (problem.a0.values if variant == "limit"
         else problem.initial_amplitude().values).copy()
    n_steps = int(round(t_final / dt))
    h = t_final / n_steps
    skew = np.exp(-0.5j * problem.eps * k * k * h)
    for _ in range(n_steps):
        if variant == "full":
            phi, a = rk4(phi, a, 0.5 * h)
            a = np.fft.ifft(np.fft.fft(a) * skew)
            phi, a = rk4(phi, a, 0.5 * h)
        else:
            phi, a = rk4(phi, a, h)
    return phi, a


class TestSweep:
    @pytest.mark.parametrize("variant", ["full", "skew_free", "limit"])
    def test_every_row_equals_its_single_solve(self, variant):
        problems = sweep_problems()
        swept = solve_phase_amplitude_sweep(problems, 0.1, 2e-3,
                                            variant=variant, store_every=10)
        assert len(swept) == len(problems)
        for got, problem in zip(swept, problems):
            ref = solve_phase_amplitude(problem, 0.1, 2e-3, variant=variant,
                                        store_every=10)
            _assert_same_trajectory(got, ref)
            assert got.final().time == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("variant", ["full", "skew_free", "limit"])
    def test_matches_the_plain_physical_space_march(self, variant):
        problems = sweep_problems()
        for traj, problem in zip(solve_phase_amplitude_sweep(
                problems, 0.1, 2e-3, variant=variant), problems):
            phi, a = _plain_march(problem, 0.1, 2e-3, variant)
            assert _rel(traj.final().phi.values, phi) <= 1e-12
            assert _rel(traj.final().a.values, a) <= 1e-12

    def test_failed_rows_come_back_as_their_own_errors(self):
        good = sweep_problems(eps_list=(0.1, 0.01))
        grid = good[0].grid
        x = grid.nodes
        kmax = np.pi * grid.size / 32.0
        # a1 at 0.55 k_max lies in the monitored top third of the kept band
        noisy = SemiclassicalProblem(
            eps=0.05, kappa=0.0, a0=good[0].a0,
            a1=ComplexField(grid, np.exp(-x ** 2) * np.cos(0.55 * kmax * x)),
            potential=good[0].potential)
        # alternating data at the float ceiling overflows in the first step
        huge = SemiclassicalProblem(
            eps=0.02, kappa=0.0, a0=good[0].a0,
            a1=ComplexField(grid, 1e307 * (-1.0) ** np.arange(grid.size)
                            + 0j), potential=good[0].potential)
        # the unresolved row fails its check at t = 0 and leaves the stack
        # before the first step, in which the diverging row fails
        problems = [good[0], huge, noisy, good[1]]
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve_phase_amplitude_sweep(problems, 0.1, 2e-3,
                                              variant="full", store_every=5)
        assert isinstance(out[1], DivergenceError)
        assert (out[1].eps, out[1].time) == (0.02, pytest.approx(2e-3))
        assert isinstance(out[2], ResolutionError)
        assert (out[2].eps, out[2].time) == (0.05, 0.0)
        for i in (1, 2):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(type(out[i])) as single:
                solve_phase_amplitude(problems[i], 0.1, 2e-3, variant="full",
                                      store_every=5)
            assert (single.value.eps, single.value.time) == (
                out[i].eps, out[i].time)
            assert str(single.value) == str(out[i])
        for i in (0, 3):
            ref = solve_phase_amplitude(problems[i], 0.1, 2e-3,
                                        variant="full", store_every=5)
            _assert_same_trajectory(out[i], ref)

    # a step takes 8 (full) or 4 (limit) transport right-hand sides, and
    # each transforms every row six times in four calls
    @pytest.mark.parametrize("variant, lines_per_step", [("full", 48), ("limit", 24)])
    def test_transform_calls_do_not_grow_with_rows(self, variant, lines_per_step,
                                                   fft_counter):
        calls, lines = {}, {}
        for rows in (1, 7):
            problems = sweep_problems(eps_list=np.geomspace(0.1, 0.01, rows))
            for steps in (1, 2):
                fft_counter.reset()
                solve_phase_amplitude_sweep(problems, steps * 2e-3, 2e-3,
                                            variant=variant, store_every=10)
                calls[rows, steps] = fft_counter.calls
                lines[rows, steps] = fft_counter.lines
        assert calls[1, 1] == calls[7, 1] and calls[1, 2] == calls[7, 2]
        assert calls[1, 2] - calls[1, 1] == lines_per_step * 4 // 6
        for rows in (1, 7):
            assert lines[rows, 2] - lines[rows, 1] == rows * lines_per_step

    def test_tail_is_checked_between_stored_nodes(self):
        # N = 64 on L = 16 holds the width-1.1 profile at first; the limit
        # passes TAIL_TOL at step 17, between the stored steps 16 and 20
        grid = PeriodicGrid(16.0, 64)
        problem = SemiclassicalProblem(eps=0.03, kappa=0.0,
                                       a0=gaussian_field(grid, 1.1, 1.0))
        out = solve_phase_amplitude_sweep([problem], 1.0, 2e-3,
                                          variant="limit", store_every=4)[0]
        assert isinstance(out, ResolutionError)
        assert out.time == pytest.approx(0.034)
        with pytest.raises(ResolutionError) as ref:
            solve_phase_amplitude(problem, 1.0, 2e-3, variant="limit")
        assert (str(out), out.time) == (str(ref.value), ref.value.time)

    def test_problems_must_share_one_grid(self):
        problems = [flat_problem(size=256), flat_problem(size=512)]
        with pytest.raises(ConfigError):
            solve_phase_amplitude_sweep(problems, 0.1, 2e-3)


def _spectral_transport(grid, v):
    """The dealiased transport right-hand side on the spectral state, one
    transform call per field and a fresh array for every operation."""
    n, half = grid.size, grid.size // 2 + 1
    ik, lap, mask = grid.ik, -grid.wavenumber_sq, grid.dealias_mask

    def rhs(phi_hat, a_hat):
        gphi = np.fft.irfft(phi_hat * ik[:half], n)
        lphi = np.fft.irfft(phi_hat * lap[:half], n)
        a, ga = np.fft.ifft(a_hat), np.fft.ifft(a_hat * ik)
        dphi = -0.5 * gphi * gphi - v - (a.real ** 2 + a.imag ** 2)
        da = -(gphi * ga) - 0.5 * a * lphi
        return np.fft.rfft(dphi) * mask[:half], np.fft.fft(da) * mask
    return rhs


def _stagewise_corrector(problem, t_final, dt, a1_values):
    """The limit and its corrector marched as one system (phi, a, phi1, a1)
    with a fresh array for every operation, one transform per field and
    the limit rates of `_spectral_transport`: the reference whose every
    state solve_corrector must reproduce bit for bit."""
    grid = problem.grid
    n, half = grid.size, grid.size // 2 + 1
    ik, lap, mask = grid.ik, -grid.wavenumber_sq, grid.dealias_mask
    transport = _spectral_transport(grid, problem.potential_field().values)

    def rhs(phi_hat, a_hat, phi1_hat, a1_hat):
        gphi = np.fft.irfft(phi_hat * ik[:half], n)
        lphi = np.fft.irfft(phi_hat * lap[:half], n)
        a, ga = np.fft.ifft(a_hat), np.fft.ifft(a_hat * ik)
        gphi1 = np.fft.irfft(phi1_hat * ik[:half], n)
        lphi1 = np.fft.irfft(phi1_hat * lap[:half], n)
        a1v, ga1 = np.fft.ifft(a1_hat), np.fft.ifft(a1_hat * ik)
        dphi1 = -(gphi * gphi1 + 2.0 * (np.conj(a) * a1v).real)
        da1 = -(gphi * ga1 + gphi1 * ga + 0.5 * a1v * lphi + 0.5 * a * lphi1)
        return (*transport(phi_hat, a_hat), np.fft.rfft(dphi1) * mask[:half],
                (np.fft.fft(da1) + 0.5j * lap * a_hat) * mask)

    n_steps = int(round(t_final / dt))
    h = t_final / n_steps
    phi, a = problem.initial_phase_field().values, problem.a0.values
    state = (np.fft.rfft(phi), np.fft.fft(a), np.fft.rfft(np.zeros(n)),
             np.fft.fft(a1_values))
    states = [(phi, a, np.zeros(n), a1_values)]
    for _ in range(n_steps):
        state = stagewise_rk4(rhs, state, h)
        phi, a, phi1, a1 = state
        states.append((np.fft.irfft(phi, n), np.fft.ifft(a),
                       np.fft.irfft(phi1, n), np.fft.ifft(a1)))
    return states


def _stagewise_march(problem, t_final, dt):
    """The skew-free RK4 march of the spectral state with a fresh array for
    every stage and sum."""
    rhs = _spectral_transport(problem.grid, problem.potential_field().values)
    state = (np.fft.rfft(problem.initial_phase_field().values),
             np.fft.fft(problem.initial_amplitude().values))
    n_steps = int(round(t_final / dt))
    h = t_final / n_steps
    for _ in range(n_steps):
        state = stagewise_rk4(rhs, state, h)
    return np.fft.irfft(state[0], problem.grid.size), np.fft.ifft(state[1])


class TestLeanMarch:
    """The paired transforms, the stacked limit and corrector rows and the
    in-place stages do the arithmetic of the plain march exactly."""

    def test_sweep_rows_equal_the_stagewise_march(self):
        problems = sweep_problems()
        swept = solve_phase_amplitude_sweep(problems, 0.02, 2e-3,
                                            variant="skew_free")
        for traj, problem in zip(swept, problems):
            phi, a = _stagewise_march(problem, 0.02, 2e-3)
            assert np.array_equal(traj.final().phi.values, phi)
            assert np.array_equal(traj.final().a.values, a)

    @pytest.mark.parametrize("with_a1", [False, True])
    def test_corrector_equals_the_stagewise_march(self, with_a1):
        # the chirped a0 makes the corrector move without a1; the cosine
        # potential enters through the limit rates
        problem = sweep_problems(size=256)[0]
        if not with_a1:
            problem = dataclasses.replace(problem, a1=None)
        corr = solve_corrector(problem, 0.04, 2e-3)
        start = (problem.a1.values if with_a1
                 else np.zeros(problem.grid.size, dtype=complex))
        ref = _stagewise_corrector(problem, 0.04, 2e-3, start)
        assert len(corr.states) == len(ref) == 21
        for st, (phi, a, phi1, a1v) in zip(corr.states, ref):
            assert np.array_equal(st.phi.values, phi)
            assert np.array_equal(st.a.values, a)
            assert np.array_equal(st.phi1.values, phi1)
            assert np.array_equal(st.a1.values, a1v)
        assert np.abs(ref[-1][2]).max() > 0

    def test_corrector_transform_calls_per_step_are_fixed(self, fft_counter):
        # per step: four stages of the joint right-hand side, each one
        # inverse call per field pair (4 lines each: two rows of the field
        # and of its derivative) and one forward call per field (2 lines)
        problem = sweep_problems(size=256)[0]
        calls, lines = {}, {}
        for steps in (4, 8, 16):
            fft_counter.reset()
            solve_corrector(problem, steps * 2e-3, 2e-3, store_every=100)
            calls[steps], lines[steps] = fft_counter.calls, fft_counter.lines
        for fewer, more in ((4, 8), (8, 16)):
            assert calls[more] - calls[fewer] == (more - fewer) * 16
            assert lines[more] - lines[fewer] == (more - fewer) * 48

    def test_a_dropped_row_leaves_the_work_arrays_in_place(self, monkeypatch):
        # the march works in 11 arrays; after the diverging row leaves, it
        # works in leading views of them instead of allocating them again
        good = sweep_problems(eps_list=(0.1, 0.01))
        grid = good[0].grid
        huge = SemiclassicalProblem(
            eps=0.02, kappa=0.0, a0=good[0].a0,
            a1=ComplexField(grid, 1e307 * (-1.0) ** np.arange(grid.size) + 0j),
            potential=good[0].potential)
        problems = [good[0], huge, good[1]]
        owners = {}
        work = phase_amplitude._Transport.work

        def counting(self, name, shape, dtype=complex):
            buf = work(self, name, shape, dtype)
            owner = buf if buf.base is None else buf.base
            owners[id(owner)] = owner
            return buf

        monkeypatch.setattr(phase_amplitude._Transport, "work", counting)
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve_phase_amplitude_sweep(problems, 0.1, 2e-3,
                                              variant="full", store_every=5)
        assert isinstance(out[1], DivergenceError)
        assert len(owners) == 11
        for i in (0, 2):
            ref = solve_phase_amplitude(problems[i], 0.1, 2e-3, variant="full",
                                        store_every=5)
            assert len(out[i].states) == len(ref.states) == 11
            for got, want in zip(out[i].states, ref.states):
                for part in ("phi", "a", "v"):
                    assert np.array_equal(getattr(got, part).values,
                                          getattr(want, part).values)
            assert np.array_equal(out[i].mass, ref.mass)

    @staticmethod
    def _peak_bytes(solve):
        # the first call fills the grid's cached multipliers; trace a second
        solve()
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # only the initial and final states are stored, so a buffer or memo
    # that grows every step shows as 45 steps' worth of it: a 7-row state
    # is 28 KiB at N = 256, the joint corrector state 12 KiB.  The
    # allowance covers a line tracer's own allocations (35 KiB seen).
    ALLOWANCE = 64 * 1024

    def test_sweep_memory_does_not_grow_with_steps(self):
        problems = sweep_problems(eps_list=np.geomspace(0.1, 0.01, 7))
        peaks = {steps: self._peak_bytes(
            lambda: solve_phase_amplitude_sweep(problems, steps * 2e-3, 2e-3,
                                                variant="full",
                                                store_every=100))
                 for steps in (5, 50)}
        assert abs(peaks[50] - peaks[5]) <= self.ALLOWANCE

    def test_corrector_memory_does_not_grow_with_steps(self):
        problem = sweep_problems(size=256)[0]
        peaks = {steps: self._peak_bytes(
            lambda: solve_corrector(problem, steps * 2e-3, 2e-3,
                                    store_every=100))
                 for steps in (5, 50)}
        assert abs(peaks[50] - peaks[5]) <= self.ALLOWANCE
