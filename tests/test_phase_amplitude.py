"""Phase-amplitude (strong-coupling) solver: variants, corrector, residuals."""
import numpy as np
import pytest

from nlswkb.errors import ConfigError, DivergenceError, ResolutionError
from nlswkb.fields import ComplexField, sobolev_norm
from nlswkb.grids import PeriodicGrid
from nlswkb.phase_amplitude import (assemble_supercritical, euler_residual,
                                    solve_corrector, solve_phase_amplitude)
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field


def flat_problem(eps=1e-2, size=1024, a1=None):
    grid = PeriodicGrid.line(32.0, size)
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
        errs = traj.final().consistency_errors()
        assert errs["gradient"] <= 1e-10

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
        grid = PeriodicGrid.line(32.0, 256)
        problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                       a0=gaussian_field(grid, 1.0, 1.0),
                                       potential=PotentialSpec.harmonic(1.0),
                                       phase=InitialPhaseSpec.zero())
        with pytest.raises(ConfigError):
            solve_phase_amplitude(problem, 0.1, 1e-3, variant="full")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            solve_phase_amplitude(flat_problem(), 0.1, 1e-3, variant="exact")

    def test_unresolved_grid_raises_alarm(self):
        # N = 64 on L = 32 cannot hold a width-1 profile to 1e-8
        with pytest.raises(ResolutionError):
            solve_phase_amplitude(flat_problem(size=64), 0.1, 1e-3,
                                  variant="limit")


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


class TestCorrector:
    def test_real_data_keeps_phase_shift_zero(self):
        # real a0, no a1: the first-order phase stays identically zero and
        # the first-order amplitude is purely imaginary
        problem = flat_problem()
        limit = solve_phase_amplitude(problem, 0.2, 2e-3, variant="limit",
                                      store_every=5)
        corr = solve_corrector(limit)
        for st in corr.states:
            assert np.max(np.abs(st.phi1.values)) <= 1e-10
            assert np.max(np.abs(st.a1.values.real)) <= 1e-10

    def test_correction_data_enters_linearly_at_t0(self):
        problem = flat_problem(a1="gaussian")
        limit = solve_phase_amplitude(problem, 0.1, 2e-3, variant="limit",
                                      store_every=5)
        corr = solve_corrector(limit, a1=problem.a1)
        first = corr.states[0]
        assert np.max(np.abs(first.a1.values - problem.a1.values)) <= 1e-12
        assert np.max(np.abs(first.phi1.values)) <= 1e-12

    def test_corrector_improves_the_limit_description(self):
        # one eps: distance of the full solve to the corrected profile is
        # far below its distance to the bare limit profile
        eps = 1e-2
        problem = flat_problem(eps=eps, a1="gaussian")
        full = solve_phase_amplitude(problem, 0.1, 1e-3, variant="full")
        limit = solve_phase_amplitude(problem, 0.1, 1e-3, variant="limit",
                                      store_every=10)
        corr = solve_corrector(limit, a1=problem.a1)
        fs, ls, cs = full.final(), limit.final(), corr.states[-1]
        err_limit = sobolev_norm(fs.a - ls.a, 0)
        corrected = ls.a.values + eps * cs.a1.values
        err_corr = float(np.sqrt(limit.grid.cell_volume *
                                 np.sum(np.abs(fs.a.values - corrected) ** 2)))
        assert err_corr <= 0.05 * err_limit

    def test_divergence_carries_eps_and_time(self):
        # a1 data at the float ceiling overflows in the first RK4 step
        problem = flat_problem(eps=0.02, size=256)
        limit = solve_phase_amplitude(problem, 0.02, 2e-3, variant="limit")
        sign = (-1.0) ** np.arange(limit.grid.sizes[0])
        huge = ComplexField(limit.grid, 1e307 * sign + 0j)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as info:
            solve_corrector(limit, a1=huge)
        assert info.value.eps == 0.02
        assert info.value.time == pytest.approx(2e-3)

    def test_requires_limit_trajectory(self):
        traj = solve_phase_amplitude(flat_problem(), 0.1, 2e-3, variant="full")
        with pytest.raises(ConfigError):
            solve_corrector(traj)


class TestAssembly:
    def test_oscillatory_state_modulus(self):
        problem = flat_problem(eps=0.05)
        traj = solve_phase_amplitude(problem, 0.1, 1e-3, variant="full")
        u = assemble_supercritical(traj.final(), problem.eps)
        assert np.max(np.abs(np.abs(u.values) -
                             np.abs(traj.final().a.values))) <= 1e-12

    def test_time_mismatch_rejected(self):
        problem = flat_problem()
        limit = solve_phase_amplitude(problem, 0.2, 2e-3, variant="limit",
                                      store_every=10)
        corr = solve_corrector(limit)
        with pytest.raises(ConfigError):
            assemble_supercritical(limit.states[0], problem.eps,
                                   corrector=corr.states[-1])
