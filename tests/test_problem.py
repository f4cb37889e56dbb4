"""The problem container's checks, the step rule of the fixed-dt marches,
and the row bookkeeping they share: store schedule, row check, row stack."""
import numpy as np
import pytest

from nlswkb.errors import ConfigError, DivergenceError, ResolutionError
from nlswkb.grids import PeriodicGrid
from nlswkb.nls import solve_nls_sweep
from nlswkb.phase_amplitude import solve_corrector, solve_phase_amplitude_sweep
from nlswkb.problem import (TAIL_TOL, RowCheck, RowStack, SemiclassicalProblem,
                            StoreSchedule, gaussian_field, march_steps)
from nlswkb.rays import integrate_flow


class TestMarchSteps:
    @pytest.mark.parametrize("t_final, dt, steps", [
        (0.2, 0.002, 100),      # divides exactly
        (0.2, 0.0035, 57),      # 57.1: rounds down, where a ceiling gives 58
        (0.3, 0.0035, 86),      # 85.7: rounds up
        (-0.2, 0.002, 100),     # backward
        (0.001, 0.5, 1),        # at least one step
    ])
    def test_nearest_whole_number_of_steps(self, t_final, dt, steps):
        assert march_steps(t_final, dt) == steps


class TestProblemChecks:
    grid = PeriodicGrid(32.0, 64)

    def problem(self, **kwargs):
        args = {"eps": 0.1, "kappa": 0.0, "a0": gaussian_field(self.grid)}
        return SemiclassicalProblem(**{**args, **kwargs})

    @pytest.mark.parametrize("eps", [0.0, 1.5, float("nan")])
    def test_eps_must_lie_in_the_unit_interval(self, eps):
        with pytest.raises(ConfigError, match=r"eps must lie in \(0, 1\]"):
            self.problem(eps=eps)

    def test_fractional_kappa_is_rejected(self):
        with pytest.raises(ConfigError, match="kappa must be one of"):
            self.problem(kappa=0.5)

    def test_a1_must_share_the_a0_grid(self):
        other = PeriodicGrid(32.0, 128)
        with pytest.raises(ConfigError, match="must share the a0 grid"):
            self.problem(a1=gaussian_field(other))


class TestStoreSchedule:
    @pytest.mark.parametrize("n_steps", range(1, 13))
    def test_stored_steps_and_their_count(self, n_steps):
        for every in range(1, 16):
            schedule = StoreSchedule(n_steps, every)
            stored = [0] + [s for s in range(1, n_steps + 1) if schedule.stores(s)]
            assert stored == sorted({*range(0, n_steps + 1, every), n_steps})
            assert len(stored) == schedule.nodes
            if every >= n_steps:
                assert stored == [0, n_steps]

    @pytest.mark.parametrize("store_every", [0, -1])
    @pytest.mark.parametrize("march", ["integrate_flow", "phase_amplitude_sweep",
                                       "corrector"])
    def test_store_every_below_one_is_refused(self, march, store_every):
        # resolved data, so that only store_every can stop these marches
        problem = SemiclassicalProblem(eps=0.1, kappa=0.0,
                                       a0=gaussian_field(PeriodicGrid(32.0, 256)))
        run = {"integrate_flow": lambda: integrate_flow(
                   problem, problem.grid, 0.1, 0.01, store_every=store_every),
               "phase_amplitude_sweep": lambda: solve_phase_amplitude_sweep(
                   [problem], 0.1, 0.01, store_every=store_every),
               "corrector": lambda: solve_corrector(
                   problem, 0.1, 0.01, store_every=store_every)}[march]
        with pytest.raises(ConfigError, match="store_every must be at least 1"):
            run()


class TestRowCheck:
    CHECK = RowCheck("went non-finite", "tail {tail:.1e} over {tol:.0e}")

    def test_finiteness_is_checked_before_the_tail(self):
        row = (np.array([1.0, np.nan]),)
        error = self.CHECK.error(0.5, 0.1, row, tail=1.0)
        assert isinstance(error, DivergenceError)
        assert (str(error), error.time, error.eps) == ("went non-finite", 0.5, 0.1)

    def test_tail_over_the_tolerance_is_unresolved(self):
        row = (np.ones(4),)
        assert self.CHECK.error(0.5, 0.1, row, tail=TAIL_TOL) is None
        error = self.CHECK.error(0.5, 0.1, row, tail=2 * TAIL_TOL)
        assert isinstance(error, ResolutionError)
        assert (str(error), error.time, error.eps) == ("tail 2.0e-08 over 1e-08",
                                                       0.5, 0.1)


class TestRowStack:
    def stack(self, eps_list=(0.1, 0.2, 0.3, 0.4)):
        grid = PeriodicGrid(32.0, 64)
        st = RowStack([SemiclassicalProblem(eps=eps, kappa=0.0,
                                            a0=gaussian_field(grid))
                       for eps in eps_list])
        st.u = np.arange(4.0)[:, None] * np.ones((4, 3))
        st.left = np.arange(4)
        return st

    def test_drop_compacts_the_buffers_in_place(self):
        st = self.stack()
        base = st.u
        keep = st.drop(np.array([False, True, False, True]))
        assert keep.tolist() == [True, False, True, False]
        assert st.rows == [0, 2]
        assert st.u.tolist() == [[0.0] * 3, [2.0] * 3]
        assert st.left.tolist() == [0, 2]
        assert st.u.base is base

    def test_failed_rows_leave_with_their_errors(self):
        st = self.stack()
        st.u[1, 0] = np.inf
        keep = st.check(RowCheck("diverged", "tail {tail:.1e}"), [1.0, 1.5],
                        [0.0, 1.0], [st.u], at=np.array([False, True, True, False]))
        assert keep.tolist() == [True, False, False, True]
        assert st.rows == [0, 3]
        assert isinstance(st.outcomes[1], DivergenceError)
        assert (st.outcomes[1].time, st.outcomes[1].eps) == (1.0, 0.2)
        assert isinstance(st.outcomes[2], ResolutionError)
        assert (str(st.outcomes[2]), st.outcomes[2].time) == ("tail 1.0e+00", 1.5)
        st.nodes[0].append(("t0", 1))
        st.nodes[3].append(("t3", 2))
        assert st.results(lambda i, names, values: (i, names, values)) == [
            (0, ("t0",), (1,)), st.outcomes[1], st.outcomes[2], (3, ("t3",), (2,))]

    @pytest.mark.parametrize("sweep", [
        lambda: solve_nls_sweep([], 0.1, []),
        lambda: solve_phase_amplitude_sweep([], 0.1, 0.01),
    ], ids=["nls", "phase_amplitude"])
    def test_an_empty_sweep_is_refused(self, sweep):
        with pytest.raises(ConfigError, match="a sweep needs at least one problem"):
            sweep()
