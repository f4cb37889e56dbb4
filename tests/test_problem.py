"""The problem container's checks, the fixed-step march (its step count,
store schedule and checked loop) and the row bookkeeping the marches
share: row check, row stack."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlswkb import nls
from nlswkb.errors import ConfigError, DivergenceError, ResolutionError
from nlswkb.fields import ComplexField
from nlswkb.grids import PeriodicGrid
from nlswkb.nls import solve_nls_sweep
from nlswkb.phase_amplitude import solve_corrector, solve_phase_amplitude_sweep
from nlswkb.potentials import InitialPhaseSpec
from nlswkb.problem import (TAIL_TOL, March, RowCheck, RowStack, SemiclassicalProblem,
                            gaussian_field)
from nlswkb.rays import integrate_flow


def resolved_problem(**kwargs):
    return SemiclassicalProblem(eps=0.1, kappa=0.0,
                                a0=gaussian_field(PeriodicGrid(32.0, 256)), **kwargs)


def march_call(march, problem, t_final, dt=0.01, store_every=1):
    """A call of the ray march, the phase-amplitude sweep (its one row) or
    the corrector, by `march`, on `problem`."""
    return {"integrate_flow": lambda: integrate_flow(
                problem, problem.grid, t_final, dt, store_every=store_every),
            "phase_amplitude_sweep": lambda: solve_phase_amplitude_sweep(
                [problem], t_final, dt, store_every=store_every)[0],
            "corrector": lambda: solve_corrector(
                problem, t_final, dt, store_every=store_every)}[march]


MARCHES = ["integrate_flow", "phase_amplitude_sweep", "corrector"]


class TestMarchSteps:
    @pytest.mark.parametrize("t_final, dt, steps", [
        (0.2, 0.002, 100),      # divides exactly
        (0.2, 0.0035, 58),      # 57.1: rounds up, so no step exceeds dt
        (0.3, 0.0035, 86),      # 85.7: rounds up
        (0.07, 0.01, 7),        # one ulp above 7: within the 1e-12 slack
        (-0.2, 0.002, 100),     # backward
        (0.001, 0.5, 1),        # at least one step
    ])
    def test_whole_number_of_steps_rounded_up(self, t_final, dt, steps):
        march = March(t_final, dt)
        assert (march.steps, march.h) == (steps, t_final / steps)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(steps=st.integers(1, 10**6), dt=st.floats(1e-6, 10.0),
           frac=st.sampled_from([0.0, 1e-13, 1e-9, 0.5, 1 - 1e-9]) | st.floats(0, 1),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_no_step_is_longer_than_dt(self, steps, dt, frac, sign):
        # a span of a whole or a fractional number of dt, either way
        span = sign * (steps + frac) * dt
        march = March(span, dt)
        assert abs(march.h) <= dt * (1 + 1e-12)
        assert march.steps * march.h == pytest.approx(span, rel=1e-12, abs=0)
        # one step fewer would be longer than dt (compared exactly)
        assert Fraction(abs(span)) > (march.steps - 1) * Fraction(dt)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(steps=st.integers(1, 12), dt=st.floats(2e-3, 1e-2),
           frac=st.sampled_from([0.0, 1e-13, 0.5]) | st.floats(0, 1),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_every_march_ends_on_its_final_time(self, steps, dt, frac, sign):
        # each solver takes exactly the steps of its March to its final
        # time; a solve stores every step, and NLS, which runs forward
        # only, is counted by its step calls
        span = sign * (steps + frac) * dt
        march = March(span, dt)
        for name in MARCHES:
            times = march_call(name, resolved_problem(), span, dt)().times
            assert len(times) == march.steps + 1
            assert times[-1] == pytest.approx(span, rel=1e-12, abs=0)
        calls, step = [], nls._step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nls, "_step", lambda *work: calls.append(step(*work)))
            [sol] = solve_nls_sweep([resolved_problem()], abs(span), [dt])
        assert len(calls) == March(abs(span), dt).steps
        assert sol.times[-1] == abs(span)


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


def run_recorded(march, stop_at=None, fail_at=None, calls=None) -> list:
    """The calls March.run makes of its step, check and store, in order,
    appended to `calls`; the check returns False at step stop_at and
    raises at step fail_at."""
    calls = [] if calls is None else calls

    def check(n):
        calls.append(("check", n))
        if n == fail_at:
            raise DivergenceError("failed", time=march.time(n))
        return n != stop_at

    march.run(lambda: calls.append(("step",)), check,
              lambda n: calls.append(("store", n)))
    return calls


class TestStoreSchedule:
    @pytest.mark.parametrize("n_steps", range(1, 13))
    def test_stored_steps_and_their_count(self, n_steps):
        for every in range(1, 16):
            march = March(float(n_steps), 1.0, every)
            stored = [c[1] for c in run_recorded(march) if c[0] == "store"]
            assert stored == sorted({*range(0, n_steps + 1, every), n_steps})
            assert len(stored) == march.nodes
            if every >= n_steps:
                assert stored == [0, n_steps]

    @pytest.mark.parametrize("bad, message", [
        pytest.param({"store_every": 0}, "store_every must be at least 1, got 0", id="0"),
        pytest.param({"store_every": -1}, "store_every must be at least 1, got -1",
                     id="-1"),
        # a negative dt ran as one step of the span, a zero one divided by
        # zero, a nan one failed to round
        pytest.param({"dt": -0.01}, "dt must be positive, got -0.01", id="dt-negative"),
        pytest.param({"dt": 0.0}, "dt must be positive, got 0.0", id="dt-zero"),
        pytest.param({"dt": float("nan")}, "dt must be positive, got nan", id="dt-nan"),
    ])
    @pytest.mark.parametrize("march", MARCHES)
    def test_store_every_below_one_is_refused(self, march, bad, message):
        # resolved data, so that only the bad step or schedule can stop
        # these marches
        run = march_call(march, resolved_problem(), 0.1, **bad)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run()


class TestMarch:
    def test_each_check_comes_before_its_step_and_store(self):
        assert run_recorded(March(0.5, 0.1, store_every=2)) == [
            ("check", 0), ("store", 0),
            ("step",), ("check", 1),
            ("step",), ("check", 2), ("store", 2),
            ("step",), ("check", 3),
            ("step",), ("check", 4), ("store", 4),
            ("step",), ("check", 5), ("store", 5)]

    @pytest.mark.parametrize("stop_at", [0, 2, 3])
    def test_a_false_check_ends_the_march(self, stop_at):
        calls = run_recorded(March(0.5, 0.1, store_every=2), stop_at=stop_at)
        assert calls[-1] == ("check", stop_at)
        assert calls.count(("step",)) == stop_at

    def test_a_raising_check_ends_the_march(self):
        march, calls = March(-0.5, 0.1), []
        with pytest.raises(DivergenceError) as caught:
            run_recorded(march, fail_at=3, calls=calls)
        assert caught.value.time == march.time(3) == 3 * (-0.5 / 5)
        assert calls[-2:] == [("step",), ("check", 3)]

    @pytest.mark.parametrize("march", MARCHES)
    def test_a_backward_march_starts_at_plus_zero(self, march):
        out = march_call(march, resolved_problem(), -0.1, store_every=3)()
        times = out.times
        assert math.copysign(1.0, times[0]) == 1.0 and times[0] == 0.0
        assert times[-1] == -0.1
        assert len(times) == 5   # steps 0, 3, 6, 9 and 10

    @pytest.mark.parametrize("march", MARCHES)
    def test_a_backward_march_fails_at_plus_zero(self, march):
        if march == "integrate_flow":
            # the curvature 1e308 overflows the initial momentum of the rays
            unresolved = resolved_problem(phase=InitialPhaseSpec.quadratic(1e308))
        else:
            # the chirp exp(-2i x^2) of the data outruns 64 nodes on L = 32
            grid = PeriodicGrid(32.0, 64)
            x = grid.nodes
            unresolved = SemiclassicalProblem(eps=0.1, kappa=0.0, a0=ComplexField(
                grid, np.exp(-x ** 2 - 2j * x ** 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                error = march_call(march, unresolved, -0.1)()
            except (DivergenceError, ResolutionError) as raised:
                error = raised
        assert isinstance(error, (DivergenceError, ResolutionError))
        assert error.time == 0.0 and math.copysign(1.0, error.time) == 1.0


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
