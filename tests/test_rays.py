"""Characteristic-flow oracles: closed-form rays, Jacobians, phases, caustics."""
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from conftest import stagewise_rk4

from nlswkb.errors import (CausticError, DivergenceError, FieldError, InversionError,
                           StencilError)
from nlswkb.grids import PeriodicGrid
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import March, SemiclassicalProblem, gaussian_field
from nlswkb import rays


def make_problem(potential, phase, marker_length, marker_size):
    grid = PeriodicGrid(marker_length, marker_size)
    return SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                a0=gaussian_field(grid, 1.0, 1.0),
                                potential=potential, phase=phase), grid


def harmonic_march():
    # markers on a wider box than the evaluation window: labels y = x/cos(t)
    # swing far outside [-16, 16) before the caustic
    problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                    InitialPhaseSpec.zero(), 128.0, 512)
    return problem, markers, 1.8, 1e-3


def free_march():
    # V=0 with concave quadratic phase -x^2/2: focusing free flow
    problem, markers = make_problem(PotentialSpec.zero(),
                                    InitialPhaseSpec.quadratic(-1.0), 128.0, 1024)
    return problem, markers, 0.6, 1e-3


def cosine_march():
    grid = PeriodicGrid(32.0, 256)
    problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                   a0=gaussian_field(grid, 1.0, 1.0),
                                   potential=PotentialSpec.cosine(0.5, 32.0, 1),
                                   phase=InitialPhaseSpec.zero())
    return problem, grid, 0.3, 1e-3


# the (problem, markers, t_final, dt) of each fixture march
MARCHES = {"harmonic": harmonic_march, "free": free_march, "cosine": cosine_march}


@pytest.fixture(scope="module")
def harmonic_bundle():
    return rays.integrate_flow(*harmonic_march())


@pytest.fixture(scope="module")
def free_bundle():
    return rays.integrate_flow(*free_march())


@pytest.fixture(scope="module")
def cosine_bundle():
    return rays.integrate_flow(*cosine_march())


@pytest.fixture(scope="module")
def eval_grid():
    return PeriodicGrid(32.0, 256)


class TestHarmonicOracle:
    """V = x^2/2: rays x = y cos t, J = cos t, caustic at pi/2."""

    def test_ray_positions(self, harmonic_bundle):
        b = harmonic_bundle
        for t in (0.5, 1.0, 1.5):
            it = b.time_index(t)
            exact = b.y * np.cos(b.times[it])
            assert np.max(np.abs(b.x[it] - exact)) <= 1e-8

    def test_momenta(self, harmonic_bundle):
        b = harmonic_bundle
        it = b.time_index(1.0)
        exact = -b.y * np.sin(b.times[it])
        assert np.max(np.abs(b.xi[it] - exact)) <= 1e-8

    def test_jacobian(self, harmonic_bundle):
        b = harmonic_bundle
        for t in (0.5, 1.0, 1.5):
            it = b.time_index(t)
            assert np.max(np.abs(b.jac[it] - np.cos(b.times[it]))) <= 1e-8

    def test_caustic_time(self, harmonic_bundle):
        # tight threshold finds the J=0 crossing itself
        got = rays.caustic_time(harmonic_bundle, threshold=1e-12)
        assert abs(got - np.pi / 2) <= 1e-8

    def test_default_threshold_crossing(self, harmonic_bundle):
        # the stored marker is the J=0.1 safety crossing, not the J=0 point
        got = harmonic_bundle.t_caustic
        assert abs(got - np.arccos(0.1)) <= 1e-6

    def test_phase_profile(self, harmonic_bundle, eval_grid):
        phi = rays.eikonal_phase(rays.invert_flow(harmonic_bundle, 1.0, eval_grid))
        x = eval_grid.nodes
        exact = -0.5 * x ** 2 * np.tan(1.0)
        assert np.max(np.abs(phi.values - exact)) <= 1e-9

    def test_momentum_field(self, harmonic_bundle, eval_grid):
        mom = rays.momentum_field(rays.invert_flow(harmonic_bundle, 1.0, eval_grid))
        x = eval_grid.nodes
        assert np.max(np.abs(mom + x * np.tan(1.0))) <= 1e-9

    def test_phase_guarded_past_caustic(self, harmonic_bundle, eval_grid):
        with pytest.raises(CausticError) as caught:
            rays.eikonal_phase(rays.invert_flow(harmonic_bundle, 1.6, eval_grid))
        assert caught.value.time == 1.6

    def test_jacobian_consistency(self, harmonic_bundle):
        assert rays.jacobian_consistency(harmonic_bundle, 1.0) <= 1e-6


class TestFreeFlowOracle:
    """V = 0, phase -x^2/2: rays x = y(1-t), caustic at t = 1."""

    def test_ray_positions_and_jacobian(self, free_bundle):
        b = free_bundle
        it = b.time_index(0.5)
        assert np.max(np.abs(b.x[it] - 0.5 * b.y)) <= 1e-11
        assert np.max(np.abs(b.jac[it] - 0.5)) <= 1e-12

    def test_map_is_affine(self, free_bundle):
        assert free_bundle.is_affine()

    def test_inverted_labels(self, free_bundle, eval_grid):
        lmap = rays.invert_flow(free_bundle, 0.5, eval_grid)
        x = eval_grid.nodes
        assert np.max(np.abs(lmap.labels - 2 * x)) <= 1e-10

    def test_phase_profile(self, free_bundle, eval_grid):
        phi = rays.eikonal_phase(rays.invert_flow(free_bundle, 0.5, eval_grid))
        x = eval_grid.nodes
        # phi(t,x) = -x^2/(2(1-t))
        assert np.max(np.abs(phi.values + x ** 2)) <= 1e-9

    def test_jacobian_at_labels(self, free_bundle, eval_grid):
        jac = rays.jacobian_at_labels(rays.invert_flow(free_bundle, 0.5, eval_grid))
        assert np.max(np.abs(jac - 0.5)) <= 1e-12

    def test_no_caustic_inside_window(self, free_bundle):
        assert free_bundle.t_caustic is None


def streamed_residual(march, x_grid):
    """The residual on `x_grid` of the fixture march `march`, taken during
    the march as the rays driver takes it: storing the first and final
    nodes alone."""
    problem, markers, t_final, dt = march
    residual = rays.HamiltonJacobiResidual(problem, x_grid)
    rays.integrate_flow(problem, markers, t_final, dt,
                        store_every=March(t_final, dt).steps, visit=residual.add)
    return residual.value()


def stored_residual(bundle, x_grid):
    """The reference: the residual of a bundle that stores every step, by a
    second pass over its stored nodes.  The nodes before the interpolated
    crossing of RESIDUAL_MIN_JACOBIAN are checked, each inverted once, and
    the stencil runs over every centre with two checked nodes on each side."""
    horizon = rays._first_crossing(bundle.times, bundle.min_jacobian,
                                   rays.RESIDUAL_MIN_JACOBIAN)
    usable = np.nonzero(bundle.times < (np.inf if horizon is None else horizon))[0]
    last = usable[-1]
    rays.check_residual_nodes(len(usable), float(bundle.times[last]))
    h = bundle.dt
    maps = [rays.invert_flow(bundle, float(bundle.times[i]), x_grid)
            for i in range(last + 1)]
    phi = [rays.eikonal_phase(lmap).values for lmap in maps]
    vvals = bundle.problem.potential.value(x_grid.nodes)
    worst = 0.0
    for i in range(2, last - 1):
        dphi_dt = (-phi[i + 2] + 8 * phi[i + 1] - 8 * phi[i - 1] + phi[i - 2]) / (12 * h)
        grad_sq = rays.momentum_field(maps[i]) ** 2
        worst = max(worst, float(np.abs(dphi_dt + 0.5 * grad_sq + vvals).max()))
    return worst


@pytest.fixture(scope="module")
def streamed_residuals(eval_grid):
    return {name: streamed_residual(march(), eval_grid)
            for name, march in MARCHES.items()}


class TestEikonalResidual:
    """The phase solves d_t phi + |grad phi|^2/2 + V = 0 on every fixture."""

    def test_free_fixture(self, streamed_residuals):
        assert streamed_residuals["free"] <= 1e-6

    def test_harmonic_fixture(self, streamed_residuals):
        assert streamed_residuals["harmonic"] <= 1e-6

    def test_each_node_is_inverted_once(self, eval_grid, monkeypatch):
        # the phase stencil and the momentum share one label map per node
        times = []
        invert = rays.invert_flow

        def recording(bundle, t, x_grid):
            times.append(t)
            return invert(bundle, t, x_grid)

        monkeypatch.setattr(rays, "invert_flow", recording)
        streamed_residual(free_march(), eval_grid)
        assert times and len(times) == len(set(times))

    def test_cosine_fixture(self, cosine_bundle, streamed_residuals):
        assert cosine_bundle.is_periodic_compatible()
        assert streamed_residuals["cosine"] <= 1e-6

    @pytest.mark.parametrize("name", list(MARCHES))
    def test_streamed_residual_is_the_stored_bundle_residual(
            self, name, streamed_residuals, eval_grid, request):
        # the same nodes, centres and float order as the second pass over a
        # fully stored bundle, bit for bit; the harmonic march crosses the
        # Jacobian floor (cos t = 0.3) before its final time
        bundle = request.getfixturevalue(f"{name}_bundle")
        assert streamed_residuals[name] == stored_residual(bundle, eval_grid)


class TestIntegratorQuality:
    def test_rk4_error_drops_sixteenfold_per_halving(self):
        problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                        InitialPhaseSpec.zero(), 128.0, 512)
        errs = []
        for dt in (0.05, 0.025):
            b = rays.integrate_flow(problem, markers, 1.0, dt=dt)
            it = b.time_index(1.0)
            errs.append(np.max(np.abs(b.x[it] - b.y * np.cos(1.0))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_integral_of_inverse_jacobian_is_the_harmonic_oracle(self):
        # V = x^2/2 with a flat phase: J = cos t on every ray, whose inverse
        # integrates to atanh(sin t); the marched integral is exact to
        # rounding at every stored node, the first step included
        problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                        InitialPhaseSpec.zero(), 32.0, 64)
        bundle = rays.integrate_flow(problem, markers, 1.2, dt=1e-3)
        want = np.arctanh(np.sin(bundle.times))[:, None]
        assert len(bundle.times) == 1201
        assert np.all(np.abs(bundle.jac_inv_integral - want)
                      <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("potential", [
        PotentialSpec.harmonic(1.0), PotentialSpec.cosine(0.5, 32.0, 4),
    ], ids=["harmonic", "cosine"])
    @pytest.mark.parametrize("t0, t_final", [(0.0, 1.0), (1.0, 0.0)],
                             ids=["forward", "backward"])
    def test_march_is_the_stagewise_rk4(self, potential, t0, t_final):
        # the in-place stages and rates do the arithmetic of a fresh-array
        # RK4 of the same rates exactly, backward steps included
        def rates(x, xi, jac, xiv, s, g):
            return (xi, -potential.gradient(x), xiv, -(potential.hessian(x) * jac),
                    0.5 * xi**2 - potential.value(x), 1.0 / jac)

        y = PeriodicGrid(32.0, 64).nodes
        phase = InitialPhaseSpec.quadratic(0.2)
        start = (y, phase.gradient(y), np.ones_like(y), phase.hessian(y),
                 phase.value(y))
        march = March(t_final - t0, 1e-2)
        _, *stored, _ = rays.integrate_ray_state(potential, *start, t0, march)
        steps = march.steps
        state = (*start, np.zeros_like(y))
        want = [state]
        for _ in range(steps):
            state = stagewise_rk4(rates, state, (t_final - t0) / steps)
            want.append(state)
        assert len(stored) == 6
        for got, ref in zip(stored, zip(*want)):
            assert got.shape == (steps + 1, y.size)
            assert np.array_equal(got, np.array(ref))

    def test_time_reversal(self):
        problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                        InitialPhaseSpec.zero(), 128.0, 512)
        y = markers.nodes
        _, xs, xis, jacs, xivs, ss, *_ = rays.integrate_ray_state(
            problem.potential, y, np.zeros_like(y), np.ones_like(y),
            np.zeros_like(y), np.zeros_like(y), 0.0, March(1.0, 1e-3))
        _, xs2, _, _, _, ss2, *_ = rays.integrate_ray_state(
            problem.potential, xs[-1], xis[-1], jacs[-1], xivs[-1], ss[-1],
            1.0, March(-1.0, 1e-3))
        assert np.max(np.abs(xs2[-1] - y)) <= 1e-8
        assert np.max(np.abs(ss2[-1])) <= 1e-8


class TestSparseStorage:
    """A bundle stored every few steps holds the rows of the fully stored
    bundle at its steps, and the march reduces min_y J and the integral
    of 1/J at every step whatever it stores."""

    @staticmethod
    def cosine_problem(size=64):
        # V'' varies with x, so 1/J differs from ray to ray
        return make_problem(PotentialSpec.cosine(0.5, 32.0, 4),
                            InitialPhaseSpec.quadratic(0.2), 32.0, size)

    @pytest.mark.parametrize("steps", range(1, 9))
    def test_integral_is_the_simpson_rule_at_every_node(self, steps):
        # V = 0 with a cosine phase: J = 1 + t phi0''(y) is affine in t and
        # differs from ray to ray, so every RK4 stage sees the exact J and
        # the marched integral of 1/J is composite Simpson on the steps
        # and their midpoints
        grid = PeriodicGrid(32.0, 64)
        k = 2 * np.pi / grid.length
        phase = InitialPhaseSpec(lambda y: 0.5 * np.cos(k * y),
                                 lambda y: -0.5 * k * np.sin(k * y),
                                 lambda y: -0.5 * k**2 * np.cos(k * y),
                                 periodic=True)
        problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                       a0=gaussian_field(grid, 1.0, 1.0),
                                       potential=PotentialSpec.zero(),
                                       phase=phase)
        t_final = steps * 0.5
        bundle = rays.integrate_flow(problem, grid, t_final, dt=0.5)
        assert np.ptp(1.0 / bundle.jac[-1]) > 1e-4
        h, curv = bundle.dt, phase.hessian(grid.nodes)
        nodes = 1.0 / (1.0 + h * np.arange(steps + 1)[:, None] * curv)
        mids = 1.0 / (1.0 + h * (np.arange(steps)[:, None] + 0.5) * curv)
        cells = (h / 6) * (nodes[:-1] + 4 * mids + nodes[1:])
        for it in range(steps + 1):
            want = cells[:it].sum(axis=0)
            got = bundle.jac_inv_integral[it]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()
        last = rays.integrate_flow(problem, grid, t_final, dt=0.5,
                                   store_every=steps)
        assert np.array_equal(last.jac_inv_integral[-1],
                              bundle.jac_inv_integral[-1])

    @pytest.mark.parametrize("store_every", [3, 8, 20])
    def test_sparse_rows_are_the_full_rows(self, store_every):
        problem, markers = self.cosine_problem()
        full = rays.integrate_flow(problem, markers, 0.4, dt=0.05)
        sparse = rays.integrate_flow(problem, markers, 0.4, dt=0.05,
                                     store_every=store_every)
        steps = sorted({*range(0, 9, store_every), 8})
        assert np.array_equal(sparse.times, full.times[steps])
        for name in ("x", "xi", "jac", "xivar", "action", "jac_inv_integral"):
            assert np.array_equal(getattr(sparse, name),
                                  getattr(full, name)[steps]), name
        assert np.array_equal(sparse.min_jacobian, full.min_jacobian)
        assert sparse.dt == full.dt

    def test_caustic_sees_every_step(self, harmonic_bundle):
        sparse = rays.integrate_flow(harmonic_bundle.problem,
                                     harmonic_bundle.markers, 1.8, dt=1e-3,
                                     store_every=1800)
        assert len(sparse.times) == 2
        assert sparse.t_caustic == harmonic_bundle.t_caustic
        for threshold in (1e-12, 0.5):
            assert (rays.caustic_time(sparse, threshold)
                    == rays.caustic_time(harmonic_bundle, threshold))

    @staticmethod
    def _peak_bytes(march):
        # the first call fills the grid's cached arrays; trace a second
        march()
        tracemalloc.start()
        try:
            march()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_final_node_march_memory_does_not_grow_with_steps(self):
        problem, markers = self.cosine_problem(size=1024)
        peaks = {dt: self._peak_bytes(lambda: rays.integrate_flow(
            problem, markers, 0.5, dt=dt, store_every=March(0.5, dt).steps))
            for dt in (1e-2, 1e-3)}
        # storing all 501 steps would take 6 x 501 x 8 KiB, about 24 MiB
        assert peaks[1e-2] < 0.5 * 2**20
        assert peaks[1e-3] <= 1.2 * peaks[1e-2]


class TestInversionGuards:
    def test_targets_outside_marker_box_rejected(self, eval_grid):
        # markers no wider than the targets: at t=0.5 the pulled-back labels
        # y = 2x leave the box
        problem, markers = make_problem(PotentialSpec.zero(),
                                        InitialPhaseSpec.quadratic(-1.0),
                                        32.0, 256)
        bundle = rays.integrate_flow(problem, markers, 0.6, dt=1e-3)
        with pytest.raises(InversionError):
            rays.eikonal_phase(rays.invert_flow(bundle, 0.5, eval_grid))


    def test_slopes_that_contradict_the_positions_stop_newton(self, eval_grid):
        # the Hermite interpolant of positions with 1e13 times the true
        # slopes swings so steeply that rounding alone exceeds the tolerance
        problem, markers = make_problem(PotentialSpec.zero(),
                                        InitialPhaseSpec.zero(), 32.0, 64)
        bundle = rays.integrate_flow(problem, markers, 0.1, dt=1e-2)
        bad = dataclasses.replace(bundle, jac=1e13 * bundle.jac)
        with pytest.raises(InversionError, match="Newton inversion did not "
                           "reach tolerance") as caught:
            rays.invert_flow(bad, 0.1, eval_grid)
        assert caught.value.time == 0.1
        worst = re.search(r"worst residual (\S+)\)", str(caught.value)).group(1)
        assert float(worst) > 1e-10 * 16.0


class TestMapClass:
    """The flags of the specs pick the label-map branch: affine when V'' is
    constant, periodic-compatible when potential and phase both are."""

    POTENTIALS = {"zero": PotentialSpec.zero(),
                  "harmonic": PotentialSpec.harmonic(1.0),
                  "cosine": PotentialSpec.cosine(0.5, 32.0, 1)}
    PHASES = {"flat": InitialPhaseSpec.zero(),
              "quadratic": InitialPhaseSpec.quadratic(0.2)}

    @pytest.mark.parametrize("potential, phase, affine, periodic", [
        ("zero", "flat", True, True),
        ("zero", "quadratic", True, False),
        ("harmonic", "flat", True, False),
        ("harmonic", "quadratic", True, False),
        ("cosine", "flat", False, True),
        ("cosine", "quadratic", False, False),
    ])
    def test_affine_and_periodic_flags(self, potential, phase, affine, periodic):
        problem, markers = make_problem(self.POTENTIALS[potential],
                                        self.PHASES[phase], 32.0, 64)
        bundle = rays.integrate_flow(problem, markers, 0.01, dt=1e-2)
        assert bundle.is_affine() is affine
        assert bundle.is_periodic_compatible() is periodic


class TestArgumentGuards:
    def test_unbounded_hessian_is_not_admissible(self):
        def inf(x):
            return np.full_like(x, np.inf)

        problem, markers = make_problem(
            PotentialSpec(inf, inf, inf, periodic=True, quadratic=False),
            InitialPhaseSpec.zero(), 32.0, 64)
        with pytest.raises(FieldError, match="potential Hessian is not bounded"):
            rays.integrate_flow(problem, markers, 0.1, dt=1e-2)

    def test_caustic_thresholds_lie_in_the_unit_interval(self, free_bundle):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\), got 0"):
            rays.caustic_time(free_bundle, threshold=0)

    def test_times_off_the_stored_nodes_are_rejected(self, free_bundle):
        with pytest.raises(ValueError, match="t=0.0005 is not a stored time node"):
            free_bundle.time_index(0.0005)

    def test_affine_flow_series_must_be_constant(self, free_bundle, eval_grid):
        # the action of the focusing flow varies with the label
        lmap = rays.invert_flow(free_bundle, 0.5, eval_grid)
        with pytest.raises(InversionError, match="expected constant") as caught:
            lmap.interp_series(free_bundle.action[lmap.index])
        assert caught.value.time == pytest.approx(0.5, abs=1e-12)

    def test_residual_arguments(self, eval_grid):
        problem, markers = make_problem(PotentialSpec.zero(),
                                        InitialPhaseSpec.zero(), 32.0, 64)
        residual = rays.HamiltonJacobiResidual(problem, eval_grid)
        rays.integrate_flow(problem, markers, 0.03, dt=1e-2, visit=residual.add)
        with pytest.raises(StencilError, match="not enough march nodes above the Jacobian floor") as caught:
            residual.value()
        assert caught.value.time == pytest.approx(0.03, abs=1e-12)

    def test_a_non_finite_initial_state_fails_at_t0(self, monkeypatch):
        # the curvature 1e308 overflows the initial momentum q y
        problem, markers = make_problem(PotentialSpec.zero(),
                                        InitialPhaseSpec.quadratic(1e308), 32.0, 64)
        monkeypatch.setattr(rays, "rk4",
                            lambda *args: pytest.fail("the march took a step"))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="non-finite") as caught:
            rays.integrate_flow(problem, markers, 0.1, dt=0.01)
        assert caught.value.time == 0.0


class TestMarkerSeriesInterpolation:
    """Off-marker evaluation on non-affine flows: the cosine potential makes
    the map periodic-compatible (trigonometric branch) unless a quadratic
    phase breaks periodicity (cubic-spline branch)."""

    @pytest.mark.parametrize("phase, periodic", [
        (InitialPhaseSpec.zero(), True),
        (InitialPhaseSpec.quadratic(0.2), False),
    ], ids=["trigonometric", "spline"])
    def test_reproduces_series_at_marker_labels(self, phase, periodic):
        problem, markers = make_problem(PotentialSpec.cosine(0.5, 32.0, 1),
                                        phase, 32.0, 256)
        bundle = rays.integrate_flow(problem, markers, 0.3, dt=1e-3)
        assert not bundle.is_affine()
        assert bundle.is_periodic_compatible() is periodic
        it = bundle.time_index(0.3)
        # at t = 0 the map is the identity, so the labels are the markers
        at_markers = rays.invert_flow(bundle, 0.0, markers)
        assert np.array_equal(at_markers.labels, bundle.y)
        for series in (bundle.jac[it], bundle.action[it]):
            assert np.ptp(series) > 1e-3  # a constant series would prove nothing
            got = at_markers.interp_series(series)
            assert np.max(np.abs(got - series)) <= 1e-12 * max(1.0, np.abs(series).max())
