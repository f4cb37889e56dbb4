"""Characteristic-flow oracles: closed-form rays, Jacobians, phases, caustics."""
import numpy as np
import pytest

from nlswkb.errors import CausticError, InversionError
from nlswkb.grids import PeriodicGrid
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field
from nlswkb import rays


def make_problem(potential, phase, marker_length, marker_size):
    grid = PeriodicGrid.line(marker_length, marker_size)
    return SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                a0=gaussian_field(grid, 1.0, 1.0),
                                potential=potential, phase=phase), grid


@pytest.fixture(scope="module")
def harmonic_bundle():
    # markers on a wider box than the evaluation window: labels y = x/cos(t)
    # swing far outside [-16, 16) before the caustic
    problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                    InitialPhaseSpec.zero(), 128.0, 512)
    return rays.integrate_flow(problem, markers, 1.8, dt=1e-3)


@pytest.fixture(scope="module")
def free_bundle():
    # V=0 with concave quadratic phase -x^2/2: focusing free flow
    problem, markers = make_problem(PotentialSpec.zero(),
                                    InitialPhaseSpec.quadratic(-1.0), 128.0, 1024)
    return rays.integrate_flow(problem, markers, 0.6, dt=1e-3)


@pytest.fixture(scope="module")
def cosine_bundle():
    grid = PeriodicGrid.line(32.0, 256)
    problem = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                   a0=gaussian_field(grid, 1.0, 1.0),
                                   potential=PotentialSpec.cosine(0.5, 32.0, 1),
                                   phase=InitialPhaseSpec.zero())
    return rays.integrate_flow(problem, grid, 0.3, dt=1e-3)


@pytest.fixture(scope="module")
def eval_grid():
    return PeriodicGrid.line(32.0, 256)


class TestHarmonicOracle:
    """V = x^2/2: rays x = y cos t, J = cos t, caustic at pi/2."""

    def test_ray_positions(self, harmonic_bundle):
        b = harmonic_bundle
        for t in (0.5, 1.0, 1.5):
            it = b.time_index(t)
            exact = b.y[:, 0] * np.cos(b.times[it])
            assert np.max(np.abs(b.x[it][:, 0] - exact)) <= 1e-8

    def test_momenta(self, harmonic_bundle):
        b = harmonic_bundle
        it = b.time_index(1.0)
        exact = -b.y[:, 0] * np.sin(b.times[it])
        assert np.max(np.abs(b.xi[it][:, 0] - exact)) <= 1e-8

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
        phi = rays.eikonal_phase(harmonic_bundle, 1.0, eval_grid)
        x = eval_grid.nodes[0]
        exact = -0.5 * x ** 2 * np.tan(1.0)
        assert np.max(np.abs(phi.values - exact)) <= 1e-9

    def test_momentum_field(self, harmonic_bundle, eval_grid):
        mom = rays.momentum_field(harmonic_bundle, 1.0, eval_grid)
        x = eval_grid.nodes[0]
        assert np.max(np.abs(mom[:, 0] + x * np.tan(1.0))) <= 1e-9

    def test_phase_guarded_past_caustic(self, harmonic_bundle, eval_grid):
        with pytest.raises(CausticError):
            rays.eikonal_phase(harmonic_bundle, 1.6, eval_grid)

    def test_jacobian_consistency(self, harmonic_bundle):
        assert rays.jacobian_consistency(harmonic_bundle, 1.0) <= 1e-6


class TestFreeFlowOracle:
    """V = 0, phase -x^2/2: rays x = y(1-t), caustic at t = 1."""

    def test_ray_positions_and_jacobian(self, free_bundle):
        b = free_bundle
        it = b.time_index(0.5)
        assert np.max(np.abs(b.x[it][:, 0] - 0.5 * b.y[:, 0])) <= 1e-11
        assert np.max(np.abs(b.jac[it] - 0.5)) <= 1e-12

    def test_map_is_affine(self, free_bundle):
        assert free_bundle.is_affine()

    def test_inverted_labels(self, free_bundle, eval_grid):
        labels = rays.invert_flow(free_bundle, 0.5, eval_grid)
        x = eval_grid.nodes[0]
        assert np.max(np.abs(labels.points()[:, 0] - 2 * x)) <= 1e-10

    def test_phase_profile(self, free_bundle, eval_grid):
        phi = rays.eikonal_phase(free_bundle, 0.5, eval_grid)
        x = eval_grid.nodes[0]
        # phi(t,x) = -x^2/(2(1-t))
        assert np.max(np.abs(phi.values + x ** 2)) <= 1e-9

    def test_jacobian_at_labels(self, free_bundle, eval_grid):
        jac = rays.jacobian_at_labels(free_bundle, 0.5, eval_grid)
        assert np.max(np.abs(jac - 0.5)) <= 1e-12

    def test_no_caustic_inside_window(self, free_bundle):
        assert free_bundle.t_caustic is None


class TestEikonalResidual:
    """The phase solves d_t phi + |grad phi|^2/2 + V = 0 on every fixture."""

    def test_free_fixture(self, free_bundle, eval_grid):
        assert rays.hamilton_jacobi_residual(free_bundle, eval_grid) <= 1e-6

    def test_harmonic_fixture(self, harmonic_bundle, eval_grid):
        assert rays.hamilton_jacobi_residual(harmonic_bundle, eval_grid) <= 1e-6

    def test_cosine_fixture_both_gradient_modes(self, cosine_bundle, eval_grid):
        assert cosine_bundle.is_periodic_compatible()
        res_m = rays.hamilton_jacobi_residual(cosine_bundle, eval_grid)
        res_s = rays.hamilton_jacobi_residual(cosine_bundle, eval_grid,
                                              gradient="spectral")
        assert res_m <= 1e-6
        assert res_s <= 1e-6


class TestIntegratorQuality:
    def test_rk4_error_drops_sixteenfold_per_halving(self):
        problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                        InitialPhaseSpec.zero(), 128.0, 512)
        errs = []
        for dt in (0.05, 0.025):
            b = rays.integrate_flow(problem, markers, 1.0, dt=dt)
            it = b.time_index(1.0)
            errs.append(np.max(np.abs(b.x[it][:, 0] - b.y[:, 0] * np.cos(1.0))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_time_reversal(self):
        problem, markers = make_problem(PotentialSpec.harmonic(1.0),
                                        InitialPhaseSpec.zero(), 128.0, 512)
        y = np.stack([c.ravel() for c in markers.nodes], axis=-1)
        nm = y.shape[0]
        eye = np.broadcast_to(np.eye(1), (nm, 1, 1)).copy()
        zeros_m = np.zeros((nm, 1, 1))
        _, xs, xis, mvs, xivs, ss = rays.integrate_ray_state(
            problem.potential, y.copy(), np.zeros_like(y), eye, zeros_m,
            np.zeros(nm), 0.0, 1.0, 1e-3)
        _, xs2, _, _, _, ss2 = rays.integrate_ray_state(
            problem.potential, xs[-1], xis[-1], mvs[-1], xivs[-1], ss[-1],
            1.0, 0.0, 1e-3)
        assert np.max(np.abs(xs2[-1] - y)) <= 1e-8
        assert np.max(np.abs(ss2[-1])) <= 1e-8


class TestInversionGuards:
    def test_targets_outside_marker_box_rejected(self, eval_grid):
        # markers no wider than the targets: at t=0.5 the pulled-back labels
        # y = 2x leave the box
        problem, markers = make_problem(PotentialSpec.zero(),
                                        InitialPhaseSpec.quadratic(-1.0),
                                        32.0, 256)
        bundle = rays.integrate_flow(problem, markers, 0.6, dt=1e-3)
        with pytest.raises(InversionError):
            rays.eikonal_phase(bundle, 0.5, eval_grid)


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
        for series in (bundle.jac[it], bundle.action[it]):
            assert np.ptp(series) > 1e-3  # a constant series would prove nothing
            got = rays._interp_marker_series_1d(bundle, series, bundle.y[:, 0])
            assert np.max(np.abs(got - series)) <= 1e-12 * max(1.0, np.abs(series).max())
