"""Spectral derivative, norm, and interpolation oracles on periodic grids."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlswkb.errors import FieldError, GridError
from nlswkb.fields import (ComplexField, RealField, band_limited_interpolate,
                           interpolate_periodic, l2_linf_norm, laplacian,
                           lp_norm, sobolev_norm, spectral_derivative)
from nlswkb.grids import PeriodicGrid


def gaussian_line(length=32.0, size=512):
    grid = PeriodicGrid.line(length, size)
    x = grid.nodes[0]
    return grid, x, RealField(grid, np.exp(-x ** 2))


class TestDerivativeOracles:
    def test_single_fourier_mode_first_derivative(self):
        # d/dx e^{ix} = i e^{ix}, exact for one resolved mode
        grid = PeriodicGrid.line(2 * np.pi, 64)
        x = grid.nodes[0]
        f = ComplexField(grid, np.exp(1j * x))
        df = spectral_derivative(f, axis=0, order=1)
        assert np.max(np.abs(df.values - 1j * np.exp(1j * x))) <= 1e-12

    def test_gaussian_second_derivative(self):
        grid, x, f = gaussian_line()
        d2 = spectral_derivative(f, axis=0, order=2)
        exact = (4 * x ** 2 - 2) * np.exp(-x ** 2)
        assert np.max(np.abs(d2.values - exact)) <= 1e-8

    def test_laplacian_matches_second_derivative_in_1d(self):
        grid, x, f = gaussian_line()
        lap = laplacian(f)
        d2 = spectral_derivative(f, axis=0, order=2)
        assert np.max(np.abs(lap.values - d2.values)) <= 1e-12


class TestNormOracles:
    def test_plane_wave_homogeneous_sobolev(self):
        grid = PeriodicGrid.line(2 * np.pi, 64)
        x = grid.nodes[0]
        for k, m in [(1, 1), (2, 1), (3, 2)]:
            f = ComplexField(grid, np.exp(1j * k * x))
            got = sobolev_norm(f, m, homogeneous=True)
            want = abs(k) ** m * np.sqrt(2 * np.pi)
            assert abs(got - want) <= 1e-12 * want

    def test_gaussian_l2_norm(self):
        # integral of e^{-2x^2} over the line is sqrt(pi/2)
        _, _, f = gaussian_line()
        want = (np.pi / 2) ** 0.25
        assert abs(sobolev_norm(f, 0) - want) <= 1e-12
        assert abs(lp_norm(f, 2) - want) <= 1e-12

    def test_l2_linf_picks_the_larger(self):
        grid, _, f = gaussian_line()
        # peak 1.0 < L2 norm 1.119..., so the combined norm is the L2 one
        assert l2_linf_norm(f) == pytest.approx(sobolev_norm(f, 0), abs=1e-14)
        tall = RealField(grid, 3.0 * f.values)
        assert l2_linf_norm(tall) == pytest.approx(3 * sobolev_norm(f, 0), rel=1e-13)

    def test_inhomogeneous_dominates_homogeneous(self):
        _, _, f = gaussian_line()
        for s in (0.5, 1, 2):
            assert sobolev_norm(f, s) >= sobolev_norm(f, s, homogeneous=True)


class TestInterpolation:
    def test_gaussian_off_grid_value(self):
        _, _, f = gaussian_line()
        got = band_limited_interpolate(f, np.array([[0.3]]))
        assert abs(got[0] - np.exp(-0.09)) <= 1e-10

    def test_periodic_wrap(self):
        grid, _, f = gaussian_line()
        left = interpolate_periodic(f, np.array([[-16.0]]))
        right = interpolate_periodic(f, np.array([[16.0]]))
        assert abs(left[0] - right[0]) <= 1e-12


class TestGridValidation:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(GridError):
            PeriodicGrid.line(32.0, 1000)

    def test_length_must_be_positive(self):
        with pytest.raises(GridError):
            PeriodicGrid.line(-1.0, 64)

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(GridError):
            PeriodicGrid((32.0, 32.0), (64, 64))

    def test_field_shape_must_match_grid(self):
        grid = PeriodicGrid.line(32.0, 64)
        with pytest.raises(FieldError):
            RealField(grid, np.zeros(32))

    def test_dealias_mask_keeps_two_thirds(self):
        grid = PeriodicGrid.line(32.0, 256)
        k = grid.axis_wavenumbers(0)
        kept = grid.dealias_mask
        assert np.array_equal(kept, np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k)))


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def random_band_limited(draw, size=64):
    """Real field from a handful of low Fourier modes on L=2*pi."""
    grid = PeriodicGrid.line(2 * np.pi, size)
    x = grid.nodes[0]
    vals = np.full(size, draw(coeff))
    for k in (1, 2, 3):
        vals = vals + draw(coeff) * np.cos(k * x) + draw(coeff) * np.sin(k * x)
    return RealField(grid, vals)


class TestSpectralProperties:
    @given(random_band_limited())
    @settings(max_examples=25, deadline=None)
    def test_plancherel(self, f):
        assert sobolev_norm(f, 0) == pytest.approx(lp_norm(f, 2), rel=1e-10, abs=1e-10)

    @given(random_band_limited())
    @settings(max_examples=25, deadline=None)
    def test_interpolation_reproduces_nodes(self, f):
        pts = f.grid.nodes[0][:8].reshape(-1, 1)
        got = band_limited_interpolate(f, pts)
        assert np.max(np.abs(got - f.values[:8])) <= 1e-9

    @given(random_band_limited(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_norm_monotone_in_order(self, f, s):
        assert sobolev_norm(f, s + 0.5) >= sobolev_norm(f, s) - 1e-12

    @given(random_band_limited())
    @settings(max_examples=25, deadline=None)
    def test_derivative_kills_the_mean(self, f):
        df = spectral_derivative(f, axis=0, order=1)
        assert abs(np.mean(df.values)) <= 1e-10 * (1 + np.max(np.abs(f.values)))
