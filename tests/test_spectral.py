"""Spectral derivative, norm, and interpolation oracles on periodic grids."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlswkb.errors import FieldError, GridError
from nlswkb.fields import (ComplexField, RealField, band_limited_interpolate,
                           derivative_values, interpolate_periodic,
                           l2_linf_norm, laplacian_values, lp_norm,
                           sobolev_norm, tail_fraction)
from nlswkb.grids import PeriodicGrid


def gaussian_line(length=32.0, size=512):
    grid = PeriodicGrid(length, size)
    x = grid.nodes
    return grid, x, RealField(grid, np.exp(-x ** 2))


class TestDerivativeOracles:
    def test_single_fourier_mode_first_derivative(self):
        # d/dx e^{ix} = i e^{ix}, exact for one resolved mode
        grid = PeriodicGrid(2 * np.pi, 64)
        x = grid.nodes
        f = ComplexField(grid, np.exp(1j * x))
        df = derivative_values(grid, f.values)
        assert np.max(np.abs(df - 1j * np.exp(1j * x))) <= 1e-12

    def test_gaussian_second_derivative(self):
        grid, x, f = gaussian_line()
        d2 = laplacian_values(grid, f.values)
        exact = (4 * x ** 2 - 2) * np.exp(-x ** 2)
        assert np.max(np.abs(d2 - exact)) <= 1e-8

    def test_laplacian_matches_second_derivative_in_1d(self):
        # -k^2 and (ik)^2 differ only at the Nyquist mode, which ik drops
        grid, x, f = gaussian_line()
        lap = laplacian_values(grid, f.values)
        d2 = derivative_values(grid, derivative_values(grid, f.values))
        assert np.max(np.abs(lap - d2)) <= 1e-12


class TestNormOracles:
    def test_plane_wave_homogeneous_sobolev(self):
        grid = PeriodicGrid(2 * np.pi, 64)
        x = grid.nodes
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
        got = band_limited_interpolate(f, np.array([0.3]))
        assert abs(got[0] - np.exp(-0.09)) <= 1e-10

    def test_periodic_wrap(self):
        grid, _, f = gaussian_line()
        left = interpolate_periodic(f, np.array([-16.0]))
        right = interpolate_periodic(f, np.array([16.0]))
        assert abs(left[0] - right[0]) <= 1e-12


def dense_interpolant(f, pts):
    """sum_k fhat_k exp(i k (x + L/2)) over the FFT modes, the Nyquist
    mode taken as a cosine."""
    grid = f.grid
    n = grid.size
    k = grid.wavenumbers
    shifted = pts + grid.length / 2
    mat = np.exp(1j * np.outer(shifted, k))
    mat[:, n // 2] = np.cos(abs(k[n // 2]) * shifted)
    return mat @ (np.fft.fft(f.values) / n)


class TestHornerInterpolation:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_the_dense_mode_sum(self, complex_field):
        rng = np.random.default_rng(7)
        grid = PeriodicGrid(32.0, 64)
        vals = rng.standard_normal(64)     # white noise: Nyquist content
        if complex_field:
            vals = vals + 1j * rng.standard_normal(64)
            f = ComplexField(grid, vals)
        else:
            f = RealField(grid, vals)
        assert abs(np.fft.fft(f.values)[32]) > 1.0
        pts = rng.uniform(-16.0, 16.0, 200)
        pts[:3] = (-16.0, 16.0, grid.nodes[5])
        got = band_limited_interpolate(f, pts)
        want = dense_interpolant(f, pts)
        if not complex_field:
            assert not np.iscomplexobj(got)
            want = want.real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_memory_stays_linear_in_the_point_count(self):
        # the dense M x N matrix would take 8192^2 * 16 B = 1 GiB here
        n = 8192
        grid = PeriodicGrid(32.0, n)
        f = ComplexField(grid, np.exp(-grid.nodes ** 2) + 0j)
        pts = np.linspace(-15.0, 15.0, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = band_limited_interpolate(f, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.max(np.abs(got - np.exp(-pts ** 2))) <= 1e-10


class TestSharedTransform:
    def test_cached_first_derivative_multiplier(self):
        grid = PeriodicGrid(32.0, 64)
        expected = 1j * grid.wavenumbers
        expected[32] = 0.0
        assert np.array_equal(grid.ik, expected)
        assert grid.ik is grid.ik and not grid.ik.flags.writeable

    # only the first-derivative multiplier ik is kept; higher orders are
    # repeated applications of it or laplacian_values
    @pytest.mark.parametrize("order", [1])
    def test_every_order_is_cached_read_only(self, order, monkeypatch):
        grid = PeriodicGrid(32.0, 64)
        expected = (1j * grid.wavenumbers) ** order
        expected[32] = 0.0
        mult = grid.ik
        assert np.array_equal(mult, expected) and not mult.flags.writeable
        calls = []
        fftfreq = np.fft.fftfreq
        monkeypatch.setattr(np.fft, "fftfreq",
                            lambda *a, **kw: calls.append(a) or fftfreq(*a, **kw))
        values = gaussian_line(size=64)[2].values
        for _ in range(3):
            derivative_values(grid, values)
        assert grid.ik is mult
        assert calls == []

    def test_grid_arrays_are_cached_read_only(self):
        grid = PeriodicGrid(32.0, 64)
        assert grid.spacing == 0.5
        assert np.array_equal(grid.nodes, -16.0 + 0.5 * np.arange(64))
        assert np.array_equal(grid.wavenumbers,
                              2 * np.pi * np.fft.fftfreq(64, d=0.5))
        for name in ("nodes", "wavenumbers", "wavenumber_sq", "dealias_mask"):
            arr = getattr(grid, name)
            assert arr.shape == (64,) and not arr.flags.writeable, name
            assert getattr(grid, name) is arr, name

    def test_kept_band_top_is_the_top_third_of_the_dealiased_band(self):
        grid = PeriodicGrid(32.0, 256)
        k = np.abs(grid.wavenumbers)
        kmax = k.max()
        expected = (k > (4.0 / 9.0) * kmax) & (k <= (2.0 / 3.0) * kmax)
        assert np.array_equal(grid.kept_band_top, expected)
        assert not grid.kept_band_top.flags.writeable


class TestTailFraction:
    """The spectral tail monitor shared by the NLS and phase-amplitude
    solvers: one fraction per row."""

    def test_row_without_power_gives_zero(self):
        grid = PeriodicGrid(32.0, 64)
        spec = np.zeros((2, 64), dtype=complex)
        spec[1, 0] = 1.0
        assert np.array_equal(tail_fraction(spec, grid.kept_band_top), [0.0, 0.0])

    def test_power_all_in_the_band_gives_one(self):
        grid = PeriodicGrid(32.0, 64)
        band = ~grid.dealias_mask
        spec = np.where(band, 1.0 - 2.0j, 0.0)
        assert tail_fraction(spec[np.newaxis], band)[0] == 1.0

    @pytest.mark.parametrize("band", ["kept_band_top", "aliased"])
    def test_matches_the_per_row_modulus_formula(self, band):
        grid = PeriodicGrid(32.0, 128)
        mask = grid.kept_band_top if band == "kept_band_top" else ~grid.dealias_mask
        rng = np.random.default_rng(7)
        spec = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        spec *= np.exp(-0.05 * np.arange(128))
        got = tail_fraction(spec, mask)
        assert got.shape == (5,)
        for row, value in zip(spec, got):
            power = np.abs(row) ** 2
            assert abs(value - np.sum(power[mask]) / np.sum(power)) <= 1e-15


class TestGridValidation:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(GridError):
            PeriodicGrid(32.0, 1000)

    def test_length_must_be_positive(self):
        with pytest.raises(GridError):
            PeriodicGrid(-1.0, 64)

    def test_field_shape_must_match_grid(self):
        grid = PeriodicGrid(32.0, 64)
        with pytest.raises(FieldError):
            RealField(grid, np.zeros(32))

    def test_dealias_mask_keeps_two_thirds(self):
        grid = PeriodicGrid(32.0, 256)
        k = grid.wavenumbers
        kept = grid.dealias_mask
        assert np.array_equal(kept, np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k)))


def _other_grid_sum(grid):
    return RealField.zeros(grid) + RealField.zeros(PeriodicGrid(16.0, 64))


@pytest.mark.parametrize("call, message", [
    (lambda grid: lp_norm(RealField.zeros(grid), 0), "p must be positive, got 0"),
    # checked before the p = inf branch
    (lambda grid: lp_norm(RealField.zeros(grid), -np.inf),
     "p must be positive, got -inf"),
    # nan fails every comparison, so the guard is written to catch it
    (lambda grid: lp_norm(RealField.zeros(grid), np.nan),
     "p must be positive, got nan"),
    (lambda grid: band_limited_interpolate(RealField.zeros(grid),
                                           np.array([16.5])),
     "interpolation points outside the periodic box"),
    (lambda grid: RealField(grid, np.full(64, np.nan), role="probe"),
     "non-finite samples in field role='probe'"),
    (_other_grid_sum, "fields live on different grids"),
], ids=["lp-exponent", "lp-exponent-minus-inf", "lp-exponent-nan", "outside-box",
        "non-finite", "two-grids"])
def test_field_guard_fires(call, message):
    with pytest.raises(FieldError, match=re.escape(message)):
        call(PeriodicGrid(32.0, 64))


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def random_band_limited(draw, size=64):
    """Real field from a handful of low Fourier modes on L=2*pi."""
    grid = PeriodicGrid(2 * np.pi, size)
    x = grid.nodes
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
        pts = f.grid.nodes[:8]
        got = band_limited_interpolate(f, pts)
        assert np.max(np.abs(got - f.values[:8])) <= 1e-9

    @given(random_band_limited(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_norm_monotone_in_order(self, f, s):
        assert sobolev_norm(f, s + 0.5) >= sobolev_norm(f, s) - 1e-12

    @given(random_band_limited())
    @settings(max_examples=25, deadline=None)
    def test_derivative_kills_the_mean(self, f):
        df = derivative_values(f.grid, f.values)
        assert abs(np.mean(df)) <= 1e-10 * (1 + np.max(np.abs(f.values)))
