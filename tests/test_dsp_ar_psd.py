"""Unit tests for AR estimation and Welch PSD."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.ar import ar_burg, ar_power_spectrum, ar_yule_walker, levinson_durbin
from repro.dsp.psd import band_power, band_powers, welch_psd


def _ar2_process(a1, a2, n, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    e = noise * rng.standard_normal(n)
    for i in range(2, n):
        x[i] = a1 * x[i - 1] + a2 * x[i - 2] + e[i]
    return x[200:]


class TestBurg:
    def test_recovers_ar2_coefficients(self):
        x = _ar2_process(0.75, -0.5, 6000)
        coeffs, variance = ar_burg(x, 2)
        assert coeffs[0] == pytest.approx(0.75, abs=0.05)
        assert coeffs[1] == pytest.approx(-0.5, abs=0.05)
        assert variance == pytest.approx(1.0, rel=0.2)

    def test_sinusoid_pole_near_unit_circle(self):
        t = np.arange(2000)
        x = np.sin(2 * np.pi * 0.1 * t) + 0.01 * np.random.default_rng(1).standard_normal(2000)
        coeffs, _ = ar_burg(x, 2)
        # For a sinusoid at frequency f, a1 ≈ 2 cos(2π f).
        assert coeffs[0] == pytest.approx(2 * np.cos(2 * np.pi * 0.1), abs=0.05)
        assert coeffs[1] == pytest.approx(-1.0, abs=0.05)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ar_burg(np.zeros(10), 0)
        with pytest.raises(ValueError):
            ar_burg(np.zeros(5), 5)

    def test_white_noise_gives_small_coefficients(self):
        x = np.random.default_rng(2).standard_normal(5000)
        coeffs, variance = ar_burg(x, 4)
        assert np.all(np.abs(coeffs) < 0.1)
        assert variance == pytest.approx(1.0, rel=0.1)

    def test_output_shape(self):
        x = np.random.default_rng(3).standard_normal(100)
        coeffs, _ = ar_burg(x, 9)
        assert coeffs.shape == (9,)

    @given(
        matrix=arrays(
            np.float64,
            st.tuples(st.integers(8, 80), st.integers(2, 4)),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        order=st.integers(1, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_memory_layout_does_not_change_the_result(self, matrix, order):
        """A strided column view and its contiguous copy give the same
        coefficients and the same noise variance, bit for bit."""
        view = matrix[:, 0]
        assert not view.flags.c_contiguous
        coeffs_view, variance_view = ar_burg(view, order)
        coeffs_copy, variance_copy = ar_burg(np.ascontiguousarray(view), order)
        assert coeffs_view.tobytes() == coeffs_copy.tobytes()
        assert variance_view == variance_copy


class TestYuleWalkerAndLevinson:
    def test_yule_walker_close_to_burg_on_long_series(self):
        x = _ar2_process(0.6, -0.3, 8000, seed=4)
        burg, _ = ar_burg(x, 2)
        yw, _ = ar_yule_walker(x, 2)
        assert np.allclose(burg, yw, atol=0.05)

    def test_levinson_requires_enough_lags(self):
        with pytest.raises(ValueError):
            levinson_durbin(np.array([1.0, 0.5]), 3)

    def test_levinson_white_noise(self):
        coeffs, err = levinson_durbin(np.array([1.0, 0.0, 0.0, 0.0]), 3)
        assert np.allclose(coeffs, 0.0)
        assert err == pytest.approx(1.0)


class TestARPowerSpectrum:
    def test_peak_at_process_resonance(self):
        # AR(2) with resonance near 0.1 of the sampling rate.
        a1 = 2 * 0.95 * np.cos(2 * np.pi * 0.1)
        a2 = -0.95**2
        freqs, psd = ar_power_spectrum(np.array([a1, a2]), 1.0, fs=1.0, n_freqs=512)
        assert freqs[np.argmax(psd)] == pytest.approx(0.1, abs=0.01)

    def test_white_noise_flat_spectrum(self):
        freqs, psd = ar_power_spectrum(np.zeros(0), 1.0, fs=2.0, n_freqs=64)
        assert np.allclose(psd, psd[0])


class TestWelch:
    def test_peak_frequency_detected(self):
        fs = 4.0
        t = np.arange(0, 300.0, 1.0 / fs)
        x = np.sin(2 * np.pi * 0.3 * t) + 0.1 * np.random.default_rng(5).standard_normal(t.size)
        freqs, psd = welch_psd(x, fs)
        assert freqs[np.argmax(psd)] == pytest.approx(0.3, abs=0.02)

    def test_parseval_total_power(self):
        fs = 4.0
        rng = np.random.default_rng(6)
        x = rng.standard_normal(4096)
        freqs, psd = welch_psd(x, fs, segment_length=512)
        total_power = np.trapezoid(psd, freqs)
        assert total_power == pytest.approx(np.var(x), rel=0.2)

    def test_short_signal_raises(self):
        with pytest.raises(ValueError):
            welch_psd(np.zeros(4), 4.0)

    def test_invalid_overlap_raises(self):
        with pytest.raises(ValueError):
            welch_psd(np.zeros(100), 4.0, overlap=1.0)

    def test_band_power_sums_to_total(self):
        fs = 4.0
        x = np.random.default_rng(7).standard_normal(2048)
        freqs, psd = welch_psd(x, fs)
        full = band_power(freqs, psd, 0.0, fs / 2)
        halves = band_powers(freqs, psd, [(0.0, 1.0), (1.0, 2.0)])
        assert halves.sum() == pytest.approx(full, rel=0.05)

    def test_band_power_outside_range_is_zero(self):
        freqs = np.linspace(0, 2, 100)
        psd = np.ones_like(freqs)
        assert band_power(freqs, psd, 5.0, 6.0) == 0.0
