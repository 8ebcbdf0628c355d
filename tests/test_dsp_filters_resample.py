"""Unit tests for the filtering and resampling primitives."""

import numpy as np
import pytest

from repro.dsp.filters import apply_fir, bandpass_fir, detrend, difference, moving_average
from repro.dsp.resample import resample_beats_to_uniform, resample_rr_to_uniform
from repro.features.extractor import FeatureExtractor


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        x = np.full(50, 3.0)
        assert np.allclose(moving_average(x, 5), 3.0)

    def test_width_one_returns_copy(self):
        x = np.arange(10.0)
        out = moving_average(x, 1)
        assert np.allclose(out, x)
        assert out is not x

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        assert np.var(moving_average(x, 9)) < np.var(x)

    def test_empty_input(self):
        assert moving_average(np.array([]), 5).size == 0


class TestDifferenceDetrend:
    def test_difference_length_preserved(self):
        x = np.arange(10.0)
        d = difference(x)
        assert d.shape == x.shape
        assert d[0] == 0.0
        assert np.allclose(d[1:], 1.0)

    def test_detrend_removes_linear_trend(self):
        t = np.arange(200.0)
        x = 3.0 + 0.5 * t
        assert np.allclose(detrend(x), 0.0, atol=1e-9)

    def test_detrend_preserves_oscillation(self):
        t = np.arange(400.0)
        osc = np.sin(2 * np.pi * t / 20.0)
        x = osc + 0.01 * t
        out = detrend(x)
        assert np.corrcoef(out, osc)[0, 1] > 0.99

    def test_detrend_short_input(self):
        assert np.allclose(detrend(np.array([5.0, 5.0])), 0.0)


class TestBandpassFir:
    def test_invalid_band_raises(self):
        with pytest.raises(ValueError):
            bandpass_fir(10.0, 5.0, 100.0)
        with pytest.raises(ValueError):
            bandpass_fir(1.0, 60.0, 100.0)

    def test_passband_gain_near_unity(self):
        fs = 128.0
        taps = bandpass_fir(5.0, 18.0, fs, numtaps=129)
        t = np.arange(0, 10.0, 1.0 / fs)
        tone = np.sin(2 * np.pi * 10.0 * t)
        out = apply_fir(tone, taps)
        # Compare RMS in the central region to avoid edge effects.
        sl = slice(200, -200)
        assert np.std(out[sl]) == pytest.approx(np.std(tone[sl]), rel=0.15)

    def test_stopband_attenuation(self):
        fs = 128.0
        taps = bandpass_fir(5.0, 18.0, fs, numtaps=129)
        t = np.arange(0, 10.0, 1.0 / fs)
        low_tone = np.sin(2 * np.pi * 0.3 * t)
        out = apply_fir(low_tone, taps)
        assert np.std(out[200:-200]) < 0.2 * np.std(low_tone[200:-200])

    def test_apply_fir_preserves_length(self):
        taps = bandpass_fir(5.0, 18.0, 128.0)
        x = np.random.default_rng(0).standard_normal(1000)
        assert apply_fir(x, taps).shape == x.shape


class TestResampling:
    def test_uniform_grid_spacing(self):
        beats = np.cumsum(np.full(100, 0.8))
        values = np.sin(beats)
        t, resampled = resample_beats_to_uniform(beats, values, fs=4.0)
        assert np.allclose(np.diff(t), 0.25)
        assert resampled.shape == t.shape

    def test_interpolation_exact_at_beats(self):
        beats = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([0.0, 1.0, 0.0, 1.0])
        t, resampled = resample_beats_to_uniform(beats, values, fs=1.0)
        assert np.allclose(resampled, values)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            resample_beats_to_uniform(np.array([0.0, 1.0]), np.array([1.0]))

    def test_non_monotonic_raises(self):
        with pytest.raises(ValueError):
            resample_beats_to_uniform(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_too_few_beats_raise(self):
        with pytest.raises(ValueError):
            resample_beats_to_uniform(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            resample_rr_to_uniform(np.array([0.0, 1.0]))

    def test_rr_tachogram_values(self):
        beats = np.array([0.0, 0.8, 1.7, 2.5, 3.4])
        t, rr = resample_rr_to_uniform(beats, fs=4.0)
        assert rr.min() >= 0.8 - 1e-9
        assert rr.max() <= 0.9 + 1e-9


class TestNonFiniteBeatTimes:
    """Non-finite beat times are a ``ValueError``, never an overflow or a pass."""

    @staticmethod
    def _beats(n=12):
        return np.cumsum(np.full(n, 0.8))

    @pytest.mark.parametrize("where", [0, 5, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises_value_error(self, where, bad):
        beats = self._beats()
        beats[where] = bad
        with pytest.raises(ValueError):
            resample_beats_to_uniform(beats, np.zeros(beats.size))

    def test_span_overflowing_to_inf_raises_value_error(self):
        with pytest.raises(ValueError):
            resample_beats_to_uniform(np.array([-1e308, 1e308]), np.zeros(2))

    def test_infinite_beat_time_gives_an_unusable_window(self):
        beats = self._beats(80)
        rr = np.full(80, 0.8)
        amplitudes = 1.0 + 0.1 * np.sin(beats)
        extractor = FeatureExtractor()
        assert extractor.extract_beats(beats, rr, amplitudes).shape == (53,)
        beats[-1] = np.inf
        with pytest.raises(ValueError):
            extractor.extract_beats(beats, rr, amplitudes)
        X, kept = extractor.extract_batch([(beats, rr, amplitudes)])
        assert X.shape == (0, 53) and kept == []
