"""Bit-exactness of the vectorised front end against its loop oracles.

The R-peak walk, the band-power sums, the single-segment Welch path, the
fused Welch → band-power plan, Burg's scalar side, the resample order check,
the detrend and the window moments in ``src/repro`` each replaced a
straightforward loop or NumPy wrapper.  The loops live on in
``tests/oracles.py``; every property here demands ``np.array_equal`` (or
equal bits) between oracle and production code, on realistic leads and on
the hostile ones — flat, saturated, and spiked with NaN/inf samples — at
fs ∈ {64, 128, 256} and random chunk partitions.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import peaks
from repro.dsp.ar import ar_burg
from repro.dsp.filters import detrend, moving_average
from repro.dsp.moments import mean, sample_std
from repro.dsp.peaks import StreamingPeakDetector, detect_r_peaks
from repro.dsp.psd import band_power, band_powers, welch_band_powers, welch_psd
from repro.dsp.resample import resample_beats_to_uniform
from repro.features.hrv import HF_BAND, LF_BAND, hrv_features
from repro.features.lorenz import lorenz_features
from repro.features.psd_features import PSD_BANDS
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.respiration import generate_respiration
from repro.signals.rr_model import RRModelParams, generate_rr_series
from tests import oracles


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, dtypes and bit patterns (so -0.0 != 0.0, NaN == NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# R-peak detector: local-maxima walk + batched refinement vs per-sample scan
# --------------------------------------------------------------------------


@st.composite
def leads(draw):
    """A raw single-lead trace: a beat train, or a hostile variant of one."""
    fs = draw(st.sampled_from([64.0, 128.0, 256.0]))
    seconds = draw(st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(fs * seconds)
    x = 0.05 * rng.standard_normal(n) + 0.2 * np.sin(2 * np.pi * 0.3 * np.arange(n) / fs)
    beats = np.cumsum(rng.uniform(0.35, 1.4, size=int(seconds / 0.35) + 1))
    beats = (beats[beats < seconds] * fs).astype(int)
    x[beats] += rng.uniform(0.5, 2.0, size=beats.size)
    x[np.minimum(beats + 1, n - 1)] -= 0.3
    kind = draw(st.sampled_from(["beats", "flat", "saturated", "spiked"]))
    if kind == "flat":
        x = np.full(n, draw(st.sampled_from([0.0, 1.5, -3.0])))
    elif kind == "saturated":
        rail = draw(st.sampled_from([0.05, 0.3, 1.0]))
        x = np.clip(x, -rail, rail)
    elif kind == "spiked":
        spikes = rng.integers(0, n, size=draw(st.integers(1, 4)))
        x[spikes] = rng.choice([np.nan, np.inf, -np.inf], size=spikes.size)
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=12))))
    return fs, x, cuts


def _stream(x, fs, cuts, detector_cls=StreamingPeakDetector):
    detector = detector_cls(fs)
    out = [detector.process(chunk) for chunk in np.split(x, cuts)]
    out.append(detector.flush())
    indices, _, amplitudes = (np.concatenate(part) for part in zip(*out))
    return indices, amplitudes, detector.snapshot()


@given(lead=leads())
@settings(max_examples=60, deadline=None)
def test_streaming_walk_matches_per_sample_scan(lead):
    fs, x, cuts = lead
    indices, amplitudes, state = _stream(x, fs, cuts)
    with mock.patch.object(peaks, "_walk_and_refine", oracles.scan_and_refine):
        ref_indices, ref_amplitudes, ref_state = _stream(
            x, fs, cuts, oracles.FullBufferDetector
        )
    assert np.array_equal(indices, ref_indices)
    assert np.array_equal(amplitudes, ref_amplitudes, equal_nan=True)
    # Field by field: the buffer of a spiked lead holds NaN, which == rejects.
    assert _same_bits(state.buffer, ref_state.buffer)
    empty = np.empty(0)
    assert replace(state, buffer=empty) == replace(ref_state, buffer=empty)


@given(lead=leads())
@settings(max_examples=60, deadline=None)
def test_one_shot_walk_matches_per_sample_scan(lead):
    fs, x, _ = lead
    indices, times = detect_r_peaks(x, fs)
    with mock.patch.object(peaks, "_walk_and_refine", oracles.scan_and_refine):
        ref_indices, ref_times = detect_r_peaks(x, fs)
    assert np.array_equal(indices, ref_indices)
    assert np.array_equal(times, ref_times)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    width=st.integers(1, 40),
    spikes=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_integrated_energy_matches_np_gradient(seed, n, width, spikes):
    rng = np.random.default_rng(seed)
    filtered = rng.standard_normal(n)
    filtered[rng.integers(0, n, size=len(spikes))] = spikes
    expected = moving_average(np.gradient(filtered) ** 2, width)
    assert _same_bits(peaks._integrated_energy(filtered, width), expected)


@pytest.mark.parametrize(
    "filtered, expected",
    [
        # Ties between an all -inf window and the -inf edge padding resolve
        # to the window's first real sample, as the per-peak argmax does.
        ([-np.inf] * 8, [0, 4]),
        ([1.0, 2.0, 2.0, 0.0, 0.0, 3.0, 1.0, np.nan], [1, 7]),
        ([0.0, np.nan, 9.0, 0.0, 0.0, 0.0, 8.0, 8.0], [1, 6]),
    ],
)
def test_refinement_windows_crossing_the_ends(filtered, expected):
    filtered = np.array(filtered)
    energy = np.array([0.0, 4.0, 1.0, 0.0, 0.0, 0.0, 3.0, 0.0])
    args = (energy, filtered, 1, 7, 1.0, peaks.PanTompkinsParams(), 3, 2)
    assert np.array_equal(peaks._walk_and_refine(*args)[0], expected)
    assert np.array_equal(oracles.scan_and_refine(*args)[0], expected)


# --------------------------------------------------------------------------
# Non-finite samples in the level-seed window
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def long_lead():
    rng = np.random.default_rng(21)
    duration, fs = 900.0, 128.0
    respiration = generate_respiration(duration, [], rng)
    series = generate_rr_series(duration, [], respiration, rng, RRModelParams())
    ecg = synthesize_ecg(series.beat_times_s, duration, respiration, rng, ECGWaveformParams(fs=fs))
    return ecg.ecg_mv, fs


def _count_beats(x, fs, chunk):
    detector = StreamingPeakDetector(fs)
    n = sum(detector.process(x[lo : lo + chunk])[0].size for lo in range(0, x.size, chunk))
    return n + detector.flush()[0].size


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_in_seed_window_does_not_kill_the_stream(long_lead, bad):
    x, fs = long_lead
    clean = _count_beats(x, fs, 512)
    spiked = x.copy()
    spiked[100] = bad
    assert _count_beats(spiked, fs, 512) >= 0.9 * clean
    indices, _ = detect_r_peaks(spiked, fs)
    assert indices.size >= 0.9 * detect_r_peaks(x, fs)[0].size


def test_all_non_finite_seed_window_defers_the_seed(long_lead):
    # Three seconds of NaN: the first two-second seed window holds no finite
    # energy at all, so the seed moves on and detection resumes after it.
    x, fs = long_lead
    clean = _count_beats(x, fs, 512)
    spiked = x.copy()
    spiked[: int(3 * fs)] = np.nan
    assert _count_beats(spiked, fs, 512) >= 0.9 * clean


def test_non_finite_stream_keeps_a_bounded_buffer():
    fs = 128.0
    detector = StreamingPeakDetector(fs)
    for _ in range(200):
        indices, _, _ = detector.process(np.full(512, np.nan))
        assert indices.size == 0
    assert detector.snapshot().level is None
    assert detector.snapshot().buffer.size <= int(2 * fs) + 512 + detector._context


def test_finite_seed_is_unchanged_by_the_finite_filter():
    energy = np.random.default_rng(3).random(256)
    assert peaks._seed_level(energy) == float(np.percentile(energy, 98))


# --------------------------------------------------------------------------
# Band powers: zero-padded row sums vs the per-band slice reductions
# --------------------------------------------------------------------------


@st.composite
def spectra(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(8, 600))
        freqs = np.fft.rfftfreq(n, d=1.0 / draw(st.sampled_from([1.0, 4.0, 64.0])))
    else:  # irregular sorted grid, duplicate frequencies included
        steps = rng.choice([0.0, 0.01, 0.02, 0.05], size=draw(st.integers(0, 120)))
        freqs = np.concatenate(([0.0], np.cumsum(steps)))
    kind = draw(st.sampled_from(["psd", "signed", "zeros", "spiked"]))
    psd = rng.exponential(size=freqs.size) * 10.0 ** rng.integers(-6, 6, size=freqs.size)
    if kind == "signed":
        psd *= rng.choice([-1.0, -0.0, 0.0, 1.0], size=freqs.size)
    elif kind == "zeros":  # signed zeros: every sum must carry the oracle's sign bit
        psd = rng.choice([-0.0, -0.0, 0.0], size=freqs.size)
    elif kind == "spiked" and freqs.size:
        psd[rng.integers(0, freqs.size, size=2)] = rng.choice([np.nan, np.inf], size=2)
    top = float(freqs[-1]) if freqs.size else 1.0
    lows = rng.uniform(-0.1 * top, 1.1 * top, size=draw(st.integers(0, 40)))
    # Narrow (often < 2 points), reversed, and wide (8+ panel) bands.
    widths = rng.choice([0.0, 0.005, 0.05, 0.3 * top, -0.05], size=lows.size)
    edges = np.stack((lows, lows + widths), axis=1)
    return freqs, psd, edges


@given(spectrum=spectra())
@settings(max_examples=200, deadline=None)
def test_band_powers_match_per_band_loop(spectrum):
    freqs, psd, edges = spectrum
    assert _same_bits(band_powers(freqs, psd, edges), oracles.band_powers(freqs, psd, edges))


@given(spectrum=spectra())
@settings(max_examples=100, deadline=None)
def test_band_powers_match_band_power(spectrum):
    freqs, psd, edges = spectrum
    expected = np.array([band_power(freqs, psd, lo, hi) for lo, hi in edges])
    assert np.array_equal(band_powers(freqs, psd, edges), expected, equal_nan=True)


def test_band_powers_row_path_and_loop_path_both_run():
    freqs = np.fft.rfftfreq(240, d=0.25)
    psd = np.random.default_rng(0).random(freqs.size)
    narrow = [(0.05 * k, 0.05 * (k + 1)) for k in range(29)]
    wide = narrow + [(0.0, 1.0)]
    for edges in (narrow, wide):
        assert _same_bits(band_powers(freqs, psd, edges), oracles.band_powers(freqs, psd, edges))


# --------------------------------------------------------------------------
# Welch single-segment path, window moments, HRV and Lorenz features
# --------------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 700),
    segment=st.sampled_from([16, 64, 128, 256, 1024]),
    overlap=st.sampled_from([0.0, 0.5, 0.9]),
    detrend=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_welch_matches_sliding_view_oracle(seed, n, segment, overlap, detrend):
    x = np.random.default_rng(seed).standard_normal(n) + 3.0
    kwargs = dict(segment_length=segment, overlap=overlap, detrend_segments=detrend)
    freqs, psd = welch_psd(x, 4.0, **kwargs)
    ref_freqs, ref_psd = oracles.welch_psd(x, 4.0, **kwargs)
    assert _same_bits(freqs, ref_freqs)
    assert _same_bits(psd, ref_psd)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 0.8, -50.0]),
)
@settings(max_examples=200, deadline=None)
def test_moments_match_numpy(seed, n, scale, offset):
    x = offset + scale * np.random.default_rng(seed).standard_normal(n)
    assert _same_bits(np.float64(mean(x)), np.float64(np.mean(x)))
    assert _same_bits(np.float64(sample_std(x)), np.float64(np.std(x, ddof=1)))


def _reference_hrv(rr, beat_times):
    """The HRV vector through the NumPy wrappers and two band_power calls."""
    successive = np.diff(rr)
    hr = 60.0 / rr
    mean_rr = float(np.mean(rr))
    sdnn = float(np.std(rr, ddof=1))
    times = beat_times[1 : rr.size + 1]
    _, tachogram = resample_beats_to_uniform(times, rr, fs=4.0)
    freqs, psd = welch_psd(tachogram, fs=4.0, segment_length=min(256, tachogram.size))
    lf, hf = band_power(freqs, psd, *LF_BAND), band_power(freqs, psd, *HF_BAND)
    lf_hf = (0.0 if lf <= 1e-12 else 50.0) if hf <= 1e-12 else float(min(lf / hf, 50.0))
    return np.array(
        [
            mean_rr,
            sdnn,
            float(np.sqrt(np.mean(successive**2))),
            float(np.mean(np.abs(successive) > 0.050)),
            float(np.mean(hr)),
            float(np.max(hr)),
            sdnn / mean_rr,
            lf_hf,
        ]
    )


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 300))
@settings(max_examples=100, deadline=None)
def test_hrv_and_lorenz_match_numpy_wrappers(seed, n):
    rng = np.random.default_rng(seed)
    rr = rng.uniform(0.4, 1.4, size=n)
    beat_times = np.concatenate(([0.0], np.cumsum(rr)))
    assert _same_bits(hrv_features(rr, beat_times), _reference_hrv(rr, beat_times))
    diff = (rr[1:] - rr[:-1]) / np.sqrt(2.0)
    summ = (rr[1:] + rr[:-1]) / np.sqrt(2.0)
    sd1 = float(np.std(diff, ddof=1)) * 1000.0
    sd2 = float(np.std(summ, ddof=1)) * 1000.0
    assert lorenz_features(rr)[:2].tolist() == [sd1, sd2]


# --------------------------------------------------------------------------
# Fused Welch -> band powers, Burg, resample and detrend vs their oracles
# --------------------------------------------------------------------------


@st.composite
def band_edges(draw):
    """The PSD features' 29 narrow bands, HRV's two wide ones, or odd bands."""
    kind = draw(st.sampled_from(["psd", "lf_hf", "odd"]))
    if kind == "psd":
        return np.asarray(PSD_BANDS)
    if kind == "lf_hf":
        return np.array([LF_BAND, HF_BAND])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lows = rng.uniform(-0.2, 2.5, size=draw(st.integers(0, 12)))
    # Reversed, narrower than the grid step (< 2 points), narrow and wide.
    widths = rng.choice([-0.1, 0.0, 0.003, 0.05, 0.4, 1.5], size=lows.size)
    return np.stack((lows, lows + widths), axis=1)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 400),
    fs=st.sampled_from([4.0, 1.0, 7.3]),
    edges=band_edges(),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    spikes=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_welch_band_powers_match_the_composition(seed, n, fs, edges, scale, spikes):
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + np.sin(2 * np.pi * 0.3 * np.arange(n) / fs)) + 2.0
    x[rng.integers(0, n, size=len(spikes))] = spikes
    expected = band_powers(*welch_psd(x, fs, min(256, n)), edges)
    assert _same_bits(oracles.welch_band_powers(x, fs, edges), expected)
    assert _same_bits(welch_band_powers(x, fs, edges), expected)
    # A second call runs on the memoised plan.
    assert _same_bits(welch_band_powers(x, fs, edges), expected)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_welch_band_powers_reject_short_signals(n):
    with pytest.raises(ValueError):
        welch_band_powers(np.ones(n), 4.0, PSD_BANDS)


@st.composite
def burg_inputs(draw):
    order = draw(st.integers(1, 12))
    n = draw(st.integers(order + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]))
    kind = draw(st.sampled_from(["noise", "ar", "sine", "zeros", "tiny", "impulse"]))
    if kind == "noise":
        x = rng.standard_normal(n)
    elif kind == "ar":  # a stable AR(2) respiration-like oscillation
        e = rng.standard_normal(n)
        x = np.zeros(n)
        for i in range(n):
            x[i] = e[i] + (1.6 * x[i - 1] - 0.9 * x[i - 2] if i >= 2 else 0.0)
    elif kind == "sine":  # exactly predictable at order 2: errors collapse
        x = np.sin(2 * np.pi * rng.uniform(0.01, 0.45) * np.arange(n))
    elif kind == "zeros":
        x = np.zeros(n)
    elif kind == "tiny":  # every den <= 1e-30: all reflections are zero
        x = 1e-17 * rng.standard_normal(n) / scale
    else:
        x = np.zeros(n)
        x[rng.integers(0, n)] = 1.0
    return scale * x, order


@given(inputs=burg_inputs())
@settings(max_examples=400, deadline=None)
def test_burg_matches_vector_update_oracle(inputs):
    x, order = inputs
    coefficients, noise = ar_burg(x, order)
    ref_coefficients, ref_noise = oracles.ar_burg(x, order)
    assert _same_bits(coefficients, ref_coefficients)
    assert _same_bits(np.float64(noise), np.float64(ref_noise))
    assert type(noise) is float


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 200),
    fs=st.sampled_from([4.0, 1.0, 7.3]),
    origin=st.sampled_from([0.0, 3.7, 86400.0, -12.0]),
)
@settings(max_examples=200, deadline=None)
def test_resample_and_detrend_match_their_oracles(seed, n, fs, origin):
    rng = np.random.default_rng(seed)
    beats = origin + np.cumsum(rng.uniform(0.3, 1.5, size=n))
    values = rng.standard_normal(n)
    t, resampled = resample_beats_to_uniform(beats, values, fs=fs)
    ref_t, ref_resampled = oracles.resample_beats_to_uniform(beats, values, fs=fs)
    assert _same_bits(t, ref_t)
    assert _same_bits(resampled, ref_resampled)
    assert _same_bits(detrend(resampled), oracles.detrend(resampled))
    assert _same_bits(detrend(values), oracles.detrend(values))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.just(720), st.integers(384, 2000)),
    fs=st.sampled_from([4.0, 1.0, 7.3]),
    edges=band_edges(),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    spikes=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_multi_segment_welch_band_powers_match_the_oracle(seed, n, fs, edges, scale, spikes):
    """Signals of 2+ Welch segments (a 180 s training window at 4 Hz is 720
    samples, 4 segments) run on the plan with gathered segment rows."""
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + np.sin(2 * np.pi * 0.3 * np.arange(n) / fs)) + 2.0
    x[rng.integers(0, n, size=len(spikes))] = spikes
    expected = oracles.welch_band_powers(x, fs, edges)
    assert _same_bits(welch_band_powers(x, fs, edges), expected)
    # A second call runs on the memoised plan and segment rows.
    assert _same_bits(welch_band_powers(x, fs, edges), expected)
