"""Bit-exactness of the vectorised front end against its loop oracles.

The R-peak walk, the band-power sums, the single-segment Welch path, the
fused Welch → band-power plan, Burg's scalar side, the resample order check,
the detrend and the window moments in ``src/repro`` each replaced a
straightforward loop or NumPy wrapper.  The loops live on in
``tests/oracles.py``; every property here demands ``np.array_equal`` (or
equal bits) between oracle and production code, on realistic leads and on
the hostile ones — flat, saturated, and spiked with NaN/inf samples — at
fs ∈ {64, 128, 256} and random chunk partitions.

The row kernels (``detrend_rows``, ``ar_burg_rows``,
``welch_band_powers_rows``) must give, row for row, the bits of their 1-D
kernels on any layout of input; the batched extractor
(``FeatureExtractor.extract_batch``) must give the bits and the verdicts of
``extract_beats`` window by window.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dsp import filters, peaks
from repro.dsp.ar import ar_burg, ar_burg_rows
from repro.dsp.filters import apply_fir, correlate_fir, detrend, detrend_rows, moving_average
from repro.dsp.moments import mean, sample_std
from repro.dsp.peaks import StreamingPeakDetector, detect_r_peaks
from repro.dsp.psd import (
    band_power,
    band_powers,
    welch_band_powers,
    welch_band_powers_rows,
    welch_psd,
)
from repro.dsp.resample import resample_beats_to_uniform
from repro.features.ar_features import ar_features, ar_features_rows
from repro.features.extractor import FeatureExtractor, extract_cohort_features
from repro.features.hrv import HF_BAND, LF_BAND, hrv_features
from repro.features.lorenz import lorenz_features
from repro.features.psd_features import PSD_BANDS, psd_features, psd_features_rows
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.respiration import generate_respiration
from repro.signals.rr_model import RRModelParams, generate_rr_series
from repro.signals.windows import extract_windows
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


def _staircase(n, start, end, level, params, refractory):
    """Energy with a local maximum every ``refractory`` samples of the walked
    span, each a hair above the threshold the previous one leaves: every
    maximum fires, and the threshold falls as far as the walk lets it."""
    energy = np.zeros(n)
    for i in range(max(start, 1), min(end, n - 1), refractory):
        energy[i] = params.threshold_fraction * level * (1.0 + 1e-9)
        level += (energy[i] - level) / params.level_memory
    return energy


@st.composite
def walk_inputs(draw):
    """Direct inputs of one threshold walk: energy of hostile magnitude and
    shape, a band-passed signal, a span reaching either end, and a level.

    The ``staircase`` energy is the floor's worst case: one local maximum
    every ``refractory`` samples, each just above the threshold the previous
    fire left, so the threshold falls as far as the walk lets it.
    """
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = peaks.PanTompkinsParams(
        threshold_fraction=draw(st.sampled_from([0.35, 0.05, 0.9])),
        level_memory=draw(st.sampled_from([8.0, 1.0, 30.0])),
    )
    refractory = draw(st.integers(1, 40))
    half_refine = draw(st.integers(0, 20))
    start = draw(st.integers(0, n))
    end = draw(st.integers(start, n + 2))
    level_kind = draw(st.sampled_from(["zero", "seed", "tiny", "huge"]))
    level = {"zero": 0.0, "seed": 1.0, "tiny": 1e-300, "huge": 1e300}[level_kind]
    kind = draw(st.sampled_from(["spread", "scaled", "plateau", "burst", "staircase"] * 2))
    if kind == "spread":
        # Every sample its own magnitude, anywhere in 1e-300 ... 1e300.
        energy = 10.0 ** rng.uniform(-300, 300, size=n)
    elif kind == "staircase":
        energy = _staircase(n, start, end, level if level > 0 else 1.0, params, refractory)
    else:
        energy = rng.exponential(size=n) ** 3 * 10.0 ** draw(st.integers(-300, 290))
        if kind == "plateau":
            energy = np.repeat(energy[: -(-n // 4)], 4)[:n]
        elif kind == "burst":
            lo = int(rng.integers(0, n))
            energy[lo : lo + int(rng.integers(1, 8))] = rng.choice([np.nan, np.inf])
    if level_kind == "seed" and kind != "staircase":
        finite = energy[np.isfinite(energy)]
        level = float(np.percentile(finite, 98)) if finite.size else 1.0
    filtered = rng.standard_normal(n)
    filtered[rng.integers(0, n, size=2)] = draw(st.sampled_from([0.0, np.nan, -np.inf]))
    return energy, filtered, start, end, level, params, refractory, half_refine


@given(args=walk_inputs())
@settings(max_examples=300, deadline=None)
def test_floor_filtered_walk_matches_per_sample_scan(args):
    """The walk that skips maxima below its floor, with the refinement rows
    gathered straight from ``filtered`` when every window is in bounds,
    fires and refines exactly what the per-sample scan does."""
    refined, level = peaks._walk_and_refine(*args)
    ref_refined, ref_level = oracles.scan_and_refine(*args)
    assert np.array_equal(refined, ref_refined)
    assert refined.dtype == ref_refined.dtype
    assert _same_bits(np.float64(level), np.float64(ref_level))


@pytest.mark.parametrize("fraction, memory", [(0.35, 8.0), (0.35, 1.0), (0.05, 1.0), (0.9, 2.0)])
@pytest.mark.parametrize("span", [1, 15, 16, 17, 160, 161])
def test_floor_admits_the_staircase(fraction, memory, span):
    """The floor's worst case: every maximum of the staircase fires."""
    params = peaks.PanTompkinsParams(threshold_fraction=fraction, level_memory=memory)
    refractory, start, n = 16, 5, 200
    energy = _staircase(n, start, start + span, 1.0, params, refractory)
    filtered = np.arange(n, dtype=float) % 7
    args = (energy, filtered, start, start + span, 1.0, params, refractory, 3)
    refined, level = peaks._walk_and_refine(*args)
    ref_refined, ref_level = oracles.scan_and_refine(*args)
    assert refined.size == np.count_nonzero(energy)
    assert np.array_equal(refined, ref_refined)
    assert level == ref_level


@pytest.mark.parametrize("fs", [64.0, 128.0, 256.0])
def test_correlate_fir_matches_np_convolve(fs):
    """Reversed taps through ``np.correlate`` give ``np.convolve``'s bits on
    signals longer than the taps and, through ``np.convolve`` itself, on
    shorter ones."""
    taps = peaks._design_qrs_bandpass(fs, peaks.PanTompkinsParams())
    reversed_taps = np.ascontiguousarray(taps[::-1])
    rng = np.random.default_rng(int(fs))
    lengths = list(range(1, taps.size + 3)) + [300, 777, 2000]
    for n in lengths:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
        expected = oracles.apply_fir(x, taps)
        assert _same_bits(correlate_fir(x, reversed_taps), expected), n
        assert _same_bits(apply_fir(x, taps), expected), n


#: The detector's integration widths at 64, 128, 256 and 512 Hz, and the
#: EDR smoother's.
_MA_WIDTHS = [int(0.150 * fs) for fs in (64.0, 128.0, 256.0, 512.0)] + [3]


@pytest.mark.parametrize("width", _MA_WIDTHS)
def test_moving_average_plan_matches_np_convolve(width):
    """One plan per width gives, at every length, the bits of
    ``np.convolve`` with a normaliser built for that length."""
    rng = np.random.default_rng(width)
    lengths = list(range(1, width + 301)) + [1009, 4096, 23040, 46081]
    for n in lengths:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
        expected = oracles.moving_average(x, width)
        assert _same_bits(moving_average(x, width), expected), n
        if n >= 2:
            derivative = np.gradient(x) ** 2
            assert _same_bits(
                peaks._integrated_energy(x, width), oracles.moving_average(derivative, width)
            ), n


@pytest.mark.parametrize("fs", [64.0, 128.0, 256.0, 512.0])
def test_detector_keeps_one_integration_plan(fs):
    """Passes of ever-changing length share the one plan of their width:
    the moving-average memo grows by one entry, not one per length."""
    rng = np.random.default_rng(int(fs))
    sizes = rng.integers(1, int(6 * fs), size=60)
    x = rng.standard_normal(int(sizes.sum()))
    before = set(filters._MA_PLANS)
    detector = StreamingPeakDetector(fs)
    lo = 0
    for size in sizes:
        detector.process(x[lo : lo + size])
        lo += size
    detector.flush()
    assert set(filters._MA_PLANS) - before <= {detector._integration}


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


def test_seed_level_does_not_depend_on_the_chunking():
    """The seed waits for the samples its window's last energy values read,
    so a stream cut one sample at a time seeds, walks and ends with the
    level of a one-shot stream to the bit (this lead's seed window ends
    near a beat, where a buffer ending at the window's end used to bend
    the energy)."""
    fs = 64.0
    params = ECGWaveformParams(fs=fs)
    cohort = generate_cohort(
        CohortParams(
            n_patients=1, n_sessions=1, session_duration_s=1000.0, total_seizures=0,
            seed=1, ecg_params=params,
        )
    )
    recording = cohort.recordings[0]
    x = synthesize_ecg(
        recording.beat_times_s, 120.0, recording.respiration, np.random.default_rng(1),
        params=params,
    ).ecg_mv
    results = []
    for size in (x.size, 1, 64):
        detector = StreamingPeakDetector(fs)
        beats = [detector.process(x[lo : lo + size])[0] for lo in range(0, x.size, size)]
        beats.append(detector.flush()[0])
        results.append((np.concatenate(beats).tolist(), detector.snapshot().level))
    assert results[1] == results[0]
    assert results[2] == results[0]


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


# --------------------------------------------------------------------------
# Row kernels: detrend, Burg and Welch on a matrix vs their 1-D kernels
# --------------------------------------------------------------------------

#: One-segment Welch (8, 16, 255–257), one segment of a longer signal
#: (383), two segments (384, 385), and the training windows' EDR and
#: tachogram lengths (714–720, four segments).
ROW_LENGTHS = [8, 16, 255, 256, 257, 383, 384, 385] + list(range(714, 721))


@st.composite
def row_matrices(draw):
    """1–70 equal-length rows, some constant, some spiked with NaN or ±inf,
    in C, Fortran, strided or fancy-gathered layout."""
    rows = draw(st.integers(1, 70))
    n = draw(st.sampled_from(ROW_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e6]))
    x = scale * (rng.standard_normal((rows, n)) + np.sin(2 * np.pi * 0.07 * np.arange(n))) + 2.0
    # Constant rows: a zero detrended signal, so every Burg den is 0.
    constant = rng.random(rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    x[constant] = rng.uniform(-3.0, 3.0, size=(int(constant.sum()), 1))
    spikes = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
    x[rng.integers(0, rows, size=len(spikes)), rng.integers(0, n, size=len(spikes))] = spikes
    layout = draw(st.sampled_from(["C", "F", "strided", "gathered"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((rows, 2 * n))
        wide[:, ::2] = x
        x = wide[:, ::2]
    elif layout == "gathered":
        wide = np.zeros((rows, n + 3))
        wide[:, 3:] = x
        x = wide[:, np.arange(3, n + 3)]
    return x


@given(x=row_matrices())
@settings(max_examples=100, deadline=None)
def test_detrend_rows_match_detrend(x):
    assert _same_bits(detrend_rows(x), np.array([detrend(row) for row in x]))


@given(x=row_matrices(), order=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_ar_burg_rows_match_ar_burg(x, order):
    order = min(order, x.shape[1] - 1)
    # The coefficients do not depend on the input's layout (ar_burg works
    # on contiguous copies), so the reference runs on the rows as given.
    expected = np.array([ar_burg(row, order)[0] for row in x])
    assert _same_bits(ar_burg_rows(x, order), expected)


def test_ar_burg_rows_of_constant_rows_are_zero():
    """Detrended constant rows: every den <= 1e-30, every reflection 0."""
    coefficients = ar_burg_rows(detrend_rows(np.full((3, 40), 2.5)), 9)
    assert _same_bits(coefficients, np.array([ar_burg(np.zeros(40), 9)[0]] * 3))
    assert not coefficients.any()


@given(x=row_matrices(), fs=st.sampled_from([4.0, 1.0, 7.3]), edges=band_edges())
@settings(max_examples=100, deadline=None)
def test_welch_band_powers_rows_match_welch_band_powers(x, fs, edges):
    expected = np.array([welch_band_powers(row, fs, edges) for row in x])
    assert _same_bits(welch_band_powers_rows(x, fs, edges), expected.reshape(x.shape[0], -1))


@given(x=row_matrices())
@settings(max_examples=60, deadline=None)
def test_ar_and_psd_features_rows_match_their_1d_features(x):
    """The feature-level row functions, NaN/inf rows and flat rows (zero
    total power) included."""
    assume(x.shape[1] >= 16)
    rows = np.ascontiguousarray(x)
    assert _same_bits(ar_features_rows(x), np.array([ar_features(row) for row in rows]))
    assert _same_bits(psd_features_rows(x), np.array([psd_features(row) for row in rows]))


def test_row_kernels_reject_what_their_1d_kernels_reject():
    with pytest.raises(ValueError):
        welch_band_powers_rows(np.ones((3, 7)), 4.0, PSD_BANDS)
    with pytest.raises(ValueError):
        ar_burg_rows(np.ones((3, 9)), 9)
    with pytest.raises(ValueError):
        ar_burg_rows(np.ones((3, 20)), 0)


# --------------------------------------------------------------------------
# Batched extractor vs extract_beats, window by window
# --------------------------------------------------------------------------

#: Window kinds: usable ones closed by a boundary beat (as many RRs as
#: beats) or by the clock (one RR fewer), and every kind extract_beats
#: rejects or special-cases.
WINDOW_KINDS = [
    "boundary",
    "clock",
    "few_beats",
    "non_increasing",
    "short_tachogram",
    "unresampled_tachogram",
    "flat_edr",
    "nan_amplitude",
    "short_edr",
    "mismatched",
]


def _window(kind, rng):
    span = rng.choice([178.0, 179.0, 180.0])  # a few lengths, so groups form
    rr = rng.uniform(0.7, 0.9, size=260)
    beats = 3.0 + np.cumsum(rr)
    keep = beats < 3.0 + span
    beats, rr = beats[keep], rr[keep]
    noise = 0.02 * rng.standard_normal(beats.size)
    amplitudes = 1.0 + 0.1 * np.sin(2 * np.pi * 0.25 * beats) + noise
    if kind == "clock":
        rr = rr[:-1]
    elif kind == "few_beats":
        beats, rr, amplitudes = beats[:7], rr[:7], amplitudes[:7]
    elif kind == "non_increasing":
        beats[[10, 11]] = beats[[11, 10]]
    elif kind == "short_tachogram":  # the RR sum spans < 2 s: fewer than 8 samples
        rr = np.full(rr.size, 0.005)
    elif kind == "unresampled_tachogram":  # non-increasing running sum of RRs
        rr[5] = -1.0
    elif kind == "flat_edr":
        amplitudes = np.full(beats.size, 1.2)
    elif kind == "nan_amplitude":
        amplitudes[rng.integers(0, beats.size)] = np.nan
    elif kind == "short_edr":  # 12 beats in ~3 s: an EDR too short for PSD features
        beats, rr, amplitudes = beats[:12] * 0.3, rr[:12] * 0.3, amplitudes[:12]
    elif kind == "mismatched":
        amplitudes = amplitudes[:-1]
    return beats, rr, amplitudes


def _per_window(extractor, items):
    rows, kept = [], []
    for idx, item in enumerate(items):
        try:
            rows.append(extractor.extract_beats(*item))
        except ValueError:
            continue
        kept.append(idx)
    return np.array(rows).reshape(len(kept), 53), kept


@given(
    kinds=st.lists(st.sampled_from(WINDOW_KINDS), min_size=1, max_size=80),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_extract_batch_matches_extract_beats(kinds, seed):
    rng = np.random.default_rng(seed)
    items = [_window(kind, rng) for kind in kinds]
    extractor = FeatureExtractor()
    X, kept = extractor.extract_batch(items)
    expected, expected_kept = _per_window(extractor, items)
    assert kept == expected_kept
    assert _same_bits(X, expected)


def test_extract_batch_covers_every_window_kind():
    """Every kind once, with 40 usable windows of one length around them so
    a length group spans two chunks; the verdicts are the expected ones."""
    rng = np.random.default_rng(5)
    items = [_window(kind, rng) for kind in WINDOW_KINDS]
    items += [_window("boundary", np.random.default_rng(77)) for _ in range(40)]
    extractor = FeatureExtractor()
    X, kept = extractor.extract_batch(items)
    expected, expected_kept = _per_window(extractor, items)
    assert kept == expected_kept
    assert _same_bits(X, expected)
    usable = {WINDOW_KINDS[i] for i in kept if i < len(WINDOW_KINDS)}
    assert usable == {"boundary", "clock", "short_tachogram", "unresampled_tachogram", "flat_edr"}
    for kind in ("short_tachogram", "unresampled_tachogram"):
        assert X[kept.index(WINDOW_KINDS.index(kind)), 7] == 0.0


def test_cohort_features_match_per_window_extraction(small_cohort, feature_matrix):
    """extract_cohort_features batches the whole cohort; its rows are the
    per-window extract_window rows, in (session, window start) order."""
    extractor = FeatureExtractor()
    rows, sessions = [], []
    for recording in small_cohort.recordings:
        for window in extract_windows(recording, extractor.params.windowing):
            try:
                rows.append(extractor.extract_window(recording, window))
            except ValueError:
                continue
            sessions.append(recording.session_id)
    assert _same_bits(feature_matrix.X, np.array(rows))
    assert feature_matrix.session_ids.tolist() == sessions
    assert _same_bits(extract_cohort_features(small_cohort).X, feature_matrix.X)
