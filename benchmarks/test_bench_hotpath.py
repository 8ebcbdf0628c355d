"""Benchmarks: the raw-speed hot path vs the naive per-window recompute.

Two comparisons, both on the paper's 9/15-bit fixed-point detector trained on
the real experiment features:

* **Quantized kernel** — the fused batch pipeline (preallocated per-thread
  workspaces, one ``einsum``/``matmul`` pass with the MAC1 stage in SIMD
  int32 where the exact overflow bound allows, zero intermediate
  allocations) against the one-window-at-a-time reference path that every
  drain cycle used before the fused kernel existed.  The acceptance bar of
  this optimisation round is **10x** the naive quantized windows/second,
  bit-identical scores and labels; the committed record pins the measured
  ~19x.

* **End to end** — the streaming chain (ring-buffer windower, one batched
  classification per drain) against the naive chain (same windows and
  features, per-window reference classification) over an identical
  synthetic beat workload.
  Feature extraction dominates this path, so the asserted floor is modest;
  the absolute windows/second of both chains are recorded.

* **R-peak detector** — the streaming Pan–Tompkins detector (local-maxima
  walk, batched refinement, band-pass filtering of only the walked span)
  against its loop oracle from ``tests/oracles.py`` (per-sample threshold
  scan, per-peak refinement, whole-buffer filtering) on one raw-ECG stream
  in 4 s frames at 64 and 128 Hz.  Identical beats; ns/sample and speedup
  of both are recorded.

* **Feature kernels** — the 53-feature extraction of every 60 s / 15 s window
  of raw 64 Hz ECG streamed through the detector and the windower, with the
  memoised Welch → band-power plan, the scalar-side Burg and the slice-
  checked resample against the chain they replaced (the ``welch_psd`` +
  ``band_powers`` composition and the Burg, resample and detrend oracles of
  ``tests/oracles.py``).  Identical feature bits; µs/window and speedup of
  both are recorded.

* **Training path** — on the labelled cohort ``tests/data/make_golden.py``
  trains its model on: ``smo_solve`` (running I_up/I_low masks updated at
  the two working-set entries, scalar side on Python floats) against the
  mask-rebuilding loop oracle of ``tests/oracles.py``, in ms per solve; and
  the cohort's training-window features, batched by series length through
  the row kernels (``extract_cohort_features``), against the per-window
  ``extract_beats`` chain with the ``welch_psd`` + ``band_powers``
  composition that the spectral plan replaced, in µs per window.  Identical
  α, bias and feature bits.  A second, deterministic gate counts the Python
  calls and C-builtin calls of one warm ``extract_cohort_features`` pass
  (``sys.setprofile``) and pins them exactly.

``BENCH_hotpath.json`` next to this file is the committed per-commit record.
The kernel, detector, feature and training benches refuse to pass when the
measured speedup falls more than 20% below the committed record, so a
regression that erodes the fast path fails CI even while still above its
absolute bar.  The call counts do not drift with host load, but they are a
property of the Python and NumPy versions that made them: an upgrade of
either legitimately re-pins them (``_count_calls`` prints the new figures).
"""

import contextlib
import gc
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.dsp import peaks
from repro.dsp.psd import band_powers, welch_psd
from repro.features.extractor import FeatureExtractor, extract_cohort_features
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import PendingWindow, classify_windows
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.respiration import generate_respiration
from repro.signals.rr_model import RRModelParams, generate_rr_series
from repro.signals.windows import StreamingWindower, WindowingParams, extract_windows
from repro.svm.kernels import PolynomialKernel
from repro.svm.model import class_weighted_penalties, train_svm
from repro.svm.scaling import make_scaler
from repro.svm.smo import smo_solve
from tests import oracles
from tests.oracles import FullBufferDetector, scan_and_refine

from benchmarks.conftest import interleaved_ratio, run_once, timed

#: Kernel workload: one deep drain cycle — 128 patients x 32 pending
#: overlapping windows (``step = window/4``) awaiting classification.
KERNEL_PATIENTS = 128
KERNEL_WINDOWS = 4096

#: End-to-end workload: a small fleet streamed beat-by-beat through the
#: windower -> features -> classifier chain on the overlapping grid.
E2E_PATIENTS = 8
E2E_DURATION_S = 480.0
E2E_WINDOW_S = 60.0
E2E_STEP_S = 15.0

#: Detector workload: one patient's raw ECG, streamed in 4 s frames.
DETECTOR_DURATION_S = 600.0
DETECTOR_FRAME_S = 4.0

#: Feature workload: two patients' raw ECG at 64 Hz, streamed through the
#: detector in 4 s frames and cut into the monitor's 60 s / 15 s windows.
FEATURES_FS = 64.0
FEATURES_PATIENTS = 2
FEATURES_DURATION_S = 900.0
FEATURES_WINDOW_S = 60.0
FEATURES_STEP_S = 15.0

#: Training workload: the labelled cohort of ``tests/data/make_golden.py``
#: (180 s training windows, whose EDR and tachogram hold 4 Welch segments).
TRAIN_COHORT = CohortParams(
    n_patients=3, n_sessions=6, session_duration_s=1500.0, total_seizures=8, seed=7
)

#: Committed per-commit speedup record (see module docstring).
HOTPATH_RECORD = Path(__file__).with_name("BENCH_hotpath.json")

#: Tolerated slack against the committed record: fail on >20% regression.
RECORD_SLACK = 0.8


def _synth_beat_chunks(rng, duration_s, chunk_s):
    """A deterministic beat stream (~72 bpm with jitter), split into chunks
    of ``(beat_times, amplitudes)``."""
    n = int(duration_s / 0.83) + 8
    rr = rng.uniform(0.7, 0.95, size=n)
    times = np.cumsum(rr)
    times = times[times < duration_s]
    amps = 1.0 + 0.2 * rng.standard_normal(times.shape[0])
    chunks = []
    edges = np.arange(0.0, duration_s + chunk_s, chunk_s)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (times >= lo) & (times < hi)
        chunks.append((times[mask], amps[mask]))
    return chunks


def _reference_detector(model, config):
    """The same quantization with the fused batch kernel switched off.

    Its public methods then run the pre-optimisation reference path —
    per-call quantization and the row-by-row int64 accumulation — which is
    exactly what a drain cycle cost before this optimisation round.
    """
    det = QuantizedSVM(model, config)
    det._use_fused = False
    return det


def _measure_kernel(det_fused, det_naive, X, repeats=15):
    """Best-of-N interleaved timing: per-window reference vs fused batch.

    Interleaving reps means transient machine load hits both paths equally;
    best-of-N filters scheduler hiccups (the fused rep is short, so plenty of
    reps are needed for its minimum to find a quiet scheduling slot).  The
    allocator is warmed first so glibc's dynamic mmap threshold settles
    before either path is timed, and both paths run once untimed so one-time
    costs (workspace allocation, import-time caches) stay out of the
    comparison.  The per-window slicing happens inside the timed region,
    exactly as the original naive serving loop sliced.
    """
    for _ in range(50):
        _warm = np.empty(1 << 21)
    del _warm

    n = X.shape[0]
    det_fused.scores_and_labels(X)
    det_naive.scores_and_labels(X[:1])
    best_naive = best_fused = float("inf")
    fused_scores = fused_labels = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            per_window = [det_naive.scores_and_labels(X[i : i + 1]) for i in range(n)]
            best_naive = min(best_naive, time.perf_counter() - t0)

            t0 = time.perf_counter()
            fused_scores, fused_labels = det_fused.scores_and_labels(X)
            best_fused = min(best_fused, time.perf_counter() - t0)
    finally:
        gc.enable()

    naive_scores = np.concatenate([s for s, _ in per_window])
    naive_labels = np.concatenate([l for _, l in per_window])
    return naive_scores, naive_labels, fused_scores, fused_labels, best_naive, best_fused


def test_bench_hotpath_quantized_kernel(benchmark, experiment_data):
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    config = QuantizationConfig(feature_bits=9, coeff_bits=15)
    det_fused = QuantizedSVM(model, config)
    det_naive = _reference_detector(model, config)
    assert det_fused._use_fused

    reps = -(-KERNEL_WINDOWS // features.X.shape[0])
    X = np.tile(features.X, (reps, 1))[:KERNEL_WINDOWS]

    naive_scores, naive_labels, fused_scores, fused_labels, t_naive, t_fused = run_once(
        benchmark, _measure_kernel, det_fused, det_naive, X
    )

    n = X.shape[0]
    speedup = t_naive / t_fused
    print()
    print(
        "pending windows per drain : %d  (%d patients, %d support vectors, 9/15 bits)"
        % (n, KERNEL_PATIENTS, model.n_support_vectors)
    )
    print("naive per-window reference: %8.0f windows/s" % (n / t_naive))
    print(
        "fused batch kernel        : %8.0f windows/s  (%.1fx)"
        % (n / t_fused, speedup)
    )
    benchmark.extra_info["windows"] = n
    benchmark.extra_info["naive_windows_per_s"] = n / t_naive
    benchmark.extra_info["fused_windows_per_s"] = n / t_fused
    benchmark.extra_info["speedup"] = speedup

    # Bit-exactness: the fused kernel must agree with the reference path to
    # the last bit, scores and labels both.
    assert np.array_equal(naive_scores, fused_scores)
    assert np.array_equal(naive_labels, fused_labels)

    # The acceptance bar of this optimisation round.
    assert speedup >= 10.0

    # Regression gate against the committed record.
    if HOTPATH_RECORD.exists():
        record = json.loads(HOTPATH_RECORD.read_text())
        floor = RECORD_SLACK * record["quantized_kernel"]["speedup"]
        assert speedup >= floor, (
            "fused-kernel speedup %.1fx regressed more than 20%% below the "
            "committed record (%.1fx); update benchmarks/BENCH_hotpath.json "
            "only with a justified trade-off" % (speedup, floor / RECORD_SLACK)
        )


def _stream_fast(streams, detector, windowing):
    """The optimised chain: ring windower + batched drain."""
    windowers = [StreamingWindower(windowing) for _ in streams]
    extractor = FeatureExtractor()
    decisions = []
    for chunk_index in range(len(streams[0])):
        pending = []
        for p, stream in enumerate(streams):
            times, amps = stream[chunk_index]
            for window in windowers[p].push(times, amps):
                try:
                    feats = extractor.extract_beat_window(window)
                except ValueError:
                    feats = None
                pending.append(
                    PendingWindow(p, window.start_s, window.end_s, window.n_beats, feats)
                )
        if pending:
            decisions.extend(classify_windows(detector, pending))
    return decisions


def _stream_naive(streams, detector, windowing):
    """The naive chain: same windows and features, per-window classify."""
    windowers = [StreamingWindower(windowing) for _ in streams]
    decisions = []
    for chunk_index in range(len(streams[0])):
        for p, stream in enumerate(streams):
            times, amps = stream[chunk_index]
            for window in windowers[p].push(times, amps):
                extractor = FeatureExtractor()
                try:
                    feats = extractor.extract_beat_window(window)
                except ValueError:
                    feats = None
                pending = [
                    PendingWindow(p, window.start_s, window.end_s, window.n_beats, feats)
                ]
                decisions.extend(classify_windows(detector, pending))
    return decisions


def _measure_e2e(streams, det_fused, det_naive, windowing, pairs=7):
    """Median per-pair speedup of the ring+batched chain over the naive one.

    Alternating back-to-back pairs (``interleaved_ratio``): the two chains
    differ by a few percent of a feature-dominated run, well inside the
    host's run-to-run drift, so a ratio of independent best-ofs swings
    either side of the floor while the median per-pair ratio does not.
    """
    for _ in range(50):
        _warm = np.empty(1 << 21)
    del _warm

    # One untimed pass of each chain so allocator/workspace warm-up and any
    # state left behind by earlier benches in the same process stays out of
    # the comparison.
    _stream_naive(streams, det_naive, windowing)
    _stream_fast(streams, det_fused, windowing)

    gc.collect()
    gc.disable()
    try:
        return interleaved_ratio(
            timed(lambda: _stream_naive(streams, det_naive, windowing)),
            timed(lambda: _stream_fast(streams, det_fused, windowing)),
            pairs,
        )
    finally:
        gc.enable()


def test_bench_hotpath_end_to_end(benchmark, experiment_data):
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    config = QuantizationConfig(feature_bits=9, coeff_bits=15)
    det_fused = QuantizedSVM(model, config)
    det_naive = _reference_detector(model, config)

    windowing = WindowingParams(window_s=E2E_WINDOW_S, step_s=E2E_STEP_S, min_beats=16)
    streams = [
        _synth_beat_chunks(np.random.default_rng(100 + p), E2E_DURATION_S, chunk_s=8.0)
        for p in range(E2E_PATIENTS)
    ]

    speedup, t_naive, t_fast, naive, fast = run_once(
        benchmark, _measure_e2e, streams, det_fused, det_naive, windowing
    )

    n = len(fast)
    print()
    print("windows streamed          : %d  (%d patients)" % (n, E2E_PATIENTS))
    print("naive per-window chain    : %8.0f windows/s" % (n / t_naive))
    print("ring+batched chain        : %8.0f windows/s  (%.2fx)" % (n / t_fast, speedup))
    benchmark.extra_info["windows"] = n
    benchmark.extra_info["naive_windows_per_s"] = n / t_naive
    benchmark.extra_info["fast_windows_per_s"] = n / t_fast
    benchmark.extra_info["speedup"] = speedup

    # Decision-for-decision bit-exactness across the whole chain.
    assert len(naive) == len(fast)
    for a, b in zip(naive, fast):
        assert a == b

    # Feature extraction dominates end to end, so the asserted floor is
    # modest — it only guards against the optimised chain regressing to
    # slower-than-naive.  The speedup is the median per-pair ratio (see
    # ``_measure_e2e``); BENCH_hotpath.json records it.  The kernel bench
    # above carries the 10x bar.
    assert speedup >= 1.02


def _detect_stream(ecg, fs, frame, detector_cls):
    detector = detector_cls(fs)
    beats = [detector.process(ecg[lo : lo + frame])[0] for lo in range(0, ecg.size, frame)]
    beats.append(detector.flush()[0])
    return np.concatenate(beats)


def _measure_detector(ecg, fs, frame, repeats=15):
    """Best-of-N interleaved timing: the loop oracle vs the streaming detector."""

    def oracle():
        with mock.patch.object(peaks, "_walk_and_refine", scan_and_refine):
            return _detect_stream(ecg, fs, frame, FullBufferDetector)

    def fast():
        return _detect_stream(ecg, fs, frame, peaks.StreamingPeakDetector)

    oracle()
    fast()
    best_oracle = best_fast = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            oracle_beats = oracle()
            best_oracle = min(best_oracle, time.perf_counter() - t0)

            t0 = time.perf_counter()
            fast_beats = fast()
            best_fast = min(best_fast, time.perf_counter() - t0)
    finally:
        gc.enable()
    return oracle_beats, fast_beats, best_oracle, best_fast


def _raw_ecg(seed, duration_s, fs):
    rng = np.random.default_rng(seed)
    respiration = generate_respiration(duration_s, [], rng)
    series = generate_rr_series(duration_s, [], respiration, rng, RRModelParams())
    return synthesize_ecg(
        series.beat_times_s, duration_s, respiration, rng, ECGWaveformParams(fs=fs)
    ).ecg_mv


@pytest.mark.parametrize("fs", [64.0, 128.0])
def test_bench_hotpath_detector(benchmark, fs):
    ecg = _raw_ecg(2024, DETECTOR_DURATION_S, fs)
    frame = int(DETECTOR_FRAME_S * fs)

    oracle_beats, fast_beats, t_oracle, t_fast = run_once(
        benchmark, _measure_detector, ecg, fs, frame
    )

    speedup = t_oracle / t_fast
    oracle_ns = t_oracle / ecg.size * 1e9
    fast_ns = t_fast / ecg.size * 1e9
    print()
    print("samples streamed          : %d  (%g Hz, %d-sample frames)" % (ecg.size, fs, frame))
    print("per-sample oracle scan    : %8.0f ns/sample" % oracle_ns)
    print("local-maxima walk         : %8.0f ns/sample  (%.2fx)" % (fast_ns, speedup))
    benchmark.extra_info["samples"] = ecg.size
    benchmark.extra_info["oracle_ns_per_sample"] = oracle_ns
    benchmark.extra_info["ns_per_sample"] = fast_ns
    benchmark.extra_info["speedup"] = speedup

    # Beat for beat: the detector must find exactly the oracle's beats.
    assert np.array_equal(oracle_beats, fast_beats)
    assert fast_beats.size > DETECTOR_DURATION_S / 2  # at least one beat per 2 s

    # Regression gate against the committed record.
    if HOTPATH_RECORD.exists():
        record = json.loads(HOTPATH_RECORD.read_text())["detector"]["%dhz" % fs]
        floor = RECORD_SLACK * record["speedup"]
        assert speedup >= floor, (
            "detector speedup %.2fx at %g Hz regressed more than 20%% below the "
            "committed record (%.2fx); update benchmarks/BENCH_hotpath.json "
            "only with a justified trade-off" % (speedup, fs, record["speedup"])
        )


def _composed_band_powers(x, fs, edges):
    """The Welch estimate, then the band sums: what the fused plan replaced."""
    x = np.asarray(x, dtype=float)
    return band_powers(*welch_psd(x, fs, min(256, x.size)), edges)


#: Where the feature chain binds each kernel, and the kernel it replaced.
_REPLACED_KERNELS = (
    ("repro.features.psd_features.welch_band_powers", _composed_band_powers),
    ("repro.features.hrv.welch_band_powers", _composed_band_powers),
    ("repro.features.hrv.resample_beats_to_uniform", oracles.resample_beats_to_uniform),
    ("repro.features.edr.resample_beats_to_uniform", oracles.resample_beats_to_uniform),
    ("repro.features.edr.detrend", oracles.detrend),
    ("repro.features.ar_features.detrend", oracles.detrend),
    ("repro.features.ar_features.ar_burg", oracles.ar_burg),
)


def _beat_windows():
    windows = []
    frame = int(DETECTOR_FRAME_S * FEATURES_FS)
    windowing = WindowingParams(window_s=FEATURES_WINDOW_S, step_s=FEATURES_STEP_S, min_beats=16)
    for p in range(FEATURES_PATIENTS):
        ecg = _raw_ecg(300 + p, FEATURES_DURATION_S, FEATURES_FS)
        detector = peaks.StreamingPeakDetector(FEATURES_FS)
        windower = StreamingWindower(windowing)
        for lo in range(0, ecg.size, frame):
            _, times, amplitudes = detector.process(ecg[lo : lo + frame])
            windows.extend(windower.push(times, amplitudes))
    return windows


def _featurize(windows):
    extractor = FeatureExtractor()
    rows = []
    for window in windows:
        try:
            rows.append(extractor.extract_beat_window(window))
        except ValueError:
            rows.append(None)
    return rows


def _featurize_replaced(windows):
    with contextlib.ExitStack() as stack:
        for target, kernel in _REPLACED_KERNELS:
            stack.enter_context(mock.patch(target, kernel))
        return _featurize(windows)


def _measure_features(windows, pairs=15):
    _featurize_replaced(windows)
    _featurize(windows)
    gc.collect()
    gc.disable()
    try:
        return interleaved_ratio(
            timed(lambda: _featurize_replaced(windows)), timed(lambda: _featurize(windows)), pairs
        )
    finally:
        gc.enable()


def test_bench_hotpath_features(benchmark):
    windows = _beat_windows()
    speedup, t_oracle, t_fast, oracle_rows, fast_rows = run_once(
        benchmark, _measure_features, windows
    )

    n = len(windows)
    oracle_us = t_oracle / n * 1e6
    fast_us = t_fast / n * 1e6
    print()
    print(
        "windows featurised        : %d  (%g Hz, %g s every %g s)"
        % (n, FEATURES_FS, FEATURES_WINDOW_S, FEATURES_STEP_S)
    )
    print("replaced kernels          : %8.0f us/window" % oracle_us)
    print("plan + scalar-side Burg   : %8.0f us/window  (%.2fx)" % (fast_us, speedup))
    benchmark.extra_info["windows"] = n
    benchmark.extra_info["oracle_us_per_window"] = oracle_us
    benchmark.extra_info["us_per_window"] = fast_us
    benchmark.extra_info["speedup"] = speedup

    # Window for window, the same feature bits (or the same unusable verdict).
    assert sum(row is not None for row in fast_rows) > 0.9 * n
    for a, b in zip(oracle_rows, fast_rows):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()

    # Regression gate against the committed record.
    if HOTPATH_RECORD.exists():
        record = json.loads(HOTPATH_RECORD.read_text())["features"]
        floor = RECORD_SLACK * record["speedup"]
        assert speedup >= floor, (
            "feature-kernel speedup %.2fx regressed more than 20%% below the "
            "committed record (%.2fx); update benchmarks/BENCH_hotpath.json "
            "only with a justified trade-off" % (speedup, record["speedup"])
        )


def _per_window_training_features(cohort):
    """The cohort's features window by window through ``extract_beats``,
    with both ``welch_band_powers`` bindings on the composition the
    multi-segment plan replaced: the training chain as it was before both
    the plan and the batched extractor."""
    extractor = FeatureExtractor()
    rows = []
    with contextlib.ExitStack() as stack:
        for target, kernel in _REPLACED_KERNELS[:2]:
            stack.enter_context(mock.patch(target, kernel))
        for recording in cohort.recordings:
            for window in extract_windows(recording, extractor.params.windowing):
                try:
                    rows.append(extractor.extract_window(recording, window))
                except ValueError:
                    continue
    return np.array(rows)


def _training_problem(features):
    """The Gram matrix, labels and penalties ``train_svm`` hands the solver."""
    X = make_scaler("standard").fit(features.X).transform(features.X)
    y = features.y.astype(float)
    return PolynomialKernel(degree=2)(X, X), y, class_weighted_penalties(y, 1.0, balanced=True)


def _measure_train(cohort, pairs=15):
    features = extract_cohort_features(cohort)
    gram, y, params = _training_problem(features)
    _per_window_training_features(cohort)
    oracles.smo_solve(gram, y, params)
    smo_solve(gram, y, params)
    gc.collect()
    gc.disable()
    try:
        smo = interleaved_ratio(
            timed(lambda: oracles.smo_solve(gram, y, params)),
            timed(lambda: smo_solve(gram, y, params)),
            pairs,
        )
        extract = interleaved_ratio(
            timed(lambda: _per_window_training_features(cohort)),
            timed(lambda: extract_cohort_features(cohort)),
            pairs,
        )
    finally:
        gc.enable()
    return features, smo, extract


def test_bench_hotpath_train(benchmark):
    cohort = generate_cohort(TRAIN_COHORT)
    features, smo, extract = run_once(benchmark, _measure_train, cohort)
    smo_speedup, t_oracle_smo, t_smo, oracle_result, result = smo
    features_speedup, t_oracle_features, t_features, oracle_features, fast_features = extract

    n = features.X.shape[0]
    print()
    print(
        "training problem          : %d windows x %d features, %d SMO iterations"
        % (n, features.X.shape[1], result.n_iterations)
    )
    print("mask-rebuilding SMO       : %8.1f ms/solve" % (t_oracle_smo * 1e3))
    print("incremental-mask SMO      : %8.1f ms/solve  (%.2fx)" % (t_smo * 1e3, smo_speedup))
    print("per-window composed Welch : %8.0f us/window" % (t_oracle_features / n * 1e6))
    print(
        "batched row kernels       : %8.0f us/window  (%.2fx)"
        % (t_features / n * 1e6, features_speedup)
    )
    benchmark.extra_info["windows"] = n
    benchmark.extra_info["smo_iterations"] = result.n_iterations
    benchmark.extra_info["oracle_ms_per_solve"] = t_oracle_smo * 1e3
    benchmark.extra_info["ms_per_solve"] = t_smo * 1e3
    benchmark.extra_info["smo_speedup"] = smo_speedup
    benchmark.extra_info["oracle_us_per_window"] = t_oracle_features / n * 1e6
    benchmark.extra_info["us_per_window"] = t_features / n * 1e6
    benchmark.extra_info["features_speedup"] = features_speedup

    # The same solution and the same feature bits.
    assert result.alpha.tobytes() == oracle_result.alpha.tobytes()
    assert result.bias == oracle_result.bias
    assert result.n_iterations == oracle_result.n_iterations
    assert fast_features.X.tobytes() == oracle_features.tobytes()
    assert fast_features.X.tobytes() == features.X.tobytes()

    # Regression gate against the committed record.
    if HOTPATH_RECORD.exists():
        record = json.loads(HOTPATH_RECORD.read_text())["train"]
        for name, speedup in (("smo", smo_speedup), ("features", features_speedup)):
            floor = RECORD_SLACK * record[name + "_speedup"]
            assert speedup >= floor, (
                "training %s speedup %.2fx regressed more than 20%% below the "
                "committed record (%.2fx); update benchmarks/BENCH_hotpath.json "
                "only with a justified trade-off" % (name, speedup, record[name + "_speedup"])
            )


def _count_calls(fn):
    """``(python_calls, c_calls)`` that ``fn()`` makes, as ``sys.setprofile``
    sees them: Python function calls and calls of C builtins (NumPy's C
    methods and functions included; operator ufuncs such as ``a + b`` raise
    no event)."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def test_bench_hotpath_train_call_counts():
    """Calls per training window of a warm ``extract_cohort_features``: a
    work count that host load cannot move, gated exactly.

    Two untimed passes first, so every memoised plan exists (a bounded memo
    cleared by the first pass is refilled by the second).  The exact pin
    holds for the Python and NumPy versions recorded with it; under other
    versions the test reports the counts to re-pin and skips.
    """
    cohort = generate_cohort(TRAIN_COHORT)
    n = extract_cohort_features(cohort).n_samples
    extract_cohort_features(cohort)
    python_calls, c_calls = _count_calls(lambda: extract_cohort_features(cohort))
    print()
    print(
        "warm extract_cohort_features: %d Python calls, %d C calls "
        "(%.1f / %.1f per window, %d windows)"
        % (python_calls, c_calls, python_calls / n, c_calls / n, n)
    )
    record = json.loads(HOTPATH_RECORD.read_text())["train"]["calls"]
    pinned = (record["python_version"], record["numpy_version"])
    running = ("%d.%d" % sys.version_info[:2], np.__version__)
    if running != pinned:
        pytest.skip(
            "call counts are pinned for Python %s / NumPy %s; re-pin "
            "benchmarks/BENCH_hotpath.json for %s / %s (measured %d Python, %d C calls)"
            % (pinned + running + (python_calls, c_calls))
        )
    assert record["windows"] == n
    pinned_counts = (record["python_calls"], record["c_calls"])
    assert (python_calls, c_calls) == pinned_counts, (
        "warm extract_cohort_features made %d Python and %d C calls; the "
        "committed record pins %d and %d" % ((python_calls, c_calls) + pinned_counts)
    )
