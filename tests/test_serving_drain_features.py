"""Drain-time featurisation changes no decision bit.

A monitor's windows reach the fleet queue carrying their beat arrays; the
drain that classifies them featurises the whole queue — every shard's, on a
sharded fleet — in one :meth:`FeatureExtractor.extract_batch
<repro.features.extractor.FeatureExtractor.extract_batch>` call, whose
windows share row kernels when their series lengths match.  The contract
pinned here: for any drain size, shard count and reshard schedule, mixed
with already-featurised windows from ``enqueue`` and with unusable windows
in the same drain, every decision is bit-identical to featurising its window
alone with ``extract_beats`` and classifying it with ``classify_windows``.
A drain whose classifier raises leaves every window queued, and its retry
decides the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.extractor import FeatureExtractor
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    MonitorFleet,
    PendingWindow,
    ShardDrainError,
    ShardedFleet,
    StreamingMonitor,
    classify_windows,
)
from repro.serving.streaming import featurise
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.respiration import generate_respiration
from repro.signals.rr_model import RRModelParams, generate_rr_series
from repro.signals.windows import BeatWindow, WindowingParams

FS = 64.0
WINDOWING = WindowingParams(window_s=60.0, step_s=15.0, min_beats=40)
FRAME = int(8.0 * FS)
PATIENTS = (3, 11, 12, 40)
DURATION_S = 420.0


@pytest.fixture(scope="module")
def streams():
    """Raw 64 Hz ECG of a few patients, in 8 s frames."""
    out = {}
    for pid in PATIENTS:
        rng = np.random.default_rng(900 + pid)
        respiration = generate_respiration(DURATION_S, [], rng)
        series = generate_rr_series(DURATION_S, [], respiration, rng, RRModelParams())
        ecg = synthesize_ecg(
            series.beat_times_s, DURATION_S, respiration, rng, ECGWaveformParams(fs=FS)
        ).ecg_mv
        out[pid] = [ecg[lo : lo + FRAME] for lo in range(0, ecg.size, FRAME)]
    return out


@pytest.fixture(scope="module")
def detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


def _beat_window(start_s, times, amplitudes):
    times = np.asarray(times, dtype=float)
    return BeatWindow(start_s, start_s + 60.0, times, np.diff(times), np.asarray(amplitudes))


@pytest.fixture(scope="module")
def extras(streams, feature_matrix):
    """Windows a drain meets besides its monitors' own: already-featurised
    ``enqueue`` windows, and beat-carrying windows that come out unusable
    (a NaN amplitude, an EDR series too short, too few beats)."""
    monitor = StreamingMonitor(PATIENTS[0], FS, windowing=WINDOWING)
    real = [w.beats for chunk in streams[PATIENTS[0]] for w in monitor.push(chunk) if w.beats]
    out = []
    for k in range(8):
        out.append(PendingWindow(500 + k, 60.0 * k, 60.0 * k + 60.0, 70, feature_matrix.X[k]))
    for k, beats in enumerate(real[:4]):
        amplitudes = beats.r_amplitudes_mv.copy()
        amplitudes[5] = np.nan
        nan = BeatWindow(beats.start_s, beats.end_s, beats.beat_times_s, beats.rr_s, amplitudes)
        out.append(PendingWindow(600 + k, beats.start_s, beats.end_s, beats.n_beats, beats=nan))
    for k in range(3):  # one length group: the row kernels refuse it together
        short = _beat_window(0.0, 0.3 * np.arange(12), np.ones(12) + 0.01 * k)
        out.append(PendingWindow(700 + k, 0.0, 60.0, 12, beats=short))
    out.append(PendingWindow(710, 0.0, 60.0, 3, beats=_beat_window(0.0, [1, 2, 3], [1, 1, 1])))
    out.append(PendingWindow(711, 0.0, 60.0, 30))  # under min_beats, as a monitor queues it
    return out


def _alone(window: PendingWindow, detector):
    """The window's decision from ``extract_beats`` and a one-window classify."""
    beats = window.beats
    if beats is None:
        features = window.features  # featurised already, or never usable
    else:
        try:
            features = FeatureExtractor().extract_beats(
                beats.beat_times_s, beats.rr_s, beats.r_amplitudes_mv
            )
        except ValueError:
            features = None
    lone = PendingWindow(window.patient_id, window.start_s, window.end_s, window.n_beats, features)
    return classify_windows(detector, [lone])[0]


@pytest.fixture(scope="module")
def reference(streams, extras, detector):
    """Every window's decision, featurised and classified alone."""
    decisions = {}
    for pid, chunks in streams.items():
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING)
        windows = [w for chunk in chunks for w in monitor.push(chunk)] + monitor.finish()
        for window in windows:
            decisions[(pid, window.start_s)] = _alone(window, detector)
    for window in _copies(extras):
        decisions[(window.patient_id, window.start_s)] = _alone(window, detector)
    assert sum(d.usable for d in decisions.values()) > 60
    assert sum(not d.usable for d in decisions.values()) >= len(extras) - 8
    return decisions


def _copies(extras):
    """Fresh copies: featurising drops a window's beats, so each run gets its
    own (the extras' features are set, or never computed)."""
    return [
        PendingWindow(
            w.patient_id, w.start_s, w.end_s, w.n_beats, None if w.beats else w.features, w.beats
        )
        for w in extras
    ]


def _frames(streams):
    """Round-robin arrival order of every patient's frames."""
    order = []
    for i in range(max(len(c) for c in streams.values())):
        order += [(pid, chunks[i]) for pid, chunks in streams.items() if i < len(chunks)]
    return order


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_drains_decide_like_windows_featurised_alone(streams, extras, detector, reference, data):
    n_shards = data.draw(st.integers(1, 3), label="n_shards")
    fleet = ShardedFleet(detector, FS, n_shards=n_shards, windowing=WINDOWING)
    frames = _frames(streams)
    reshard_at = data.draw(st.integers(0, len(frames) - 1), label="reshard_at")
    reshard_to = data.draw(st.integers(1, 3), label="reshard_to")
    pool = _copies(extras)
    enqueue_at = sorted(
        data.draw(
            st.lists(st.integers(0, len(frames) - 1), min_size=1, max_size=4), label="enqueue_at"
        )
    )
    target = data.draw(st.integers(1, 64), label="drain size")
    decisions, sizes = [], []
    for i, (pid, chunk) in enumerate(frames):
        if i == reshard_at:
            fleet.reshard(reshard_to)
        fleet.push(pid, chunk)
        while enqueue_at and enqueue_at[0] == i and pool:
            enqueue_at.pop(0)
            take = data.draw(st.integers(1, len(pool)), label="enqueued")
            fleet.enqueue(pool[:take])
            pool = pool[take:]
        if fleet.pending_count >= target:
            sizes.append(fleet.pending_count)
            decisions += fleet.drain()
            target = data.draw(st.integers(1, 64), label="drain size")
    fleet.enqueue(pool)
    fleet.finish()
    sizes.append(fleet.pending_count)
    decisions += fleet.drain()
    assert max(sizes) <= 64 + len(extras)
    assert len(decisions) == len(reference)
    for decision in decisions:
        assert decision == reference[(decision.patient_id, decision.start_s)]


class _Flaky:
    """A backend that raises while ``failing`` is set."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.failing = True

    @property
    def n_features(self) -> int:
        return self.backend.n_features

    def scores_and_labels(self, X):
        if self.failing:
            raise RuntimeError("classifier down")
        return self.backend.scores_and_labels(X)


@pytest.mark.parametrize("n_shards", [0, 2])
def test_failed_drain_keeps_windows_queued_and_retries_identically(
    streams, extras, detector, reference, n_shards
):
    backend = _Flaky(detector)
    if n_shards:
        fleet = ShardedFleet(backend, FS, n_shards=n_shards, windowing=WINDOWING)
    else:
        fleet = MonitorFleet(backend, FS, windowing=WINDOWING)
    for pid, chunk in _frames(streams):
        fleet.push(pid, chunk)
    fleet.enqueue(_copies(extras))
    fleet.finish()
    queued = fleet.pending_count
    with pytest.raises(ShardDrainError if n_shards else RuntimeError):
        fleet.drain()
    assert fleet.pending_count == queued == len(reference)
    backend.failing = False
    decisions = fleet.drain()
    assert fleet.pending_count == 0
    assert {(d.patient_id, d.start_s): d for d in decisions} == reference


def test_a_featurised_window_drops_its_beats(streams):
    monitor = StreamingMonitor(PATIENTS[1], FS, windowing=WINDOWING)
    windows = [w for chunk in streams[PATIENTS[1]][:12] for w in monitor.push(chunk)]
    assert windows and all(w.beats is not None for w in windows)
    featurise(windows)
    assert all(w.beats is None and w.features is not None for w in windows)
