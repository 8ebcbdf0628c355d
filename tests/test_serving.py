"""Tests for the streaming / batched serving engine (:mod:`repro.serving`).

Covers the incremental windower, the single-patient monitor, the fleet's
batched drain — including the acceptance requirement that batched fixed-point
predictions are bit-identical to a per-window loop on a 4-patient cohort —
and float-vs-quantized parity of the batched inference path.
"""

import numpy as np
import pytest

from repro.features.catalog import N_FEATURES
from repro.features.extractor import FeatureExtractor
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    AnyOf,
    ChunkCountPolicy,
    LatencyPolicy,
    MonitorFleet,
    PendingWindow,
    PendingWindowPolicy,
    StreamingMonitor,
    classify_windows,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import synthesize_ecg
from repro.signals.windows import StreamingWindower, WindowingParams

FS = 128.0

#: 4-patient cohort (one ~17-minute session each) for the fleet parity tests.
FLEET_COHORT = CohortParams(
    n_patients=4,
    n_sessions=4,
    session_duration_s=1000.0,
    total_seizures=4,
    seed=11,
)


@pytest.fixture(scope="module")
def fleet_streams():
    """Per-patient raw ECG chunk streams for the fleet tests."""
    cohort = generate_cohort(FLEET_COHORT)
    rng = np.random.default_rng(5)
    streams = {}
    for recording in cohort.recordings:
        ecg = synthesize_ecg(
            recording.beat_times_s, recording.duration_s, recording.respiration, rng
        )
        streams[recording.patient_id] = [
            ecg.ecg_mv[lo : lo + 3700] for lo in range(0, ecg.ecg_mv.size, 3700)
        ]
    return streams


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


class TestStreamingWindower:
    def test_boundary_rr_included(self):
        windower = StreamingWindower(WindowingParams(window_s=10.0, step_s=10.0))
        beats = np.arange(0.5, 24.6, 1.0)
        out = windower.push(beats, np.ones_like(beats))
        assert len(out) == 2
        first = out[0]
        assert first.start_s == 0.0 and first.end_s == 10.0
        assert first.n_beats == 10
        # RR intervals whose starting beat is inside the window, including the
        # one spanning the window boundary.
        assert first.rr_s.shape[0] == 10
        assert np.allclose(first.rr_s, 1.0)
        assert first.r_amplitudes_mv.shape[0] == first.n_beats

    def test_incremental_pushes_equal_one_shot(self):
        params = WindowingParams(window_s=10.0, step_s=10.0)
        beats = np.sort(np.random.default_rng(2).uniform(0.0, 55.0, size=60))
        amplitudes = np.linspace(1.0, 2.0, beats.size)

        one_shot = StreamingWindower(params).push(beats, amplitudes)
        incremental = []
        windower = StreamingWindower(params)
        for lo in range(0, beats.size, 7):
            incremental.extend(
                windower.push(beats[lo : lo + 7], amplitudes[lo : lo + 7])
            )
        assert len(one_shot) == len(incremental)
        for a, b in zip(one_shot, incremental):
            assert a.start_s == b.start_s and a.end_s == b.end_s
            assert np.array_equal(a.beat_times_s, b.beat_times_s)
            assert np.array_equal(a.rr_s, b.rr_s)
            assert np.array_equal(a.r_amplitudes_mv, b.r_amplitudes_mv)

    def test_clock_closes_beatless_window(self):
        windower = StreamingWindower(WindowingParams(window_s=10.0, step_s=10.0))
        assert windower.push(np.empty(0), np.empty(0)) == []
        # Clock far past the first window end: the empty window is emitted.
        out = windower.advance(10.0 + windower.boundary_grace_s)
        assert len(out) == 1
        assert out[0].n_beats == 0

    def test_flush_drops_trailing_partial_window(self):
        windower = StreamingWindower(WindowingParams(window_s=10.0, step_s=10.0))
        beats = np.arange(0.5, 14.0, 1.0)
        emitted = windower.push(beats, np.ones_like(beats))
        emitted += windower.flush()
        # Only [0, 10) has fully elapsed; [10, 20) is partial and dropped.
        assert [w.start_s for w in emitted] == [0.0]

    def test_out_of_order_beats_rejected(self):
        windower = StreamingWindower()
        windower.push(np.array([5.0, 6.0]), np.ones(2))
        with pytest.raises(ValueError):
            windower.push(np.array([4.0]), np.ones(1))

    def test_overlapping_stride(self):
        windower = StreamingWindower(WindowingParams(window_s=10.0, step_s=5.0))
        beats = np.arange(0.25, 30.0, 0.5)
        out = windower.push(beats, np.ones_like(beats))
        starts = [w.start_s for w in out]
        assert starts == [0.0, 5.0, 10.0, 15.0]
        assert all(w.end_s - w.start_s == 10.0 for w in out)
        assert all(w.n_beats == 20 for w in out)


class TestFeatureExtractorBatch:
    def test_batch_matches_per_window_and_skips_bad(self):
        rng = np.random.default_rng(9)
        rr_good = 0.8 + 0.05 * rng.standard_normal(220)
        beats_good = np.cumsum(rr_good)
        amps_good = 1.0 + 0.1 * np.sin(0.3 * beats_good)
        good = (beats_good, np.diff(np.append(beats_good, beats_good[-1] + 0.8)), amps_good)
        bad = (beats_good[:5], np.diff(beats_good[:5]), amps_good[:5])

        extractor = FeatureExtractor()
        X, kept = extractor.extract_batch([good, bad, good])
        assert kept == [0, 2]
        assert X.shape == (2, N_FEATURES)
        assert np.array_equal(X[0], extractor.extract_beats(*good))
        assert np.array_equal(X[0], X[1])

    def test_batch_all_unusable(self):
        extractor = FeatureExtractor()
        X, kept = extractor.extract_batch([(np.empty(0), np.empty(0), np.empty(0))])
        assert X.shape == (0, N_FEATURES) and kept == []


class TestClassifyWindows:
    def test_unusable_windows_never_alarm(self, quantized_detector):
        pending = [
            PendingWindow(patient_id=1, start_s=0.0, end_s=180.0, n_beats=3, features=None)
        ]
        decisions = classify_windows(quantized_detector, pending)
        assert len(decisions) == 1
        assert not decisions[0].usable and not decisions[0].alarm
        assert decisions[0].score is None

    def test_empty_batch(self, quantized_detector):
        assert classify_windows(quantized_detector, []) == []


class TestStreamingMonitor:
    def test_monitor_emits_expected_window_grid(self, fleet_streams, quantized_detector):
        patient_id, chunks = next(iter(fleet_streams.items()))
        monitor = StreamingMonitor(patient_id, FS)
        decisions = []
        for chunk in chunks:
            decisions.extend(classify_windows(quantized_detector, monitor.push(chunk)))
        decisions.extend(classify_windows(quantized_detector, monitor.finish()))
        # 1000 s of signal -> five complete 180 s windows.
        assert [d.start_s for d in decisions] == [0.0, 180.0, 360.0, 540.0, 720.0]
        assert all(d.end_s - d.start_s == 180.0 for d in decisions)
        assert all(d.usable for d in decisions)
        assert all(d.score is not None for d in decisions)
        assert monitor.n_windows == 5


class TestMonitorFleetParity:
    def _per_window_loop(self, streams, classifier):
        """The naive baseline: independent monitors, one predict per window."""
        predictions = {}
        for patient_id, chunks in streams.items():
            monitor = StreamingMonitor(patient_id, FS)
            pending = []
            for chunk in chunks:
                pending.extend(monitor.push(chunk))
            pending.extend(monitor.finish())
            for window in pending:
                if window.usable:
                    label = int(classifier.predict(window.features.reshape(1, -1))[0])
                    predictions[(patient_id, window.start_s)] = label
        return predictions

    def test_quantized_batched_predictions_bit_identical(
        self, fleet_streams, quantized_detector
    ):
        assert len(fleet_streams) >= 4
        fleet = MonitorFleet(quantized_detector, FS)
        decisions = fleet.run(fleet_streams)
        loop = self._per_window_loop(fleet_streams, quantized_detector)
        usable = [d for d in decisions if d.usable]
        assert len(usable) == len(loop) > 0
        for decision in usable:
            expected = loop[(decision.patient_id, decision.start_s)]
            assert (1 if decision.alarm else -1) == expected

    def test_float_batched_predictions_match_loop(self, fleet_streams, quadratic_model):
        fleet = MonitorFleet(quadratic_model, FS)
        decisions = fleet.run(fleet_streams)
        loop = self._per_window_loop(fleet_streams, quadratic_model)
        usable = [d for d in decisions if d.usable]
        assert len(usable) == len(loop) > 0
        for decision in usable:
            assert (1 if decision.alarm else -1) == loop[(decision.patient_id, decision.start_s)]

    def test_float_vs_quantized_batched_agreement(
        self, fleet_streams, quadratic_model, quantized_detector
    ):
        """The 9/15-bit fixed-point fleet should agree with the float fleet on
        most windows (Figure 6's premise: near-baseline GM at 9/15 bits, with
        a few borderline windows allowed to flip)."""
        float_fleet = MonitorFleet(quadratic_model, FS)
        quant_fleet = MonitorFleet(quantized_detector, FS)
        float_decisions = {
            (d.patient_id, d.start_s): d.alarm for d in float_fleet.run(fleet_streams) if d.usable
        }
        quant_decisions = {
            (d.patient_id, d.start_s): d.alarm for d in quant_fleet.run(fleet_streams) if d.usable
        }
        assert set(float_decisions) == set(quant_decisions)
        agreement = np.mean(
            [float_decisions[key] == quant_decisions[key] for key in float_decisions]
        )
        assert agreement >= 0.75

    def test_interleaved_drains_equal_final_drain(self, fleet_streams, quantized_detector):
        fleet_a = MonitorFleet(quantized_detector, FS)
        fleet_b = MonitorFleet(quantized_detector, FS)
        a = fleet_a.run(fleet_streams, drain_every=3)
        b = fleet_b.run(fleet_streams)
        def key(d):
            return (d.patient_id, d.start_s, d.usable, d.alarm)

        assert sorted(map(key, a)) == sorted(map(key, b))

    def test_fleet_bookkeeping(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, FS)
        fleet.add_patient(3)
        with pytest.raises(KeyError):
            fleet.add_patient(3)
        assert fleet.patient_ids == [3]
        assert fleet.has_patient(3) and not fleet.has_patient(4)
        assert fleet.pending_count == 0
        assert fleet.drain() == []


class TestAutoRegisterContract:
    """`push` on an unknown patient follows the documented contract: with
    ``auto_register=True`` (default) the fleet creates the monitor on first
    contact; with ``auto_register=False`` it raises a clear ``KeyError``."""

    def test_default_push_auto_registers(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, FS)
        fleet.push(9, np.zeros(128))
        assert fleet.patient_ids == [9]

    def test_strict_fleet_rejects_unknown_patient(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, FS, auto_register=False)
        with pytest.raises(KeyError, match="auto_register=False"):
            fleet.push(9, np.zeros(128))
        assert fleet.patient_ids == []

    def test_strict_fleet_accepts_registered_patient(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, FS, auto_register=False)
        fleet.add_patient(9)
        fleet.push(9, np.zeros(128))
        assert fleet.patient_ids == [9]

    def test_sharded_fleet_forwards_the_contract(self, quantized_detector):
        from repro.serving import ShardedFleet

        strict = ShardedFleet(quantized_detector, FS, n_shards=2, auto_register=False)
        with pytest.raises(KeyError, match="auto_register=False"):
            strict.push(9, np.zeros(128))
        lax = ShardedFleet(quantized_detector, FS, n_shards=2)
        lax.push(9, np.zeros(128))
        assert lax.patient_ids == [9]

    def test_strict_fleet_rejects_enqueue_for_unknown_patient(self, quantized_detector):
        """Regression: ``enqueue`` used to bypass the ``auto_register=False``
        contract — replayed windows for a stray id slid straight into the
        batched drain.  It must raise the same documented ``KeyError`` as
        ``push``, before anything is queued."""
        fleet = MonitorFleet(quantized_detector, FS, auto_register=False)
        fleet.add_patient(1)
        with pytest.raises(KeyError, match="auto_register=False"):
            fleet.enqueue([_window(1), _window(9)])
        assert fleet.pending_count == 0  # nothing queued by the failed call
        fleet.enqueue([_window(1)])
        assert fleet.pending_count == 1

    def test_strict_sharded_fleet_rejects_enqueue_for_unknown_patient(
        self, quantized_detector
    ):
        from repro.serving import ShardedFleet

        strict = ShardedFleet(quantized_detector, FS, n_shards=2, auto_register=False)
        strict.add_patient(1)
        with pytest.raises(KeyError, match="auto_register=False"):
            strict.enqueue([_window(1), _window(9)])
        assert strict.pending_count == 0
        assert strict.enqueue([_window(1)]) == 1
        # The lax fleet keeps accepting replayed windows for unknown ids.
        lax = MonitorFleet(quantized_detector, FS)
        assert lax.enqueue([_window(9)]) == 1


def _window(patient_id=0, start_s=0.0):
    return PendingWindow(
        patient_id=patient_id,
        start_s=start_s,
        end_s=start_s + 180.0,
        n_beats=0,
        features=None,
    )


class TestDrainPolicies:
    """DrainPolicy scheduling against a fleet with an injected fake clock."""

    def _fleet(self, quantized_detector, policy, now):
        return MonitorFleet(
            quantized_detector, FS, drain_policy=policy, clock=lambda: now[0]
        )

    def test_chunk_count_policy(self, quantized_detector):
        fleet = self._fleet(quantized_detector, ChunkCountPolicy(3), [0.0])
        for i in range(2):
            fleet.push(0, np.zeros(64))
            assert not fleet.should_drain()
        fleet.push(0, np.zeros(64))
        assert fleet.should_drain()
        fleet.drain()
        assert fleet.stats().chunks_since_drain == 0 and not fleet.should_drain()

    def test_pending_window_policy(self, quantized_detector):
        fleet = self._fleet(quantized_detector, PendingWindowPolicy(2), [0.0])
        fleet.enqueue([_window(0)])
        assert fleet.maybe_drain() == []
        fleet.enqueue([_window(1)])
        decisions = fleet.maybe_drain()
        assert len(decisions) == 2
        assert fleet.pending_count == 0

    def test_latency_policy_uses_oldest_window_age(self, quantized_detector):
        now = [100.0]
        fleet = self._fleet(quantized_detector, LatencyPolicy(5.0), now)
        assert not fleet.should_drain()  # empty queue never drains
        fleet.enqueue([_window(0)])
        now[0] = 104.9
        assert not fleet.should_drain()
        fleet.enqueue([_window(1)])  # newer window must not reset the age
        now[0] = 105.0
        assert fleet.stats().oldest_pending_age_s == pytest.approx(5.0)
        assert len(fleet.maybe_drain()) == 2

    def test_any_of_combinator(self, quantized_detector):
        now = [0.0]
        policy = AnyOf([PendingWindowPolicy(10), LatencyPolicy(2.0)])
        fleet = self._fleet(quantized_detector, policy, now)
        fleet.enqueue([_window(0)])
        assert not fleet.should_drain()
        now[0] = 2.0
        assert fleet.should_drain()

    def test_run_prefers_explicit_policy_and_restores_fleet_policy(
        self, fleet_streams, quantized_detector
    ):
        fleet_policy = ChunkCountPolicy(1000)
        fleet = MonitorFleet(quantized_detector, FS, drain_policy=fleet_policy)
        decisions = fleet.run(fleet_streams, policy=PendingWindowPolicy(1))
        assert fleet.drain_policy is fleet_policy
        baseline = MonitorFleet(quantized_detector, FS).run(fleet_streams)
        assert decisions == baseline

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ChunkCountPolicy(0)
        with pytest.raises(ValueError):
            PendingWindowPolicy(0)
        with pytest.raises(ValueError):
            LatencyPolicy(-1.0)
        with pytest.raises(ValueError):
            AnyOf([])


class TestBatchedModelParity:
    """Batched N-window inference == per-window loop, float and fixed point."""

    def test_quantized_batch_equals_per_row(self, feature_matrix, quantized_detector):
        X = feature_matrix.X
        batched = quantized_detector.predict(X)
        per_row = np.concatenate(
            [quantized_detector.predict(X[i : i + 1]) for i in range(X.shape[0])]
        )
        assert np.array_equal(batched, per_row)
        scores, labels = quantized_detector.scores_and_labels(X)
        assert np.array_equal(labels, batched)
        assert np.array_equal(np.asarray(scores), quantized_detector.decision_function(X))

    def test_fast_path_matches_exact_path(self, feature_matrix, quantized_detector):
        assert quantized_detector._use_fast_path
        X = feature_matrix.X[:32]
        q = quantized_detector.quantize_input(X)
        fast = quantized_detector._accumulate_int64(q)
        exact = quantized_detector._accumulate_exact(q)
        assert [int(v) for v in fast] == [int(v) for v in exact]

    def test_float_batch_equals_per_row(self, feature_matrix, quadratic_model):
        X = feature_matrix.X
        batched = quadratic_model.predict(X)
        per_row = np.concatenate(
            [quadratic_model.predict(X[i : i + 1]) for i in range(X.shape[0])]
        )
        assert np.array_equal(batched, per_row)
        scores, labels = quadratic_model.scores_and_labels(X)
        assert np.array_equal(labels, batched)
        assert np.allclose(scores, quadratic_model.decision_function(X))