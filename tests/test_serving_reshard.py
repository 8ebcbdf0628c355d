"""Fleet-churn parity harness: live resharding is *invisible*.

The contract under test — the serving layer's largest cross-layer guarantee:
for ANY schedule of ``push`` / ``drain`` / ``reshard`` / ``add_shard`` /
``remove_shard`` operations interleaved with traffic, a
:class:`~repro.serving.sharding.ShardedFleet`'s decisions are identical
(bit-exact fixed-point scores) to a never-resharded single
:class:`~repro.serving.fleet.MonitorFleet` replaying the same pushes and
drains.  Migration is zero-loss: DSP carry-over, partial windows, sequence
positions and queued pending windows all follow the patient, across all
three executor backends and through the TCP gateway (whose
:class:`~repro.serving.ingest.GatewayStats` ledger must balance at every
step of a reshard).

Like the sharding/gateway parity suites this one is hypothesis-fuzzed: the
churn schedule itself is the fuzzed input.
"""

import asyncio
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    MONITOR_STATE_VERSION,
    DuplicateChunkError,
    HashRing,
    IngestGateway,
    LatencyPolicy,
    MonitorFleet,
    MonitorState,
    PendingWindow,
    ShardDrainError,
    ShardedFleet,
    StreamingMonitor,
    decision_sort_key,
    encode_chunk,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams

FS = 64.0
#: One-minute windows keep the fuzz workload short while still emitting
#: several usable (feature-complete) windows per patient.
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


@pytest.fixture(scope="module")
def workload():
    """A small multi-patient raw-ECG workload as an interleaved frame list.

    Frames are ``(patient_id, seq, chunk)`` triples in round-robin arrival
    order — the order every fleet and the reference replay them in.
    """
    params = CohortParams(
        n_patients=4,
        n_sessions=4,
        session_duration_s=420.0,
        total_seizures=0,
        seed=51,
        ecg_params=ECGWaveformParams(fs=FS),
    )
    cohort = generate_cohort(params)
    rng = np.random.default_rng(52)
    streams = {}
    for recording in cohort.recordings:
        ecg = synthesize_ecg(
            recording.beat_times_s,
            recording.duration_s,
            recording.respiration,
            rng,
            params=ECGWaveformParams(fs=FS),
        )
        chunks = []
        lo = 0
        while lo < ecg.ecg_mv.size:
            size = int(rng.integers(400, 4000))
            chunks.append(ecg.ecg_mv[lo : lo + size])
            lo += size
        streams[recording.patient_id] = chunks
    frames = []
    sequence = {pid: 0 for pid in streams}
    iterators = {pid: iter(chunks) for pid, chunks in streams.items()}
    while iterators:
        for pid in list(iterators):
            try:
                chunk = next(iterators[pid])
            except StopIteration:
                del iterators[pid]
                continue
            frames.append((pid, sequence[pid], chunk))
            sequence[pid] += 1
    return dict(streams=streams, frames=frames)


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


def _apply_schedule(fleet, frames, schedule, *, churn):
    """Replay ``schedule`` against ``fleet``; return per-drain decision lists.

    The reference fleet runs with ``churn=False``: the topology operations
    become no-ops, so it sees the exact same pushes and drains and never
    reshards.  Whatever frames the schedule did not push are pushed at the
    end, followed by a flush and a final drain — every run covers the whole
    workload, so the final parity is always meaningful.
    """
    drains = []
    cursor = 0
    for op in schedule:
        if op[0] == "push":
            for _ in range(op[1]):
                if cursor >= len(frames):
                    break
                pid, seq, chunk = frames[cursor]
                cursor += 1
                fleet.push(pid, chunk, seq=seq)
        elif op[0] == "drain":
            drains.append(sorted(fleet.drain(), key=decision_sort_key))
        elif churn:
            if op[0] == "reshard":
                fleet.reshard(op[1])
            elif op[0] == "add_shard":
                fleet.add_shard()
            elif op[0] == "remove_shard" and fleet.n_shards > 1:
                fleet.remove_shard()
    while cursor < len(frames):
        pid, seq, chunk = frames[cursor]
        cursor += 1
        fleet.push(pid, chunk, seq=seq)
    fleet.finish()
    drains.append(sorted(fleet.drain(), key=decision_sort_key))
    return drains


def _assert_drains_identical(reference, candidate, *, exact_scores=True):
    assert len(candidate) == len(reference)
    for ref_drain, got_drain in zip(reference, candidate):
        assert len(got_drain) == len(ref_drain)
        for expected, got in zip(ref_drain, got_drain):
            assert got.patient_id == expected.patient_id
            assert got.start_s == expected.start_s
            assert got.end_s == expected.end_s
            assert got.n_beats == expected.n_beats
            assert got.usable == expected.usable
            assert got.alarm == expected.alarm
            if expected.score is None:
                assert got.score is None
            elif exact_scores:
                assert got.score == expected.score
            else:
                assert math.isclose(got.score, expected.score, rel_tol=1e-9, abs_tol=1e-12)


#: One churn-schedule operation.  reshard targets stay within 1..4 shards so
#: schedules exercise both directions (1↔2↔4) plus single-step add/remove.
SCHEDULE_OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(1, 12)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("reshard"), st.sampled_from([1, 2, 4])),
    st.tuples(st.just("add_shard")),
    st.tuples(st.just("remove_shard")),
)


class TestChurnParityFuzz:
    """Random churn schedules vs a never-resharded reference fleet."""

    _reference_cache: dict = {}

    def _reference(self, workload, classifier, schedule):
        """Per-drain reference decisions for the schedule's push/drain shape."""
        key = (
            id(classifier),
            tuple(op for op in schedule if op[0] in ("push", "drain")),
        )
        if key not in self._reference_cache:
            fleet = MonitorFleet(classifier, FS, windowing=WINDOWING)
            self._reference_cache[key] = _apply_schedule(
                fleet, workload["frames"], schedule, churn=False
            )
        return self._reference_cache[key]

    @given(
        schedule=st.lists(SCHEDULE_OPS, min_size=3, max_size=14),
        backend=st.sampled_from(["serial", "thread"]),
        n_shards=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_quantized_churn_parity_is_bit_exact(
        self, workload, quantized_detector, schedule, backend, n_shards
    ):
        reference = self._reference(workload, quantized_detector, schedule)
        assert any(d.usable for drain in reference for d in drain)
        with ShardedFleet(
            quantized_detector,
            FS,
            n_shards=n_shards,
            windowing=WINDOWING,
            backend=backend,
        ) as fleet:
            drains = _apply_schedule(fleet, workload["frames"], schedule, churn=True)
        _assert_drains_identical(reference, drains, exact_scores=True)

    @given(schedule=st.lists(SCHEDULE_OPS, min_size=3, max_size=10))
    @settings(max_examples=5, deadline=None)
    def test_float_churn_parity(self, workload, quadratic_model, schedule):
        reference = self._reference(workload, quadratic_model, schedule)
        with ShardedFleet(quadratic_model, FS, n_shards=2, windowing=WINDOWING) as fleet:
            drains = _apply_schedule(fleet, workload["frames"], schedule, churn=True)
        _assert_drains_identical(reference, drains, exact_scores=False)


class TestGatewayReshard:
    """Resharding through the TCP gateway: parity plus the ledger invariant."""

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_gateway_churn_parity_and_ledger(self, workload, quantized_detector, data):
        frames = workload["frames"]
        reshard_points = sorted(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(frames) - 1), st.sampled_from([1, 2, 4])),
                    max_size=4,
                    unique_by=lambda t: t[0],
                )
            )
        )
        reshard_at = dict(reshard_points)

        async def run():
            fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
            gateway = IngestGateway(fleet, queue_depth=8, backpressure="block")
            await gateway.start()
            for k, (pid, seq, chunk) in enumerate(frames):
                await gateway.submit(encode_chunk(pid, seq, FS, chunk))
                if k in reshard_at:
                    await gateway.reshard(reshard_at[k])
                    stats = gateway.stats()
                    assert stats.fully_accounted  # ledger holds mid-churn
            decisions = await gateway.stop()
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(run())
        reference_fleet = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
        reference = _apply_schedule(reference_fleet, frames, [], churn=False)
        _assert_drains_identical(reference, [sorted(decisions, key=decision_sort_key)])
        assert stats.fully_accounted
        assert stats.frames_errored == 0  # seq enforcement survived migration
        assert stats.frames_delivered == len(frames)
        assert stats.reshards == len(reshard_points)

    def test_quiesced_patients_buffer_while_others_flow(self, quantized_detector):
        """The pump skips exactly the quiesced patients; their frames queue
        under the ledger and delivery resumes in order when thawed."""

        async def run():
            fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
            gateway = IngestGateway(fleet, queue_depth=8)
            await gateway.start()
            # Simulate the quiesce window of a reshard migrating patient 0.
            gateway._quiesced.add(0)
            for seq in range(3):
                await gateway.submit(encode_chunk(0, seq, FS, np.zeros(64)))
                await gateway.submit(encode_chunk(1, seq, FS, np.zeros(64)))
            for _ in range(50):
                await asyncio.sleep(0.01)
                if gateway.stats().frames_delivered == 3:
                    break
            frozen = gateway.stats()
            gateway._quiesced.discard(0)
            gateway._data.set()
            for _ in range(50):
                await asyncio.sleep(0.01)
                if gateway.stats().frames_delivered == 6:
                    break
            thawed = gateway.stats()
            await gateway.stop()
            return frozen, thawed, fleet

        frozen, thawed, fleet = asyncio.run(run())
        # While quiesced: only patient 1's frames reached the fleet, patient
        # 0's stayed queued — and the ledger balanced throughout.
        assert frozen.frames_delivered == 3
        assert frozen.queued_frames == 3
        assert frozen.fully_accounted
        # After the thaw the held frames were delivered in order (no seq
        # errors under strict block-policy sequencing).
        assert thawed.frames_delivered == 6
        assert thawed.frames_errored == 0
        assert thawed.fully_accounted

    def test_reshard_requires_a_reshardable_fleet(self, quantized_detector):
        async def run():
            fleet = MonitorFleet(quantized_detector, FS)
            gateway = IngestGateway(fleet)
            await gateway.start()
            with pytest.raises(TypeError, match="live resharding"):
                await gateway.reshard(4)
            await gateway.stop()

        asyncio.run(run())


class TestMonitorStateRoundTrip:
    """snapshot() → (pickle) → from_snapshot() is lossless and exact."""

    def test_snapshot_restore_round_trip_equality(self, workload):
        pid, chunks = next(iter(workload["streams"].items()))
        original = StreamingMonitor(pid, FS, windowing=WINDOWING)
        half = len(chunks) // 2
        for seq, chunk in enumerate(chunks[:half]):
            original.push(chunk, seq=seq)
        state = original.snapshot()
        assert state.version == MONITOR_STATE_VERSION
        assert state.has_monitor
        # The pickle round trip is exactly what the federated cluster ships
        # inside a STATE frame.
        revived_state = pickle.loads(pickle.dumps(state))
        assert revived_state == state
        revived = StreamingMonitor.from_snapshot(revived_state)
        assert revived.last_seq == original.last_seq
        assert revived.time_seen_s == original.time_seen_s
        # Identical continuations: every later window is bit-identical.
        for seq, chunk in enumerate(chunks[half:], start=half):
            for got, expected in zip(
                revived.push(chunk, seq=seq), original.push(chunk, seq=seq)
            ):
                assert got.start_s == expected.start_s
                assert got.n_beats == expected.n_beats
                assert got.usable == expected.usable
                if expected.usable:
                    assert np.array_equal(got.features, expected.features)
        for got, expected in zip(revived.finish(), original.finish()):
            assert got.start_s == expected.start_s
            assert got.usable == expected.usable
            if expected.usable:
                assert np.array_equal(got.features, expected.features)
        # Snapshots of behaviourally identical monitors are equal too.
        assert revived.snapshot() == original.snapshot()

    def test_snapshot_is_isolated_from_the_live_monitor(self, workload):
        pid, chunks = next(iter(workload["streams"].items()))
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING)
        for seq, chunk in enumerate(chunks[:3]):
            monitor.push(chunk, seq=seq)
        state = monitor.snapshot()
        reference = pickle.dumps(state)
        for seq, chunk in enumerate(chunks[3:6], start=3):
            monitor.push(chunk, seq=seq)
        assert pickle.loads(reference) == state  # streaming on did not mutate it

    def test_version_and_pending_only_states_are_rejected(self):
        monitor = StreamingMonitor(0, FS, windowing=WINDOWING)
        state = monitor.snapshot()
        from dataclasses import replace

        with pytest.raises(ValueError, match="version"):
            StreamingMonitor.from_snapshot(replace(state, version=99))
        with pytest.raises(ValueError, match="no monitor DSP state"):
            StreamingMonitor.from_snapshot(
                MonitorState(
                    version=MONITOR_STATE_VERSION,
                    patient_id=0,
                    fs=FS,
                    detector=None,
                    windower=None,
                    sequence=None,
                    n_windows=0,
                )
            )


def _feature_window(patient_id, start_s, features):
    return PendingWindow(
        patient_id=patient_id,
        start_s=start_s,
        end_s=start_s + 60.0,
        n_beats=80,
        features=features,
    )


class TestFleetExportImport:
    """MonitorFleet.export_patient / import_patient contracts."""

    def test_export_detaches_monitor_and_queued_windows(self, quantized_detector, feature_matrix):
        source = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
        target = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
        source.push(5, np.zeros(256), seq=0)
        source.enqueue(
            [
                _feature_window(5, 0.0, feature_matrix.X[0]),
                _feature_window(6, 0.0, feature_matrix.X[1]),
                _feature_window(5, 60.0, feature_matrix.X[2]),
            ]
        )
        state = source.export_patient(5)
        # Atomic detach: monitor gone, only patient 5's windows travelled.
        assert not source.has_patient(5)
        assert source.pending_count == 1
        assert [w.start_s for w in state.pending] == [0.0, 60.0]
        target.import_patient(state)
        assert target.has_patient(5)
        assert target.pending_count == 2
        decisions = target.drain()
        assert [d.start_s for d in decisions] == [0.0, 60.0]
        # The migrated sequence position still polices the stream.
        with pytest.raises(DuplicateChunkError):
            target.push(5, np.zeros(64), seq=0)
        target.push(5, np.zeros(64), seq=1)

    def test_pending_only_patient_exports_without_a_monitor(
        self, quantized_detector, feature_matrix
    ):
        source = MonitorFleet(quantized_detector, FS)
        source.enqueue([_feature_window(9, 0.0, feature_matrix.X[0])])
        state = source.export_patient(9)
        assert not state.has_monitor and len(state.pending) == 1
        target = MonitorFleet(quantized_detector, FS)
        assert target.import_patient(state) == 1
        assert not target.has_patient(9)  # no monitor to revive
        assert len(target.drain()) == 1

    def test_export_import_validation(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, FS)
        with pytest.raises(KeyError):
            fleet.export_patient(123)
        fleet.push(1, np.zeros(64))
        state = fleet.export_patient(1)
        fleet.import_patient(state)
        with pytest.raises(KeyError, match="already monitored"):
            fleet.import_patient(state)
        other = MonitorFleet(quantized_detector, 2 * FS)
        with pytest.raises(ValueError, match="does not match"):
            other.import_patient(state)
        with pytest.raises(ValueError, match="MonitorState"):
            fleet.import_patient("not a state")

    def test_reshard_survives_drained_enqueue_only_patients(
        self, quantized_detector, feature_matrix
    ):
        """A patient known only through enqueued windows is a mover while a
        window is queued, and holds nothing once it is drained — a reshard
        then does not count them, and the pushed patients migrate intact."""
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        for pid in range(4):
            fleet.push(pid, np.zeros(256), seq=0)
        fleet.enqueue([_feature_window(pid, 0.0, feature_matrix.X[pid]) for pid in range(100, 108)])
        assert any(pid >= 100 for pid in fleet.preview_reshard(4))  # queued: members
        fleet.drain()  # the enqueue-only patients now hold no state at all
        moved = fleet.reshard(4)
        assert not any(pid >= 100 for pid in moved)  # drained: not movers
        # The pushed patients' monitors survived the migration intact.
        for pid in range(4):
            assert fleet.has_patient(pid)
            fleet.push(pid, np.zeros(256), seq=1)

    def test_drained_enqueue_only_ids_leave_no_membership(
        self, quantized_detector, feature_matrix
    ):
        """Regression: membership is what the shards hold.  A thousand ids
        known only through since-drained enqueued windows are no patients,
        no movers and no routing entries of a long-running fleet."""
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        X = feature_matrix.X
        fleet.enqueue([_feature_window(pid, 0.0, X[pid % len(X)]) for pid in range(1000)])
        assert fleet.n_patients == 1000
        assert len(fleet.drain()) == 1000
        assert fleet.n_patients == 0
        assert fleet.preview_reshard(3) == {}
        assert fleet.reshard(3) == {}
        assert fleet._shard_of == {}
        assert not any(fleet.has_patient(pid) for pid in range(1000))
        assert fleet._shard_of == {}

    def test_routing_memo_never_outgrows_the_monitors(self, quantized_detector):
        fleet = ShardedFleet(
            quantized_detector, FS, n_shards=2, windowing=WINDOWING, auto_register=False
        )
        fleet.add_patient(7)
        fleet.push(7, np.zeros(256), seq=0)
        for pid in range(100):  # unknown ids: rejected, not remembered
            with pytest.raises(KeyError):
                fleet.push(pid + 1000, np.zeros(256), seq=0)
        assert fleet._shard_of == {7: fleet.ring.shard_of(7)}
        fleet.reshard(3)
        fleet.push(7, np.zeros(256), seq=1)
        assert fleet._shard_of == {7: fleet.ring.shard_of(7)}

    def test_migration_preserves_sequence_tracker_across_reshard(self, quantized_detector):
        """Regression: a reshard must carry every moving patient's
        SequenceTracker — a forgotten tracker would re-accept seq 0 and
        silently corrupt the DSP stream."""
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        for pid in range(8):
            fleet.push(pid, np.zeros(256), seq=0)
            fleet.push(pid, np.zeros(256), seq=1)
        moved = fleet.reshard(4)
        assert moved  # the fuzz seed must actually migrate someone
        for pid in range(8):
            with pytest.raises(DuplicateChunkError):
                fleet.push(pid, np.zeros(256), seq=1)
            fleet.push(pid, np.zeros(256), seq=2)


class TestHashRingReshard:
    """HashRing.with_n_shards: correctness and the minimal-movement bound."""

    def test_new_ring_matches_a_fresh_ring(self):
        ring, _ = HashRing(4).with_n_shards(5)
        fresh = HashRing(5)
        ids = range(500)
        assert [ring.shard_of(i) for i in ids] == [fresh.shard_of(i) for i in ids]

    def test_growth_moves_a_bounded_minority_to_the_new_shard_only(self):
        ids = range(2000)
        ring = HashRing(4)
        new_ring, moved = ring.with_n_shards(5, ids)
        # Expected fraction for 4→5 shards is 1/5; allow generous variance
        # headroom but stay far below what a modulo reshuffle (~4/5) would do.
        assert 0 < len(moved) <= 0.35 * 2000
        for pid, (old, new) in moved.items():
            assert old != new
            assert new == 4  # growth: every mover lands on the new shard
            assert ring.shard_of(pid) == old
            assert new_ring.shard_of(pid) == new
        # Completeness: nobody moved without being reported.
        for pid in ids:
            if pid not in moved:
                assert ring.shard_of(pid) == new_ring.shard_of(pid)

    def test_shrink_moves_exactly_the_removed_shards_patients(self):
        ids = range(2000)
        ring = HashRing(5)
        _, moved = ring.with_n_shards(4, ids)
        on_removed = {pid for pid in ids if ring.shard_of(pid) == 4}
        assert set(moved) == on_removed
        assert all(old == 4 for old, _ in moved.values())

    def test_reshard_validation(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=1)
        with pytest.raises(ValueError):
            fleet.reshard(0)
        with pytest.raises(ValueError):
            fleet.preview_reshard(-1)
        with pytest.raises(ValueError, match="last shard"):
            fleet.remove_shard()
        assert fleet.reshard(1) == {}

    def test_preview_matches_the_real_reshard(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        for pid in range(16):
            fleet.push(pid, np.zeros(128))
        preview = fleet.preview_reshard(4)
        assert fleet.n_shards == 2  # preview never acts
        assert fleet.reshard(4) == preview
        assert fleet.n_shards == 4
        for pid in range(16):
            assert fleet.shard_of(pid) == fleet.ring.shard_of(pid)


class TestReshardAtomicity:
    """Satellite bugfix: a failed migration must leave the fleet untouched.

    Before the fix, ``reshard`` decremented the fleet's pending counters
    inside the export loop and mutated the topology before any import — a
    raising ``export_patient`` (e.g. a dead process worker) left counters
    corrupt and already-exported patients destroyed.  Now every state is
    collected before any mutation, and an export failure rolls the
    collected states back to their old shards.
    """

    def _loaded_fleet(self, quantized_detector, feature_matrix, n_shards=4):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=n_shards, windowing=WINDOWING)
        for pid in range(24):
            fleet.push(pid, np.zeros(256), seq=0)
        fleet.enqueue(
            [
                _feature_window(pid, 0.0, feature_matrix.X[pid % feature_matrix.X.shape[0]])
                for pid in range(24)
            ]
        )
        return fleet

    def test_export_fault_rolls_back_and_is_retryable(
        self, quantized_detector, feature_matrix
    ):
        fleet = self._loaded_fleet(quantized_detector, feature_matrix)
        before = fleet.stats()
        assert before.pending_windows == 24
        ring_before = fleet.ring
        exports = {"n": 0}

        def flaky(export_patient):
            def flaky_export(patient_id):
                exports["n"] += 1
                if exports["n"] > 2:  # some exports succeed first
                    raise RuntimeError("worker died")
                return export_patient(patient_id)

            return flaky_export

        for shard_fleet in fleet._shards:
            shard_fleet.export_patient = flaky(shard_fleet.export_patient)
        with pytest.raises(RuntimeError, match="worker died"):
            fleet.reshard(2)
        assert exports["n"] > 2  # the fault actually fired mid-migration
        for shard_fleet in fleet._shards:
            del shard_fleet.export_patient
        # Nothing moved, nothing counted: topology, ring, counters, patients.
        assert fleet.n_shards == 4
        assert fleet.ring is ring_before
        assert fleet.stats().pending_windows == 24
        for pid in range(24):
            assert fleet.has_patient(pid)
        # The call is retryable, and the retried fleet still drains exactly
        # what a never-resharded fleet would.
        fleet.reshard(2)
        assert fleet.n_shards == 2
        assert fleet.stats().pending_windows == 24
        reference = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
        for pid in range(24):
            reference.push(pid, np.zeros(256), seq=0)
        reference.enqueue(
            [
                _feature_window(pid, 0.0, feature_matrix.X[pid % feature_matrix.X.shape[0]])
                for pid in range(24)
            ]
        )
        _assert_drains_identical(
            [sorted(reference.drain(), key=decision_sort_key)],
            [sorted(fleet.drain(), key=decision_sort_key)],
        )

    def test_import_fault_names_the_orphans(self, quantized_detector, feature_matrix):
        fleet = self._loaded_fleet(quantized_detector, feature_matrix)

        def dead_import(state, pending_age_s=0.0):
            raise RuntimeError("import worker died")

        # Patch the surviving shard *fleets* (a reshard keeps them): every
        # 4→2 mover lands on one of them.
        for shard_fleet in fleet._shards[:2]:
            shard_fleet.import_patient = dead_import
        with pytest.raises(RuntimeError, match="orphaned patients") as excinfo:
            fleet.reshard(2)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The exceptional half of the contract: the new topology is in
        # place, the failure is loud, and every orphan is named.
        assert fleet.n_shards == 2


class TestPendingAgeSurvivesMigration:
    """Satellite bugfix: migrated windows must not look freshly arrived.

    ``MonitorFleet.import_patient`` used to seed the target shard's
    oldest-pending clock at import time, so a reshard *extended* the latency
    bound a :class:`LatencyPolicy` (and the autoscale controller) relies on.
    The source shard's queue age now travels with the migration.
    """

    def _moving_patient(self):
        ring2 = HashRing(2)
        return next(p for p in range(100) if ring2.shard_of(p) == 1)

    def test_reshard_mid_wait_does_not_extend_the_latency_bound(
        self, quantized_detector, feature_matrix
    ):
        t = {"now": 1000.0}
        fleet = ShardedFleet(
            quantized_detector,
            FS,
            n_shards=1,
            windowing=WINDOWING,
            clock=lambda: t["now"],
        )
        pid = self._moving_patient()
        fleet.enqueue([_feature_window(pid, 0.0, feature_matrix.X[0])])
        t["now"] += 30.0
        moved = fleet.reshard(2)
        assert pid in moved  # the only pending window migrated to shard 1
        # The snapshot still reports the full 30 s wait.
        assert fleet.stats().oldest_pending_age_s >= 30.0
        # A 40 s latency bound fires 40 s after arrival, not 40 s after the
        # migration: 15 more seconds and the stats trigger it.
        policy = LatencyPolicy(40.0)
        assert not policy.should_drain(fleet.stats())
        t["now"] += 15.0
        assert policy.should_drain(fleet.stats())

    def test_import_patient_backdates_the_pending_clock(
        self, quantized_detector, feature_matrix
    ):
        t = {"now": 50.0}
        source = MonitorFleet(quantized_detector, FS, clock=lambda: t["now"])
        target = MonitorFleet(quantized_detector, FS, clock=lambda: t["now"])
        source.enqueue([_feature_window(3, 0.0, feature_matrix.X[0])])
        t["now"] += 12.0
        age = source.stats().oldest_pending_age_s
        state = source.export_patient(3)
        target.import_patient(state, pending_age_s=age)
        assert target.stats().oldest_pending_age_s == pytest.approx(12.0)
        # A fleet that already holds an older window keeps its own clock.
        other = MonitorFleet(quantized_detector, FS, clock=lambda: t["now"])
        other.enqueue([_feature_window(4, 0.0, feature_matrix.X[1])])
        t["now"] += 20.0
        other.import_patient(target.export_patient(3), pending_age_s=5.0)
        assert other.stats().oldest_pending_age_s == pytest.approx(20.0)


class TestStatsReconcileAfterDrainError:
    """Satellite bugfix: ``stats()`` keeps ``chunks_since_drain`` after a
    partial drain failure.

    Healthy shards reset their own counters when they drain; fleet-level the
    drain has not happened until every shard succeeds.  The wrapper counter
    is the authority, so a controller (or a ``ChunkCountPolicy``) still
    reads the backlog.
    """

    def test_failed_then_retried_drain_keeps_the_snapshots_agreeing(
        self, quantized_detector, feature_matrix
    ):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        for pid in range(8):
            fleet.push(pid, np.zeros(256), seq=0)
        fleet.enqueue(
            [_feature_window(pid, 0.0, feature_matrix.X[pid % 4]) for pid in range(8)]
        )
        assert fleet.stats().chunks_since_drain == 8
        shard0 = fleet._shards[0]
        original_drain = shard0.drain
        fails = {"n": 0}

        def failing_drain():
            if fails["n"] == 0:
                fails["n"] += 1
                raise RuntimeError("classifier fault")
            return original_drain()

        shard0.drain = failing_drain
        with pytest.raises(ShardDrainError) as excinfo:
            fleet.drain()
        assert set(excinfo.value.errors) == {0}
        # Shard 1 drained (and reset its own counter); fleet-level the drain
        # failed, and the snapshot must say so.
        stats = fleet.stats()
        assert stats.chunks_since_drain == 8
        assert stats.pending_windows > 0
        # The retry succeeds (shard 0's windows were kept) and the snapshot
        # resets.
        decisions = fleet.drain()
        assert decisions  # shard 0's kept windows classified on the retry
        stats = fleet.stats()
        assert stats.chunks_since_drain == 0
        assert stats.pending_windows == 0
