"""Lossy datagram ingestion: frame loss with *bounded decision impact*.

The contract under test — the lossy transport mode's headline guarantee:
for ANY pattern of lost frames (random k-of-n, bursts, head-of-stream
loss), every decision a lossy monitor *does* emit is bit-identical to the
lossless run's decision for the same window — same start, same beats, same
fixed-point score.  Loss costs windows, never correctness: no emitted
window ever spans missing samples, and the :class:`GatewayStats` /
:class:`ClusterStats` ledgers stay fully accounted with the loss made
explicit (``frames_gap_dropped``, ``gaps_detected``,
``windows_reset_by_gap``).

Alongside the parity fuzz this file pins the seams the lossy mode exposed:
the :class:`~repro.serving.wire.SequenceTracker` recovery API
(``check`` / ``skip_to`` / ``check_datagram``),
commit-on-success tracker advancement in ``StreamingMonitor.push`` (a push
that failed before absorbing samples can be retried without being misread
as a duplicate), arrival-order marker compaction under sustained
shed-oldest pressure, and the ledger-balances-at-every-await invariant of
the lossy pump.

There is no pytest-asyncio in the environment; every async scenario runs
under its own ``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    BackpressureError,
    DuplicateChunkError,
    EcgChunk,
    GatewayCluster,
    IngestGateway,
    MonitorFleet,
    OutOfOrderChunkError,
    SequenceTracker,
    ShardedFleet,
    StreamingMonitor,
    encode_chunk,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams

FS = 64.0
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


# ---------------------------------------------------------------------------
# SequenceTracker recovery API
# ---------------------------------------------------------------------------


class TestTrackerRecovery:
    def test_check_classifies_without_advancing(self):
        tracker = SequenceTracker()
        assert tracker.check(0) == 0
        assert tracker.check(0) == 0  # still not advanced
        assert tracker.expected == 0
        tracker.validate(0)
        with pytest.raises(DuplicateChunkError):
            tracker.check(0)
        with pytest.raises(OutOfOrderChunkError):
            tracker.check(2)
        assert tracker.expected == 1

    def test_validate_span_advances_by_payload_units(self):
        tracker = SequenceTracker()
        tracker.validate(0, span=100)
        assert tracker.expected == 100
        tracker.validate(100, span=0)  # empty datagram is legal
        assert tracker.expected == 100
        with pytest.raises(ValueError, match="span"):
            tracker.validate(100, span=-1)
        assert tracker.expected == 100  # a rejected span moved nothing

    def test_skip_to_is_forward_only(self):
        tracker = SequenceTracker()
        assert tracker.skip_to(500) == 500
        assert tracker.expected == 500
        assert tracker.skip_to(500) == 0
        with pytest.raises(ValueError, match="skip backwards"):
            tracker.skip_to(400)
        assert tracker.expected == 500

    def test_check_datagram_reports_gap_without_moving(self):
        tracker = SequenceTracker()
        assert tracker.check_datagram(300) == 300
        assert tracker.check_datagram(300) == 300  # idempotent: no movement
        assert tracker.expected == 0
        tracker.validate(0, span=100)
        with pytest.raises(DuplicateChunkError, match="stale datagram"):
            tracker.check_datagram(50)

    def test_skipped_position_survives_snapshot(self):
        tracker = SequenceTracker()
        tracker.skip_to(1000)
        tracker.validate(1000, span=64)
        revived = SequenceTracker.from_snapshot(tracker.snapshot())
        assert revived.expected == 1064
        with pytest.raises(DuplicateChunkError):
            revived.check_datagram(500)


# ---------------------------------------------------------------------------
# Shared workload: raw ECG chunks tagged with absolute sample offsets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    """Multi-patient raw-ECG streams, each chunk tagged with its offset."""
    params = CohortParams(
        n_patients=3,
        n_sessions=2,
        session_duration_s=480.0,
        total_seizures=0,
        seed=77,
        ecg_params=ECGWaveformParams(fs=FS),
    )
    cohort = generate_cohort(params)
    rng = np.random.default_rng(78)
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
            chunks.append((lo, ecg.ecg_mv[lo : lo + size]))
            lo += size
        streams[recording.patient_id] = chunks
    return streams


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


@pytest.fixture(scope="module")
def reference_decisions(workload, quantized_detector):
    """The lossless run: every chunk of every stream, one plain fleet."""
    fleet = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
    decisions = fleet.run(
        {pid: [chunk for _, chunk in chunks] for pid, chunks in workload.items()}
    )
    assert any(d.usable for d in decisions)  # the parity must mean something
    return {(d.patient_id, d.start_s): d for d in decisions}


def _lost_intervals(chunks, dropped):
    """Merged ``(start_s, end_s)`` spans of the dropped chunks of one stream."""
    intervals = []
    for i in sorted(dropped):
        offset, chunk = chunks[i]
        start, end = offset / FS, (offset + chunk.size) / FS
        if intervals and abs(intervals[-1][1] - start) < 1e-12:
            intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))
    return intervals


def _expected_gaps(chunks, dropped):
    """Gaps a monitor will *see*: maximal dropped runs followed by a kept chunk."""
    gaps = 0
    in_run = False
    for i in range(len(chunks)):
        if i in dropped:
            in_run = True
        else:
            if in_run:
                gaps += 1
            in_run = False
    return gaps


def _assert_bounded_impact(reference, decisions, workload, dropped_by_patient):
    """Every emitted decision is the lossless run's, and spans no gap."""
    for decision in decisions:
        expected = reference.get((decision.patient_id, decision.start_s))
        assert expected is not None, (
            "lossy run emitted a window off the lossless grid: %r" % (decision,)
        )
        assert decision.end_s == expected.end_s
        assert decision.n_beats == expected.n_beats
        assert decision.usable == expected.usable
        assert decision.alarm == expected.alarm
        assert decision.score == expected.score  # bit-exact fixed-point path
        for a, b in _lost_intervals(
            workload[decision.patient_id], dropped_by_patient.get(decision.patient_id, ())
        ):
            assert not (decision.start_s < b and decision.end_s > a), (
                "window [%g, %g) spans lost samples [%g, %g)"
                % (decision.start_s, decision.end_s, a, b)
            )


# ---------------------------------------------------------------------------
# Monitor-level gap parity
# ---------------------------------------------------------------------------


def _monitor_windows(monitor, feed, lossy):
    pending = []
    for offset, chunk in feed:
        pending.extend(monitor.push(chunk, seq=offset if lossy else None))
    pending.extend(monitor.finish())
    return pending


class TestMonitorGapParity:
    @pytest.fixture(scope="class")
    def stream(self, workload):
        pid = min(workload)
        return pid, workload[pid]

    @pytest.fixture(scope="class")
    def lossless_windows(self, stream):
        pid, chunks = stream
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING)
        windows = _monitor_windows(monitor, chunks, lossy=False)
        assert len(windows) >= 4
        return {w.start_s: w for w in windows}

    def _check(self, stream, lossless_windows, dropped):
        pid, chunks = stream
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING, lossy=True)
        feed = [entry for i, entry in enumerate(chunks) if i not in dropped]
        windows = _monitor_windows(monitor, feed, lossy=True)
        lost = _lost_intervals(chunks, dropped)
        for window in windows:
            expected = lossless_windows.get(window.start_s)
            assert expected is not None, "window off the lossless grid"
            assert window.end_s == expected.end_s
            assert window.n_beats == expected.n_beats
            assert window.usable == expected.usable
            if expected.features is None:
                assert window.features is None
            else:
                assert np.array_equal(window.features, expected.features)
            for a, b in lost:
                assert not (window.start_s < b and window.end_s > a)
        assert monitor.n_gaps == _expected_gaps(chunks, dropped)
        assert monitor.windows_reset_by_gap >= 0
        return monitor, windows

    def test_single_mid_stream_drop(self, stream, lossless_windows):
        monitor, windows = self._check(stream, lossless_windows, {4})
        assert monitor.n_gaps == 1
        assert windows  # the stream recovers and emits again after the gap

    def test_burst_loss(self, stream, lossless_windows):
        self._check(stream, lossless_windows, {6, 7, 8, 9})

    def test_head_of_stream_loss(self, stream, lossless_windows):
        monitor, _ = self._check(stream, lossless_windows, {0, 1})
        assert monitor.n_gaps == 1  # a gap before the first delivered chunk

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_loss_pattern_has_bounded_impact(self, stream, lossless_windows, data):
        pid, chunks = stream
        dropped = set(
            data.draw(
                st.lists(
                    st.integers(0, len(chunks) - 1), max_size=len(chunks) // 2, unique=True
                )
            )
        )
        self._check(stream, lossless_windows, dropped)

    def test_stale_datagram_raises_and_absorbs_nothing(self, stream):
        pid, chunks = stream
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING, lossy=True)
        offset, chunk = chunks[0]
        monitor.push(chunk, seq=offset)
        before = monitor.time_seen_s
        with pytest.raises(DuplicateChunkError, match="stale datagram"):
            monitor.push(chunk, seq=offset)
        assert monitor.time_seen_s == before
        assert monitor.n_gaps == 0

    def test_note_gap_requires_lossy_mode(self):
        monitor = StreamingMonitor(1, FS, windowing=WINDOWING)
        with pytest.raises(RuntimeError, match="lossy"):
            monitor.note_gap(1000)

    def test_gap_state_survives_snapshot_roundtrip(self, stream, lossless_windows):
        pid, chunks = stream
        cut = len(chunks) // 2
        dropped = {3, 4}
        feed = [entry for i, entry in enumerate(chunks) if i not in dropped]
        head = [e for e in feed if e[0] < chunks[cut][0]]
        tail = [e for e in feed if e[0] >= chunks[cut][0]]
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING, lossy=True)
        windows = []
        for offset, chunk in head:
            windows.extend(monitor.push(chunk, seq=offset))
        state = monitor.snapshot()
        revived = StreamingMonitor.from_snapshot(state, lossy=True)
        assert revived.lossy and revived.n_gaps == monitor.n_gaps
        assert revived.windows_reset_by_gap == monitor.windows_reset_by_gap
        for offset, chunk in tail:
            a = monitor.push(chunk, seq=offset)
            b = revived.push(chunk, seq=offset)
            assert [w.start_s for w in a] == [w.start_s for w in b]
            windows.extend(a)
        windows.extend(monitor.finish())
        for window in windows:
            expected = lossless_windows.get(window.start_s)
            assert expected is not None
            assert window.n_beats == expected.n_beats


# ---------------------------------------------------------------------------
# Commit-on-success tracker advancement (a failed push is retryable)
# ---------------------------------------------------------------------------


class TestCommitOnSuccess:
    def test_strict_push_failure_before_absorption_is_retryable(self, workload):
        pid = min(workload)
        chunks = [chunk for _, chunk in workload[pid]]
        clean = StreamingMonitor(pid, FS, windowing=WINDOWING)
        retried = StreamingMonitor(pid, FS, windowing=WINDOWING)
        clean_windows, retried_windows = [], []
        for seq, chunk in enumerate(chunks):
            clean_windows.extend(clean.push(chunk, seq=seq))
            if seq == 2:
                with pytest.raises(ValueError):
                    retried.push(np.array(["not", "ecg"]), seq=seq)
            # The retry with the same seq must not be misread as a duplicate.
            retried_windows.extend(retried.push(chunk, seq=seq))
        clean_windows.extend(clean.finish())
        retried_windows.extend(retried.finish())
        assert [w.start_s for w in retried_windows] == [w.start_s for w in clean_windows]
        for a, b in zip(retried_windows, clean_windows):
            if b.features is None:
                assert a.features is None
            else:
                assert np.array_equal(a.features, b.features)

    def test_duplicate_rejection_still_holds_after_a_successful_push(self):
        monitor = StreamingMonitor(1, FS, windowing=WINDOWING)
        monitor.push(np.zeros(64), seq=0)
        with pytest.raises(DuplicateChunkError):
            monitor.push(np.zeros(64), seq=0)
        with pytest.raises(OutOfOrderChunkError):
            monitor.push(np.zeros(64), seq=5)

    def test_lossy_gap_commits_even_when_the_chunk_fails(self, workload):
        """The gap concerns frames already lost; a bad post-gap chunk must
        not double-count it on retry."""
        pid = min(workload)
        chunks = workload[pid]
        monitor = StreamingMonitor(pid, FS, windowing=WINDOWING, lossy=True)
        offset0, chunk0 = chunks[0]
        monitor.push(chunk0, seq=offset0)
        offset2, chunk2 = chunks[2]  # chunk 1 is lost
        with pytest.raises(ValueError):
            monitor.push(np.array(["bad"]), seq=offset2)
        assert monitor.n_gaps == 1  # the gap itself committed
        monitor.push(chunk2, seq=offset2)  # retry: same offset, no new gap
        assert monitor.n_gaps == 1


class TestLossyPushRequiresSeq:
    """A lossy push without ``seq`` used to be accepted without moving the
    tracker, so the next push with a real offset read as a phantom gap."""

    def test_monitor_rejects_seqless_push_before_touching_state(self):
        monitor = StreamingMonitor(1, 128.0, lossy=True)
        x = np.zeros(512)
        before = monitor.snapshot()
        with pytest.raises(ValueError, match="seq"):
            monitor.push(x)
        assert monitor.snapshot() == before
        monitor.push(x, seq=0)
        monitor.push(x, seq=512)
        assert monitor.n_gaps == 0

    def test_fleet_rejects_seqless_push(self, quantized_detector):
        fleet = MonitorFleet(quantized_detector, 128.0, lossy=True)
        x = np.zeros(512)
        with pytest.raises(ValueError, match="seq"):
            fleet.push(1, x)
        fleet.push(1, x, seq=0)
        fleet.push(1, x, seq=512)
        assert fleet.gap_stats().gaps == 0
        assert fleet.stats().chunks_since_drain == 2


# ---------------------------------------------------------------------------
# Gateway: marker compaction, ledger-at-every-await, loss-pattern fuzz
# ---------------------------------------------------------------------------


def _lossy_gateway(quantized_detector, n_shards=1, queue_depth=64, backpressure="shed-oldest"):
    fleet = ShardedFleet(
        quantized_detector, FS, n_shards=n_shards, windowing=WINDOWING, lossy=True
    )
    return IngestGateway(
        fleet, queue_depth=queue_depth, backpressure=backpressure, lossy=True
    )


def _interleave(workload, dropped_by_patient):
    """Round-robin frame order (the arrival order run_streams uses), with
    each patient's dropped frames removed."""
    feeds = {
        pid: [e for i, e in enumerate(chunks) if i not in dropped_by_patient.get(pid, ())]
        for pid, chunks in workload.items()
    }
    iterators = {pid: iter(feed) for pid, feed in feeds.items()}
    frames = []
    while iterators:
        for pid in list(iterators):
            try:
                offset, chunk = next(iterators[pid])
            except StopIteration:
                del iterators[pid]
                continue
            frames.append(EcgChunk(pid, offset, FS, chunk))
    return frames


class TestLossyModeConfig:
    def test_gateway_and_fleet_must_agree_on_lossy(self, quantized_detector):
        strict_fleet = MonitorFleet(quantized_detector, FS, windowing=WINDOWING)
        with pytest.raises(ValueError, match="lossy"):
            IngestGateway(strict_fleet, lossy=True)
        lossy_fleet = MonitorFleet(quantized_detector, FS, windowing=WINDOWING, lossy=True)
        with pytest.raises(ValueError, match="lossy"):
            IngestGateway(lossy_fleet)

    def test_lossy_gateway_enforces_seq_by_default(self, quantized_detector):
        gateway = _lossy_gateway(quantized_detector)
        assert gateway.enforce_seq  # gap detection needs the seqs delivered

    def test_lossy_cluster_defaults_to_shed_oldest(self, quantized_detector):
        cluster = GatewayCluster(
            quantized_detector, FS, n_nodes=2, windowing=WINDOWING, lossy=True
        )
        for node in cluster._nodes.values():
            assert node.gateway.lossy and node.fleet.lossy
            assert node.gateway.backpressure == "shed-oldest"
        strict = GatewayCluster(quantized_detector, FS, n_nodes=2, windowing=WINDOWING)
        for node in strict._nodes.values():
            assert node.gateway.backpressure == "block"


class TestShedMarkerCompaction:
    def test_multi_thousand_shed_soak_keeps_the_order_deque_bounded(
        self, quantized_detector
    ):
        """Satellite regression: stale markers left by shed frames must not
        accumulate — before compaction, a 3000-frame soak at queue depth 2
        left ~3000 corpses in the arrival-order deque."""
        gateway = _lossy_gateway(quantized_detector, queue_depth=2)

        async def soak():
            offsets = {pid: 0 for pid in (1, 2, 3)}
            peak = 0
            for i in range(3000):
                pid = 1 + i % 3
                chunk = np.zeros(32)
                await gateway.submit_chunk(EcgChunk(pid, offsets[pid], FS, chunk))
                offsets[pid] += 32
                peak = max(peak, len(gateway._order))
                stale = len(gateway._order) - gateway._queued
                assert stale <= max(64, gateway._queued) + 1
            return peak

        peak = asyncio.run(soak())
        stats = gateway.stats()
        assert stats.frames_received == 3000
        assert stats.frames_shed == 3000 - stats.queued_frames
        assert stats.fully_accounted
        # Bounded: far below the 3000 markers an uncompacted deque would hold.
        assert peak <= stats.queued_frames + 66

    def test_soak_then_drain_delivers_the_survivors(self, quantized_detector):
        gateway = _lossy_gateway(quantized_detector, queue_depth=2)

        async def run():
            offsets = {pid: 0 for pid in (1, 2)}
            for i in range(500):
                pid = 1 + i % 2
                await gateway.submit_chunk(EcgChunk(pid, offsets[pid], FS, np.zeros(32)))
                offsets[pid] += 32
            await gateway.start()
            await gateway.stop()

        asyncio.run(run())
        stats = gateway.stats()
        assert stats.fully_accounted
        assert stats.queued_frames == 0
        assert stats.frames_delivered + stats.frames_shed == 500
        assert len(gateway._order) == 0


class TestLedgerAtEveryAwait:
    def test_fully_accounted_at_every_pump_suspension(self, workload, quantized_detector):
        """The pump awaits only between ``_deliver_one`` calls; asserting the
        ledger around every call therefore covers every suspension point of
        the lossy pump path — including gap-dropped outcomes."""
        gateway = _lossy_gateway(quantized_detector, queue_depth=4)
        original = gateway._deliver_one
        calls = {"n": 0}

        def checked():
            assert gateway.stats().fully_accounted
            delivered = original()
            assert gateway.stats().fully_accounted
            calls["n"] += 1
            return delivered

        gateway._deliver_one = checked

        async def run():
            await gateway.start()
            dropped = {pid: {2, 5} for pid in workload}
            for frame in _interleave(workload, dropped):
                await gateway.submit_chunk(frame)
                assert gateway.stats().fully_accounted
            # A stale datagram (offset far behind every stream) exercises the
            # gap-dropped outcome inside the instrumented pump.
            pid = min(workload)
            await gateway.submit_chunk(EcgChunk(pid, 0, FS, np.zeros(16)))
            return await gateway.stop()

        asyncio.run(run())
        stats = gateway.stats()
        assert calls["n"] > 0
        assert stats.fully_accounted
        assert stats.frames_gap_dropped >= 1  # the stale replay was absorbed
        assert stats.gaps_detected > 0
        assert stats.frames_received == (
            stats.frames_delivered
            + stats.frames_shed
            + stats.frames_gap_dropped
            + stats.frames_errored
        )


class TestLossPatternFuzz:
    """Random loss patterns x backpressure policies x shard counts."""

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_any_loss_pattern_any_topology_bounded_impact(
        self, workload, quantized_detector, reference_decisions, data
    ):
        n_shards = data.draw(st.sampled_from([1, 2, 4]))
        policy = data.draw(st.sampled_from(["shed-oldest", "reject"]))
        # A shallow queue makes the policy itself lose frames on top of the
        # upstream datagram loss; shed- and reject-induced loss must be
        # absorbed as gaps exactly like wire loss.
        queue_depth = data.draw(st.sampled_from([3, 64]))
        dropped_by_patient = {}
        for pid, chunks in workload.items():
            n = len(chunks)
            dropped = set(
                data.draw(st.lists(st.integers(0, n - 1), max_size=n // 3, unique=True))
            )
            if data.draw(st.booleans()):  # a burst
                start = data.draw(st.integers(0, n - 2))
                dropped.update(range(start, min(n, start + 4)))
            if data.draw(st.booleans()):  # head-of-stream loss
                dropped.update(range(data.draw(st.integers(1, 3))))
            dropped_by_patient[pid] = dropped
        frames = _interleave(workload, dropped_by_patient)

        gateway = _lossy_gateway(
            quantized_detector,
            n_shards=n_shards,
            backpressure=policy,
            queue_depth=queue_depth,
        )

        async def run():
            await gateway.start()
            for frame in frames:
                try:
                    await gateway.submit_chunk(frame)
                except BackpressureError:
                    pass  # recorded in frames_rejected; the stream goes on
            return await gateway.stop()

        decisions = asyncio.run(run())
        _assert_bounded_impact(
            reference_decisions, decisions, workload, dropped_by_patient
        )
        stats = gateway.stats()
        assert stats.frames_received == len(frames)
        assert stats.fully_accounted
        if queue_depth == 64:
            # Deep queue: nothing shed or rejected, so the monitors see every
            # surviving frame and the gap count is exactly predictable — one
            # per maximal dropped run that a delivered frame follows.
            assert stats.frames_shed == stats.frames_rejected == 0
            assert stats.frames_gap_dropped == 0
            assert stats.gaps_detected == sum(
                _expected_gaps(workload[pid], dropped)
                for pid, dropped in dropped_by_patient.items()
            )
        assert stats.windows_reset_by_gap >= 0


# ---------------------------------------------------------------------------
# Lossy cluster: flag threading and cluster-wide gap accounting
# ---------------------------------------------------------------------------


class TestLossyCluster:
    def test_cluster_survives_loss_with_bounded_impact(
        self, workload, quantized_detector, reference_decisions
    ):
        cluster = GatewayCluster(
            quantized_detector, FS, n_nodes=2, windowing=WINDOWING, lossy=True
        )
        dropped_by_patient = {pid: {1, 4, 5} for pid in workload}
        frames = _interleave(workload, dropped_by_patient)

        async def run():
            await cluster.start()
            for frame in frames:
                await cluster.submit(
                    encode_chunk(frame.patient_id, frame.seq, FS, frame.samples)
                )
            decisions = await cluster.stop()
            return decisions

        decisions = asyncio.run(run())
        _assert_bounded_impact(
            reference_decisions, decisions, workload, dropped_by_patient
        )
        stats = cluster.stats()
        assert stats.fully_accounted
        assert stats.gaps_detected > 0
        assert stats.windows_reset_by_gap >= 0
        assert stats.frames_gap_dropped >= 0
        # The aggregates are sums over member gateways (and retired nodes).
        assert stats.gaps_detected == sum(
            g.gaps_detected for g in stats.gateways.values()
        )
