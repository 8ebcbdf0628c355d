"""Parity and backpressure tests for the async ingestion gateway.

Two contracts are under test.  **Parity**: for any chunking of the byte
stream (hypothesis-chosen socket write sizes), any queue depth and any
backpressure policy that drops no frames, a workload streamed through the
TCP gateway yields decisions identical to the synchronous
:class:`~repro.serving.sharding.ShardedFleet` loop — bit-exact scores on the
quantized path.  **Accounting**: under the lossy policies every frame is
delivered, queued, shed, rejected or errored; an over-rate producer can
never deadlock the fleet or make a frame vanish untallied.

There is no pytest-asyncio in the environment; every async scenario runs
under its own ``asyncio.run``.
"""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    BackpressureError,
    ChunkCountPolicy,
    IngestGateway,
    LatencyPolicy,
    MonitorFleet,
    PendingWindow,
    PendingWindowPolicy,
    ShardedFleet,
    StreamDecoder,
    WireFormatError,
    encode_chunk,
    iter_chunks,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg

FS = 128.0


# ---------------------------------------------------------------------------
# StreamDecoder: chunking invariance and early failure
# ---------------------------------------------------------------------------


def _frame_blob(n_frames=8, seed=3):
    rng = np.random.default_rng(seed)
    frames = [
        encode_chunk(i % 3, i // 3, FS, rng.standard_normal(int(rng.integers(0, 80))))
        for i in range(n_frames)
    ]
    return b"".join(frames)


class TestStreamDecoder:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_read_chunking_yields_the_same_frames(self, data):
        blob = _frame_blob(n_frames=data.draw(st.integers(0, 8)))
        expected = list(iter_chunks(blob))
        cuts = sorted(
            data.draw(
                st.lists(st.integers(1, max(1, len(blob))), max_size=30, unique=True)
            )
        )
        decoder = StreamDecoder()
        chunks = []
        lo = 0
        for cut in cuts + [len(blob)]:
            chunks.extend(decoder.feed(blob[lo:cut]))
            lo = cut
        decoder.finish()
        assert decoder.at_frame_boundary
        assert decoder.frames_decoded == len(expected)
        assert [(c.patient_id, c.seq, c.n_samples) for c in chunks] == [
            (c.patient_id, c.seq, c.n_samples) for c in expected
        ]
        for got, want in zip(chunks, expected):
            assert np.array_equal(got.samples, want.samples)

    def test_partial_tail_is_buffered_not_an_error(self):
        blob = _frame_blob(n_frames=2)
        decoder = StreamDecoder()
        chunks = decoder.feed(blob[:-5])
        assert len(chunks) == 1
        assert decoder.buffered_bytes > 0 and not decoder.at_frame_boundary
        chunks += decoder.feed(blob[-5:])
        assert len(chunks) == 2 and decoder.at_frame_boundary

    def test_bad_magic_fails_before_the_header_completes(self):
        decoder = StreamDecoder()
        with pytest.raises(WireFormatError, match="bad magic"):
            decoder.feed(b"EC?!")

    def test_header_corruption_fails_before_the_payload_arrives(self):
        frame = encode_chunk(1, 0, FS, np.zeros(1024))
        bad = bytearray(frame[:40])
        bad[4] ^= 0xFF  # version byte
        decoder = StreamDecoder()
        with pytest.raises(WireFormatError, match="version"):
            decoder.feed(bytes(bad))

    def test_crc_mismatch_detected_once_the_payload_completes(self):
        frame = bytearray(encode_chunk(1, 0, FS, np.arange(16.0)))
        frame[40] ^= 0x01
        decoder = StreamDecoder()
        assert decoder.feed(bytes(frame[:-1])) == []
        with pytest.raises(WireFormatError, match="CRC"):
            decoder.feed(bytes(frame[-1:]))

    def test_corrupt_decoder_refuses_further_input(self):
        decoder = StreamDecoder()
        with pytest.raises(WireFormatError):
            decoder.feed(b"NOPE")
        with pytest.raises(WireFormatError, match="drop the connection"):
            decoder.feed(b"")
        with pytest.raises(WireFormatError, match="drop the connection"):
            decoder.finish()

    def test_finish_rejects_mid_frame_eof(self):
        decoder = StreamDecoder()
        decoder.feed(_frame_blob(n_frames=1)[:-1])
        with pytest.raises(WireFormatError, match="ended mid-frame"):
            decoder.finish()

    def test_corruption_does_not_cost_frames_decoded_in_the_same_feed(self):
        """Valid frames ahead of garbage in one read are delivered; the
        error defers to the next call — so the delivered count is invariant
        under read chunking even for corrupt streams."""
        blob = _frame_blob(n_frames=3) + b"GARBAGE GARBAGE GARBAGE GARBAGE"
        one_read = StreamDecoder()
        chunks = one_read.feed(blob)
        assert len(chunks) == 3
        with pytest.raises(WireFormatError, match="bad magic"):
            one_read.feed(b"")
        with pytest.raises(WireFormatError, match="drop the connection"):
            one_read.feed(b"")

        per_byte = StreamDecoder()
        salvaged = []
        error = None
        for i in range(len(blob)):
            try:
                salvaged.extend(per_byte.feed(blob[i : i + 1]))
            except WireFormatError as exc:
                error = exc
                break
        assert len(salvaged) == 3 and error is not None

    def test_deferred_error_also_surfaces_on_finish(self):
        decoder = StreamDecoder()
        assert len(decoder.feed(_frame_blob(n_frames=1) + b"JUNK")) == 1
        with pytest.raises(WireFormatError, match="bad magic"):
            decoder.finish()

    def test_oversized_payload_declaration_is_rejected_at_the_header(self):
        """A corrupt sample count must not make the decoder buffer forever:
        the bound rejects it as soon as the 32-byte header arrives."""
        frame = encode_chunk(1, 0, FS, np.zeros(64))
        decoder = StreamDecoder(max_frame_bytes=64 * 8)
        assert len(decoder.feed(frame)) == 1  # at the bound: fine
        big = encode_chunk(1, 1, FS, np.zeros(65))
        fresh = StreamDecoder(max_frame_bytes=64 * 8)
        with pytest.raises(WireFormatError, match="frame bound"):
            fresh.feed(big[: 32 + 8])  # header + a few payload bytes suffice
        with pytest.raises(ValueError, match="max_frame_bytes"):
            StreamDecoder(max_frame_bytes=0)


# ---------------------------------------------------------------------------
# Gateway parity with the synchronous sharded loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    """Small multi-patient raw-ECG workload plus its wire-format byte stream."""
    params = CohortParams(
        n_patients=3,
        n_sessions=3,
        session_duration_s=900.0,
        total_seizures=3,
        seed=33,
        ecg_params=ECGWaveformParams(fs=FS),
    )
    cohort = generate_cohort(params)
    rng = np.random.default_rng(34)
    streams = {}
    for recording in cohort.recordings:
        ecg = synthesize_ecg(
            recording.beat_times_s, recording.duration_s, recording.respiration, rng
        )
        chunks = []
        lo = 0
        while lo < ecg.ecg_mv.size:
            size = int(rng.integers(300, 5000))
            chunks.append(ecg.ecg_mv[lo : lo + size])
            lo += size
        streams[recording.patient_id] = chunks
    # One byte stream: frames interleaved round-robin across patients, the
    # arrival order the synchronous run_streams driver uses.
    sequence = {pid: 0 for pid in streams}
    iterators = {pid: iter(chunks) for pid, chunks in streams.items()}
    frames = []
    while iterators:
        for pid in list(iterators):
            try:
                chunk = next(iterators[pid])
            except StopIteration:
                del iterators[pid]
                continue
            frames.append(encode_chunk(pid, sequence[pid], FS, chunk))
            sequence[pid] += 1
    return dict(streams=streams, frames=frames, blob=b"".join(frames))


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


@pytest.fixture(scope="module")
def reference_decisions(workload, quantized_detector):
    """The synchronous sharded loop over the same workload."""
    fleet = ShardedFleet(quantized_detector, FS, n_shards=2)
    decisions = fleet.run(workload["streams"])
    assert any(d.usable for d in decisions)  # the parity must mean something
    return decisions


def _assert_decisions_identical(reference, candidate, *, exact_scores=True):
    assert len(candidate) == len(reference)
    for expected, got in zip(reference, candidate):
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


async def _stream_pieces(gateway, pieces):
    """Write a pre-cut byte stream over one TCP connection, then stop."""
    host, port = await gateway.serve()
    _, writer = await asyncio.open_connection(host, port)
    for piece in pieces:
        writer.write(piece)
        await writer.drain()
    writer.close()
    await writer.wait_closed()
    return await gateway.stop()


class TestGatewayParity:
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_tcp_stream_matches_sync_loop_for_any_read_chunking(
        self, workload, quantized_detector, reference_decisions, data
    ):
        blob = workload["blob"]
        queue_depth = data.draw(st.integers(1, 8))
        policy = data.draw(
            st.sampled_from(
                [None, ChunkCountPolicy(3), PendingWindowPolicy(2), LatencyPolicy(0.0)]
            )
        )
        cuts = sorted(
            data.draw(st.lists(st.integers(1, len(blob) - 1), max_size=64, unique=True))
        )
        bounds = [0] + cuts + [len(blob)]
        pieces = [blob[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

        fleet = ShardedFleet(quantized_detector, FS, n_shards=2)
        gateway = IngestGateway(
            fleet, queue_depth=queue_depth, backpressure="block", drain_policy=policy
        )
        decisions = asyncio.run(_stream_pieces(gateway, pieces))
        _assert_decisions_identical(reference_decisions, decisions)

        stats = gateway.stats()
        assert stats.frames_received == len(workload["frames"])
        assert stats.frames_delivered == stats.frames_received
        assert stats.frames_shed == stats.frames_rejected == stats.frames_errored == 0
        assert stats.fully_accounted
        assert stats.decisions == len(decisions)

    def test_one_connection_per_patient_matches_sync_loop(
        self, workload, quantized_detector, reference_decisions
    ):
        """Concurrent per-node connections: cross-patient arrival order is
        nondeterministic, but per-patient FIFO + canonical ordering keep the
        decisions identical."""

        async def run():
            fleet = ShardedFleet(quantized_detector, FS, n_shards=2)
            gateway = IngestGateway(fleet, queue_depth=4)
            host, port = await gateway.serve()

            async def node(pid):
                _, writer = await asyncio.open_connection(host, port)
                seq = 0
                for chunk in workload["streams"][pid]:
                    writer.write(encode_chunk(pid, seq, FS, chunk))
                    if seq % 3 == 0:
                        await writer.drain()
                    seq += 1
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(*[node(pid) for pid in workload["streams"]])
            return await gateway.stop(), gateway.stats()

        decisions, stats = asyncio.run(run())
        _assert_decisions_identical(reference_decisions, decisions)
        assert stats.connections == len(workload["streams"])
        assert stats.fully_accounted

    def test_in_process_submit_matches_sync_loop(
        self, workload, quantized_detector, reference_decisions
    ):
        async def run():
            fleet = ShardedFleet(quantized_detector, FS, n_shards=2)
            async with IngestGateway(fleet, queue_depth=2) as gateway:
                for frame in workload["frames"]:
                    await gateway.submit(frame)
            return gateway.decisions

        decisions = asyncio.run(run())
        _assert_decisions_identical(reference_decisions, decisions)


# ---------------------------------------------------------------------------
# Backpressure policies and the frame ledger
# ---------------------------------------------------------------------------


class _NoCallClassifier:
    def scores_and_labels(self, X):  # pragma: no cover - never called
        raise AssertionError("classification not expected in this test")


def _zero_frames(patient_id, count, n_samples=64):
    return [encode_chunk(patient_id, seq, FS, np.zeros(n_samples)) for seq in range(count)]


class TestBackpressure:
    def test_shed_oldest_keeps_the_newest_frames(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4, backpressure="shed-oldest")
            for frame in _zero_frames(0, 12):
                await gateway.submit(frame)
            before = gateway.stats()
            await gateway.stop()
            return fleet, before, gateway.stats()

        fleet, before, after = asyncio.run(run())
        assert before.frames_received == 12
        assert before.frames_shed == 8
        assert before.queued_frames == 4
        assert before.fully_accounted
        assert after.frames_delivered == 4
        assert after.frames_errored == 0  # lossy policy relaxes seq enforcement
        assert after.queued_frames == 0
        assert after.fully_accounted
        # Only the newest four frames reached the DSP state.
        assert fleet.monitor(0).time_seen_s == pytest.approx(4 * 64 / FS)

    def test_shed_is_per_patient(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=2, backpressure="shed-oldest")
            for frame in _zero_frames(0, 5) + _zero_frames(1, 2):
                await gateway.submit(frame)
            stats = gateway.stats()
            await gateway.stop()
            return stats, gateway.stats()

        before, after = asyncio.run(run())
        # Patient 0 overflowed (3 sheds); patient 1 fit exactly.
        assert before.frames_shed == 3
        assert before.queued_frames == 4
        assert after.frames_delivered == 4
        assert after.fully_accounted

    def test_reject_raises_and_counts(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=3, backpressure="reject")
            frames = _zero_frames(5, 5)
            for frame in frames[:3]:
                await gateway.submit(frame)
            rejections = 0
            for frame in frames[3:]:
                with pytest.raises(BackpressureError) as excinfo:
                    await gateway.submit(frame)
                assert excinfo.value.patient_id == 5
                rejections += 1
            stats = gateway.stats()
            await gateway.stop()
            return rejections, stats, gateway.stats()

        rejections, before, after = asyncio.run(run())
        assert rejections == 2
        assert before.frames_rejected == 2 and before.queued_frames == 3
        assert before.fully_accounted
        assert after.frames_delivered == 3 and after.fully_accounted

    def test_block_policy_holds_the_producer_until_the_pump_makes_room(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=2, backpressure="block")
            frames = _zero_frames(0, 10)

            async def producer():
                for frame in frames:
                    await gateway.submit(frame)

            task = asyncio.get_running_loop().create_task(producer())
            await asyncio.sleep(0.05)
            # Without the pump, the producer is parked on a full queue — and
            # the frame it is holding is not yet "received", so the ledger
            # balances even mid-block.
            assert not task.done()
            blocked = gateway.stats()
            assert blocked.queued_frames == 2
            assert blocked.frames_received == 2
            assert blocked.fully_accounted
            await gateway.start()
            await asyncio.wait_for(task, timeout=5.0)
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.frames_received == stats.frames_delivered == 10
        assert stats.frames_shed == stats.frames_rejected == 0
        assert stats.max_queue_depth <= 2
        assert stats.fully_accounted

    def test_over_rate_tcp_producer_sheds_without_deadlock(self):
        n_frames = 200

        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=8, backpressure="shed-oldest")
            host, port = await gateway.serve()
            _, writer = await asyncio.open_connection(host, port)
            # One giant burst: the reader decodes far faster than the pump
            # delivers, so the per-patient queue must overflow and shed.
            writer.write(b"".join(_zero_frames(3, n_frames)))
            writer.close()
            await writer.wait_closed()
            decisions = await asyncio.wait_for(gateway.stop(), timeout=10.0)
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(run())
        assert decisions == []
        assert stats.frames_received == n_frames
        assert stats.frames_shed > 0
        assert stats.queued_frames == 0
        # The ledger balances: delivered + shed + rejected (+ errored) == sent.
        assert (
            stats.frames_delivered + stats.frames_shed + stats.frames_rejected
            == n_frames
        )
        assert stats.frames_errored == 0
        assert stats.fully_accounted

    def test_strict_sequencing_under_block_counts_transport_gaps(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4, backpressure="block")
            assert gateway.enforce_seq
            await gateway.submit(encode_chunk(0, 0, FS, np.zeros(64)))
            await gateway.submit(encode_chunk(0, 2, FS, np.zeros(64)))  # gap!
            await gateway.stop()
            return fleet, gateway.stats()

        fleet, stats = asyncio.run(run())
        assert stats.frames_delivered == 1 and stats.frames_errored == 1
        assert stats.fully_accounted
        # The gap never reached the DSP state.
        assert fleet.monitor(0).time_seen_s == pytest.approx(64 / FS)

    def test_unknown_patient_on_closed_fleet_counts_as_errored(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS, auto_register=False)
            fleet.add_patient(1)
            gateway = IngestGateway(fleet, queue_depth=4)
            await gateway.submit(encode_chunk(1, 0, FS, np.zeros(64)))
            await gateway.submit(encode_chunk(99, 0, FS, np.zeros(64)))
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.frames_delivered == 1 and stats.frames_errored == 1
        assert stats.fully_accounted

    def test_submit_of_an_undecodable_frame_counts_as_a_wire_error(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            with pytest.raises(WireFormatError):
                await gateway.submit(b"not a frame at all")
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.wire_errors == 1
        assert stats.frames_received == 0 and stats.frames_errored == 0
        assert stats.bytes_received == len(b"not a frame at all")
        assert stats.fully_accounted

    def test_fs_mismatch_is_rejected_at_the_door(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            with pytest.raises(WireFormatError, match="does not match"):
                await gateway.submit(encode_chunk(0, 0, 2 * FS, np.zeros(64)))
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.frames_received == 1 and stats.frames_errored == 1
        assert stats.frames_delivered == 0
        assert stats.fully_accounted

    def test_validation(self):
        fleet = MonitorFleet(_NoCallClassifier(), FS)
        with pytest.raises(ValueError, match="backpressure"):
            IngestGateway(fleet, backpressure="drop-newest")
        with pytest.raises(ValueError, match="queue_depth"):
            IngestGateway(fleet, queue_depth=0)


# ---------------------------------------------------------------------------
# Transport robustness, scheduling and shutdown
# ---------------------------------------------------------------------------


class TestGatewayLifecycle:
    def test_corrupt_connection_dies_alone(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            host, port = await gateway.serve()

            _, bad = await asyncio.open_connection(host, port)
            bad.write(b"GARBAGE STREAM")
            bad.close()
            await bad.wait_closed()

            _, good = await asyncio.open_connection(host, port)
            good.write(b"".join(_zero_frames(1, 3)))
            good.close()
            await good.wait_closed()

            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.wire_errors == 1
        assert stats.frames_delivered == 3
        assert stats.connections == 2
        assert stats.fully_accounted

    def test_truncated_connection_counts_as_wire_error(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            host, port = await gateway.serve()
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_zero_frames(1, 1)[0][:-3])  # EOF mid-frame
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.wire_errors == 1 and stats.frames_received == 0

    def test_stop_flushes_pending_windows(self, quantized_detector, feature_matrix):
        window = PendingWindow(
            patient_id=0,
            start_s=0.0,
            end_s=180.0,
            n_beats=200,
            features=feature_matrix.X[0],
        )

        async def run():
            fleet = MonitorFleet(quantized_detector, FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            await gateway.start()
            fleet.enqueue([window])
            decisions = await gateway.stop()
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(run())
        assert len(decisions) == 1 and decisions[0].usable
        assert stats.decisions == 1 and stats.drains == 1

    def test_latency_policy_fires_on_the_idle_tick(self, quantized_detector, feature_matrix):
        """The injectable fleet clock makes LatencyPolicy testable under
        asyncio: the drain fires only once *fake* time passes, discovered by
        the pump's idle poll without any new frames arriving."""
        fake_now = [0.0]
        window = PendingWindow(
            patient_id=0,
            start_s=0.0,
            end_s=180.0,
            n_beats=200,
            features=feature_matrix.X[0],
        )

        async def run():
            fleet = MonitorFleet(
                quantized_detector,
                FS,
                drain_policy=LatencyPolicy(10.0),
                clock=lambda: fake_now[0],
            )
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=0.01)
            await gateway.start()
            fleet.enqueue([window])
            await asyncio.sleep(0.05)
            quiet = list(gateway.decisions)  # policy must not have fired yet
            fake_now[0] = 11.0
            for _ in range(100):
                await asyncio.sleep(0.01)
                if gateway.decisions:
                    break
            fired = list(gateway.decisions)
            await gateway.stop()
            return quiet, fired

        quiet, fired = asyncio.run(run())
        assert quiet == []
        assert len(fired) == 1

    def test_stop_disconnects_idle_open_connections(self):
        """A node that delivered its frames but holds the socket open (the
        steady state of an always-on wearable) must not park shutdown."""

        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4, close_grace_s=0.2)
            host, port = await gateway.serve()
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_zero_frames(1, 2)))
            await writer.drain()
            await asyncio.sleep(0.1)  # frames land; the link stays open, idle
            await asyncio.wait_for(gateway.stop(), timeout=5.0)
            stats = gateway.stats()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return stats

        stats = asyncio.run(run())
        assert stats.frames_delivered == 2
        assert stats.wire_errors == 0  # a forced close is not corruption
        assert stats.fully_accounted

    def test_restarted_gateway_still_detects_truncated_streams(self):
        """A stop() that force-closed an idle link must not leave truncation
        detection disarmed when the gateway is started again."""

        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4, close_grace_s=0.1)
            host, port = await gateway.serve()
            _, idle = await asyncio.open_connection(host, port)
            idle.write(b"".join(_zero_frames(1, 1)))
            await idle.drain()
            await asyncio.sleep(0.05)
            await gateway.stop()  # forces the idle link closed

            host, port = await gateway.serve()
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_zero_frames(1, 1)[0][:-3])  # node dies mid-frame
            writer.close()
            await writer.wait_closed()
            await gateway.stop()

            idle.close()
            try:
                await idle.wait_closed()
            except (ConnectionError, OSError):
                pass
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.wire_errors == 1

    def test_stop_survives_and_retries_a_pump_classifier_fault(
        self, quantized_detector, feature_matrix
    ):
        """PR 2's retryable-drain contract holds at the gateway layer: a
        classifier fault that kills the pump costs nothing once it clears —
        and a persistent fault propagates with every queue intact."""

        class _FlakyClassifier:
            def __init__(self):
                self.fail = True

            def scores_and_labels(self, X):
                if self.fail:
                    raise RuntimeError("transient classifier fault")
                return quantized_detector.scores_and_labels(X)

        def window(start_s):
            return PendingWindow(
                patient_id=0,
                start_s=start_s,
                end_s=start_s + 180.0,
                n_beats=200,
                features=feature_matrix.X[0],
            )

        async def transient():
            flaky = _FlakyClassifier()
            fleet = MonitorFleet(flaky, FS, drain_policy=LatencyPolicy(0.0))
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=0.01)
            await gateway.start()
            fleet.enqueue([window(0.0)])
            await asyncio.sleep(0.05)  # idle-tick drain raises; the pump dies
            flaky.fail = False  # the fault clears before shutdown
            decisions = await gateway.stop()
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(transient())
        assert len(decisions) == 1 and decisions[0].usable
        assert stats.fully_accounted

        async def persistent():
            flaky = _FlakyClassifier()
            previous = LatencyPolicy(0.0)
            fleet = MonitorFleet(flaky, FS, drain_policy=previous)
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=0.01)
            await gateway.start()
            fleet.enqueue([window(0.0)])
            with pytest.raises(RuntimeError, match="classifier fault"):
                await gateway.stop()  # final drain hits the persistent fault
            assert fleet.drain_policy is previous  # restored even on failure
            assert fleet.pending_count == 1  # the window survived, retryable
            flaky.fail = False
            decisions = await gateway.stop()
            return decisions

        decisions = asyncio.run(persistent())
        assert len(decisions) == 1 and decisions[0].usable

    def test_start_revives_a_dead_pump(self, quantized_detector, feature_matrix):
        class _FlakyClassifier:
            def __init__(self):
                self.fail = True

            def scores_and_labels(self, X):
                if self.fail:
                    raise RuntimeError("transient classifier fault")
                return quantized_detector.scores_and_labels(X)

        flaky = _FlakyClassifier()
        window = PendingWindow(
            patient_id=0,
            start_s=0.0,
            end_s=180.0,
            n_beats=200,
            features=feature_matrix.X[0],
        )

        async def run():
            fleet = MonitorFleet(flaky, FS, drain_policy=LatencyPolicy(0.0))
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=0.01)
            await gateway.start()
            fleet.enqueue([window])
            await asyncio.sleep(0.05)  # idle-tick drain raises; the pump dies
            flaky.fail = False
            await gateway.start()  # revives delivery without a teardown
            await gateway.submit(_zero_frames(3, 1)[0])
            for _ in range(100):
                await asyncio.sleep(0.01)
                if gateway.stats().frames_delivered:
                    break
            delivered_live = gateway.stats().frames_delivered
            decisions = await gateway.stop()
            return delivered_live, decisions

        delivered_live, decisions = asyncio.run(run())
        assert delivered_live == 1  # delivered by the revived pump, not stop()
        assert len(decisions) == 1 and decisions[0].usable

    def test_reviving_a_dead_pump_keeps_the_true_previous_policy(
        self, quantized_detector, feature_matrix
    ):
        """start() after a pump death must not re-capture the gateway's own
        installed policy as the fleet's 'previous' one."""

        class _OneFaultClassifier:
            def __init__(self):
                self.fail = True

            def scores_and_labels(self, X):
                if self.fail:
                    raise RuntimeError("transient classifier fault")
                return quantized_detector.scores_and_labels(X)

        flaky = _OneFaultClassifier()
        window = PendingWindow(
            patient_id=0,
            start_s=0.0,
            end_s=180.0,
            n_beats=200,
            features=feature_matrix.X[0],
        )

        async def run():
            callers_policy = PendingWindowPolicy(32)
            gateway_policy = LatencyPolicy(0.0)
            fleet = MonitorFleet(flaky, FS, drain_policy=callers_policy)
            gateway = IngestGateway(
                fleet, queue_depth=4, poll_interval_s=0.01, drain_policy=gateway_policy
            )
            await gateway.start()
            fleet.enqueue([window])
            await asyncio.sleep(0.05)  # pump dies on the fault
            flaky.fail = False
            await gateway.start()  # revive
            await gateway.stop()
            return callers_policy, fleet.drain_policy

        callers_policy, final = asyncio.run(run())
        assert final is callers_policy

    def test_stop_restores_the_fleets_previous_drain_policy(self):
        async def run():
            previous = PendingWindowPolicy(32)
            gateway_policy = ChunkCountPolicy(3)
            fleet = MonitorFleet(_NoCallClassifier(), FS, drain_policy=previous)
            gateway = IngestGateway(fleet, drain_policy=gateway_policy)
            await gateway.start()
            assert fleet.drain_policy is gateway_policy
            await gateway.stop()
            restored_once = fleet.drain_policy
            # A restarted gateway reinstalls its policy for the new period.
            await gateway.start()
            reinstalled = fleet.drain_policy
            await gateway.stop()
            return previous, gateway_policy, restored_once, reinstalled, fleet

        previous, gateway_policy, restored_once, reinstalled, fleet = asyncio.run(run())
        assert restored_once is previous
        assert reinstalled is gateway_policy
        assert fleet.drain_policy is previous

    def test_gateway_survives_a_new_event_loop_per_serving_period(self):
        """Each serving period may run under its own asyncio.run (a cron job,
        a test harness).  Pre-3.12, asyncio.Event binds to the first loop
        that awaits it — the gateway must not carry stale bindings over."""
        fleet = MonitorFleet(_NoCallClassifier(), FS)
        gateway = IngestGateway(fleet, queue_depth=1, backpressure="block")

        async def period(patient_id):
            host, port = await gateway.serve()
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_zero_frames(patient_id, 4)))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # queue_depth=1 + block: progress requires a live pump; a pump
            # killed by a cross-loop Event would strand these frames.
            await asyncio.wait_for(gateway.stop(), timeout=5.0)

        asyncio.run(period(0))
        asyncio.run(period(1))
        stats = gateway.stats()
        assert stats.frames_delivered == 8
        assert stats.fully_accounted

    def test_stop_leaves_externally_set_policy_alone_when_gateway_has_none(self):
        async def run():
            fleet = MonitorFleet(
                _NoCallClassifier(), FS, drain_policy=PendingWindowPolicy(32)
            )
            gateway = IngestGateway(fleet)  # no gateway policy of its own
            await gateway.start()
            newer = ChunkCountPolicy(5)
            fleet.drain_policy = newer  # the caller swaps policies mid-run
            await gateway.stop()
            return newer, fleet.drain_policy

        newer, final = asyncio.run(run())
        assert final is newer

    def test_stop_unblocks_tcp_producers_when_the_pump_is_dead(
        self, quantized_detector, feature_matrix
    ):
        """The nastiest shutdown corner: the pump died on a classifier fault
        while a block-policy node handler is parked on a full queue.  stop()
        must wake the handler, absorb its frame and still flush everything."""

        class _FlakyClassifier:
            def __init__(self):
                self.fail = True

            def scores_and_labels(self, X):
                if self.fail:
                    raise RuntimeError("transient classifier fault")
                return quantized_detector.scores_and_labels(X)

        flaky = _FlakyClassifier()
        window = PendingWindow(
            patient_id=0,
            start_s=0.0,
            end_s=180.0,
            n_beats=200,
            features=feature_matrix.X[0],
        )
        n_frames = 8

        async def run():
            fleet = MonitorFleet(flaky, FS, drain_policy=LatencyPolicy(0.0))
            gateway = IngestGateway(
                fleet, queue_depth=2, poll_interval_s=0.01, close_grace_s=0.2
            )
            host, port = await gateway.serve()
            fleet.enqueue([window])
            await asyncio.sleep(0.05)  # idle-tick drain raises; the pump dies
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_zero_frames(3, n_frames)))
            await writer.drain()
            await asyncio.sleep(0.1)  # the handler parks on the full queue
            flaky.fail = False
            decisions = await asyncio.wait_for(gateway.stop(), timeout=10.0)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(run())
        assert len(decisions) == 1 and decisions[0].usable
        assert stats.frames_received == n_frames
        assert stats.frames_delivered == n_frames
        assert stats.fully_accounted

    def test_serve_twice_is_an_error(self):
        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4)
            await gateway.serve()
            with pytest.raises(RuntimeError, match="already serving"):
                await gateway.serve()
            await gateway.stop()

        asyncio.run(run())

    def test_stats_uptime_uses_the_injectable_clock(self):
        async def run():
            fake_now = [100.0]
            fleet = MonitorFleet(_NoCallClassifier(), FS)
            gateway = IngestGateway(fleet, queue_depth=4, clock=lambda: fake_now[0])
            assert gateway.stats().uptime_s == 0.0
            await gateway.start()
            fake_now[0] = 104.0
            for frame in _zero_frames(0, 8):
                await gateway.submit(frame)
            await gateway.stop()
            return gateway.stats()

        stats = asyncio.run(run())
        assert stats.uptime_s == pytest.approx(4.0)
        assert stats.frames_per_s == pytest.approx(stats.frames_delivered / 4.0)


# ---------------------------------------------------------------------------
# The pump's idle wait: one timer per idle period
# ---------------------------------------------------------------------------


def _count_polls(fleet):
    """Wrap ``fleet.maybe_drain`` (the pump's drain poll) with a call count."""
    polls = [0]
    poll = fleet.maybe_drain

    def counted():
        polls[0] += 1
        return poll()

    fleet.maybe_drain = counted
    return polls


class TestPumpIdleWait:
    def test_idle_gateway_drains_within_a_poll_interval(self, quantized_detector, feature_matrix):
        """No frame arrives, yet a time-based policy that comes due is
        drained by the next idle tick, about one poll interval later."""
        fake_now = [0.0]
        poll_interval_s = 0.02

        async def run():
            fleet = MonitorFleet(
                quantized_detector,
                FS,
                drain_policy=LatencyPolicy(10.0),
                clock=lambda: fake_now[0],
            )
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=poll_interval_s)
            await gateway.start()
            fleet.enqueue([PendingWindow(0, 0.0, 180.0, 200, features=feature_matrix.X[0])])
            await asyncio.sleep(3 * poll_interval_s)
            quiet = list(gateway.decisions)
            loop = asyncio.get_running_loop()
            fake_now[0] = 11.0
            due = loop.time()
            while not gateway.decisions and loop.time() - due < 5.0:
                await asyncio.sleep(poll_interval_s / 10)
            waited = loop.time() - due
            stats = gateway.stats()
            await gateway.stop()
            return quiet, waited, stats

        quiet, waited, stats = asyncio.run(run())
        assert quiet == []
        assert stats.frames_received == 0 and stats.drains == 1
        assert waited < 10 * poll_interval_s

    def test_stop_during_an_idle_wait_adds_no_drain(self, quantized_detector, feature_matrix):
        """stop() wakes a pump parked in a long idle wait at once, and that
        wake is not an idle tick: only the final drain runs."""

        async def run():
            fleet = MonitorFleet(quantized_detector, FS, drain_policy=LatencyPolicy(1e9))
            polls = _count_polls(fleet)
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=60.0)
            await gateway.start()
            fleet.enqueue([PendingWindow(0, 0.0, 180.0, 200, features=feature_matrix.X[0])])
            await asyncio.sleep(0.02)  # the pump parks in its idle wait
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            decisions = await gateway.stop()
            return polls[0], loop.time() - t0, decisions, gateway.stats()

        polls, stop_s, decisions, stats = asyncio.run(run())
        assert polls == 0
        assert stop_s < 5.0
        assert len(decisions) == 1 and stats.drains == 1

    def test_idle_ticks_start_no_tasks(self):
        """Over 100 idle ticks the loop runs only the caller and the pump:
        an idle wait is a timer, not a task."""

        async def run():
            fleet = MonitorFleet(_NoCallClassifier(), FS, drain_policy=LatencyPolicy(1e9))
            polls = _count_polls(fleet)
            gateway = IngestGateway(fleet, queue_depth=4, poll_interval_s=0.001)
            await gateway.start()
            expected = {asyncio.current_task(), gateway._pump_task}
            counts = set()
            while polls[0] < 100:
                await asyncio.sleep(0.001)
                assert asyncio.all_tasks() == expected
                counts.add(len(asyncio.all_tasks()))
            await gateway.stop()
            return counts

        assert asyncio.run(run()) == {2}
