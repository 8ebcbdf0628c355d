"""The serving layer's one TCP frame-stream path, and the gateway's
one-marker-per-frame arrival order.

:class:`~repro.serving.ingest.FrameStreamServer` carries every data
connection, the gateway's and the cluster's alike.  Two contracts are pinned
here, each the behaviour one of the two connection loops it replaced lacked:

* a control frame on a data port is a wire error that drops that connection
  only — it is never queued as data, so the gateway's pump keeps running and
  its ledger keeps balancing;
* ``GatewayCluster.stop()`` closes the data connections it accepted, so no
  connection task outlives it and no frame is routed after it returns.

The arrival-order deque holds exactly one marker per queued frame, through
``"shed-oldest"`` sheds, deliveries and handoffs.

There is no pytest-asyncio in the environment; every async scenario runs
under its own ``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest

from repro.serving import (
    EcgChunk,
    GatewayCluster,
    IngestGateway,
    MonitorFleet,
    encode_ack,
    encode_chunk,
    encode_handoff,
)

FS = 128.0
N_SAMPLES = 64


class _NoCallClassifier:
    def scores_and_labels(self, X):  # pragma: no cover - never called
        raise AssertionError("classification not expected in this test")


def _frames(patient_id, count, first_seq=0):
    return [
        encode_chunk(patient_id, seq, FS, np.zeros(N_SAMPLES))
        for seq in range(first_seq, first_seq + count)
    ]


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _settle(predicate, tries=500):
    for _ in range(tries):
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


# ---------------------------------------------------------------------------
# Control frames on a gateway data port
# ---------------------------------------------------------------------------

CONTROL_FRAMES = {
    "ack": encode_ack(1, 7, 0, FS),
    "handoff": encode_handoff(1, 7, 1, FS),
}


@pytest.mark.parametrize("kind", sorted(CONTROL_FRAMES))
def test_control_frame_on_a_gateway_connection_drops_that_connection_only(kind):
    """A CRC-valid control frame between two pairs of data frames: the
    frames before it are delivered, the connection is dropped as one wire
    error, the pump survives, and a clean connection alongside streams on."""

    async def run():
        fleet = MonitorFleet(_NoCallClassifier(), FS)
        gateway = IngestGateway(fleet, queue_depth=4)
        host, port = await gateway.serve()
        dirty_frames = _frames(1, 4)
        dirty_reader, dirty = await asyncio.open_connection(host, port)
        _, clean = await asyncio.open_connection(host, port)
        dirty.write(b"".join(dirty_frames[:2]) + CONTROL_FRAMES[kind])
        dirty.write(b"".join(dirty_frames[2:]))
        await dirty.drain()
        clean.write(b"".join(_frames(2, 3)))
        await clean.drain()
        dropped = await asyncio.wait_for(dirty_reader.read(), timeout=5.0) == b""
        delivered = await _settle(lambda: gateway.stats().frames_delivered >= 5)
        # The clean connection stays usable after the dirty one died.
        clean.write(b"".join(_frames(2, 2, first_seq=3)))
        await clean.drain()
        delivered = delivered and await _settle(lambda: gateway.stats().frames_delivered >= 7)
        pump_running = not gateway._pump_task.done()
        before = gateway.stats()
        await _close(clean)
        await _close(dirty)
        await gateway.stop()
        return fleet, dropped, delivered, pump_running, before, gateway.stats()

    fleet, dropped, delivered, pump_running, before, after = asyncio.run(run())
    assert dropped  # the gateway closed the dirty connection
    assert delivered and pump_running
    assert before.wire_errors == 1 and before.connections == 2
    assert before.frames_received == 7 and before.frames_delivered == 7
    assert before.fully_accounted
    assert after.fully_accounted
    assert after.frames_received == after.frames_delivered == 7
    assert after.wire_errors == 1
    # Data frames before the control frame arrived; the ones after did not.
    assert fleet.monitor(1).time_seen_s == pytest.approx(2 * N_SAMPLES / FS)
    assert fleet.monitor(2).time_seen_s == pytest.approx(5 * N_SAMPLES / FS)


# ---------------------------------------------------------------------------
# Cluster stop closes its data connections
# ---------------------------------------------------------------------------


def test_cluster_stop_closes_an_open_producer_connection():
    """A producer that keeps its data connection open across ``stop()``: the
    connection is closed by the time stop returns, no connection task is
    left behind, and a frame written afterwards is not routed."""

    async def run():
        cluster = GatewayCluster(_NoCallClassifier(), FS, n_nodes=2)
        addresses = await cluster.serve()
        reader, writer = await asyncio.open_connection(*addresses["g0"])
        first, second = _frames(3, 2)
        writer.write(first)
        await writer.drain()
        routed = await _settle(lambda: cluster.stats().frames_routed == 1)
        await asyncio.wait_for(cluster.stop(), timeout=10.0)
        leftover = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        closed = await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        try:
            writer.write(second)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the link is gone: exactly the point
        await asyncio.sleep(0.05)
        stats = cluster.stats()
        await _close(writer)
        return routed, leftover, closed, stats

    routed, leftover, closed, stats = asyncio.run(run())
    assert routed
    assert leftover == []
    assert closed
    assert stats.frames_routed == 1
    assert stats.frames_received == 1
    assert stats.fully_accounted


# ---------------------------------------------------------------------------
# One arrival-order marker per queued frame
# ---------------------------------------------------------------------------


def _assert_one_marker_per_frame(gateway):
    assert len(gateway._order) == gateway.stats().queued_frames


def _checked(gateway):
    """Assert the marker invariant after every submit, delivery and
    ``take_queued`` the gateway runs, whoever calls them."""
    submit, deliver, take = gateway.submit_chunk, gateway._deliver_one, gateway.take_queued

    async def submit_chunk(chunk):
        try:
            await submit(chunk)
        finally:
            _assert_one_marker_per_frame(gateway)

    def deliver_one():
        delivered = deliver()
        _assert_one_marker_per_frame(gateway)
        return delivered

    def take_queued(patient_id):
        taken = take(patient_id)
        _assert_one_marker_per_frame(gateway)
        return taken

    gateway.submit_chunk = submit_chunk
    gateway._deliver_one = deliver_one
    gateway.take_queued = take_queued
    return gateway


class _RecordingFleet(MonitorFleet):
    """A fleet that remembers the patient of every frame pushed into it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushed = []

    def push(self, patient_id, samples, seq=None):
        self.pushed.append(int(patient_id))
        return super().push(patient_id, samples, seq=seq)


class TestOneMarkerPerQueuedFrame:
    def test_shed_oldest_pressure_deliveries_and_take_queued(self):
        async def run():
            fleet = _RecordingFleet(_NoCallClassifier(), FS)
            gateway = _checked(IngestGateway(fleet, queue_depth=2, backpressure="shed-oldest"))
            seqs = {pid: 0 for pid in (1, 2, 3)}
            for i in range(300):
                pid = 1 + i % 3
                await gateway.submit_chunk(EcgChunk(pid, seqs[pid], FS, np.zeros(8)))
                seqs[pid] += 1
                if i % 7 == 0:
                    gateway._deliver_one()
                if i % 50 == 49:
                    gateway.take_queued(2)
            peak = len(gateway._order)
            while gateway._deliver_one():
                pass
            return gateway.stats(), peak, len(gateway._order)

        stats, peak, left = asyncio.run(run())
        assert peak <= 3 * 2  # never more markers than the queues can hold
        assert left == 0 and stats.queued_frames == 0
        assert stats.frames_shed > 0 and stats.frames_forwarded > 0
        assert stats.fully_accounted

    def test_a_frame_queued_after_take_queued_waits_its_turn(self):
        """``take_queued`` removes the patient's markers with their frames, so
        a later frame of that patient queues behind every frame that arrived
        before it — it cannot jump ahead on a marker its forwarded
        predecessors left behind."""

        async def run():
            fleet = _RecordingFleet(_NoCallClassifier(), FS)
            gateway = _checked(IngestGateway(fleet, queue_depth=8))
            for seq in range(3):
                await gateway.submit_chunk(EcgChunk(1, seq, FS, np.zeros(8)))
            for seq in range(2):
                await gateway.submit_chunk(EcgChunk(2, seq, FS, np.zeros(8)))
            assert len(gateway.take_queued(1)) == 3
            await gateway.submit_chunk(EcgChunk(1, 0, FS, np.zeros(8)))
            gateway.flush_queues()
            return fleet.pushed, gateway.stats()

        pushed, stats = asyncio.run(run())
        assert pushed == [2, 2, 1]
        assert stats.frames_forwarded == 3 and stats.fully_accounted

    def test_across_a_cluster_handoff(self):
        async def run():
            cluster = GatewayCluster(_NoCallClassifier(), FS, n_nodes=2)
            for node in cluster._nodes.values():
                _checked(node.gateway)
            await cluster.start()
            patients = list(range(8))
            for pid in patients:
                await cluster.submit_chunk(EcgChunk(pid, 0, FS, np.zeros(8)))
            await asyncio.sleep(0.05)  # the pumps deliver every first frame
            mover = patients[0]
            source = cluster.node_of(mover)
            # A backlog on the source, behind other patients' frames.
            for seq in range(1, 4):
                for pid in patients:
                    await cluster.submit_chunk(EcgChunk(pid, seq, FS, np.zeros(8)))
            await cluster.handoff(mover, 1 - source)
            await cluster.submit_chunk(EcgChunk(mover, 4, FS, np.zeros(8)))
            await cluster.stop()
            return cluster.stats(), source

        stats, source = asyncio.run(run())
        assert stats.handoffs == 1
        assert stats.gateways["g%d" % source].frames_forwarded > 0
        assert stats.frames_received == 8 * 4 + 1 + stats.frames_forwarded
        assert stats.fully_accounted
