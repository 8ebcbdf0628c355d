"""Cluster-churn parity harness: cross-host federation is *invisible*.

The contract under test — the federation layer's headline guarantee: for ANY
schedule of ``push`` / ``drain`` / ``handoff`` / ``add_node`` /
``kill_node`` operations across 2–4 gateways, a
:class:`~repro.serving.cluster.GatewayCluster`'s decisions are identical
(bit-exact fixed-point scores) to a single never-federated
:class:`~repro.serving.fleet.MonitorFleet` replaying the same pushes and
drains.  Handoffs move monitor state over real TCP control sockets
(HANDOFF/STATE/ACK with the ACK-before-forget rule), node deaths revive
patients from checkpoint + write-ahead log, and the
:class:`~repro.serving.cluster.ClusterStats` ledger must balance at every
step — every received frame accounted on exactly one host, none
double-counted, none lost.

Like the sharding/reshard parity suites this one is hypothesis-fuzzed: the
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
    ACK_VERSION_MISMATCH,
    MONITOR_STATE_VERSION,
    AckFrame,
    GatewayCluster,
    HandoffError,
    HashRing,
    MonitorFleet,
    StreamDecoder,
    decision_sort_key,
    encode_ack,
    encode_chunk,
    encode_handoff,
    encode_state,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams

FS = 64.0
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


@pytest.fixture(scope="module")
def workload():
    """A small multi-patient raw-ECG workload as an interleaved frame list."""
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


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _apply_reference_schedule(fleet, frames, schedule):
    """Replay the push/drain shape of ``schedule`` on a plain fleet."""
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


async def _apply_cluster_schedule(cluster, frames, schedule):
    """Replay ``schedule`` against a started cluster.

    Returns ``(per_drain_decisions, all_decisions, stats)``.  The
    cluster-wide ledger is asserted to balance after *every* operation —
    no frame double-counted, none lost, however the churn interleaves.
    """
    drains = []
    cursor = 0
    seen = []
    for op in schedule:
        if op[0] == "push":
            for _ in range(op[1]):
                if cursor >= len(frames):
                    break
                pid, seq, chunk = frames[cursor]
                cursor += 1
                if pid not in seen:
                    seen.append(pid)
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
        elif op[0] == "drain":
            drains.append(sorted(cluster.drain(), key=decision_sort_key))
        elif op[0] == "handoff":
            if seen:
                pid = sorted(seen)[op[1] % len(seen)]
                live = cluster.live_nodes
                dest = live[op[2] % len(live)]
                await cluster.handoff(pid, dest)
        elif op[0] == "add_node":
            if cluster.n_nodes < 4:
                await cluster.add_node()
        elif op[0] == "kill_node":
            if cluster.n_nodes > 1:
                live = cluster.live_nodes
                await cluster.kill_node(live[op[1] % len(live)])
        assert cluster.stats().fully_accounted, "ledger broke after %r" % (op,)
    while cursor < len(frames):
        pid, seq, chunk = frames[cursor]
        cursor += 1
        await cluster.submit(encode_chunk(pid, seq, FS, chunk))
    everything = await cluster.stop()
    return drains, everything, cluster.stats()


#: One churn-schedule operation for the federation fuzz.
SCHEDULE_OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(1, 12)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("handoff"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("add_node")),
    st.tuples(st.just("kill_node"), st.integers(0, 3)),
)


class TestClusterChurnParityFuzz:
    """Random federation schedules vs a never-federated reference fleet."""

    _reference_cache: dict = {}

    def _reference(self, workload, classifier, schedule):
        key = (
            id(classifier),
            tuple(op for op in schedule if op[0] in ("push", "drain")),
        )
        if key not in self._reference_cache:
            fleet = MonitorFleet(classifier, FS, windowing=WINDOWING)
            self._reference_cache[key] = _apply_reference_schedule(
                fleet, workload["frames"], schedule
            )
        return self._reference_cache[key]

    @given(
        schedule=st.lists(SCHEDULE_OPS, min_size=3, max_size=12),
        n_nodes=st.sampled_from([2, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_cluster_churn_parity_is_bit_exact(
        self, workload, quantized_detector, schedule, n_nodes
    ):
        reference = self._reference(workload, quantized_detector, schedule)
        assert any(d.usable for drain in reference for d in drain)

        async def run():
            cluster = GatewayCluster(
                quantized_detector,
                FS,
                n_nodes=n_nodes,
                windowing=WINDOWING,
                queue_depth=8,
            )
            await cluster.start()
            return await _apply_cluster_schedule(cluster, workload["frames"], schedule)

        drains, everything, stats = asyncio.run(run())
        # Per-drain parity for the mid-schedule drains, then the complete
        # decision list against the whole reference workload.
        _assert_drains_identical(reference[:-1], drains)
        flat = sorted((d for drain in reference for d in drain), key=decision_sort_key)
        _assert_drains_identical([flat], [everything])
        assert stats.fully_accounted
        assert all(g.frames_errored == 0 for g in stats.gateways.values())
        assert all(g.frames_errored == 0 for g in stats.retired.values())


class TestHandoffProtocol:
    def test_handoff_moves_ownership_and_forwards_backlog(
        self, workload, quantized_detector
    ):
        frames = workload["frames"]

        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2, windowing=WINDOWING)
            await cluster.start()
            pid = frames[0][0]
            src = cluster.node_of(pid)
            dest = next(s for s in cluster.live_nodes if s != src)
            # Freeze delivery so the patient builds a queued backlog that the
            # handoff must forward (otherwise the pump drains it first).
            cluster._nodes[src].gateway.quiesce_patients([pid])
            pushed = 0
            for fpid, seq, chunk in frames:
                if fpid == pid:
                    await cluster.submit(encode_chunk(fpid, seq, FS, chunk))
                    pushed += 1
                    if pushed == 5:
                        break
            await cluster.handoff(pid, dest)
            stats = cluster.stats()
            owner = cluster.node_of(pid)
            src_stats = stats.gateways["g%d" % src]
            await cluster.stop()
            return src, dest, owner, stats, src_stats, pushed

        src, dest, owner, stats, src_stats, pushed = asyncio.run(run())
        assert owner == dest
        assert stats.handoffs == 1 and stats.handoff_failures == 0
        assert src_stats.frames_forwarded == pushed  # the whole backlog moved
        assert stats.fully_accounted

    def test_mid_handoff_crash_leaves_exactly_one_owner(
        self, workload, quantized_detector
    ):
        """The destination imports the state, then dies before ACKing: the
        source must roll back (ACK-before-forget) and keep sole ownership —
        no frame double-counted, none lost, proven by final parity."""
        frames = workload["frames"]
        cut = len(frames) // 2

        async def run():
            cluster = GatewayCluster(
                quantized_detector, FS, n_nodes=2, windowing=WINDOWING, queue_depth=8
            )
            await cluster.start()
            for pid, seq, chunk in frames[:cut]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            # Drain first so every monitor materialises in its fleet: the
            # handoff then ships *real* DSP/window state, and the rollback
            # has real state to restore.
            mid_drain = sorted(cluster.drain(), key=decision_sort_key)
            victim = frames[0][0]
            src = cluster.node_of(victim)
            dest = next(s for s in cluster.live_nodes if s != src)
            assert cluster._nodes[src].fleet.has_patient(victim)
            cluster._nodes[dest]._fail_next_ack = True
            with pytest.raises(HandoffError, match="before ACKing"):
                await cluster.handoff(victim, dest)
            # Exactly one owner: the source got its state rolled back, the
            # crashed destination discarded its half-import.
            assert cluster.node_of(victim) == src
            assert not cluster._nodes[dest].fleet.has_patient(victim)
            assert cluster._nodes[src].fleet.has_patient(victim)
            mid = cluster.stats()
            assert mid.handoff_failures == 1 and mid.handoffs == 0
            assert mid.fully_accounted
            for pid, seq, chunk in frames[cut:]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            everything = await cluster.stop()
            return mid_drain, everything, cluster.stats()

        mid_drain, everything, stats = asyncio.run(run())
        reference = _apply_reference_schedule(
            MonitorFleet(quantized_detector, FS, windowing=WINDOWING),
            frames,
            [("push", cut), ("drain",)],
        )
        _assert_drains_identical(reference[:1], [mid_drain])
        flat = sorted((d for drain in reference for d in drain), key=decision_sort_key)
        _assert_drains_identical([flat], [everything])
        assert stats.fully_accounted
        assert all(g.frames_errored == 0 for g in stats.gateways.values())

    def test_destination_refuses_a_future_state_version_over_tcp(
        self, quantized_detector
    ):
        """A version-skewed source is refused before anything is unpickled."""

        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2)
            await cluster.start()
            addr = cluster._nodes[0].control_addr
            reader, writer = await asyncio.open_connection(*addr)
            writer.write(
                encode_handoff(5, 9, MONITOR_STATE_VERSION + 1, FS)
                + encode_state(5, 9, FS, pickle.dumps(None))
            )
            await writer.drain()
            decoder = StreamDecoder()
            ack = None
            while ack is None:
                data = await reader.read(4096)
                assert data, "control connection closed without an ACK"
                for frame in decoder.feed(data):
                    ack = frame
            writer.close()
            await cluster.stop()
            return ack

        ack = asyncio.run(run())
        assert isinstance(ack, AckFrame)
        assert ack.status == ACK_VERSION_MISMATCH and ack.token == 9

    def test_handoff_validation_errors(self, quantized_detector):
        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2)
            await cluster.start()
            with pytest.raises(KeyError, match="unknown to the cluster"):
                await cluster.handoff(123, 1)
            await cluster.submit(encode_chunk(3, 0, FS, np.zeros(64)))
            with pytest.raises(ValueError, match="not a live node"):
                await cluster.handoff(3, 99)
            # Handoff to the current owner is a no-op, not an error.
            await cluster.handoff(3, cluster.node_of(3))
            assert cluster.stats().handoffs == 0
            await cluster.stop()

        asyncio.run(run())


class TestNodeChurn:
    def test_node_kill_revives_patients_from_checkpoint_and_wal(
        self, workload, quantized_detector
    ):
        """Crash a gateway mid-workload: its patients revive on the
        survivors bit-identically, from checkpoint plus frame replay."""
        frames = workload["frames"]

        async def run():
            cluster = GatewayCluster(
                quantized_detector, FS, n_nodes=2, windowing=WINDOWING, queue_depth=8
            )
            await cluster.start()
            third = len(frames) // 3
            for pid, seq, chunk in frames[:third]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            cluster.drain()  # checkpoint everything delivered so far
            for pid, seq, chunk in frames[third : 2 * third]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            victim = cluster.live_nodes[0]
            revived = await cluster.kill_node(victim)
            mid = cluster.stats()
            assert mid.fully_accounted
            for pid, seq, chunk in frames[2 * third :]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            everything = await cluster.stop()
            return victim, revived, everything, cluster.stats()

        victim, revived, everything, stats = asyncio.run(run())
        assert stats.node_deaths == 1
        assert "g%d" % victim in stats.retired
        assert stats.frames_replayed > 0
        assert stats.fully_accounted
        reference = _apply_reference_schedule(
            MonitorFleet(quantized_detector, FS, windowing=WINDOWING), frames, []
        )
        # One mid-schedule drain happened; compare the complete decision set.
        flat = sorted((d for drain in reference for d in drain), key=decision_sort_key)
        _assert_drains_identical([flat], [everything])

    def test_frame_for_an_orphan_waits_for_its_replay(self, quantized_detector):
        """A frame submitted for a dead node's patient while another orphan's
        write-ahead replay is parked on a full ``"block"`` queue waits for
        its own patient's replay, then follows it in order."""

        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2, queue_depth=2)
            await cluster.start()
            first, second = [pid for pid in range(100) if cluster.ring.shard_of(pid) == 0][:2]
            samples = np.zeros(64)
            for seq in range(3):
                await cluster.submit(encode_chunk(first, seq, FS, samples))
            await cluster.submit(encode_chunk(second, 0, FS, samples))
            survivor = cluster._nodes[1].gateway
            # The survivor's pump skips ``first``: its 3-frame replay parks
            # on the third frame.
            survivor.quiesce_patients([first])
            kill = asyncio.create_task(cluster.kill_node(0))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not kill.done()
            late = asyncio.create_task(cluster.submit(encode_chunk(second, 1, FS, samples)))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not late.done()
            assert cluster.stats().fully_accounted
            survivor.resume_patients([first])
            assert await kill == [first, second]
            await late
            await cluster.stop()
            return cluster.stats()

        stats = asyncio.run(run())
        assert stats.frames_replayed == 4
        assert stats.fully_accounted
        # Delivered in order: a frame ahead of its replay would have been
        # refused by the new owner's sequence check.
        assert all(g.frames_errored == 0 for g in stats.gateways.values())
        assert stats.gateways["g1"].frames_received == 5

    def test_add_node_rehomes_via_real_handoffs(self, workload, quantized_detector):
        frames = workload["frames"]

        async def run():
            cluster = GatewayCluster(
                quantized_detector, FS, n_nodes=2, windowing=WINDOWING, queue_depth=8
            )
            await cluster.start()
            half = len(frames) // 2
            for pid, seq, chunk in frames[:half]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            before = cluster.stats()
            slot = await cluster.add_node()
            after = cluster.stats()
            assert after.fully_accounted
            for pid, seq, chunk in frames[half:]:
                await cluster.submit(encode_chunk(pid, seq, FS, chunk))
            everything = await cluster.stop()
            return slot, before, after, everything, cluster.stats()

        slot, before, after, everything, stats = asyncio.run(run())
        assert slot == 2 and before.nodes == 2 and after.nodes == 3
        assert after.handoffs >= 0  # minimal-movement: possibly nobody moved
        reference = _apply_reference_schedule(
            MonitorFleet(quantized_detector, FS, windowing=WINDOWING), frames, []
        )
        flat = sorted((d for drain in reference for d in drain), key=decision_sort_key)
        _assert_drains_identical([flat], [everything])
        assert stats.fully_accounted

    def test_killing_the_last_node_is_refused(self, quantized_detector):
        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2)
            await cluster.start()
            await cluster.kill_node(0)
            with pytest.raises(ValueError, match="last node"):
                await cluster.kill_node(1)
            await cluster.stop()

        asyncio.run(run())


class TestDataPlane:
    def test_any_node_routes_to_the_owner(self, quantized_detector):
        """A producer may connect to any node: frames reach the owning
        gateway cluster-wide, and a control frame drops the connection."""

        async def run():
            cluster = GatewayCluster(quantized_detector, FS, n_nodes=2)
            addresses = await cluster.serve()
            assert sorted(addresses) == ["g0", "g1"]
            entry = addresses["g0"]
            reader, writer = await asyncio.open_connection(*entry)
            pids = list(range(8))
            for pid in pids:
                writer.write(encode_chunk(pid, 0, FS, np.zeros(64)))
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            for _ in range(100):
                await asyncio.sleep(0.01)
                if cluster.stats().frames_routed == len(pids):
                    break
            owners = {pid: cluster.node_of(pid) for pid in pids}
            stats = cluster.stats()
            # A control frame on the data plane kills that connection only.
            reader2, writer2 = await asyncio.open_connection(*entry)
            writer2.write(encode_ack(1, 1, 0, FS))
            await writer2.drain()
            assert await reader2.read(4096) == b""  # server closed on us
            for _ in range(100):
                await asyncio.sleep(0.01)
                if cluster.stats().wire_errors == 1:
                    break
            wire_errors = cluster.stats().wire_errors
            await cluster.stop()
            return owners, stats, wire_errors

        owners, stats, wire_errors = asyncio.run(run())
        assert stats.frames_routed == len(owners)
        assert stats.fully_accounted
        assert set(owners.values()) == {0, 1}  # both nodes ended up owning some
        assert wire_errors == 1


class TestRingTombstones:
    """HashRing.without_shards: the failover primitive under the cluster."""

    def test_exactly_the_dead_shards_patients_move(self):
        ring = HashRing(4)
        patients = list(range(200))
        tombstoned, moved = ring.without_shards([2], patients)
        assert tombstoned.excluded == frozenset({2})
        for pid in patients:
            if ring.shard_of(pid) == 2:
                assert pid in moved and moved[pid][0] == 2
                assert tombstoned.shard_of(pid) != 2
            else:
                # Survivors keep every one of their patients.
                assert pid not in moved
                assert tombstoned.shard_of(pid) == ring.shard_of(pid)

    def test_exclusions_accumulate(self):
        ring = HashRing(4)
        once, _ = ring.without_shards([0])
        twice, _ = once.without_shards([3])
        assert twice.excluded == frozenset({0, 3})
        assert all(twice.shard_of(pid) in (1, 2) for pid in range(100))

    def test_excluding_every_shard_is_refused(self):
        ring = HashRing(2)
        with pytest.raises(ValueError, match="every shard"):
            ring.without_shards([0, 1])
        once, _ = ring.without_shards([0])
        with pytest.raises(ValueError, match="every shard"):
            once.without_shards([1])

    def test_excluding_an_already_dead_shard_is_a_noop(self):
        ring = HashRing(3)
        once, _ = ring.without_shards([1])
        again, moved = once.without_shards([1])
        assert again is once and moved == {}

    def test_out_of_range_shard_is_refused(self):
        with pytest.raises(ValueError, match="not a shard"):
            HashRing(3).without_shards([7])
