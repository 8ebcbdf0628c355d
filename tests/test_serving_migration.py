"""The shared migration state machine, and the moves built on it.

:mod:`repro.serving.migration` detaches, attaches and rolls back patient
state for all three moves: a live reshard, a cluster handoff and a node
revival.  The primitive is tested directly with in-memory transports.  The
cluster cases pin what each caller gets from it: a rolled-back handoff keeps
the source's pending-window age, and ``add_node`` moves exactly the grown
ring's share, also on a ring with a tombstoned slot.
"""

import asyncio

import numpy as np
import pytest

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    GatewayCluster,
    HandoffError,
    HashRing,
    PendingWindow,
    encode_chunk,
)
from repro.serving import migration
from repro.signals.windows import WindowingParams

FS = 64.0
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


# ---------------------------------------------------------------------------
# The primitive, over in-memory transports
# ---------------------------------------------------------------------------


class _Sites:
    """Locations holding ``{patient_id: state}``, with scripted faults."""

    def __init__(self, holdings, ages=None, fail_export=(), fail_import=()):
        self.held = {loc: dict(states) for loc, states in holdings.items()}
        self.ages = dict(ages or {})
        self.fail_export = set(fail_export)
        self.fail_import = set(fail_import)
        self.imported = []

    def export(self, loc, patient_id):
        if patient_id in self.fail_export:
            raise RuntimeError("export of %d failed" % patient_id)
        return self.held[loc].pop(patient_id)  # KeyError: nothing held

    def age_of(self, loc):
        return self.ages.get(loc, 0.0)

    def import_(self, loc, state, pending_age_s):
        if state in self.fail_import:
            raise ValueError("import of %r failed" % state)
        self.held.setdefault(loc, {})[int(state[1:])] = state
        self.imported.append((loc, state, pending_age_s))


class TestMigrationPrimitive:
    def test_detach_then_attach_moves_every_state_with_its_source_age(self):
        sites = _Sites({0: {1: "s1", 2: "s2"}, 1: {3: "s3"}}, ages={0: 7.5, 1: 2.0})
        detached = migration.detach(
            [(1, 0, 2), (2, 0, 1), (3, 1, 2)], sites.export, sites.age_of, sites.import_
        )
        assert [d.patient_id for d in detached] == [1, 2, 3]
        assert sites.held[0] == {} and sites.held[1] == {}
        migration.attach(detached, sites.import_)
        assert sites.held == {0: {}, 1: {2: "s2"}, 2: {1: "s1", 3: "s3"}}
        assert sites.imported == [(2, "s1", 7.5), (1, "s2", 7.5), (2, "s3", 2.0)]

    def test_a_source_holding_nothing_is_skipped(self):
        sites = _Sites({0: {1: "s1"}})
        detached = migration.detach(
            [(1, 0, 1), (9, 0, 1)], sites.export, sites.age_of, sites.import_
        )
        assert [d.patient_id for d in detached] == [1]

    def test_export_fault_restores_every_detached_state_with_its_age(self):
        sites = _Sites({0: {1: "s1", 2: "s2"}, 1: {3: "s3"}}, ages={0: 4.0}, fail_export={3})
        with pytest.raises(RuntimeError, match="export of 3 failed"):
            migration.detach(
                [(1, 0, 2), (2, 0, 2), (3, 1, 2)], sites.export, sites.age_of, sites.import_
            )
        assert sites.held == {0: {1: "s1", 2: "s2"}, 1: {3: "s3"}}
        assert sites.imported == [(0, "s1", 4.0), (0, "s2", 4.0)]

    def test_import_fault_stops_and_names_the_orphans(self):
        sites = _Sites({0: {1: "s1", 2: "s2", 3: "s3"}}, fail_import={"s2"})
        detached = migration.detach(
            [(1, 0, 1), (2, 0, 1), (3, 0, 1)], sites.export, sites.age_of, sites.import_
        )
        with pytest.raises(RuntimeError, match=r"orphaned patients: \[2, 3\]") as excinfo:
            migration.attach(detached, sites.import_)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert sites.held[1] == {1: "s1"}  # attach stopped at the first fault


# ---------------------------------------------------------------------------
# The cluster's moves
# ---------------------------------------------------------------------------


def _window(patient_id, index, features):
    return PendingWindow(
        patient_id=patient_id,
        start_s=60.0 * index,
        end_s=60.0 * (index + 1),
        n_beats=80,
        features=features,
    )


class TestRolledBackHandoffKeepsPendingAge:
    """A failed handoff restores the source's pending windows *with their
    age*, exactly as a failed reshard does: a rollback must not extend the
    bound a latency drain policy relies on."""

    def test_rolled_back_handoff_keeps_the_pending_window_age(
        self, quantized_detector, feature_matrix
    ):
        t = {"now": 1000.0}

        async def run():
            cluster = GatewayCluster(
                quantized_detector,
                FS,
                n_nodes=2,
                windowing=WINDOWING,
                clock=lambda: t["now"],
            )
            await cluster.start()
            victim = 3
            await cluster.submit(encode_chunk(victim, 0, FS, np.zeros(64)))
            src = cluster.node_of(victim)
            dest = next(s for s in cluster.live_nodes if s != src)
            source = cluster._nodes[src]
            source.gateway.flush_queues()  # the victim's monitor materialises
            # The victim's windows are the only ones on the source.
            source.fleet.enqueue(
                [_window(victim, i, feature_matrix.X[i]) for i in range(6)]
            )
            t["now"] += 30.0
            assert source.fleet.stats().oldest_pending_age_s == pytest.approx(30.0)
            cluster._nodes[dest]._fail_next_ack = True
            with pytest.raises(HandoffError, match="before ACKing"):
                await cluster.handoff(victim, dest)
            restored = source.fleet.stats()
            stats = cluster.stats()
            owner = cluster.node_of(victim)
            await cluster.stop()
            return src, owner, restored, stats

        src, owner, restored, stats = asyncio.run(run())
        assert owner == src
        assert restored.pending_windows == 6
        assert restored.oldest_pending_age_s >= 30.0
        assert stats.handoff_failures == 1 and stats.handoffs == 0
        assert stats.fully_accounted


class TestAddNodeMovesTheRingShare:
    """``add_node`` hands off exactly the unpinned patients the grown ring
    reassigns, all of them to the new slot, and nobody else."""

    N_PATIENTS = 40

    async def _check_add_node(self, cluster, grown):
        homes = {pid: cluster.node_of(pid) for pid in range(self.N_PATIENTS)}
        pinned = {pid for pid, home in homes.items() if home != cluster.ring.shard_of(pid)}
        expected = {
            pid
            for pid, home in homes.items()
            if pid not in pinned and grown.shard_of(pid) != home
        }
        assert expected  # the workload does exercise a migration
        before = cluster.stats()
        slot = await cluster.add_node()
        after = cluster.stats()
        assert slot == grown.n_shards - 1
        assert after.handoffs - before.handoffs == len(expected)
        assert after.handoff_failures == before.handoff_failures
        for pid, home in homes.items():
            assert cluster.node_of(pid) == (slot if pid in expected else home)
        assert after.fully_accounted
        return pinned

    async def _cluster(self, classifier, n_nodes):
        cluster = GatewayCluster(classifier, FS, n_nodes=n_nodes, windowing=WINDOWING)
        await cluster.start()
        for pid in range(self.N_PATIENTS):
            await cluster.submit(encode_chunk(pid, 0, FS, np.zeros(64)))
        return cluster

    def test_add_node_moves_exactly_the_unpinned_ring_share(self, quantized_detector):
        grown = HashRing(3)
        # A patient the grown ring would move, explicitly handed off first:
        # pinned, so add_node must leave them where they are.
        would_move = next(
            pid for pid in range(self.N_PATIENTS) if grown.shard_of(pid) == 2
        )

        async def run():
            cluster = await self._cluster(quantized_detector, 2)
            home = cluster.node_of(would_move)
            await cluster.handoff(would_move, 1 - home)
            pinned = await self._check_add_node(cluster, grown)
            await cluster.stop()
            return pinned

        assert asyncio.run(run()) == {would_move}

    def test_add_node_after_kill_node_keeps_the_tombstone(self, quantized_detector):
        grown, _ = HashRing(4).without_shards([1])

        async def run():
            cluster = await self._cluster(quantized_detector, 3)
            await cluster.kill_node(1)
            pinned = await self._check_add_node(cluster, grown)
            assert 1 not in cluster.live_nodes
            await cluster.stop()
            return pinned

        assert asyncio.run(run()) == set()
