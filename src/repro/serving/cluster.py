"""Cross-host federation: a multi-gateway cluster with live patient handoff.

PR 5 gave one gateway live resharding *within* its fleet; a deployed backend
is bigger than one host.  :class:`GatewayCluster` federates N
:class:`~repro.serving.ingest.IngestGateway` nodes, each owning a slice of a
cluster-level :class:`~repro.serving.sharding.HashRing`, and moves patients
*between* hosts over the typed v2 frame protocol of
:mod:`repro.serving.wire`:

* **HANDOFF / STATE / ACK** — migrating a patient is a three-frame exchange
  on the destination's control socket.  The source quiesces the patient,
  exports their :class:`~repro.serving.streaming.MonitorState` and ships it
  pickled inside a CRC-protected ``STATE`` frame (opened by a ``HANDOFF``
  frame pinning ``MONITOR_STATE_VERSION``, so an incompatible destination
  refuses before unpickling anything).  Only an ``ACK_OK`` lets the source
  forget the patient — the **ACK-before-forget rule**: a crash anywhere in
  the exchange leaves exactly one owner (the source rolls back un-ACKed
  exports; a destination that dies before ACKing discards its half-import).
  (Exception: a live destination importing *after* the source's ACK
  timeout keeps its copy while the source rolls back, so both own it.)
* **Backlog forwarding** — after the ACK the source's queued, undelivered
  frames follow the state to the destination
  (:meth:`IngestGateway.take_queued
  <repro.serving.ingest.IngestGateway.take_queued>` → destination
  ``submit_chunk``), counted ``frames_forwarded`` on the source and
  ``received`` on the destination, so both gateway ledgers keep balancing.
  Ownership flips only once the source queue is observed empty with no
  suspension point in between — per-patient FIFO holds end to end.
* **Node churn** — :meth:`GatewayCluster.add_node` grows the ring (the new
  slot claims ~``1/(N+1)`` of the patients, re-homed via real handoffs);
  :meth:`GatewayCluster.kill_node` crash-stops a node, tombstones its ring
  slot (:meth:`HashRing.without_shards
  <repro.serving.sharding.HashRing.without_shards>` — survivors keep their
  slices untouched) and revives its patients on their new owners from the
  last checkpoint plus a per-patient write-ahead log of routed frames.
  Checkpoints are taken at every :meth:`GatewayCluster.drain`, so nothing
  between a checkpoint and a crash was ever emitted — revival is exact
  under the lossless ``"block"`` policy (and at-least-once under the lossy
  policies, whose sheds a replay cannot reconstruct).
* **Cluster ledger** — :meth:`GatewayCluster.stats` returns a
  :class:`ClusterStats` proving every frame the cluster ever received is
  accounted on exactly one host: each gateway's ledger balances, and
  cluster-wide ``routed + replayed + forwarded == sum(received)`` across
  live and retired nodes alike.

* **Data plane** — each node's data port is a
  :class:`~repro.serving.ingest.FrameStreamServer`, the gateway's own
  connection path; frames decoded at any node route to their owner, and a
  control frame on a data port drops that connection.  The control sockets
  read through the same :func:`~repro.serving.ingest.read_frames` loop.

Everything runs on one asyncio loop with real TCP sockets between nodes —
the transport is honest, the processes are not (state never crosses a
process boundary except pickled, exactly as it would cross hosts).  The
parity harness (``tests/test_serving_cluster.py``) pins the headline
guarantee: any interleaving of pushes, drains, handoffs and node churn
yields decisions bit-identical to a single never-federated fleet.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.serving import migration
from repro.serving.fleet import MonitorFleet, decision_sort_key
from repro.serving.ingest import (
    FrameStreamServer,
    GatewayStats,
    IngestGateway,
    close_writer,
    read_frames,
)
from repro.serving.sharding import HashRing
from repro.serving.streaming import MONITOR_STATE_VERSION, MonitorState, WindowDecision
from repro.serving.wire import (
    ACK_IMPORT_FAILED,
    ACK_OK,
    ACK_VERSION_MISMATCH,
    AckFrame,
    EcgChunk,
    HandoffFrame,
    StateFrame,
    StreamDecoder,
    WireFormatError,
    decode_chunk,
    encode_ack,
    encode_handoff,
    encode_state,
)

__all__ = ["ClusterStats", "GatewayCluster", "HandoffError"]


class HandoffError(RuntimeError):
    """A patient handoff failed and was rolled back to the source node."""


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time snapshot of the cluster-wide frame ledger.

    The federation analogue of :class:`~repro.serving.ingest.GatewayStats`:
    :attr:`fully_accounted` proves that every frame the cluster ever
    received is accounted on exactly one host — each member gateway's own
    ledger balances, and the cluster-level equation
    ``frames_routed + frames_replayed + frames_forwarded ==
    frames_received`` holds across live and retired nodes together (a
    forwarded or replayed frame is *received* a second time on its new
    host, and the left side grows in lockstep).
    """

    #: Live gateways.
    nodes: int
    #: Patients the cluster has ever routed a frame for.
    patients: int
    #: Frames the cluster routed to some gateway (terminal outcomes
    #: included: a rejected or errored frame was still routed once).
    frames_routed: int
    #: Write-ahead-log frames re-submitted while reviving a dead node's
    #: patients on their new owners.
    frames_replayed: int
    #: Completed patient migrations (ACK_OK received, ownership flipped).
    handoffs: int
    #: Handoffs that failed and were rolled back to their source.
    handoff_failures: int
    #: Nodes crash-stopped by :meth:`GatewayCluster.kill_node`.
    node_deaths: int
    #: Window decisions harvested by cluster drains so far.
    decisions: int
    #: Undecodable inputs on the cluster's data plane.
    wire_errors: int
    #: Per-node ledger snapshots of the live gateways, by node name.
    gateways: Mapping[str, GatewayStats] = field(default_factory=dict)
    #: Frozen final ledgers of crash-stopped gateways, by node name.
    retired: Mapping[str, GatewayStats] = field(default_factory=dict)

    def _total(self, counter: str) -> int:
        """``counter`` summed over every gateway that ever lived."""
        members = [*self.gateways.values(), *self.retired.values()]
        return sum(getattr(g, counter) for g in members)

    @property
    def frames_received(self) -> int:
        """Frames received across every gateway that ever lived."""
        return self._total("frames_received")

    @property
    def frames_forwarded(self) -> int:
        """Handoff-forwarded frames across every gateway that ever lived."""
        return self._total("frames_forwarded")

    @property
    def frames_gap_dropped(self) -> int:
        """Stale datagrams dropped behind gaps, across every gateway that
        ever lived (always 0 on a strict-transport cluster)."""
        return self._total("frames_gap_dropped")

    @property
    def gaps_detected(self) -> int:
        """Sequence gaps absorbed by monitors across every gateway that ever lived."""
        return self._total("gaps_detected")

    @property
    def windows_reset_by_gap(self) -> int:
        """Grid windows abandoned by gap resets across every gateway that
        ever lived — the cluster-wide measured decision impact of frame
        loss."""
        return self._total("windows_reset_by_gap")

    @property
    def fully_accounted(self) -> bool:
        """Every received frame is accounted on exactly one host."""
        members = list(self.gateways.values()) + list(self.retired.values())
        if not all(g.fully_accounted for g in members):
            return False
        return self.frames_received == (
            self.frames_routed + self.frames_replayed + self.frames_forwarded
        )


class _ClusterNode:
    """One federated host: a fleet, its gateway, its control socket and data port."""

    __slots__ = (
        "slot",
        "name",
        "fleet",
        "gateway",
        "control_server",
        "control_addr",
        "data",
        "_fail_next_ack",
    )

    def __init__(
        self, slot: int, fleet: MonitorFleet, gateway: IngestGateway, data: FrameStreamServer
    ) -> None:
        self.slot = slot
        self.name = "g%d" % slot
        self.fleet = fleet
        self.gateway = gateway
        self.control_server: Optional[asyncio.AbstractServer] = None
        self.control_addr: Optional[Tuple[str, int]] = None
        self.data = data
        #: Test seam for the mid-handoff crash drill: the next successful
        #: state import on this node is discarded and the connection closed
        #: *without* an ACK — the destination "died" after importing.
        self._fail_next_ack = False


class GatewayCluster:
    """N ingest gateways federated behind one consistent-hash ring.

    Parameters
    ----------
    classifier:
        Shared backend or :class:`~repro.serving.registry.ModelRegistry` —
        handed to every node's :class:`~repro.serving.fleet.MonitorFleet`
        (a registry instance is shared, so tailored models follow their
        patients across handoffs for free).
    fs:
        Sampling frequency of the incoming ECG streams (Hz).
    n_nodes:
        Initial gateway count (ring slots 0..n-1, node names ``g0..``).
    queue_depth / backpressure:
        Per-node gateway queue configuration.  The federation guarantees
        (exact crash revival, loss-free handoff) assume the lossless
        ``"block"`` policy; the lossy policies still balance every ledger
        but a replay cannot reconstruct what a policy shed.
    lossy:
        Datagram-transport mode on every node: fleets and gateways are
        built with ``lossy=True`` (see
        :class:`~repro.serving.ingest.IngestGateway`), so frame loss —
        shed under pressure, or skipped by a crash replay — becomes a
        detected, accounted gap (``frames_gap_dropped``,
        ``windows_reset_by_gap`` in :class:`ClusterStats`) instead of a
        rejected stream.  Defaults ``backpressure`` to ``"shed-oldest"``
        when the caller passed none: a lossy transport that blocks
        producers would defeat its own purpose, though an explicit policy
        is respected.
    windowing / detector_params:
        Shared monitor configuration, as for a single fleet.
    handoff_timeout_s:
        How long a handoff source waits for the destination's ACK before
        rolling back.
    clock:
        Injectable monotonic time source for every node's fleet and
        gateway.

    Single-task discipline: the cluster's mutating coroutines (``handoff``,
    ``add_node``, ``kill_node``) must not run concurrently with each other
    or with ``stop`` — drive them from one task, exactly like a control
    plane would serialize topology changes.  Frame submission may interleave
    freely.
    """

    def __init__(
        self,
        classifier: object,
        fs: float,
        *,
        n_nodes: int = 2,
        queue_depth: int = 64,
        backpressure: Optional[str] = None,
        windowing: object = None,
        detector_params: object = None,
        handoff_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        host: str = "127.0.0.1",
        lossy: bool = False,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.fs = float(fs)
        self.handoff_timeout_s = float(handoff_timeout_s)
        self.lossy = bool(lossy)
        if backpressure is None:
            backpressure = "shed-oldest" if self.lossy else "block"
        self._classifier = classifier
        self._windowing = windowing
        self._detector_params = detector_params
        self._queue_depth = int(queue_depth)
        self._backpressure = backpressure
        self._clock = clock
        self._host = host
        self.ring = HashRing(int(n_nodes))
        self._nodes: Dict[int, _ClusterNode] = {
            slot: self._make_node(slot) for slot in range(int(n_nodes))
        }
        #: Current owner slot of every patient the cluster has ever routed.
        self._home: Dict[int, int] = {}
        #: Last pickled checkpoint per patient (taken at every drain and at
        #: every completed handoff).  Pickled so a stored checkpoint never
        #: aliases a live monitor's mutable buffers.
        self._checkpoint: Dict[int, bytes] = {}
        #: Frames routed-and-queued per patient since their last checkpoint
        #: — the write-ahead log replayed when their node dies.
        self._wal: Dict[int, List[EcgChunk]] = {}
        #: Orphans of a dead node whose write-ahead log is being replayed on
        #: their new owner; their new frames wait for the replay's event.
        self._replays: Dict[int, asyncio.Event] = {}
        #: Decisions harvested by cluster drains, canonical order at stop().
        self.decisions: List[WindowDecision] = []
        self._retired: Dict[str, GatewayStats] = {}
        self._frames_routed = 0
        self._frames_replayed = 0
        self._handoffs = 0
        self._handoff_failures = 0
        self._node_deaths = 0
        self._wire_errors = 0
        self._next_token = 0
        self._started = False

    def _make_node(self, slot: int) -> _ClusterNode:
        fleet = MonitorFleet(
            self._classifier,  # type: ignore[arg-type]
            self.fs,
            windowing=self._windowing,  # type: ignore[arg-type]
            detector_params=self._detector_params,  # type: ignore[arg-type]
            clock=self._clock,
            lossy=self.lossy,
        )
        gateway = IngestGateway(
            fleet,
            queue_depth=self._queue_depth,
            backpressure=self._backpressure,
            clock=self._clock,
            lossy=self.lossy,
        )
        return _ClusterNode(slot, fleet, gateway, FrameStreamServer())

    # -------------------------------------------------------------- lifecycle
    async def _start_node(self, node: _ClusterNode) -> None:
        await node.gateway.start()
        if node.control_server is None:

            async def handler(
                reader: asyncio.StreamReader, writer: asyncio.StreamWriter
            ) -> None:
                await self._handle_control_connection(node, reader, writer)

            node.control_server = await asyncio.start_server(handler, self._host, 0)
            sockname = node.control_server.sockets[0].getsockname()
            node.control_addr = (sockname[0], sockname[1])

    async def start(self) -> None:
        """Start every node's pump and control server (idempotent)."""
        for slot in sorted(self._nodes):
            await self._start_node(self._nodes[slot])
        self._started = True

    async def serve(self) -> Dict[str, Tuple[str, int]]:
        """Open one data-plane TCP port per node; returns ``{name: addr}``.

        A producer may connect to *any* node: data frames are decoded there
        but routed cluster-wide to the patient's owning gateway, so a node
        is an entry point, not a silo.  Control frames on a data connection
        are a protocol violation and drop that connection.
        """
        await self.start()
        addresses: Dict[str, Tuple[str, int]] = {}
        for slot in sorted(self._nodes):
            node = self._nodes[slot]
            address = node.data.address
            if address is None:
                address = await node.data.listen(self.submit_chunk, self._host, 0)
            addresses[node.name] = address
        return addresses

    async def stop(self) -> List[WindowDecision]:
        """Drain every node, stop everything, return all decisions.

        Every data connection closes first, at once, while the pumps still
        run (a producer parked on a full queue finishes through them).  Each
        live node then delivers its queued frames, flushes partial windows
        and runs a final classify (synchronously — no pump interleaving),
        then crash-stops its transport.  Returns the cluster's complete
        decision list in canonical order (also left on :attr:`decisions`).
        """
        for slot in sorted(self._nodes):
            await self._nodes[slot].data.close()
        final: List[WindowDecision] = []
        for slot in sorted(self._nodes):
            node = self._nodes[slot]
            final.extend(node.gateway.drain_now(finish=True))
            await self._close_node(node)
        final.sort(key=decision_sort_key)
        self.decisions.extend(final)
        self.decisions.sort(key=decision_sort_key)
        self._started = False
        return list(self.decisions)

    async def _close_node(self, node: _ClusterNode) -> None:
        if node.control_server is not None:
            node.control_server.close()
            await node.control_server.wait_closed()
        node.control_server = None
        node.control_addr = None
        await node.data.close()
        await node.gateway.abort()

    async def __aenter__(self) -> "GatewayCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.stop()

    # ------------------------------------------------------------- membership
    @property
    def live_nodes(self) -> List[int]:
        """Slots of the live nodes, ascending."""
        return sorted(self._nodes)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node_of(self, patient_id: int) -> int:
        """Slot currently owning ``patient_id`` (routing a first frame for
        an unknown patient assigns them their ring slot)."""
        patient_id = int(patient_id)
        slot = self._home.get(patient_id)
        if slot is None:
            slot = self.ring.shard_of(patient_id)
        return slot

    # -------------------------------------------------------------- ingestion
    async def submit(self, frame: bytes) -> None:
        """Ingest one complete framed data chunk, routed to its owner."""
        try:
            chunk = decode_chunk(frame)
        except WireFormatError:
            self._wire_errors += 1
            raise
        await self.submit_chunk(chunk)

    async def submit_chunk(self, chunk: EcgChunk) -> None:
        """Route one decoded chunk to its owning gateway.

        ``frames_routed`` counts every routed frame at its terminal outcome
        (queued, rejected or errored — mirroring the gateway's own
        ``frames_received``), and a successfully queued frame is appended to
        the patient's write-ahead log so a node death cannot lose it.  A
        frame for a dead node's patient waits until :meth:`kill_node` has
        replayed that patient's log on their new owner, so it arrives after
        the replayed frames.
        """
        patient_id = int(chunk.patient_id)
        replay = self._replays.get(patient_id)
        if replay is not None:
            await replay.wait()
        slot = self._home.get(patient_id)
        if slot is None:
            slot = self.ring.shard_of(patient_id)
            self._home[patient_id] = slot
        node = self._nodes[slot]
        try:
            await node.gateway.submit_chunk(chunk)
        finally:
            self._frames_routed += 1
        # Reached only on successful queueing: a rejected or errored frame
        # raised above and must not be resurrected by a WAL replay.
        self._wal.setdefault(patient_id, []).append(chunk)

    # ---------------------------------------------------------- control plane
    async def _handle_control_connection(
        self,
        node: _ClusterNode,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One inbound handoff exchange on ``node``'s control socket."""
        pending: Dict[int, HandoffFrame] = {}
        try:
            async for frame in read_frames(reader, StreamDecoder()):
                if isinstance(frame, HandoffFrame):
                    pending[frame.token] = frame
                    continue
                if isinstance(frame, StateFrame):
                    opening = pending.pop(frame.token, None)
                    if opening is None:
                        raise WireFormatError(
                            "STATE frame token %d has no opening HANDOFF" % frame.token
                        )
                    status = self._import_state(node, opening, frame)
                    if status == ACK_OK and node._fail_next_ack:
                        # Crash drill: the destination imported, then died
                        # before ACKing.  Discard the half-import and vanish
                        # — the source must roll back, and exactly one owner
                        # survives.
                        node._fail_next_ack = False
                        self._discard_import(node, frame.patient_id)
                        return
                    writer.write(encode_ack(frame.patient_id, frame.token, status, self.fs))
                    await writer.drain()
                    continue
                raise WireFormatError("unexpected %s on the control plane" % type(frame).__name__)
        except WireFormatError:
            self._wire_errors += 1
        finally:
            await close_writer(writer)

    def _import_state(
        self, node: _ClusterNode, opening: HandoffFrame, frame: StateFrame
    ) -> int:
        """Import a shipped monitor state into ``node``; returns ACK status.

        Synchronous — the import either fully happens or fully does not
        before any ACK byte is written.
        """
        if opening.state_version != MONITOR_STATE_VERSION:
            return ACK_VERSION_MISMATCH
        try:
            state = pickle.loads(frame.payload)
            if state is not None:
                if state.version != MONITOR_STATE_VERSION:
                    return ACK_VERSION_MISMATCH
                node.fleet.import_patient(state)
        except Exception:
            return ACK_IMPORT_FAILED
        return ACK_OK

    @staticmethod
    def _discard_import(node: _ClusterNode, patient_id: int) -> None:
        try:
            node.fleet.export_patient(int(patient_id))
        except KeyError:
            pass  # nothing was imported (pickled-None state)

    async def _read_ack(self, reader: asyncio.StreamReader, token: int) -> AckFrame:
        async for frame in read_frames(reader, StreamDecoder()):
            if isinstance(frame, AckFrame) and frame.token == token:
                return frame
            raise HandoffError(
                "unexpected %s while awaiting the ACK of handoff token %d"
                % (type(frame).__name__, token)
            )
        raise HandoffError(
            "destination closed the control connection before ACKing "
            "handoff token %d — state not confirmed, rolling back" % token
        )

    # ---------------------------------------------------------------- handoff
    async def handoff(self, patient_id: int, to_node: int) -> None:
        """Migrate one patient to the node at slot ``to_node``, loss-free.

        The full federation protocol: quiesce at the source (frames keep
        arriving and queue there), export the monitor state, ship it as
        ``HANDOFF`` + ``STATE`` over the destination's control socket, await
        the ``ACK``.  Anything but ``ACK_OK`` — refusal, timeout, a broken
        connection — rolls the state back into the source fleet, with its
        pending-window age (:mod:`repro.serving.migration`), and raises
        :class:`HandoffError`.  On ``ACK_OK`` the source's queued backlog is
        forwarded (``frames_forwarded`` → destination ``received``) and
        ownership flips only once the source queue is observed empty, with
        no suspension point between the check and the flip — per-patient
        FIFO order survives the migration bit-exactly.  A slow destination
        that imports after the ACK timeout is the one known double owner.
        """
        patient_id = int(patient_id)
        dest_slot = int(to_node)
        if dest_slot not in self._nodes:
            raise ValueError("node %d is not a live node of this cluster" % dest_slot)
        src_slot = self._home.get(patient_id)
        if src_slot is None:
            raise KeyError("patient %d is unknown to the cluster" % patient_id)
        if src_slot == dest_slot:
            return
        source = self._nodes[src_slot]
        dest = self._nodes[dest_slot]
        if dest.control_addr is None:
            raise RuntimeError("cluster is not started (no control socket)")
        self._next_token = (self._next_token + 1) % (1 << 32)
        token = self._next_token
        async with source.gateway.quiescing([patient_id]):
            detached = migration.detach(
                [(patient_id, src_slot, dest_slot)],
                export=lambda _, pid: source.fleet.export_patient(pid),
                age_of=lambda _: source.fleet.stats().oldest_pending_age_s,
                import_=self._import_at,
            )
            # No state (known only through queued frames) ships as None.
            payload = pickle.dumps(detached[0].state if detached else None)
            try:
                await self._ship_state(dest, patient_id, token, payload)
            except BaseException:
                migration.restore(detached, self._import_at)
                self._handoff_failures += 1
                raise
            # ACK-before-forget satisfied: the destination owns the monitor
            # state now.  Seed the crash-recovery record *before* the first
            # forwarding await: the shipped state is the patient's
            # checkpoint, and the source's still-queued frames are exactly
            # their WAL (frames arriving during forwarding append through
            # submit_chunk).
            self._checkpoint[patient_id] = payload
            self._wal[patient_id] = list(source.gateway.queued_frames_of(patient_id))
            while True:
                backlog = source.gateway.take_queued(patient_id)
                if not backlog:
                    break
                for chunk in backlog:
                    await dest.gateway.submit_chunk(chunk)
            # take_queued just returned empty and nothing awaited since: no
            # frame can land between the check and the flip.
            self._home[patient_id] = dest_slot
            self._handoffs += 1

    async def _ship_state(
        self, dest: _ClusterNode, patient_id: int, token: int, payload: bytes
    ) -> None:
        """Send ``HANDOFF`` + ``STATE``; :class:`HandoffError` unless ``ACK_OK``."""
        if dest.control_addr is None:
            raise HandoffError("node %s stopped mid-handoff" % dest.name)
        try:
            reader, writer = await asyncio.open_connection(*dest.control_addr)
            try:
                writer.write(
                    encode_handoff(patient_id, token, MONITOR_STATE_VERSION, self.fs)
                    + encode_state(patient_id, token, self.fs, payload)
                )
                await writer.drain()
                ack = await asyncio.wait_for(
                    self._read_ack(reader, token), self.handoff_timeout_s
                )
            finally:
                await close_writer(writer)
        except asyncio.TimeoutError as exc:
            raise HandoffError(
                "node %s did not ACK the handoff of patient %d within %gs"
                % (dest.name, patient_id, self.handoff_timeout_s)
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise HandoffError(
                "control connection to node %s failed mid-handoff of patient "
                "%d: %s" % (dest.name, patient_id, exc)
            ) from exc
        if ack.status != ACK_OK:
            raise HandoffError(
                "node %s refused the state of patient %d (ack status %d)"
                % (dest.name, patient_id, ack.status)
            )

    def _import_at(self, slot: int, state: MonitorState, pending_age_s: float) -> None:
        """Attach a monitor state to the fleet of the live node at ``slot``."""
        self._nodes[slot].fleet.import_patient(state, pending_age_s=pending_age_s)

    # -------------------------------------------------------------- node churn
    async def add_node(self, weight: float = 1.0) -> int:
        """Join a new gateway node; returns its slot.

        The new slot claims its consistent-hashing share of the key space;
        every patient whose ring assignment changes (and who is still living
        on their default slot — explicitly handed-off patients stay pinned)
        is re-homed through the real :meth:`handoff` protocol, one by one.
        """
        slot = self.ring.n_shards
        unpinned = sorted(
            pid for pid, home in self._home.items() if home == self.ring.shard_of(pid)
        )
        grown, moved = self.ring.with_n_shards(
            slot + 1, unpinned, weights=self.ring.weights + (float(weight),)
        )
        node = self._make_node(slot)
        if self._started:
            await self._start_node(node)
        self._nodes[slot] = node
        self.ring = grown
        for patient_id, (_, new_slot) in moved.items():
            await self.handoff(patient_id, new_slot)
        return slot

    async def kill_node(self, slot: int) -> List[int]:
        """Crash-stop the node at ``slot`` and revive its patients elsewhere.

        The node's transport dies mid-flight — its queued frames die with it
        and its final ledger is archived under :attr:`ClusterStats.retired`.
        Its ring slot is tombstoned (survivors keep their slices untouched),
        and each of its patients revives on their new ring owner: last
        checkpointed :class:`~repro.serving.streaming.MonitorState` attached
        (:mod:`repro.serving.migration`), then their write-ahead frames replayed in arrival order
        (``frames_replayed``).  A frame submitted for one of them meanwhile
        waits for their replay, then follows it.  Under the ``"block"``
        policy the revived patient is bit-identical to one that never
        crashed, because checkpoints are taken at every drain — nothing
        since the checkpoint had been emitted.  Returns the revived patient
        ids.
        """
        slot = int(slot)
        node = self._nodes.get(slot)
        if node is None:
            raise ValueError("node %d is not a live node of this cluster" % slot)
        if len(self._nodes) == 1:
            raise ValueError("cannot kill the last node of the cluster")
        await self._close_node(node)
        # Archived once the node is closed: frames its open data connections
        # routed while closing are on this ledger too.
        self._retired[node.name] = node.gateway.stats()
        self._wire_errors += node.data.wire_errors
        del self._nodes[slot]
        self.ring, _ = self.ring.without_shards([slot])
        self._node_deaths += 1
        orphans = sorted(pid for pid, home in self._home.items() if home == slot)
        # Every orphan is re-homed before the first replay can park on a
        # full queue; their new frames wait for their own replay.
        for pid in orphans:
            self._home[pid] = self.ring.shard_of(pid)
            self._replays[pid] = asyncio.Event()
        try:
            revived = []
            for pid in orphans:
                blob = self._checkpoint.get(pid)
                state = pickle.loads(blob) if blob is not None else None
                if state is not None:
                    revived.append(migration.Detached(pid, slot, self._home[pid], state, 0.0))
            migration.attach(revived, self._import_at)
            for patient_id in orphans:
                dest = self._nodes[self._home[patient_id]]
                for chunk in self._wal.get(patient_id, ()):
                    await dest.gateway.submit_chunk(chunk)
                    self._frames_replayed += 1
                self._replays.pop(patient_id).set()
        finally:
            # A failed revival must not strand the frames waiting on it.
            for patient_id in orphans:
                replay = self._replays.pop(patient_id, None)
                if replay is not None:
                    replay.set()
        return orphans

    # ------------------------------------------------------------------ drain
    def drain(self) -> List[WindowDecision]:
        """Deliver every queued frame, classify, checkpoint — synchronously.

        Forces each live node through queue flush + partial-window-preserving
        drain with no pump interleaving, merges the decisions in canonical
        order, then checkpoints every patient (the recovery point
        :meth:`kill_node` revives from) and truncates their write-ahead
        logs.  Must not run concurrently with a handoff or node churn.
        """
        drained: List[WindowDecision] = []
        for slot in sorted(self._nodes):
            drained.extend(self._nodes[slot].gateway.drain_now())
        drained.sort(key=decision_sort_key)
        self.decisions.extend(drained)
        self._checkpoint_all()
        return drained

    def _checkpoint_all(self) -> None:
        for patient_id, slot in self._home.items():
            node = self._nodes.get(slot)
            if node is None:  # pragma: no cover - home always points at a live node
                continue
            try:
                state = node.fleet.snapshot_patient(patient_id)
            except KeyError:
                continue  # every frame so far shed/errored: nothing to pin
            self._checkpoint[patient_id] = pickle.dumps(state)
            self._wal[patient_id] = []

    # ------------------------------------------------------------------ stats
    def stats(self) -> ClusterStats:
        """Snapshot the cluster-wide ledger (see :class:`ClusterStats`)."""
        data_plane_errors = sum(node.data.wire_errors for node in self._nodes.values())
        return ClusterStats(
            nodes=len(self._nodes),
            patients=len(self._home),
            frames_routed=self._frames_routed,
            frames_replayed=self._frames_replayed,
            handoffs=self._handoffs,
            handoff_failures=self._handoff_failures,
            node_deaths=self._node_deaths,
            decisions=len(self.decisions),
            wire_errors=self._wire_errors + data_plane_errors,
            gateways={
                node.name: node.gateway.stats()
                for _, node in sorted(self._nodes.items())
            },
            retired=dict(self._retired),
        )
