"""Async ingestion gateway: the push-based front door of the serving layer.

PR 1–2 left the fleets pull-driven — some caller hands chunks to
:meth:`~repro.serving.fleet.MonitorFleet.push` synchronously.  A deployed
monitor backend is the opposite shape: hundreds of body sensor nodes *push*
wire-format frames over flaky links, at their own rate, and the backend must
absorb bursts without corrupting per-patient DSP state or falling over.
:class:`IngestGateway` is that front door:

* **Transport** — an ``asyncio`` TCP server (:meth:`IngestGateway.serve`)
  accepts any number of node connections, each carrying a raw concatenation
  of :mod:`repro.serving.wire` DATA frames through :class:`FrameStreamServer`,
  the serving layer's one connection path.  A per-connection
  :class:`~repro.serving.wire.StreamDecoder` reassembles frames across
  arbitrary ``read()`` boundaries; corrupt bytes or a control frame drop
  that connection only.  In-process producers use :meth:`IngestGateway.submit`
  (framed bytes) or :meth:`IngestGateway.submit_chunk` (decoded chunks).
* **Per-patient backpressure** — every patient has a bounded frame queue
  (``queue_depth``) with a configurable overflow policy: ``"block"`` holds
  the producer coroutine (TCP flow control propagates to the node),
  ``"shed-oldest"`` drops the stalest queued frame, ``"reject"`` refuses the
  new one with :class:`BackpressureError`.  Policies are per-patient: one
  chatty node cannot evict another patient's frames.
* **Draining** — a single pump task moves queued frames into the fleet in
  global arrival order (one marker per queued frame) and polls the fleet's
  :class:`~repro.serving.scheduler.DrainPolicy` after every frame (and on an
  idle tick, so a :class:`~repro.serving.scheduler.LatencyPolicy` fires even
  when no new frames arrive).  The fleet's injectable clock keeps that
  testable under asyncio.
* **Parity** — the gateway preserves the serving layer's headline
  guarantee: per-patient frame order is FIFO end to end and the fleet's
  classifiers are batch-composition invariant (bit-exactly so on the
  fixed-point path), so for any chunking of the byte stream, any queue
  depth and any backpressure policy that drops no frames, the decisions are
  identical to the synchronous offline loop (``tests/test_serving_ingest.py``).
* **Accounting** — :meth:`IngestGateway.stats` returns a
  :class:`GatewayStats` snapshot in which every frame ever received is
  delivered, queued, shed, rejected or errored — nothing vanishes, which is
  what makes the lossy policies auditable.

Graceful shutdown (:meth:`IngestGateway.stop`) closes the server, lets the
open connections finish, drains every queue into the fleet, flushes the
monitors' partial windows and runs a final classify — then returns the full
canonically ordered decision list.

The pump runs the DSP synchronously on the event loop: one ~30 s ECG chunk
costs well under a millisecond of Pan–Tompkins + windowing, so handing it to
an executor would cost more in ping-pong than it buys.  At fleet scale the
classifier work is already batched by the drain policy.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from collections.abc import AsyncIterator, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Deque, Dict, List, Mapping, Optional

from repro.serving.fleet import decision_sort_key
from repro.serving.scheduler import DrainPolicy
from repro.serving.streaming import WindowDecision
from repro.serving.wire import (
    EcgChunk,
    Frame,
    SequenceError,
    StreamDecoder,
    WireFormatError,
    decode_chunk,
)

if TYPE_CHECKING:  # typing-only: autoscale also type-imports from here
    from repro.serving.autoscale import AutoscaleController

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BackpressureError",
    "FrameStreamServer",
    "GatewayStats",
    "IngestGateway",
    "read_frames",
]

#: Recognised per-patient queue overflow policies.
BACKPRESSURE_POLICIES = ("block", "shed-oldest", "reject")


class BackpressureError(RuntimeError):
    """A frame was refused because its patient's queue is full (``"reject"``)."""

    def __init__(self, patient_id: int, queue_depth: int) -> None:
        super().__init__(
            "patient %d queue is full (%d frames)" % (patient_id, queue_depth)
        )
        self.patient_id = int(patient_id)
        self.queue_depth = int(queue_depth)


@dataclass(frozen=True)
class GatewayStats:
    """Point-in-time snapshot of the gateway's frame ledger and queues.

    The ledger is conservative: ``frames_received`` splits exactly into
    delivered + queued + shed + rejected + errored + gap-dropped
    (:attr:`fully_accounted`), so under a lossy backpressure policy the
    losses are *measured*, never implied.
    """

    #: Frames that entered the gateway (decoded from TCP or submitted).
    frames_received: int
    #: Frames handed to the fleet's streaming path.
    frames_delivered: int
    #: Frames dropped by the ``"shed-oldest"`` policy.
    frames_shed: int
    #: Frames refused by the ``"reject"`` policy.
    frames_rejected: int
    #: Frames the fleet refused (sequence violation, unknown patient, fs
    #: mismatch) — received but undeliverable.
    frames_errored: int
    #: Undecodable inputs: connections dropped for a corrupt byte stream,
    #: plus in-process submissions that failed to decode.
    wire_errors: int
    #: Raw bytes received — TCP reads and in-process frame submissions.
    bytes_received: int
    #: TCP connections accepted so far.
    connections: int
    #: Patients with a queue (every patient ever seen by the gateway).
    patients: int
    #: Frames currently waiting in per-patient queues.
    queued_frames: int
    #: Deepest any single patient queue has ever been.
    max_queue_depth: int
    #: Window decisions emitted so far.
    decisions: int
    #: Policy-triggered drains run by the pump (the final flush included).
    drains: int
    #: Seconds since the gateway started (0.0 before :meth:`IngestGateway.start`).
    uptime_s: float
    #: Live reshards completed through :meth:`IngestGateway.reshard`.
    reshards: int = 0
    #: Queued frames handed to another gateway during a cluster handoff
    #: (:meth:`IngestGateway.take_queued`) — they left this gateway's queues
    #: without being delivered here, and are accounted on the destination.
    frames_forwarded: int = 0
    #: Reshards initiated by the gateway's own autoscale controller (a
    #: subset of :attr:`reshards`).
    autoscale_actions: int = 0
    #: Window decisions per model label (the registry's per-backend
    #: ``describe()`` signature) — the observability half of a heterogeneous
    #: fleet: which design points are actually doing the classifying.
    drained_by_model: Mapping[str, int] = field(default_factory=dict)
    #: Lossy mode only: frames dropped at delivery because they fell behind a
    #: gap the stream already skipped past (stale datagrams — e.g. a replay
    #: of frames an earlier shed made obsolete).  A ledger outcome, distinct
    #: from ``frames_errored``: on a lossy transport these are expected loss,
    #: not faults.
    frames_gap_dropped: int = 0
    #: Lossy mode only: sequence gaps the fleet's monitors absorbed
    #: (``StreamingMonitor.note_gap`` calls), polled from the fleet.
    gaps_detected: int = 0
    #: Lossy mode only: grid windows abandoned by gap resets — the measured
    #: decision impact of all loss so far, polled from the fleet.
    windows_reset_by_gap: int = 0

    @property
    def frames_per_s(self) -> float:
        """Delivered-frame throughput over the gateway's lifetime."""
        return self.frames_delivered / self.uptime_s if self.uptime_s > 0.0 else 0.0

    @property
    def fully_accounted(self) -> bool:
        """Every received frame is delivered, queued, shed, rejected,
        errored, dropped behind a gap — or forwarded to another gateway of
        the cluster."""
        return self.frames_received == (
            self.frames_delivered
            + self.queued_frames
            + self.frames_shed
            + self.frames_rejected
            + self.frames_errored
            + self.frames_gap_dropped
            + self.frames_forwarded
        )


class _PatientQueue:
    """One patient's bounded FIFO of decoded chunks plus its space signal."""

    __slots__ = ("items", "space")

    def __init__(self) -> None:
        self.items: Deque[EcgChunk] = deque()
        self.space = asyncio.Event()
        self.space.set()


#: Where a front door hands each decoded DATA frame.
_Submit = Callable[[EcgChunk], Awaitable[None]]


async def read_frames(
    reader: asyncio.StreamReader,
    decoder: StreamDecoder,
    on_bytes: Optional[Callable[[int], None]] = None,
) -> AsyncIterator[Frame]:
    """The one frame read loop: yield each frame, data or control, that
    ``reader`` delivers, until EOF or a dropped link; corrupt bytes raise
    :class:`~repro.serving.wire.WireFormatError`.  ``on_bytes`` is told
    the size of every read."""
    while True:
        try:
            data = await reader.read(1 << 16)
        except (ConnectionError, OSError):
            return
        if not data:
            return
        if on_bytes is not None:
            on_bytes(len(data))
        for frame in decoder.feed(data):
            yield frame


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream, ignoring a link that is already gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class FrameStreamServer:
    """The serving layer's one path for TCP frame streams, used by
    :meth:`IngestGateway.serve` and the cluster's data plane: a listening
    socket and its tracked connections.  Each connection reads its frames
    through :func:`read_frames` and hands each DATA frame to ``submit`` (a
    :class:`BackpressureError` is counted where it was raised; the stream
    goes on).  Corrupt or truncated bytes, a frame ``submit`` refuses as
    undecodable, or a control frame is a wire error that drops that
    connection only.
    """

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: set["asyncio.Task[Any]"] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        #: Set while :meth:`close` force-closes: the EOF a connection then
        #: reads is this side's doing, not a truncation by the node.
        self._forcing = False
        self.connections = 0
        self.bytes_received = 0
        self.wire_errors = 0

    @property
    def address(self) -> Optional[tuple[str, int]]:
        """The bound ``(host, port)`` while listening, else ``None``."""
        return None if self._server is None else self._server.sockets[0].getsockname()[:2]

    async def listen(self, submit: _Submit, host: str, port: int) -> tuple[str, int]:
        """Start accepting connections; returns the bound ``(host, port)``.
        Only the listening socket holds ``submit``: a stopped front door
        and this server form no reference cycle."""
        if self._server is not None:
            raise RuntimeError("this front door is already serving")
        self._forcing = False
        self._server = await asyncio.start_server(
            lambda reader, writer: self._handle(submit, reader, writer), host, port
        )
        return self._server.sockets[0].getsockname()[:2]

    async def close(
        self, grace_s: float = 0.0, release: Optional[Callable[[], None]] = None
    ) -> None:
        """Stop listening and close every connection: those still open
        after ``grace_s`` (at once for 0, a crash-stop) are force-closed,
        after ``release`` lets through any producer a connection is parked
        on.  Returns once every connection task has finished."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # A just-accepted connection's task registers itself at its first
            # step; one loop pass lets not-yet-started ones do that.
            await asyncio.sleep(0)
        if self._tasks and grace_s > 0.0:
            await asyncio.wait(list(self._tasks), timeout=grace_s)
        if self._tasks:
            self._forcing = True
            if release is not None:
                release()
            for writer in list(self._writers):
                writer.close()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if server is not None:
            # Last: on Python >= 3.12.1 this waits for every connection.
            await server.wait_closed()

    def _count_bytes(self, n: int) -> None:
        self.bytes_received += n

    async def _handle(
        self, submit: _Submit, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        assert task is not None  # a connection callback runs in its own task
        self._tasks.add(task)
        self._writers.add(writer)
        decoder = StreamDecoder()
        try:
            async for frame in read_frames(reader, decoder, self._count_bytes):
                if not isinstance(frame, EcgChunk):
                    raise WireFormatError(
                        "%s is a control frame; a data connection carries "
                        "DATA frames only" % type(frame).__name__
                    )
                try:
                    await submit(frame)
                except BackpressureError:
                    pass  # counted where it was refused; the stream goes on
            if reader.at_eof() and not self._forcing:
                # The node's own close (not a reset, not a forced close): a
                # partial buffered frame is then a truncation.
                decoder.finish()
        except WireFormatError:
            self.wire_errors += 1
        finally:
            self._tasks.discard(task)
            self._writers.discard(writer)
            await close_writer(writer)


class IngestGateway:
    """Asyncio front door feeding a monitor fleet from pushed wire frames.

    Parameters
    ----------
    fleet:
        A :class:`~repro.serving.fleet.MonitorFleet` or
        :class:`~repro.serving.sharding.ShardedFleet`.  The gateway owns its
        streaming side while running: frames are pushed in arrival order and
        the fleet's drain policy is polled by the pump task.
    queue_depth:
        Per-patient queue bound (frames).  The knob that trades memory for
        burst absorption.
    backpressure:
        ``"block"`` (default), ``"shed-oldest"`` or ``"reject"`` — what
        happens to an arriving frame whose patient queue is full.
    drain_policy:
        Optional :class:`~repro.serving.scheduler.DrainPolicy` installed on
        the fleet (replacing its current one) for each serving period:
        :meth:`start` installs it, :meth:`stop` restores the fleet's
        previous policy, and a restarted gateway installs it again.  Without
        any policy, windows are classified only by the final flush.
    poll_interval_s:
        Idle tick of the pump task — the latency resolution of time-based
        drain policies when no frames are arriving.
    close_grace_s:
        How long :meth:`stop` waits for open connections to drain their
        in-flight bytes and hit EOF before force-closing them.  A push
        protocol has no close handshake, so an idle-but-open node link must
        not be allowed to park shutdown forever.
    lossy:
        Datagram-transport mode, end to end.  Requires a fleet constructed
        with ``lossy=True`` (the monitors read ``seq`` as the chunk's
        absolute sample offset): frame loss — upstream, or shed here by
        backpressure — becomes a detected gap with a DSP reset instead of a
        stuck or rejected stream, stale frames are dropped and counted as
        :attr:`GatewayStats.frames_gap_dropped`, and
        :meth:`stats` folds the fleet's gap counters
        (:attr:`GatewayStats.gaps_detected` /
        :attr:`GatewayStats.windows_reset_by_gap`) into the snapshot.
    clock:
        Monotonic time source for :attr:`GatewayStats.uptime_s`; injectable
        for deterministic tests.
    autoscaler:
        Optional :class:`~repro.serving.autoscale.AutoscaleController` over
        the same fleet.  The pump loop then runs one control tick after each
        delivered frame and on every idle tick: the controller plans from
        the live :meth:`stats` snapshot, and a non-hold decision executes
        through the gateway's own quiescing :meth:`reshard` — so autonomous
        topology changes get exactly the zero-frame-loss treatment manual
        ones do.  Requires a fleet that supports live resharding.

    Attributes
    ----------
    enforce_seq:
        Whether delivered frames carry their wire sequence numbers into the
        fleet's per-patient policing, derived as ``lossy or backpressure ==
        "block"``.  A ``"block"`` gateway is lossless, so a gap really is a
        transport fault.  Under the lossy policies a shed frame is a *policy
        decision*: the stream must keep flowing across the gap, which strict
        sequencing would forbid.  With ``lossy=True`` the sequence numbers are
        how the fleet's monitors *detect* gaps, and their datagram mode
        absorbs them instead of rejecting the stream.
    """

    def __init__(
        self,
        fleet,
        *,
        queue_depth: int = 64,
        backpressure: str = "block",
        drain_policy: Optional[DrainPolicy] = None,
        poll_interval_s: float = 0.05,
        close_grace_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        autoscaler: Optional["AutoscaleController"] = None,
        lossy: bool = False,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                "unknown backpressure policy %r (choose from %s)"
                % (backpressure, BACKPRESSURE_POLICIES)
            )
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.lossy = bool(lossy)
        if self.lossy != fleet.lossy:
            raise ValueError(
                "gateway lossy=%r but its fleet was built with lossy=%r — the"
                " transport mode decides how monitors read seq numbers, so"
                " the two must match" % (self.lossy, fleet.lossy)
            )
        self.fleet = fleet
        self.queue_depth = int(queue_depth)
        self.backpressure = backpressure
        self.enforce_seq = self.lossy or backpressure == "block"
        self._gateway_policy = drain_policy
        self._previous_policy: Optional[DrainPolicy] = None
        self._policy_installed = False
        self.poll_interval_s = float(poll_interval_s)
        self.close_grace_s = float(close_grace_s)
        self._clock = clock
        #: Decisions emitted so far, canonically sorted by :meth:`stop`.
        self.decisions: List[WindowDecision] = []
        self._queues: Dict[int, _PatientQueue] = {}
        self._order: Deque[int] = deque()
        self._data = asyncio.Event()
        self._streams = FrameStreamServer()
        self._closing_connections = False
        self._pump_task: Optional[asyncio.Task] = None
        #: Set by the pump's idle timer when it ends a wait (see _pump_loop).
        self._idle_elapsed = False
        self._closing = False
        self._started_t: Optional[float] = None
        self._frames_received = 0
        self._frames_delivered = 0
        self._frames_shed = 0
        self._frames_rejected = 0
        self._frames_errored = 0
        self._wire_errors = 0
        self._bytes_received = 0
        self._queued = 0
        self._max_queue_depth = 0
        self._drains = 0
        self._drained_by_model: Dict[str, int] = {}
        #: Patients whose delivery is paused while their monitor state
        #: migrates between shards (see :meth:`reshard`).  Their frames keep
        #: arriving and queue under the normal backpressure policies.
        self._quiesced: set = set()
        self._frames_forwarded = 0
        self._frames_gap_dropped = 0
        self._reshards = 0
        if autoscaler is not None and (
            not hasattr(fleet, "preview_reshard") or not hasattr(fleet, "reshard")
        ):
            raise TypeError(
                "autoscaler needs a fleet that supports live resharding; "
                "%r does not" % type(fleet).__name__
            )
        self._autoscaler = autoscaler
        self._autoscale_actions = 0

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the pump task (idempotent).  :meth:`serve` calls this.

        Also the recovery point: if the pump died on a classifier fault, a
        new start() replaces it and delivery resumes.
        """
        if self._pump_task is None or self._pump_task.done():
            self._closing = False
            self._closing_connections = False
            # asyncio primitives bind to the loop that first awaits them and
            # raise "bound to a different event loop" if reused from another;
            # a new serving period may run under a fresh asyncio.run.
            # Replace only events left bound to a previous period's loop —
            # waiters parked on the current loop's events keep theirs.
            running = asyncio.get_running_loop()
            if getattr(self._data, "_loop", None) not in (None, running):
                self._data = asyncio.Event()
                if self._order:
                    self._data.set()
            for queue in self._queues.values():
                if getattr(queue.space, "_loop", None) not in (None, running):
                    queue.space = asyncio.Event()
                    if len(queue.items) < self.queue_depth:
                        queue.space.set()
            # (guarded so reviving a dead pump does not re-capture the
            # gateway's own installed policy as the "previous" one)
            if self._gateway_policy is not None and not self._policy_installed:
                self._previous_policy = self.fleet.drain_policy
                self.fleet.drain_policy = self._gateway_policy
                self._policy_installed = True
            if self._started_t is None:
                self._started_t = self._clock()
            self._pump_task = asyncio.get_running_loop().create_task(self._pump_loop())

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Start the TCP front door; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the test- and example-friendly
        default.  Each accepted connection is an independent frame stream.
        """
        await self.start()
        return await self._streams.listen(self.submit_chunk, host, port)

    async def stop(self) -> List[WindowDecision]:
        """Graceful shutdown: drain everything, flush windows, final classify.

        Stops accepting connections; gives the open ones ``close_grace_s``
        to drain their in-flight bytes and close from the node side, then
        force-disconnects the stragglers (an idle-but-open node link must
        not park shutdown forever); delivers every queued frame to the
        fleet, flushes the monitors' partial windows and runs one final
        drain.  Returns the complete decision list in canonical
        :func:`~repro.serving.fleet.decision_sort_key` order (also left on
        :attr:`decisions`).

        Fault-tolerant and retryable: if the pump task died on a classifier
        fault, its queued frames are still delivered here and the final
        drain reclassifies the fleet's surviving windows (a failed fleet
        drain keeps them queued), so a transient fault costs nothing once
        it clears; if the fault persists, the error propagates with the
        fleet's previous drain policy restored and every queue intact — a
        later :meth:`stop` retries cleanly.
        """
        await self._streams.close(self.close_grace_s, self._release_producers)
        self._closing = True
        self._data.set()
        pump, self._pump_task = self._pump_task, None
        if pump is not None:
            try:
                await pump
            except Exception:
                # The pump died mid-run (e.g. a classifier fault in a policy
                # drain).  Its windows are still queued on the fleet and its
                # frames still queued here; the flush below delivers and
                # reclassifies them, which is the pump error handled.
                pass
        try:
            # Also the safety net for a gateway that was fed but never
            # started: no submitted frame is ever silently lost.
            self.flush_queues()
            self.fleet.finish()
            final = self.fleet.drain()
        finally:
            # Restore only what start() actually installed — never clobber a
            # policy the caller set on the fleet themselves.
            if self._policy_installed:
                self.fleet.drain_policy = self._previous_policy
                self._policy_installed = False
        if final:
            self._drains += 1
        self._emit(final)
        self.decisions.sort(key=decision_sort_key)
        return list(self.decisions)

    async def __aenter__(self) -> "IngestGateway":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -------------------------------------------------------------- ingestion
    async def submit(self, frame: bytes) -> None:
        """In-process front door: ingest one complete framed chunk.

        Applies the same strict decoding and backpressure as the TCP path.
        Raises :class:`~repro.serving.wire.WireFormatError` on a bad frame
        (tallied in ``wire_errors``, exactly like a corrupt TCP stream) and
        :class:`BackpressureError` under the ``"reject"`` policy.
        """
        self._bytes_received += len(frame)
        try:
            chunk = decode_chunk(frame)
        except WireFormatError:
            self._wire_errors += 1
            raise
        await self.submit_chunk(chunk)

    async def submit_chunk(self, chunk: EcgChunk) -> None:
        """Ingest an already-decoded chunk (the zero-copy in-process path).

        ``frames_received`` is incremented only at the terminal outcome of
        the frame (queued / rejected / errored), never before an ``await`` —
        so the :attr:`GatewayStats.fully_accounted` invariant holds at every
        suspension point, including while a ``"block"``-policy producer is
        parked on a full queue.
        """
        if chunk.fs != self.fleet.fs:
            self._frames_received += 1
            self._frames_errored += 1
            raise WireFormatError(
                "chunk fs %g Hz does not match the fleet's %g Hz"
                % (chunk.fs, self.fleet.fs)
            )
        queue = self._queues.get(chunk.patient_id)
        if queue is None:
            queue = self._queues[chunk.patient_id] = _PatientQueue()
        shed = False
        if len(queue.items) >= self.queue_depth:
            if self.backpressure == "shed-oldest":
                queue.items.popleft()
                self._queued -= 1
                self._frames_shed += 1
                shed = True
            elif self.backpressure == "reject":
                self._frames_received += 1
                self._frames_rejected += 1
                raise BackpressureError(chunk.patient_id, self.queue_depth)
            else:  # block: hold the producer until the pump makes room
                while len(queue.items) >= self.queue_depth:
                    if self._closing_connections:
                        # Forced shutdown: accept the frame one-over-bound
                        # rather than deadlock a handler the pump can no
                        # longer relieve; stop()'s flush delivers it.
                        break
                    queue.space.clear()
                    await queue.space.wait()
        queue.items.append(chunk)
        self._frames_received += 1
        self._queued += 1
        if len(queue.items) > self._max_queue_depth:
            self._max_queue_depth = len(queue.items)
        if not shed:  # a shed arrival takes over the displaced frame's marker
            self._order.append(chunk.patient_id)
        self._data.set()

    def _release_producers(self) -> None:
        """Wake every ``"block"`` producer parked on a full queue (closing a
        transport does not interrupt an Event wait, and a dead pump never
        makes room): each queues its frame one over the bound, and the
        shutdown flush delivers it."""
        self._closing_connections = True
        for queue in self._queues.values():
            queue.space.set()

    # ------------------------------------------------------------- migration
    async def reshard(self, n_shards: int) -> Dict[int, tuple]:
        """Live-reshard the fleet underneath the gateway, zero frames lost.

        Exactly the patients the reshard moves
        (:meth:`ShardedFleet.preview_reshard
        <repro.serving.sharding.ShardedFleet.preview_reshard>`) are
        *quiesced* (see :meth:`quiescing`) while every other patient streams
        on undisturbed, and the fleet migrates the frozen patients' monitor
        state (:meth:`ShardedFleet.reshard
        <repro.serving.sharding.ShardedFleet.reshard>`).  The
        :class:`GatewayStats` ledger invariant holds at every suspension
        point throughout (quiesced frames are simply ``queued``).

        Returns the migrated ``{patient_id: (old_shard, new_shard)}``
        mapping.  Must not race :meth:`stop`: a shutdown flush that runs
        inside the quiesce window would leave the frozen patients' frames
        queued (never lost — a later :meth:`stop` delivers them).
        """
        preview = getattr(self.fleet, "preview_reshard", None)
        if preview is None or not hasattr(self.fleet, "reshard"):
            raise TypeError(
                "fleet %r does not support live resharding" % type(self.fleet).__name__
            )
        async with self.quiescing(preview(n_shards)):
            moved = self.fleet.reshard(n_shards)
        self._reshards += 1
        return moved

    @contextlib.asynccontextmanager
    async def quiescing(self, patient_ids: Iterable[int]) -> AsyncIterator[None]:
        """Hold ``patient_ids`` quiesced for the body of an ``async with``.

        The pump skips their queues (their arrival-order markers stay put,
        so per-patient FIFO delivery resumes exactly where it paused) while
        their frames keep arriving and buffer under the normal backpressure
        policies — ``block`` holds their nodes via TCP flow control, the
        lossy policies shed/reject with the usual accounting.  One loop pass
        runs first, so whatever delivery the pump is mid-way through
        completes before any monitor detaches.  The patients are resumed on
        exit, however the body ends.  Both migrations through a gateway —
        :meth:`reshard` and the cluster handoff — run inside this window.
        """
        frozen = [int(pid) for pid in patient_ids]
        self.quiesce_patients(frozen)
        try:
            await asyncio.sleep(0)
            yield
        finally:
            self.resume_patients(frozen)

    def quiesce_patients(self, patient_ids: Iterable[int]) -> None:
        """Pause delivery for ``patient_ids`` (their frames keep queueing);
        matched by :meth:`resume_patients`."""
        self._quiesced |= {int(pid) for pid in patient_ids}

    def resume_patients(self, patient_ids: Iterable[int]) -> None:
        """Thaw patients frozen by :meth:`quiesce_patients`."""
        self._quiesced -= {int(pid) for pid in patient_ids}
        if self._order:
            self._data.set()  # wake the pump for the thawed queues

    def queued_frames_of(self, patient_id: int) -> List[EcgChunk]:
        """Peek (copy) a patient's queued, undelivered frames, oldest first."""
        queue = self._queues.get(int(patient_id))
        return list(queue.items) if queue is not None else []

    def take_queued(self, patient_id: int) -> List[EcgChunk]:
        """Remove and return a patient's queued frames, oldest first.

        The forwarding half of a cluster handoff: the frames leave this
        gateway's ledger as ``frames_forwarded`` (keeping
        :attr:`GatewayStats.fully_accounted` true) and must be re-submitted
        to the destination gateway, which counts them as received there.
        Synchronous — no suspension point splits the ledger update.
        """
        patient_id = int(patient_id)
        queue = self._queues.get(patient_id)
        if queue is None or not queue.items:
            return []
        taken = list(queue.items)
        queue.items.clear()
        self._queued -= len(taken)
        self._frames_forwarded += len(taken)
        self._order = deque(pid for pid in self._order if pid != patient_id)
        queue.space.set()
        return taken

    def flush_queues(self) -> None:
        """Synchronously deliver every deliverable queued frame to the fleet.

        Quiesced patients' frames stay put.  Runs the drain-policy poll after
        each delivery, exactly like the pump, so policy semantics hold.
        """
        while self._deliver_one():
            self._poll_drain()

    def drain_now(self, finish: bool = False) -> List[WindowDecision]:
        """Deliver queued frames, then force one fleet drain, synchronously.

        With ``finish=True`` the monitors' partial windows are flushed first
        (end of stream).  Returns the decisions drained by this call; they
        are also appended to :attr:`decisions`.  The cluster uses this for
        race-free mid-schedule drains — no pump interleaving, no await.
        """
        self.flush_queues()
        if finish:
            self.fleet.finish()
        drained = self.fleet.drain()
        if drained:
            self._drains += 1
        self._emit(drained)
        return drained

    async def abort(self) -> None:
        """Crash-stop: cancel the pump and sever connections, flush nothing.

        Queued frames and fleet windows are left exactly where they are —
        this is the test seam for killing a cluster node mid-flight, and the
        cleanup path after :meth:`drain_now` has already harvested a node.
        Unlike :meth:`stop`, the fleet is never finished or drained, and the
        gateway's installed drain policy is still restored.
        """
        self._closing = True
        self._release_producers()
        await self._streams.close()
        pump, self._pump_task = self._pump_task, None
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):
                pass
        if self._policy_installed:
            self.fleet.drain_policy = self._previous_policy
            self._policy_installed = False

    # ------------------------------------------------------------------ pump
    def _deliver_one(self) -> bool:
        """Move the oldest deliverable queued frame into the fleet.

        Returns ``False`` when nothing is deliverable (idle, or every queued
        frame belongs to a quiesced patient).  Quiesced patients' markers are
        skipped *in place* — they keep their position at the front of the
        global arrival order, so delivery resumes in the exact order it
        paused when :meth:`reshard` thaws them.
        """
        held = []
        delivered = False
        try:
            while self._order:
                patient_id = self._order.popleft()
                if patient_id in self._quiesced:
                    held.append(patient_id)
                    continue
                queue = self._queues[patient_id]
                chunk = queue.items.popleft()
                self._queued -= 1
                if len(queue.items) < self.queue_depth:
                    queue.space.set()
                try:
                    self.fleet.push(
                        chunk.patient_id,
                        chunk.samples,
                        seq=chunk.seq if self.enforce_seq else None,
                    )
                except SequenceError:
                    if self.lossy:
                        # A stale datagram behind a gap the stream already
                        # skipped past (e.g. a cluster replay of frames an
                        # earlier shed made obsolete): expected loss on this
                        # transport, not a fault.
                        self._frames_gap_dropped += 1
                    else:
                        self._frames_errored += 1
                except KeyError:
                    self._frames_errored += 1
                else:
                    self._frames_delivered += 1
                delivered = True
                break
        finally:
            if held:
                self._order.extendleft(reversed(held))
        return delivered

    def _emit(self, decisions: List[WindowDecision]) -> None:
        self.decisions.extend(decisions)
        if not decisions:
            return
        # Per-model drain counts: resolved *now*, against the registry state
        # that just classified these windows (a later hot-swap must not
        # retroactively re-attribute decisions).
        labels: Dict[int, str] = {}
        for decision in decisions:
            label = labels.get(decision.patient_id)
            if label is None:
                try:
                    label = self.fleet.model_label_for(decision.patient_id)
                except KeyError:  # pragma: no cover - registry raced empty
                    label = "<unmodelled>"
                labels[decision.patient_id] = label
            self._drained_by_model[label] = self._drained_by_model.get(label, 0) + 1

    def _poll_drain(self) -> None:
        decisions = self.fleet.maybe_drain()
        if decisions:
            self._drains += 1
            self._emit(decisions)

    async def _maybe_autoscale(self) -> None:
        """One autoscale control tick, if a controller is installed.

        Planning is synchronous (it reads the fleet's queue snapshot and
        this gateway's counters, and previews the migration); a non-hold
        decision executes through :meth:`reshard`, whose quiesce window is
        the only suspension — and by the pump-loop contract nothing else
        delivers frames while this coroutine is parked there.
        """
        if self._autoscaler is None or self._closing:
            return
        decision = self._autoscaler.plan(gateway_stats=self.stats())
        if decision.action == "hold":
            return
        await self.reshard(decision.to_shards)
        self._autoscaler.note_action(decision)
        self._autoscale_actions += 1

    async def _pump_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._deliver_one():
                self._poll_drain()
                await self._maybe_autoscale()
                # Yield between frames so producers (and the shed/reject
                # bookkeeping they run) interleave with delivery.
                await asyncio.sleep(0)
                continue
            if self._closing:
                return
            self._data.clear()
            # Data raced in after the last delivery?  Markers that are all
            # quiesced do not count: re-looping on them would busy-spin the
            # event loop for the whole quiesce window of a live reshard.
            if any(pid not in self._quiesced for pid in self._order):
                self._data.set()
                continue
            if self.fleet.drain_policy is None and self._autoscaler is None:
                await self._data.wait()
                continue
            # An idle period costs one timer (asyncio.wait_for would add a
            # task and a waiter per period before Python 3.12); the timer
            # ends the wait as a frame does, and flags that it did.
            self._idle_elapsed = False
            timer = loop.call_later(self.poll_interval_s, self._end_idle_period)
            try:
                await self._data.wait()
            finally:
                timer.cancel()
            if self._idle_elapsed:
                # Idle tick: give time-based drain policies (and the
                # autoscaler, which may owe a scale-down) their poll.
                self._poll_drain()
                await self._maybe_autoscale()

    def _end_idle_period(self) -> None:
        """The pump's idle timer: the poll interval passed with nothing
        delivered, so wake the pump for an idle tick."""
        self._idle_elapsed = True
        self._data.set()

    # ----------------------------------------------------------------- stats
    def stats(self) -> GatewayStats:
        """Snapshot the frame ledger, queue state and throughput.

        In lossy mode the fleet's gap counters are polled into the snapshot
        (``gaps_detected`` / ``windows_reset_by_gap``); strict gateways skip
        the sweep — the counters are structurally zero there.
        """
        uptime = 0.0
        if self._started_t is not None:
            uptime = max(0.0, self._clock() - self._started_t)
        gaps_detected = 0
        windows_reset = 0
        if self.lossy:
            gaps = self.fleet.gap_stats()
            gaps_detected = gaps.gaps
            windows_reset = gaps.windows_reset
        return GatewayStats(
            frames_received=self._frames_received,
            frames_delivered=self._frames_delivered,
            frames_shed=self._frames_shed,
            frames_rejected=self._frames_rejected,
            frames_errored=self._frames_errored,
            wire_errors=self._wire_errors + self._streams.wire_errors,
            bytes_received=self._bytes_received + self._streams.bytes_received,
            connections=self._streams.connections,
            patients=len(self._queues),
            queued_frames=self._queued,
            max_queue_depth=self._max_queue_depth,
            decisions=len(self.decisions),
            drains=self._drains,
            uptime_s=uptime,
            reshards=self._reshards,
            frames_forwarded=self._frames_forwarded,
            autoscale_actions=self._autoscale_actions,
            drained_by_model=dict(self._drained_by_model),
            frames_gap_dropped=self._frames_gap_dropped,
            gaps_detected=gaps_detected,
            windows_reset_by_gap=windows_reset,
        )
