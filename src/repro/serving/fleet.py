"""Batched inference over a fleet of concurrent streaming monitors.

A server receiving ECG chunks from many body sensor nodes should not run one
SVM evaluation per window: the per-call Python and quantisation overhead
dominates at fleet scale.  :class:`MonitorFleet` keeps one
:class:`~repro.serving.streaming.StreamingMonitor` per patient, accumulates
the windows they complete and, on :meth:`MonitorFleet.drain`, featurises the
pending windows of *all* patients in one
:meth:`~repro.features.extractor.FeatureExtractor.extract_batch` call
(:func:`~repro.serving.streaming.featurise`), then classifies them in one
vectorised call per model group — on the fixed-point models this is one
int64 matrix pipeline per group for the whole batch, bit-identical to the
per-window loop (see ``tests/test_serving.py``).

Which model classifies whom is a
:class:`~repro.serving.registry.ModelRegistry` decision: a fleet built from
a bare classifier serves every patient with it (one group, the pre-registry
behaviour, decision-for-decision), while a fleet built from a registry
serves each patient their *tailored* design point — the paper's per-patient
feature sets, SV budgets and bit widths — without giving up batching
(``tests/test_serving_registry.py``).

*When* to drain is a pluggable :class:`~repro.serving.scheduler.DrainPolicy`
(chunk-count, queue-size or wall-clock-latency triggered); the fleet
maintains the :class:`~repro.serving.scheduler.DrainStats` the policy
observes and offers :meth:`MonitorFleet.maybe_drain` as the poll point.
Chunks can arrive either as raw arrays (:meth:`MonitorFleet.push`) or as
framed bytes in the :mod:`repro.serving.wire` format
(:meth:`MonitorFleet.push_wire`, with per-patient sequence enforcement).
A fleet is one *shard* of the horizontally scaled
:class:`~repro.serving.sharding.ShardedFleet`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.dsp.peaks import PanTompkinsParams
from repro.serving.registry import InferenceBackend, ModelRegistry, classify_grouped
from repro.serving.scheduler import ChunkCountPolicy, DrainPolicy, DrainStats
from repro.serving.streaming import (
    MONITOR_STATE_VERSION,
    GapStats,
    MonitorState,
    PendingWindow,
    StreamingMonitor,
    WindowDecision,
    featurise,
)
from repro.serving.wire import decode_chunk_checked
from repro.signals.windows import WindowingParams

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.serving.sharding import ShardedFleet

__all__ = ["MonitorFleet", "decision_sort_key", "run_streams"]


def decision_sort_key(decision: WindowDecision) -> tuple[float, int]:
    """Canonical ordering of fleet output: by window start, then patient.

    Both :meth:`MonitorFleet.run` and the sharded fleet sort their merged
    decisions with this key, so any fleet topology over the same streams
    yields the same decision *sequence*, not just the same decision set.
    """
    return (decision.start_s, decision.patient_id)


def run_streams(
    fleet: "MonitorFleet | ShardedFleet",
    streams: Mapping[int, Iterable[np.ndarray]],
    drain_every: int = 0,
    policy: DrainPolicy | None = None,
) -> List[WindowDecision]:
    """The shared convenience driver behind ``MonitorFleet.run`` and
    ``ShardedFleet.run``: interleave the patients' chunk streams.

    Chunks are consumed round-robin across patients (the arrival order a
    server would see) and the streams are flushed at the end.  Pending
    windows are classified in batched drains whenever the drain policy
    triggers — ``policy`` if given, else the fleet's own ``drain_policy``,
    else (for ``drain_every > 0``) a
    :class:`~repro.serving.scheduler.ChunkCountPolicy`; with no policy at
    all there is a single final drain.  Decisions are returned in the
    canonical :func:`decision_sort_key` order.

    One driver for both fleet shapes is what keeps their arrival order and
    drain scheduling identical — the precondition of the sharded-vs-single
    parity guarantee.
    """
    if policy is None:
        policy = fleet.drain_policy
    if policy is None and drain_every > 0:
        policy = ChunkCountPolicy(drain_every)
    previous_policy = fleet.drain_policy
    fleet.drain_policy = policy
    try:
        iterators = {int(pid): iter(chunks) for pid, chunks in streams.items()}
        for pid in iterators:
            if not fleet.has_patient(pid):
                fleet.add_patient(pid)
        decisions: List[WindowDecision] = []
        while iterators:
            for pid in list(iterators):
                try:
                    chunk = next(iterators[pid])
                except StopIteration:
                    del iterators[pid]
                    continue
                fleet.push(pid, chunk)
                decisions.extend(fleet.maybe_drain())
        fleet.finish()
        decisions.extend(fleet.drain())
    finally:
        fleet.drain_policy = previous_policy
    decisions.sort(key=decision_sort_key)
    return decisions


class MonitorFleet:
    """Many concurrent patients, one batched classifier.

    Parameters
    ----------
    classifier:
        Either a shared backend (:class:`~repro.svm.model.SVMModel`,
        :class:`~repro.quant.quantized_model.QuantizedSVM` or any
        :class:`~repro.serving.registry.InferenceBackend`) serving every
        patient, or a :class:`~repro.serving.registry.ModelRegistry` mapping
        patients to their tailored backends (with an optional default
        fallback).  A bare backend is wrapped as
        ``ModelRegistry(default=classifier)``, so the two forms behave
        identically for a homogeneous fleet.
    fs:
        Sampling frequency of the incoming ECG streams (Hz).
    windowing / detector_params:
        Shared configuration handed to every per-patient monitor.
    drain_policy:
        Optional :class:`~repro.serving.scheduler.DrainPolicy` consulted by
        :meth:`maybe_drain` (and by :meth:`run` after every pushed chunk).
        Without one, draining is purely manual.
    auto_register:
        Contract for chunks of unknown patients.  ``True`` (default): the
        fleet transparently creates a monitor on first contact — the right
        behaviour for a server where nodes may start transmitting at any
        time.  ``False``: only explicitly :meth:`add_patient`-ed ids are
        accepted and anything else raises :class:`KeyError` — the right
        behaviour when an upstream registry owns patient lifecycle and a
        stray id is a routing bug.
    clock:
        Monotonic time source used for latency-based drain policies;
        injectable for deterministic tests.
    lossy:
        Datagram-transport mode for every monitor this fleet creates or
        revives: ``seq`` values are absolute sample offsets, and a jump
        ahead is absorbed as frame loss instead of raising
        ``OutOfOrderChunkError`` (see
        :meth:`~repro.serving.streaming.StreamingMonitor.note_gap`).  A
        fleet is lossy or strict as a whole, never patient by patient.
    """

    def __init__(
        self,
        classifier: InferenceBackend | ModelRegistry,
        fs: float,
        windowing: WindowingParams | None = None,
        detector_params: PanTompkinsParams | None = None,
        drain_policy: DrainPolicy | None = None,
        auto_register: bool = True,
        clock: Callable[[], float] = time.monotonic,
        lossy: bool = False,
    ) -> None:
        if isinstance(classifier, ModelRegistry):
            self.registry = classifier
        else:
            self.registry = ModelRegistry(default=classifier)
        self.fs = float(fs)
        self.windowing = windowing
        self.detector_params = detector_params
        self.drain_policy = drain_policy
        self.auto_register = bool(auto_register)
        self.lossy = bool(lossy)
        self._clock = clock
        self._monitors: Dict[int, StreamingMonitor] = {}
        self._pending: List[PendingWindow] = []
        self._chunks_since_drain = 0
        self._oldest_pending_t: Optional[float] = None

    # --------------------------------------------------------------- models
    @property
    def classifier(self) -> Optional[InferenceBackend]:
        """The registry's default backend (the shared model of a homogeneous
        fleet); ``None`` when the registry is strict per-patient only."""
        return self.registry.default

    def register_model(self, patient_id: int, backend: InferenceBackend) -> int:
        """Install (or hot-swap) one patient's tailored backend.

        Delegates to :meth:`ModelRegistry.register
        <repro.serving.registry.ModelRegistry.register>`: the swap is
        atomic, bumps the registry epoch (returned) and takes effect at the
        very next drain — queued windows are classified by the *new* model.
        """
        return self.registry.register(patient_id, backend)

    def model_label_for(self, patient_id: int) -> str:
        """Stats label of the backend serving ``patient_id``."""
        return self.registry.label_for(patient_id)

    # ------------------------------------------------------------ membership
    @property
    def patient_ids(self) -> List[int]:
        return sorted(self._monitors)

    @property
    def n_patients(self) -> int:
        """Patients this fleet holds a monitor or a queued window of."""
        return len(self._members())

    @property
    def pending_count(self) -> int:
        """Number of completed windows awaiting the next :meth:`drain`."""
        return len(self._pending)

    def add_patient(self, patient_id: int) -> StreamingMonitor:
        """Register a patient; returns their monitor."""
        patient_id = int(patient_id)
        if patient_id in self._monitors:
            raise KeyError("patient %d is already monitored" % patient_id)
        monitor = StreamingMonitor(
            patient_id,
            self.fs,
            windowing=self.windowing,
            detector_params=self.detector_params,
            lossy=self.lossy,
        )
        self._monitors[patient_id] = monitor
        return monitor

    def monitor(self, patient_id: int) -> StreamingMonitor:
        return self._monitors[int(patient_id)]

    def has_patient(self, patient_id: int) -> bool:
        return int(patient_id) in self._monitors

    # ------------------------------------------------------------- migration
    def _members(self) -> Set[int]:
        """Patients this fleet holds a monitor or a queued window of — exactly
        the ones :meth:`snapshot_patient` and :meth:`export_patient` accept."""
        members = set(self._monitors)
        members.update(int(window.patient_id) for window in self._pending)
        return members

    def snapshot_patient(self, patient_id: int) -> MonitorState:
        """Non-destructively capture one patient's full serving state.

        The checkpoint counterpart of :meth:`export_patient`: the returned
        :class:`~repro.serving.streaming.MonitorState` carries the same DSP
        carry-over and the patient's currently queued
        :class:`~repro.serving.streaming.PendingWindow` entries, but the
        fleet keeps serving the patient — nothing is detached.  A federated
        cluster checkpoints every patient this way so that a dead gateway's
        patients can revive at their new owner from the last snapshot
        (:mod:`repro.serving.cluster`).

        A patient known only through :meth:`enqueue` snapshots a
        pending-only state.  Raises :class:`KeyError` when the fleet knows
        nothing of the patient at all.
        """
        patient_id = int(patient_id)
        monitor = self._monitors.get(patient_id)
        queued = tuple(
            window for window in self._pending if int(window.patient_id) == patient_id
        )
        if monitor is None and not queued:
            raise KeyError(
                "patient %d has no monitor and no pending windows here" % patient_id
            )
        if monitor is not None:
            state = monitor.snapshot()
        else:
            state = MonitorState(
                version=MONITOR_STATE_VERSION,
                patient_id=patient_id,
                fs=self.fs,
                detector=None,
                windower=None,
                sequence=None,
                n_windows=0,
            )
        return replace(state, pending=queued)

    def export_patient(self, patient_id: int) -> MonitorState:
        """Atomically detach one patient: monitor state plus queued windows.

        Returns a :class:`~repro.serving.streaming.MonitorState` carrying the
        patient's full DSP carry-over *and* every one of their
        :class:`~repro.serving.streaming.PendingWindow` entries, removed from
        this fleet's queue in their arrival order.  After the call the fleet
        holds nothing of the patient — the state is the single authoritative
        copy, ready for :meth:`import_patient` on another fleet (possibly in
        another process: the state pickles).

        A patient known only through :meth:`enqueue` (windows but no monitor)
        exports a pending-only state.  Raises :class:`KeyError` when the
        fleet knows nothing of the patient at all.
        """
        patient_id = int(patient_id)
        state = self.snapshot_patient(patient_id)
        self._monitors.pop(patient_id, None)
        self._pending = [w for w in self._pending if int(w.patient_id) != patient_id]
        if not self._pending:
            self._oldest_pending_t = None
        return state

    def import_patient(self, state: MonitorState, pending_age_s: float = 0.0) -> int:
        """Atomically attach a migrated patient: monitor plus queued windows.

        The inverse of :meth:`export_patient`: revives the monitor (when the
        state carries one) and appends the state's pending windows to this
        fleet's queue, so the very next drain classifies them exactly as the
        source fleet would have.  Import is an explicit ownership transfer —
        it bypasses the ``auto_register`` contract the same way
        :meth:`add_patient` does.

        ``pending_age_s`` is how long the state's pending windows had already
        waited on the source fleet: the oldest-pending clock is back-dated by
        that much, so a migrated window keeps its age in this fleet's
        :meth:`stats` instead of looking freshly arrived — a
        :class:`~repro.serving.scheduler.LatencyPolicy` bound must not be
        extended by a mid-wait migration.  Ages are durations, so the value
        transfers safely between fleets with unsynchronised clocks.

        Returns the fleet's new pending-window count (like :meth:`push`).
        Raises :class:`KeyError` if the patient is already monitored here and
        :class:`ValueError` on a version or sampling-frequency mismatch —
        both *before* any state is mutated.
        """
        if not isinstance(state, MonitorState):
            raise ValueError("import_patient expects a MonitorState")
        if state.version != MONITOR_STATE_VERSION:
            raise ValueError(
                "monitor state version %d is not the supported version %d"
                % (state.version, MONITOR_STATE_VERSION)
            )
        patient_id = int(state.patient_id)
        if patient_id in self._monitors:
            raise KeyError("patient %d is already monitored" % patient_id)
        if state.has_monitor and state.fs != self.fs:
            raise ValueError(
                "state fs %g Hz does not match the fleet's %g Hz" % (state.fs, self.fs)
            )
        if state.has_monitor:
            self._monitors[patient_id] = StreamingMonitor.from_snapshot(state, lossy=self.lossy)
        if state.pending:
            self._queue(list(state.pending))
            if pending_age_s > 0.0:
                backdated = self._clock() - float(pending_age_s)
                if self._oldest_pending_t is None or backdated < self._oldest_pending_t:
                    self._oldest_pending_t = backdated
        return len(self._pending)

    def _monitor_for_push(self, patient_id: int) -> StreamingMonitor:
        patient_id = int(patient_id)
        monitor = self._monitors.get(patient_id)
        if monitor is None:
            if not self.auto_register:
                raise KeyError(
                    "unknown patient %d (auto_register=False; call add_patient first)"
                    % patient_id
                )
            monitor = self.add_patient(patient_id)
        return monitor

    # -------------------------------------------------------------- streaming
    def push(self, patient_id: int, chunk: np.ndarray, seq: int | None = None) -> int:
        """Feed one ECG chunk of one patient; windows it completes are queued.

        Unknown ``patient_id`` values follow the ``auto_register`` contract
        (see the class docstring).  ``seq``, when given, is enforced by the
        patient's monitor (duplicates / gaps raise, see
        :meth:`~repro.serving.streaming.StreamingMonitor.push`).

        Returns the number of windows currently pending classification.
        """
        monitor = self._monitor_for_push(patient_id)
        self._queue(monitor.push(chunk, seq=seq))
        self._chunks_since_drain += 1
        return len(self._pending)

    def push_wire(self, frame: bytes) -> int:
        """Feed one wire-format frame (see :mod:`repro.serving.wire`).

        The frame's sampling frequency must match the fleet's; its sequence
        number is enforced against the patient's stream.  Returns the pending
        window count, like :meth:`push`.
        """
        chunk = decode_chunk_checked(frame, self.fs)
        return self.push(chunk.patient_id, chunk.samples, seq=chunk.seq)

    def enqueue(self, windows: Iterable[PendingWindow]) -> int:
        """Queue externally produced pending windows for the next drain.

        This is the replay / offload entry point: windows featurised
        elsewhere (an edge node, a recorded session, a benchmark) join the
        same batched classification path as live streams, and the drain's
        featurisation passes them through unchanged.

        Unknown patients follow the same ``auto_register`` contract as
        :meth:`push`: with ``auto_register=False`` a window for a patient
        that was never :meth:`add_patient`-ed raises :class:`KeyError`
        *before anything is queued* (replayed windows are just as subject to
        routing bugs as live chunks).  With the default ``auto_register=True``
        no monitor is created — replayed windows carry their features
        already, so there is no DSP state to host.
        """
        windows = list(windows)
        if not self.auto_register:
            for window in windows:
                if int(window.patient_id) not in self._monitors:
                    raise KeyError(
                        "unknown patient %d (auto_register=False; call add_patient first)"
                        % int(window.patient_id)
                    )
        self._queue(windows)
        return len(self._pending)

    def finish(self, patient_id: int | None = None) -> int:
        """Flush one patient's stream (or all of them) into the pending queue."""
        if patient_id is not None:
            self._queue(self._monitors[int(patient_id)].finish())
        else:
            for pid in self.patient_ids:
                self._queue(self._monitors[pid].finish())
        return len(self._pending)

    def _queue(self, windows: List[PendingWindow]) -> None:
        if windows and not self._pending:
            self._oldest_pending_t = self._clock()
        self._pending.extend(windows)

    # -------------------------------------------------------------- draining
    def stats(self) -> DrainStats:
        """Queue-state snapshot for :class:`~repro.serving.scheduler.DrainPolicy`."""
        if self._pending and self._oldest_pending_t is not None:
            oldest_age = max(0.0, self._clock() - self._oldest_pending_t)
        else:
            oldest_age = 0.0
        return DrainStats(
            pending_windows=len(self._pending),
            chunks_since_drain=self._chunks_since_drain,
            oldest_pending_age_s=oldest_age,
        )

    def gap_stats(self) -> GapStats:
        """Aggregate lossy-mode gap accounting over every live monitor.

        Always answers (all-zero on a strict fleet), so gateways can poll it
        unconditionally.  Counts follow a patient through migration — they
        ride in :class:`~repro.serving.streaming.MonitorState`.
        """
        gaps = 0
        windows_reset = 0
        for monitor in self._monitors.values():
            gaps += monitor.n_gaps
            windows_reset += monitor.windows_reset_by_gap
        return GapStats(gaps=gaps, windows_reset=windows_reset)

    def should_drain(self) -> bool:
        """Whether the configured drain policy wants a drain right now."""
        return self.drain_policy is not None and self.drain_policy.should_drain(self.stats())

    def maybe_drain(self) -> List[WindowDecision]:
        """Drain if (and only if) the drain policy triggers; else ``[]``."""
        if self.drain_policy is None:
            return []
        stats = self.stats()
        if not self.drain_policy.should_drain(stats):
            return []
        return self._drain(stats)

    def drain(self) -> List[WindowDecision]:
        """Featurise and classify every pending window: one
        :func:`~repro.serving.streaming.featurise` batch, then one batched
        SVM call per model group.

        Windows are grouped by the backend the registry resolves for their
        patient and every group is classified with a single vectorised call;
        decisions come back in the queue's arrival order regardless of the
        grouping (see :func:`~repro.serving.registry.classify_grouped`).
        With a single shared model this is exactly one batched call.
        """
        return self._drain(self.stats())

    def _drain(self, stats: DrainStats) -> List[WindowDecision]:
        # Featurise and classify BEFORE popping the queue: if the classifier
        # raises, every window stays pending (featurised) and the drain can be
        # retried — a failed drain must never lose seizure-alarm windows.
        featurise(self._pending)
        decisions = classify_grouped(self.registry.backend_for, self._pending)
        self._pending = []
        self._chunks_since_drain = 0
        self._oldest_pending_t = None
        if self.drain_policy is not None:
            self.drain_policy.notify_drain(stats)
        return decisions

    def run(
        self,
        streams: Mapping[int, Iterable[np.ndarray]],
        drain_every: int = 0,
        policy: DrainPolicy | None = None,
    ) -> List[WindowDecision]:
        """Convenience driver over :func:`run_streams` (see its docstring)."""
        return run_streams(self, streams, drain_every=drain_every, policy=policy)
