"""Horizontally sharded monitor fleets with consistent patient routing.

One :class:`~repro.serving.fleet.MonitorFleet` is one worker's worth of
patients.  :class:`ShardedFleet` scales the same interface across N such
shards: every chunk is routed by a :class:`HashRing` (consistent hashing of
the patient id, stable across runs and processes, minimal reassignment when
the shard count changes), each shard streams its own patients
independently, and a drain featurises every shard's queued windows in one
batch, then merges the per-shard batched classifications into one
canonically ordered decision list.

The headline guarantee — enforced by the parity fuzz suite in
``tests/test_serving_sharding.py`` — is that sharding is *invisible* in the
output: for any shard count and drain policy, a sharded fleet produces
decision-for-decision identical output to a single unsharded
:class:`~repro.serving.fleet.MonitorFleet` over the same streams.  This
holds because each patient's DSP state lives on exactly one shard and the
batched classifiers are batch-composition invariant (bit-exactly so on the
integer fixed-point path).

Shards are plain in-process objects, and every shard call — push, drain,
flush, stat sweep, migration — runs on the calling thread.  Cross-host
scale-out is the federated cluster of :mod:`repro.serving.cluster`.

A thread pool that fanned drains, flushes and stat sweeps out over the
shards was measured and removed.  Handing a call to a pool thread wakes an
idle core and leaves the caller on a cold one; the classifier kernels do
release the GIL, but two shards only overlap enough to repay that on
drains thousands of windows deep, while serving drains hold tens.  A
2-shard drain with perfbench's ``replay-64hz-overlap`` detector (54
support vectors), 2-vCPU host, median of 21 alternating drains::

    windows per drain   thread pool   inline
                   36       1.9 ms    0.97 ms
                  512       6.1 ms     5.2 ms
                 8192        68 ms      71 ms
"""

from __future__ import annotations

import hashlib
import time
import warnings
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams
from repro.serving import migration
from repro.serving.fleet import MonitorFleet, decision_sort_key, run_streams
from repro.serving.registry import InferenceBackend, ModelRegistry
from repro.serving.scheduler import DrainPolicy, DrainStats
from repro.serving.streaming import (
    GapStats,
    MonitorState,
    PendingWindow,
    WindowDecision,
    featurise,
)
from repro.serving.wire import decode_chunk_checked
from repro.signals.windows import WindowingParams

__all__ = ["HashRing", "ShardedFleet", "ShardDrainError"]


class ShardDrainError(RuntimeError):
    """One or more shards failed while draining.

    The windows of every *failed* shard remain queued there (a fleet drain is
    retryable), and the decisions the healthy shards already produced are not
    thrown away — they are carried on :attr:`decisions`, canonically sorted.
    :attr:`errors` maps shard index to the exception it raised.
    """

    def __init__(
        self, errors: Mapping[int, Exception], decisions: Iterable[WindowDecision]
    ) -> None:
        super().__init__(
            "drain failed on shard(s) %s: %s"
            % (sorted(errors), "; ".join(repr(errors[s]) for s in sorted(errors)))
        )
        self.errors = dict(errors)
        self.decisions = list(decisions)


class HashRing:
    """Consistent hashing of patient ids onto shard indices.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring
    (BLAKE2b of ``"shard:<index>:<replica>"`` — deterministic, unlike
    Python's salted ``hash``); a patient id maps to the shard owning the
    first ring point at or after the hash of the id.  With R replicas per
    shard the load spread is ~``1/sqrt(R)`` and growing the fleet from N to
    N+1 shards reassigns only ~``1/(N+1)`` of the patients — the property
    that makes live resharding of long-running monitors tractable.

    ``weights`` makes the ring *heterogeneous*: shard ``i`` claims
    ``max(1, round(replicas * weights[i]))`` ring points, so a host with
    weight 2.0 owns ~twice the key range (and therefore ~twice the
    patients) of a weight-1.0 host.  Weights are absolute multipliers, not
    normalised shares: a shard's points depend only on its *own* weight, so
    resizing the fleet (or re-weighting one shard) never moves patients
    between shards whose weights are unchanged — the minimal-movement
    property survives heterogeneity.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = 64,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        if weights is None:
            resolved = (1.0,) * self.n_shards
        else:
            resolved = tuple(float(w) for w in weights)
            if len(resolved) != self.n_shards:
                raise ValueError(
                    "weights has %d entries for %d shards" % (len(resolved), self.n_shards)
                )
            if any(w <= 0.0 for w in resolved):
                raise ValueError("shard weights must be positive")
        self.weights = resolved
        #: Shard indices tombstoned by :meth:`without_shards` (empty on a
        #: freshly built ring).  Excluded shards keep their index — survivors
        #: never renumber — but own no ring points, so nothing routes to them.
        self.excluded: frozenset = frozenset()
        point_list: List[int] = []
        owner_list: List[int] = []
        for shard in range(self.n_shards):
            for replica in range(self._points_for(shard)):
                point_list.append(self._point("shard:%d:%d" % (shard, replica)))
                owner_list.append(shard)
        points = np.asarray(point_list, dtype=np.uint64)
        owners = np.asarray(owner_list, dtype=np.int64)
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        self._owners = owners[order]

    def _points_for(self, shard: int) -> int:
        """Ring points shard ``shard`` claims (its weight times ``replicas``)."""
        return max(1, int(round(self.replicas * self.weights[shard])))

    @staticmethod
    def _point(key: str) -> int:
        return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")

    def shard_of(self, patient_id: int) -> int:
        """Shard index owning ``patient_id`` (stable across runs/processes)."""
        point = self._point("patient:%d" % int(patient_id))
        idx = int(np.searchsorted(self._points, np.uint64(point), side="left"))
        return int(self._owners[idx % self._owners.shape[0]])

    def resized_weights(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> tuple:
        """The weight vector a resize to ``n_shards`` would use.

        With explicit ``weights`` they are validated and returned verbatim;
        otherwise the current weights are truncated (shrink) or extended
        with 1.0 entries (grow) — new shards default to homogeneous hosts.
        """
        n_shards = int(n_shards)
        if weights is not None:
            resolved = tuple(float(w) for w in weights)
            if len(resolved) != n_shards:
                raise ValueError(
                    "weights has %d entries for %d shards" % (len(resolved), n_shards)
                )
            return resolved
        if n_shards <= len(self.weights):
            return self.weights[:n_shards]
        return self.weights + (1.0,) * (n_shards - len(self.weights))

    def with_n_shards(
        self,
        n_shards: int,
        patient_ids: Iterable[int] = (),
        weights: Optional[Sequence[float]] = None,
    ) -> tuple:
        """The ring resized to ``n_shards``, plus the patients that move.

        Returns ``(ring, moved)`` where ``moved`` maps each reassigned
        patient id to its ``(old_shard, new_shard)`` pair.  This is the
        consistent-hashing payoff made explicit: a surviving shard's ring
        points are identical in both rings, so growing N→N+1 reassigns only
        the ~``1/(N+1)`` of patients claimed by the new shard's points, and
        shrinking reassigns exactly the removed shard's patients — never a
        reshuffle between survivors.  ``moved`` is therefore the *complete*
        migration workload of a live reshard
        (:meth:`ShardedFleet.reshard`), pinned by
        ``tests/test_serving_reshard.py``.

        ``weights`` follows :meth:`resized_weights`: omitted, the surviving
        shards keep their current weights (their ring points are then
        identical in both rings and minimal movement holds); passing a
        changed weight for a surviving shard is legal but that shard's key
        range is re-cut, so more patients move — ``moved`` is exact either
        way.

        Tombstones carry over: every :attr:`excluded` shard that survives
        the resize stays excluded in the new ring, so a failed-over slot
        never comes back to life by growing the ring.
        """
        ring = HashRing(
            n_shards, replicas=self.replicas, weights=self.resized_weights(n_shards, weights)
        )
        kept = [shard for shard in self.excluded if shard < ring.n_shards]
        if kept:
            ring, _ = ring.without_shards(kept)
        return ring, self.movers(ring, patient_ids)

    def without_shards(
        self, shards: Iterable[int], patient_ids: Iterable[int] = ()
    ) -> tuple:
        """The ring with ``shards`` tombstoned, plus the patients that move.

        Returns ``(ring, moved)`` like :meth:`with_n_shards`.  Unlike a
        resize, excluding a shard does not renumber the survivors: the dead
        shard keeps its index but loses its ring points, so exactly the
        patients it owned are reassigned (to the survivors owning the next
        points clockwise) and *no* surviving shard's patients move.  This is
        the failover primitive of the federated cluster: a dead gateway's
        slot is tombstoned, its patients re-home, and every live gateway
        keeps its slice untouched (:mod:`repro.serving.cluster`).

        Exclusions accumulate: calling this on an already-tombstoned ring
        adds to :attr:`excluded`.  Excluding every shard is an error.
        """
        dead = {int(s) for s in shards}
        for shard in dead:
            if not 0 <= shard < self.n_shards:
                raise ValueError(
                    "shard %d is not a shard of this %d-shard ring"
                    % (shard, self.n_shards)
                )
        if not dead - self.excluded:
            return self, {}
        excluded = frozenset(self.excluded | dead)
        if len(excluded) >= self.n_shards:
            raise ValueError("cannot exclude every shard of the ring")
        ring = object.__new__(HashRing)
        ring.n_shards = self.n_shards
        ring.replicas = self.replicas
        ring.weights = self.weights
        ring.excluded = excluded
        mask = ~np.isin(self._owners, np.asarray(sorted(excluded), dtype=np.int64))
        ring._points = self._points[mask]
        ring._owners = self._owners[mask]
        return ring, self.movers(ring, patient_ids)

    def movers(
        self, target: "HashRing", patient_ids: Iterable[int]
    ) -> Dict[int, Tuple[int, int]]:
        """``{patient_id: (old_shard, new_shard)}`` for every patient in
        ``patient_ids`` that ``target`` assigns elsewhere, in input order."""
        moved = {}
        for patient_id in patient_ids:
            patient_id = int(patient_id)
            old, new = self.shard_of(patient_id), target.shard_of(patient_id)
            if old != new:
                moved[patient_id] = (old, new)
        return moved


_BACKENDS = ("serial", "thread")


class ShardedFleet:
    """N consistent-hash-routed :class:`~repro.serving.fleet.MonitorFleet` shards.

    The interface deliberately mirrors :class:`~repro.serving.fleet.MonitorFleet`
    (``push`` / ``push_wire`` / ``finish`` / ``drain`` / ``maybe_drain`` /
    ``run``), so a single-fleet deployment scales out by swapping the class.

    Parameters
    ----------
    classifier, fs, windowing, detector_params:
        As for :class:`~repro.serving.fleet.MonitorFleet`; shared by every
        shard.
    n_shards:
        Number of shards.  One shard is a valid (if pointless) fleet and is
        used by the parity tests as the degenerate case.
    drain_policy:
        Fleet-level :class:`~repro.serving.scheduler.DrainPolicy`, evaluated
        against the merged shard stats; a trigger drains *all* shards.
    backend:
        Accepted for compatibility only: ``"serial"`` (default) and
        ``"thread"`` both run every shard call on the caller (the module
        docstring has the measurement that retired the thread pool), and
        ``"thread"`` emits a :class:`DeprecationWarning`.
    auto_register:
        Unknown-patient contract, forwarded to every shard (see
        :class:`~repro.serving.fleet.MonitorFleet`).
    clock:
        Monotonic time source for the shards' latency stats.
    replicas:
        Ring points per shard for the :class:`HashRing`.
    shard_weights:
        Optional per-shard :class:`HashRing` weights for heterogeneous
        hosts: a shard with weight 2.0 is routed ~twice the patients of a
        weight-1.0 shard.  ``None`` (default) is a homogeneous fleet.
    """

    def __init__(
        self,
        classifier,
        fs: float,
        n_shards: int = 4,
        windowing: WindowingParams | None = None,
        detector_params: PanTompkinsParams | None = None,
        drain_policy: DrainPolicy | None = None,
        backend: str = "serial",
        auto_register: bool = True,
        clock: Callable[[], float] = time.monotonic,
        replicas: int = 64,
        shard_weights: Optional[Sequence[float]] = None,
        lossy: bool = False,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError("unknown backend %r (choose from %s)" % (backend, _BACKENDS))
        if backend == "thread":
            warnings.warn(
                'ShardedFleet(backend="thread") runs on the caller like "serial": '
                "the thread-pool drain measured slower than the inline one at "
                "serving batch sizes (see repro.serving.sharding)",
                DeprecationWarning,
                stacklevel=2,
            )
        if isinstance(classifier, ModelRegistry):
            self.registry = classifier
        else:
            self.registry = ModelRegistry(default=classifier)
        self.fs = float(fs)
        self.n_shards = int(n_shards)
        self.drain_policy = drain_policy
        self.auto_register = bool(auto_register)
        self.windowing = windowing
        self.detector_params = detector_params
        self.lossy = bool(lossy)
        self.ring = HashRing(self.n_shards, replicas=replicas, weights=shard_weights)
        self._clock = clock
        # The registry is routing-invariant: every shard classifies with the
        # *same* patient->model mapping, so a patient's tailored model follows
        # them wherever the ring places them (including across reshards).
        # Every shard shares this very object.
        self._shards = [self._make_shard() for _ in range(self.n_shards)]
        # Memo of ``ring.shard_of`` for the patients a shard holds a monitor
        # of: filled where a monitor is created, cleared by a reshard, so it
        # never outgrows the monitors.
        self._shard_of: Dict[int, int] = {}
        # Chunks since the last fully-successful fleet-wide drain (see
        # :meth:`stats`); the shards' own counters cannot say that.
        self._chunks_since_drain = 0

    def _make_shard(self) -> MonitorFleet:
        """One empty in-process shard fleet with this fleet's configuration."""
        return MonitorFleet(
            self.registry,
            self.fs,
            windowing=self.windowing,
            detector_params=self.detector_params,
            auto_register=self.auto_register,
            clock=self._clock,
            lossy=self.lossy,
        )

    # --------------------------------------------------------------- models
    @property
    def classifier(self) -> Optional[InferenceBackend]:
        """The registry's default backend (the shared model of a homogeneous
        fleet); ``None`` when the registry is strict per-patient only."""
        return self.registry.default

    def register_model(self, patient_id: int, backend: InferenceBackend) -> int:
        """Install (or hot-swap) one patient's tailored backend, fleet-wide.

        Every shard shares the fleet's
        :class:`~repro.serving.registry.ModelRegistry`, so a single registry
        mutation is visible to all of them.  Returns the registry's new
        epoch.  The swap takes effect at the next drain, wherever the ring
        routes the patient.
        """
        return self.registry.register(patient_id, backend)

    def model_label_for(self, patient_id: int) -> str:
        """Stats label of the backend serving ``patient_id``."""
        return self.registry.label_for(patient_id)

    # ------------------------------------------------------------ membership
    def shard_of(self, patient_id: int) -> int:
        """Shard index the ring assigns to ``patient_id``."""
        patient_id = int(patient_id)
        shard = self._shard_of.get(patient_id)
        return self.ring.shard_of(patient_id) if shard is None else shard

    def add_patient(self, patient_id: int) -> int:
        """Register a patient on their shard; returns the shard index."""
        patient_id = int(patient_id)
        shard = self.shard_of(patient_id)
        self._shards[shard].add_patient(patient_id)
        self._shard_of[patient_id] = shard
        return shard

    def has_patient(self, patient_id: int) -> bool:
        return self._shards[self.shard_of(patient_id)].has_patient(int(patient_id))

    @property
    def patient_ids(self) -> List[int]:
        return sorted(pid for shard in self._shards for pid in shard.patient_ids)

    @property
    def n_patients(self) -> int:
        """Patients a shard holds a monitor or a queued window of."""
        return len(self._members())

    def _members(self) -> List[int]:
        """Every patient a shard holds a monitor or a queued window of, sorted
        — the fleet's only record of whom it serves."""
        return sorted(set().union(*(shard._members() for shard in self._shards)))

    @property
    def pending_count(self) -> int:
        return sum(shard.pending_count for shard in self._shards)

    # -------------------------------------------------------------- streaming
    def push(self, patient_id: int, chunk: np.ndarray, seq: int | None = None) -> int:
        """Route one chunk to its patient's shard.

        Returns the pending-window count *of that shard* (the fleet-wide
        count is :attr:`pending_count`).  Unknown patients follow the
        ``auto_register`` contract; ``seq`` is enforced by the patient's
        monitor exactly as on a single fleet.
        """
        patient_id = int(patient_id)
        cached = self._shard_of.get(patient_id)
        shard = self.ring.shard_of(patient_id) if cached is None else cached
        pending = self._shards[shard].push(patient_id, chunk, seq)
        if cached is None:  # the push succeeded, so the shard holds a monitor
            self._shard_of[patient_id] = shard
        self._chunks_since_drain += 1
        return pending

    def push_wire(self, frame: bytes) -> int:
        """Decode one wire frame and route it (fs-checked, sequence-enforced)."""
        chunk = decode_chunk_checked(frame, self.fs)
        return self.push(chunk.patient_id, chunk.samples, seq=chunk.seq)

    def enqueue(self, windows: Iterable[PendingWindow]) -> int:
        """Queue externally featurised windows on their patients' shards.

        Follows the ``auto_register`` contract of :meth:`push`: with
        ``auto_register=False``, a window for an unregistered patient raises
        :class:`KeyError` *before any shard queues anything* — a replayed
        window with a stray id is the same routing bug as a stray chunk.
        """
        by_shard: Dict[int, List[PendingWindow]] = {}
        for window in windows:
            shard = self.shard_of(window.patient_id)
            if not self.auto_register and not self._shards[shard].has_patient(
                window.patient_id
            ):
                raise KeyError(
                    "unknown patient %d (auto_register=False; call add_patient first)"
                    % int(window.patient_id)
                )
            by_shard.setdefault(shard, []).append(window)
        for shard, group in by_shard.items():
            self._shards[shard].enqueue(group)
        return self.pending_count

    def finish(self, patient_id: int | None = None) -> int:
        """Flush one patient's stream (or every shard's streams)."""
        if patient_id is not None:
            return self._shards[self.shard_of(patient_id)].finish(int(patient_id))
        for fleet in self._shards:
            fleet.finish()
        return self.pending_count

    # ------------------------------------------------------------ resharding
    def _target_ring(
        self, n_shards: int, weights: Optional[Sequence[float]]
    ) -> Optional[HashRing]:
        """The ring a reshard to ``n_shards`` installs; ``None`` if unchanged."""
        n_shards = int(n_shards)
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if n_shards == self.n_shards and (
            weights is None or tuple(float(w) for w in weights) == self.ring.weights
        ):
            return None
        return self.ring.with_n_shards(n_shards, weights=weights)[0]

    def preview_reshard(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> Dict[int, tuple]:
        """The migration :meth:`reshard` to ``n_shards`` would perform now.

        Touches nothing.  The ``{patient_id: (old_shard, new_shard)}`` set
        is the quiesce set an :class:`~repro.serving.ingest.IngestGateway`
        freezes before the real migration, and the cost an autoscale
        controller weighs before acting.
        """
        ring = self._target_ring(n_shards, weights)
        if ring is None:
            return {}
        return self.ring.movers(ring, self._members())

    def reshard(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> Dict[int, tuple]:
        """Change the shard count live, with zero-loss state migration.

        Only the minimally reassigned patients move (the
        :meth:`HashRing.with_n_shards` set): each is atomically detached from
        its old shard — DSP carry-over, partial windows, sequence position
        *and* queued pending windows, as one
        :class:`~repro.serving.streaming.MonitorState` — and attached to its
        new one, through the shared :mod:`repro.serving.migration` state
        machine.  Every shard, old or new, shares the fleet's
        :class:`~repro.serving.registry.ModelRegistry`, so every patient's
        tailored model follows them unchanged.  ``weights`` re-cuts the ring per
        :meth:`HashRing.resized_weights` (same-count reshards with changed
        weights are legal — that is a pure rebalance).

        The headline guarantee (pinned by ``tests/test_serving_reshard.py``):
        for any schedule of reshards interleaved with traffic, the fleet's
        decisions are bit-identical to a never-resharded fleet over the same
        pushes and drains.

        Failure atomicity: every moving patient is exported *before* any
        topology mutation.  If an export raises, the states already
        collected are restored to their old shards and the original
        exception propagates — the fleet is left exactly as it was, and the
        call is retryable.  (A failure while *importing* into the new
        topology cannot be rolled back the same way — the old topology is
        gone — and raises a :class:`RuntimeError` naming the orphaned
        patients; in normal operation this is unreachable, as
        ``import_patient`` validates nothing that ``export_patient`` has not
        already produced.)

        Returns the migrated mapping ``{patient_id: (old_shard, new_shard)}``.
        Not safe to call concurrently with pushes or drains from other
        threads — quiesce the callers first (the ingest gateway does exactly
        that for the moving patients).
        """
        new_ring = self._target_ring(n_shards, weights)
        if new_ring is None:
            return {}
        n_shards = new_ring.n_shards
        moved = self.ring.movers(new_ring, self._members())
        # 1. Detach every mover while all old shards are still up, touching
        #    *no* fleet state until every export has succeeded.  Every window
        #    of a removed shard belongs to a mover, so nothing is left behind.
        detached = migration.detach(
            ((pid, old, new) for pid, (old, new) in moved.items()),
            export=lambda shard, pid: self._shards[shard].export_patient(pid),
            age_of=lambda shard: self._shards[shard].stats().oldest_pending_age_s,
            import_=self._import_patient,
        )
        # 2. Resize the shard list.  Surviving shard indices keep their
        #    fleet objects (their ring points are unchanged, so their
        #    patients never noticed anything).
        del self._shards[n_shards:]
        self._shards.extend(self._make_shard() for _ in range(n_shards - len(self._shards)))
        self.ring = new_ring
        self.n_shards = n_shards
        self._shard_of = {}
        # 3. Attach the migrated states to their new owners.
        migration.attach(detached, self._import_patient)
        return moved

    def _import_patient(self, shard: int, state: MonitorState, pending_age_s: float) -> None:
        """Attach one migrated state to ``shard``, keeping its queue age."""
        self._shards[shard].import_patient(state, pending_age_s=pending_age_s)

    def add_shard(self, weight: float = 1.0) -> Dict[int, tuple]:
        """Grow the fleet by one shard (of ring weight ``weight``); returns
        the migrated patients."""
        return self.reshard(
            self.n_shards + 1, weights=self.ring.weights + (float(weight),)
        )

    def remove_shard(self) -> Dict[int, tuple]:
        """Shrink the fleet by one shard (the highest index); returns the
        migrated patients.  A fleet cannot shrink below one shard."""
        if self.n_shards <= 1:
            raise ValueError("cannot remove the last shard")
        return self.reshard(self.n_shards - 1)

    # -------------------------------------------------------------- draining
    def stats(self) -> DrainStats:
        """The fleet's queue snapshot, read from the shards' queues.

        The one snapshot every drain decision, autoscale sample and test
        reads.  ``pending_windows`` sums the shards' queues, and
        ``oldest_pending_age_s`` is the age of the oldest window queued on
        any shard, on one clock read: a window a drain has already decided
        never ages the snapshot.

        ``chunks_since_drain`` counts chunks since the last
        *fully-successful fleet-wide* drain, and only this wrapper knows
        that: after a partial drain failure (:class:`ShardDrainError`) the
        healthy shards have reset their own counters, but fleet-level the
        drain has not happened — a ``ChunkCountPolicy`` must keep
        re-triggering until the failed shard's windows are retried.

        The patient count is not part of the snapshot: :attr:`n_patients`
        reads it from the shards when a caller needs it.
        """
        pending = 0
        oldest_t: Optional[float] = None
        for shard in self._shards:
            # Direct reads of the shard's queue: a per-shard ``stats()``
            # would cost a clock read and a snapshot object each.
            queue = shard._pending
            if queue:
                pending += len(queue)
                t = shard._oldest_pending_t
                if t is not None and (oldest_t is None or t < oldest_t):
                    oldest_t = t
        age = 0.0 if oldest_t is None else max(0.0, self._clock() - oldest_t)
        # Positional: the keyword form of this frozen dataclass costs ~40%
        # more per call, and a poll runs after every delivered chunk.
        return DrainStats(pending, self._chunks_since_drain, age)

    def gap_stats(self) -> GapStats:
        """Lossy-mode gap accounting summed over every shard's monitors."""
        total = GapStats()
        for shard in self._shards:
            total = total + shard.gap_stats()
        return total

    def should_drain(self) -> bool:
        return self.drain_policy is not None and self.drain_policy.should_drain(self.stats())

    def maybe_drain(self) -> List[WindowDecision]:
        """Drain if the policy triggers on :meth:`stats`; else ``[]``."""
        if self.drain_policy is None:
            return []
        stats = self.stats()
        if not self.drain_policy.should_drain(stats):
            return []
        return self._drain(stats)

    def drain(self) -> List[WindowDecision]:
        """Drain every shard (one batched SVM call each); merge canonically.

        Every shard's queued windows are featurised first, together, in one
        :func:`~repro.serving.streaming.featurise` batch: the row kernels
        group windows by series length, and more windows share a length
        across all shards than within one.

        Decisions are returned in :func:`~repro.serving.fleet.decision_sort_key`
        order, independent of the shard layout.  If a shard fails, its
        windows stay queued there (each shard's drain is atomic — see
        :meth:`MonitorFleet.drain <repro.serving.fleet.MonitorFleet.drain>`)
        and a :class:`ShardDrainError` carrying the healthy shards' decisions
        is raised, so nothing is ever silently lost.
        """
        return self._drain(self.stats())

    def _drain(self, stats: DrainStats) -> List[WindowDecision]:
        featurise(window for shard in self._shards for window in shard._pending)
        decisions: List[WindowDecision] = []
        errors: Dict[int, Exception] = {}
        for shard, fleet in enumerate(self._shards):
            try:
                decisions.extend(fleet.drain())
            except Exception as exc:
                errors[shard] = exc
        decisions.sort(key=decision_sort_key)
        if errors:
            # Keep the chunk counter: a chunk-count policy must re-trigger on
            # the very next poll so the failed shard's windows are retried,
            # exactly as a single fleet retries after a failed drain.
            raise ShardDrainError(errors, decisions)
        self._chunks_since_drain = 0
        if self.drain_policy is not None:
            self.drain_policy.notify_drain(stats)
        return decisions

    def run(
        self,
        streams: Mapping[int, Iterable[np.ndarray]],
        drain_every: int = 0,
        policy: DrainPolicy | None = None,
    ) -> List[WindowDecision]:
        """Round-robin driver — :func:`~repro.serving.fleet.run_streams`.

        Sharing the driver with :meth:`MonitorFleet.run` guarantees the same
        arrival order, drain scheduling and canonical output order, which is
        exactly what makes the output comparable decision-for-decision with
        a single fleet's.
        """
        return run_streams(self, streams, drain_every=drain_every, policy=policy)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """No-op: shards hold no threads or other resources to release."""

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
