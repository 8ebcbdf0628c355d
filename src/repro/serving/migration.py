"""The one patient-migration state machine: detach, attach or roll back.

Live reshards (:meth:`ShardedFleet.reshard
<repro.serving.sharding.ShardedFleet.reshard>`), cluster handoffs
(:meth:`GatewayCluster.handoff <repro.serving.cluster.GatewayCluster.handoff>`)
and node revival (:meth:`GatewayCluster.kill_node
<repro.serving.cluster.GatewayCluster.kill_node>`) all move a patient's
:class:`~repro.serving.streaming.MonitorState` the same way: quiesce, export
from the source, transfer, import at the destination, then commit or roll
back.  This module owns that sequence once; each caller passes in only its
transport — direct shard calls, TCP control frames, or checkpoints — as the
export and import functions.

Every step is synchronous.  Quiescing is the caller's job (the gateway
pauses the movers' delivery around a migration), and so is any async
transfer between :func:`detach` and :func:`attach` or :func:`restore`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

from repro.serving.streaming import MonitorState

#: ``export(source, patient_id)``: detach and return the patient's state.
#: Raises :class:`KeyError` when the source holds nothing of the patient.
Export = Callable[[int, int], MonitorState]
#: ``import_(location, state, pending_age_s)``: attach a state there.
Import = Callable[[int, MonitorState, float], object]
#: ``age_of(source)``: how long the source's oldest pending window has waited.
AgeOf = Callable[[int], float]


class Detached(NamedTuple):
    """One patient's state, detached from its source and not yet attached."""

    patient_id: int
    source: int
    dest: int
    state: MonitorState
    #: The source's oldest-pending age at export time.  It travels with the
    #: state, so migrated windows do not look freshly arrived; the
    #: source-wide maximum is a conservative bound per patient, which only
    #: ever makes a latency policy fire sooner.
    pending_age_s: float


def detach(
    moves: Iterable[Tuple[int, int, int]],
    export: Export,
    age_of: AgeOf,
    import_: Import,
) -> List[Detached]:
    """Export every ``(patient_id, source, dest)`` mover, all or nothing.

    Each source's age is read once, before its first export.  A patient
    whose export raises :class:`KeyError` has no state to move and is
    skipped.  If any other export fails, every state already detached is
    restored to its source through ``import_``, with its age, and the
    error is re-raised: the sources end up exactly as they were.
    """
    ages: Dict[int, float] = {}
    detached: List[Detached] = []
    try:
        for patient_id, source, dest in moves:
            if source not in ages:
                ages[source] = age_of(source)
            try:
                state = export(source, patient_id)
            except KeyError:
                continue
            detached.append(Detached(patient_id, source, dest, state, ages[source]))
    except Exception:
        restore(detached, import_)
        raise
    return detached


def restore(detached: Iterable[Detached], import_: Import) -> None:
    """Roll back: import every detached state into its source, with its age."""
    for move in detached:
        import_(move.source, move.state, move.pending_age_s)


def attach(detached: Iterable[Detached], import_: Import) -> None:
    """Import every detached state at its destination, with its age.

    The sources no longer hold these patients, so a failed import cannot be
    rolled back.  The first failure stops the attach and raises
    :class:`RuntimeError` naming every patient left without an owner, with
    the import error chained.
    """
    orphaned: List[int] = []
    error: Exception | None = None
    for move in detached:
        if error is None:
            try:
                import_(move.dest, move.state, move.pending_age_s)
                continue
            except Exception as exc:
                error = exc
        orphaned.append(move.patient_id)
    if error is not None:
        raise RuntimeError(
            "migration failed importing state; orphaned patients: %s" % sorted(orphaned)
        ) from error
