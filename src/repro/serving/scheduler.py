"""Drain scheduling for the serving engine.

PR 1's fleet drained on a hard-coded every-N-chunks counter.  This module
turns the *when to classify* decision into a first-class policy object so a
deployment can trade latency against batching efficiency without touching the
fleet code:

* :class:`ChunkCountPolicy` — drain every N ingested chunks (the old
  behaviour, now explicit);
* :class:`PendingWindowPolicy` — drain once at least N completed windows are
  queued (bounds the batch size, maximises vectorisation);
* :class:`LatencyPolicy` — drain once the *oldest* queued window has waited
  longer than a wall-clock budget (bounds alarm latency, the quantity that
  matters clinically);
* :class:`AnyOf` — fire when any sub-policy fires (e.g. "every 256 windows
  or 5 seconds, whichever comes first").

A fleet summarises its queue state in a :class:`DrainStats` snapshot and asks
the policy :meth:`DrainPolicy.should_drain` after every ingested chunk (and
on explicit :meth:`~repro.serving.fleet.MonitorFleet.maybe_drain` polls);
after an actual drain it calls :meth:`DrainPolicy.notify_drain` so stateful
policies can reset.  Policies only *observe* — all queue bookkeeping (chunk
counters, oldest-window timestamps, the injectable monotonic clock that makes
latency policies testable) lives in the fleet.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "DrainStats",
    "DrainPolicy",
    "ChunkCountPolicy",
    "PendingWindowPolicy",
    "LatencyPolicy",
    "AnyOf",
]


@dataclass(frozen=True)
class DrainStats:
    """Snapshot of a fleet's queue state, as seen by a :class:`DrainPolicy`."""

    #: Completed windows queued for classification.
    pending_windows: int
    #: Chunks ingested since the last drain.
    chunks_since_drain: int
    #: Wall-clock age of the oldest queued window (0.0 when the queue is
    #: empty), measured on the fleet's monotonic clock.
    oldest_pending_age_s: float


class DrainPolicy(ABC):
    """Decides when a fleet should classify its queued windows."""

    @abstractmethod
    def should_drain(self, stats: DrainStats) -> bool:
        """Return ``True`` to trigger a drain given the current queue state."""

    def notify_drain(self, stats: DrainStats) -> None:
        """Called after every drain (the stats are the pre-drain snapshot)."""


class ChunkCountPolicy(DrainPolicy):
    """Drain after every ``every_chunks`` ingested chunks."""

    def __init__(self, every_chunks: int) -> None:
        if every_chunks <= 0:
            raise ValueError("every_chunks must be positive")
        self.every_chunks = int(every_chunks)

    def should_drain(self, stats: DrainStats) -> bool:
        return stats.chunks_since_drain >= self.every_chunks

    def __repr__(self) -> str:
        return "ChunkCountPolicy(every_chunks=%d)" % self.every_chunks


class PendingWindowPolicy(DrainPolicy):
    """Drain once at least ``max_pending`` completed windows are queued."""

    def __init__(self, max_pending: int) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.max_pending = int(max_pending)

    def should_drain(self, stats: DrainStats) -> bool:
        return stats.pending_windows >= self.max_pending

    def __repr__(self) -> str:
        return "PendingWindowPolicy(max_pending=%d)" % self.max_pending


class LatencyPolicy(DrainPolicy):
    """Drain once the oldest queued window is older than ``max_age_s``.

    With ``max_age_s=0.0`` the fleet drains whenever anything is pending —
    the lowest-latency (and least batched) configuration, and a handy
    deterministic setting for tests.
    """

    def __init__(self, max_age_s: float) -> None:
        if max_age_s < 0.0:
            raise ValueError("max_age_s must be non-negative")
        self.max_age_s = float(max_age_s)

    def should_drain(self, stats: DrainStats) -> bool:
        return stats.pending_windows > 0 and stats.oldest_pending_age_s >= self.max_age_s

    def __repr__(self) -> str:
        return "LatencyPolicy(max_age_s=%g)" % self.max_age_s


class AnyOf(DrainPolicy):
    """Composite policy: drain when *any* sub-policy wants to."""

    def __init__(self, policies: Sequence[DrainPolicy]) -> None:
        if not policies:
            raise ValueError("AnyOf needs at least one sub-policy")
        self.policies = tuple(policies)

    def should_drain(self, stats: DrainStats) -> bool:
        return any(policy.should_drain(stats) for policy in self.policies)

    def notify_drain(self, stats: DrainStats) -> None:
        for policy in self.policies:
            policy.notify_drain(stats)

    def __repr__(self) -> str:
        return "AnyOf(%s)" % ", ".join(repr(p) for p in self.policies)
