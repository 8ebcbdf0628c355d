"""Closed-loop autoscaling: the control plane that drives ``reshard()``.

PR 5 made the topology elastic — :meth:`ShardedFleet.reshard
<repro.serving.sharding.ShardedFleet.reshard>` migrates exactly the
ring-reassigned patients with zero state loss — but nothing *drove* it: an
operator had to watch queue depths and call it by hand.
:class:`AutoscaleController` closes the loop.  It samples the two queue
snapshots the serving stack already keeps —
:meth:`ShardedFleet.stats <repro.serving.sharding.ShardedFleet.stats>`
(pending windows and oldest-pending age, read from the shards' queues) and
:class:`~repro.serving.ingest.GatewayStats` (queued frames, shed/reject
counters) — and decides when the fleet should grow or shrink by one shard.

The control law is deliberately conservative, because a reshard is not free
(moved patients pause for the quiesce window) and a controller that thrashes
is worse than no controller:

* **EWMA** (:class:`Ewma`) — the per-shard load pressure is smoothed with a
  half-life EWMA, so a single burst chunk cannot trigger a scale-up; only
  load that *persists* on the half-life timescale moves the smoothed value
  across a band edge.
* **CUSUM** (:class:`Cusum`) — a one-sided cumulative-sum detector on the
  normalised pressure residual catches the complementary case: a drift that
  is persistent but too small to cross the band quickly.  Classic
  change-point detection, tuned by ``cusum_drift`` (insensitivity slack) and
  ``cusum_threshold`` (evidence required).
* **Hysteresis** — scale-up and scale-down use *different* pressure bands
  (``high_pending_per_shard`` / ``low_pending_per_shard``); between them the
  controller holds.  A scale-down additionally requires that the load the
  fleet would carry afterwards still clears the high band by
  ``down_headroom`` — shrinking must never immediately re-trigger growing.
* **Cooldown** — after any action the controller holds for ``cooldown_s``,
  long enough for the post-reshard stats to reflect the new topology.
* **Cost model** — before committing, the controller prices the migration
  with :meth:`ShardedFleet.preview_reshard
  <repro.serving.sharding.ShardedFleet.preview_reshard>`; if more than
  ``max_move_fraction`` of the fleet's patients would move, the action is
  vetoed unless the situation is an *emergency* (latency bound breached, or
  frames being shed) — latency relief then outranks migration cost.  Both
  the movers and the patient count
  (:attr:`ShardedFleet.n_patients <repro.serving.sharding.ShardedFleet.n_patients>`)
  are read from the shards' members — the patients a shard holds a monitor
  or a queued window of — and only once a plan reaches the veto, never on
  an in-band or cooldown tick.
* **Gap-aware reset** — a controller that was not sampled for
  ``gap_reset_s`` (suspended process, paused soak clock) resets its
  detectors instead of treating the gap as one giant EWMA step or letting a
  stale CUSUM sum fire on resume.

Every decision — including holds, with the reason they held — is a frozen
:class:`AutoscaleDecision`; the actions taken are kept on
:attr:`AutoscaleController.actions`, the audit trail the soak harness and
benchmarks assert over (shards-over-time, migration cost per action).

Two driving modes: :meth:`AutoscaleController.step` is the synchronous loop
for direct-fleet deployments and harnesses, and
:class:`~repro.serving.ingest.IngestGateway` accepts an ``autoscaler=`` and
calls :meth:`plan` / :meth:`note_action` from its pump loop, running the
migration through its own quiescing :meth:`~repro.serving.ingest.IngestGateway.reshard`
so in-flight frames are never lost to an autonomous action.

Like every time-dependent component in the stack, the controller never reads
the ambient clock: ``clock`` is injectable, and :meth:`plan` / :meth:`step`
accept an explicit ``now`` so soak tests are fully deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # typing-only: no runtime import cycle with ingest
    from repro.serving.ingest import GatewayStats
    from repro.serving.sharding import ShardedFleet

__all__ = [
    "AutoscaleConfig",
    "AutoscaleController",
    "AutoscaleDecision",
    "Cusum",
    "Ewma",
]


class Ewma:
    """Half-life exponentially weighted moving average, gap-aware.

    Parameterised by half-life rather than a per-sample ``alpha`` so the
    smoothing is *time*-based and independent of the sampling cadence: after
    ``half_life_s`` seconds of samples, half of the old value's influence is
    gone, whether that was 3 samples or 300.  The first sample seeds the
    average; a gap longer than ``gap_reset_s`` since the previous sample
    re-seeds instead of applying one enormous (and meaningless) step.
    """

    def __init__(self, half_life_s: float, gap_reset_s: float = float("inf")) -> None:
        if half_life_s <= 0.0:
            raise ValueError("half_life_s must be positive")
        if gap_reset_s <= 0.0:
            raise ValueError("gap_reset_s must be positive")
        self.half_life_s = float(half_life_s)
        self.gap_reset_s = float(gap_reset_s)
        #: Current smoothed value (``None`` before the first sample).
        self.value: Optional[float] = None
        self._last_t: Optional[float] = None

    def update(self, x: float, now: float) -> float:
        """Fold one sample taken at monotonic time ``now``; returns the new value."""
        x = float(x)
        now = float(now)
        if (
            self.value is None
            or self._last_t is None
            or now - self._last_t > self.gap_reset_s
        ):
            self.value = x
        else:
            dt = max(0.0, now - self._last_t)
            alpha = 1.0 - 0.5 ** (dt / self.half_life_s)
            self.value += alpha * (x - self.value)
        self._last_t = now
        return self.value

    def reset(self) -> None:
        """Forget everything; the next sample re-seeds."""
        self.value = None
        self._last_t = None


class Cusum:
    """Two one-sided CUSUM accumulators over a normalised residual.

    Feed :meth:`update` a residual already normalised so that 0.0 means "on
    target" and ±1.0 means "at a band edge".  The high-side sum accumulates
    ``residual - drift`` clamped at zero, the low-side sum the mirror image;
    ``drift`` is the slack that makes the detector blind to zero-mean noise,
    ``threshold`` the accumulated evidence that raises an alarm.  The
    classic property this buys over a plain threshold: a *small but
    persistent* shift (say a steady +0.6 residual with drift 0.5) alarms
    after ``threshold / (shift - drift)`` samples, while i.i.d. noise around
    zero almost never does.

    Both sums saturate at ``2 * threshold``: once a shift has alarmed,
    piling on more evidence changes nothing, but an unbounded sum would make
    the *recovery* time after the shift ends proportional to how long (and
    how hard) it ran — a controller pinned at max capacity through a long
    burst could then be blocked from scaling back down for arbitrarily many
    samples.  The cap bounds de-alarm at about ``threshold / drift``
    on-target samples, whatever came before.
    """

    def __init__(self, drift: float = 0.5, threshold: float = 8.0) -> None:
        if drift < 0.0:
            raise ValueError("drift must be non-negative")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        self.drift = float(drift)
        self.threshold = float(threshold)
        #: Accumulated high-side (load persistently above target) evidence.
        self.pos = 0.0
        #: Accumulated low-side (load persistently below target) evidence.
        self.neg = 0.0

    def update(self, residual: float) -> None:
        residual = float(residual)
        cap = 2.0 * self.threshold
        self.pos = min(cap, max(0.0, self.pos + residual - self.drift))
        self.neg = min(cap, max(0.0, self.neg - residual - self.drift))

    @property
    def alarm_high(self) -> bool:
        """Load has persistently drifted above target."""
        return self.pos >= self.threshold

    @property
    def alarm_low(self) -> bool:
        """Load has persistently drifted below target."""
        return self.neg >= self.threshold

    def reset(self) -> None:
        self.pos = 0.0
        self.neg = 0.0


@dataclass(frozen=True)
class AutoscaleConfig:
    """Tuning knobs of one :class:`AutoscaleController` (all have sane defaults)."""

    #: Shard-count floor / ceiling the controller may move between.
    min_shards: int = 1
    max_shards: int = 16
    #: Hysteresis band on smoothed pressure (pending windows + queued gateway
    #: frames, per shard): scale up above ``high``, consider scaling down
    #: below ``low``, hold in between.
    high_pending_per_shard: float = 256.0
    low_pending_per_shard: float = 64.0
    #: Oldest-pending age that constitutes a latency emergency: scale up
    #: immediately (cost veto waived), cooldown permitting.
    high_age_s: float = 30.0
    #: Hold time after any action, letting post-reshard stats settle.
    cooldown_s: float = 60.0
    #: EWMA half-life of the pressure signal.
    ewma_half_life_s: float = 30.0
    #: Sampling gap after which both detectors reset rather than extrapolate.
    gap_reset_s: float = 300.0
    #: CUSUM insensitivity slack / alarm threshold, in band-half-width units.
    cusum_drift: float = 0.5
    cusum_threshold: float = 8.0
    #: Shed+rejected frames per second the gateway may lose before the
    #: controller treats the load as an emergency (default: any loss is one).
    shed_tolerance: float = 0.0
    #: Cost-model veto: a non-emergency action moving more than this fraction
    #: of the fleet's patients is held back.  (Growing N→N+1 moves ~1/(N+1),
    #: so the 0.6 default lets a 1→2 split through while still vetoing
    #: pathological re-cuts, e.g. from an aggressive re-weighting.)
    max_move_fraction: float = 0.6
    #: A scale-down must leave projected pressure at or below
    #: ``high_pending_per_shard * down_headroom`` — shrinking must never
    #: immediately re-trigger growing.
    down_headroom: float = 0.5

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if not 0.0 < self.low_pending_per_shard < self.high_pending_per_shard:
            raise ValueError(
                "need 0 < low_pending_per_shard < high_pending_per_shard"
            )
        if self.high_age_s < 0.0:
            raise ValueError("high_age_s must be non-negative")
        if self.cooldown_s < 0.0:
            raise ValueError("cooldown_s must be non-negative")
        if self.ewma_half_life_s <= 0.0:
            raise ValueError("ewma_half_life_s must be positive")
        if self.gap_reset_s <= 0.0:
            raise ValueError("gap_reset_s must be positive")
        if self.shed_tolerance < 0.0:
            raise ValueError("shed_tolerance must be non-negative")
        if not 0.0 < self.max_move_fraction <= 1.0:
            raise ValueError("max_move_fraction must be in (0, 1]")
        if not 0.0 < self.down_headroom <= 1.0:
            raise ValueError("down_headroom must be in (0, 1]")


@dataclass(frozen=True)
class AutoscaleDecision:
    """One controller verdict: what to do, and the evidence it was based on."""

    #: ``"hold"``, ``"up"`` or ``"down"``.
    action: str
    #: Shard count when the decision was planned.
    n_shards: int
    #: Target shard count (equals :attr:`n_shards` on a hold).
    to_shards: int
    #: Human-readable trigger or veto (``"ewma>high"``, ``"cooldown"``, ...).
    reason: str
    #: Patients the action migrates (``preview_reshard`` count; 0 on a hold).
    moved: int
    #: Smoothed pending-per-shard pressure at decision time.
    pressure: float


class AutoscaleController:
    """Closed-loop shard-count controller over a :class:`ShardedFleet`.

    Parameters
    ----------
    fleet:
        The :class:`~repro.serving.sharding.ShardedFleet` to control.  The
        controller only ever *plans* from the fleet's queue snapshot and a
        dry run of the migration
        (:meth:`~repro.serving.sharding.ShardedFleet.stats`,
        :meth:`~repro.serving.sharding.ShardedFleet.preview_reshard`);
        whether it also *acts* directly (:meth:`step`) or hands the action
        to a quiescing gateway (:meth:`plan` + :meth:`note_action`) is the
        caller's choice.
    config:
        An :class:`AutoscaleConfig`; defaults throughout.
    clock:
        Monotonic time source, injectable for deterministic tests; every
        public method also accepts an explicit ``now``.
    """

    def __init__(
        self,
        fleet: "ShardedFleet",
        config: Optional[AutoscaleConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not hasattr(fleet, "preview_reshard") or not hasattr(fleet, "reshard"):
            raise TypeError(
                "fleet %r does not support live resharding" % type(fleet).__name__
            )
        self.fleet = fleet
        self.config = config if config is not None else AutoscaleConfig()
        self._clock = clock
        self.ewma = Ewma(
            self.config.ewma_half_life_s, gap_reset_s=self.config.gap_reset_s
        )
        self.cusum = Cusum(self.config.cusum_drift, self.config.cusum_threshold)
        self._last_sample_t: Optional[float] = None
        self._last_action_t: Optional[float] = None
        # Shed/reject baselines: GatewayStats counters are cumulative, the
        # controller needs the *rate* since its previous sample.
        self._lost_baseline = 0
        #: Every non-hold decision acted on, in order — the audit trail.
        self.actions: List[AutoscaleDecision] = []

    # ------------------------------------------------------------- observation
    def observe(
        self, gateway_stats: Optional["GatewayStats"] = None, now: Optional[float] = None
    ) -> float:
        """Fold one sample into the detectors; returns the smoothed pressure.

        Pressure is ``(pending windows + queued gateway frames) / n_shards``
        — the backlog each shard is carrying.  Sampling and deciding are
        split so a caller may observe at a faster cadence than it is willing
        to act (the gateway pump observes on every poll).
        """
        smoothed, _, _ = self._observe(gateway_stats, self._resolve_now(now))
        return smoothed

    def _resolve_now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else float(now)

    def _observe(
        self, gateway_stats: Optional["GatewayStats"], now: float
    ) -> Tuple[float, float, float]:
        """One sample: returns ``(smoothed_pressure, oldest_age_s, lost_rate)``."""
        cfg = self.config
        if self._last_sample_t is not None and now - self._last_sample_t > cfg.gap_reset_s:
            # The EWMA re-seeds itself on a gap; the CUSUM sums are evidence
            # accumulated about a regime nobody watched end — drop them too.
            self.cusum.reset()
        stats = self.fleet.stats()
        queued = 0 if gateway_stats is None else int(gateway_stats.queued_frames)
        pressure = (stats.pending_windows + queued) / max(1, self.fleet.n_shards)
        smoothed = self.ewma.update(pressure, now)
        midpoint = (cfg.high_pending_per_shard + cfg.low_pending_per_shard) / 2.0
        half_band = (cfg.high_pending_per_shard - cfg.low_pending_per_shard) / 2.0
        self.cusum.update((pressure - midpoint) / half_band)
        lost_rate = 0.0
        if gateway_stats is not None:
            lost = int(gateway_stats.frames_shed) + int(gateway_stats.frames_rejected)
            if self._last_sample_t is not None and now > self._last_sample_t:
                delta = max(0, lost - self._lost_baseline)
                lost_rate = delta / (now - self._last_sample_t)
            self._lost_baseline = lost
        self._last_sample_t = now
        return smoothed, stats.oldest_pending_age_s, lost_rate

    # --------------------------------------------------------------- decisions
    def plan(
        self, gateway_stats: Optional["GatewayStats"] = None, now: Optional[float] = None
    ) -> AutoscaleDecision:
        """Observe once and decide; mutates detectors only, never the fleet.

        The caller is responsible for executing a non-hold decision (e.g.
        through the gateway's quiescing reshard) and then reporting it back
        via :meth:`note_action`; :meth:`step` bundles all three for direct
        deployments.
        """
        now = self._resolve_now(now)
        smoothed, age, lost_rate = self._observe(gateway_stats, now)
        cfg = self.config
        n = int(self.fleet.n_shards)

        def hold(reason: str) -> AutoscaleDecision:
            return AutoscaleDecision(
                action="hold", n_shards=n, to_shards=n, reason=reason,
                moved=0, pressure=smoothed,
            )

        emergency = age >= cfg.high_age_s > 0.0 or lost_rate > cfg.shed_tolerance
        want_up = smoothed >= cfg.high_pending_per_shard or self.cusum.alarm_high or emergency
        want_down = (
            not want_up
            and smoothed <= cfg.low_pending_per_shard
            and not self.cusum.alarm_high
        )
        if not want_up and not want_down:
            return hold("in-band")
        in_cooldown = (
            self._last_action_t is not None and now - self._last_action_t < cfg.cooldown_s
        )
        if in_cooldown:
            return hold("cooldown")
        n_patients = max(1, self.fleet.n_patients)
        if want_up:
            if n >= cfg.max_shards:
                return hold("at-max-shards")
            to = n + 1
            moved = len(self.fleet.preview_reshard(to))
            if not emergency and moved > cfg.max_move_fraction * n_patients:
                return hold("cost-veto")
            if emergency:
                reason = "age>=high" if age >= cfg.high_age_s else "shedding"
            elif smoothed >= cfg.high_pending_per_shard:
                reason = "ewma>high"
            else:
                reason = "cusum-high"
            return AutoscaleDecision(
                action="up", n_shards=n, to_shards=to, reason=reason,
                moved=moved, pressure=smoothed,
            )
        # Scale down: only when the survivors would still have headroom.
        if n <= cfg.min_shards:
            return hold("at-min-shards")
        to = n - 1
        projected = smoothed * n / to
        if projected > cfg.high_pending_per_shard * cfg.down_headroom:
            return hold("no-down-headroom")
        moved = len(self.fleet.preview_reshard(to))
        if moved > cfg.max_move_fraction * n_patients:
            return hold("cost-veto")
        return AutoscaleDecision(
            action="down", n_shards=n, to_shards=to, reason="ewma<low",
            moved=moved, pressure=smoothed,
        )

    def note_action(self, decision: AutoscaleDecision, now: Optional[float] = None) -> None:
        """Record that ``decision`` was executed: start the cooldown, reset
        the detectors (their history described a topology that no longer
        exists) and append to :attr:`actions`."""
        self._last_action_t = self._resolve_now(now)
        self.ewma.reset()
        self.cusum.reset()
        self.actions.append(decision)

    def step(
        self, gateway_stats: Optional["GatewayStats"] = None, now: Optional[float] = None
    ) -> AutoscaleDecision:
        """Plan, act directly on the fleet, and record — one control tick.

        For direct-fleet deployments and harnesses.  Under an
        :class:`~repro.serving.ingest.IngestGateway`, pass the controller to
        the gateway instead: the pump loop runs this same sequence but
        executes the reshard through the gateway's quiesce path.
        """
        now = self._resolve_now(now)
        decision = self.plan(gateway_stats, now=now)
        if decision.action != "hold":
            self.fleet.reshard(decision.to_shards)
            self.note_action(decision, now=now)
        return decision
