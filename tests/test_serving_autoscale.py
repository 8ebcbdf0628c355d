"""Autoscaling control plane: detectors, weighted rings, controller, soak.

Three layers of guarantees:

* **Detector units** — the half-life :class:`~repro.serving.autoscale.Ewma`
  (time-based smoothing, gap-aware reset) and one-sided
  :class:`~repro.serving.autoscale.Cusum` (persistent small drifts alarm,
  zero-mean noise does not) behave as the control law assumes.
* **Decision logic** — with an injectable clock and a real
  :class:`~repro.serving.sharding.ShardedFleet`, the controller scales up
  under sustained pressure, holds inside the hysteresis band and during
  cooldown, scales down only with headroom, prices actions with
  ``preview_reshard`` (cost veto, waived in emergencies), and respects the
  shard-count bounds.  Weighted rings route proportionally and keep the
  minimal-movement property.
* **Convergence soak** — thousands of simulated patients under bursty
  diurnal load: the controller grows the fleet through the peak, shrinks it
  through the trough, never thrashes (bounded action count), and the
  decisions stay bit-identical to a never-autoscaled single fleet — the
  churn-parity guarantee extended to *autonomous* churn.  A hypothesis fuzz
  randomises the load schedule and ring weights; the async gateway soak
  pins the :class:`~repro.serving.ingest.GatewayStats` ledger through every
  autonomous reshard.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    AutoscaleConfig,
    AutoscaleController,
    Cusum,
    Ewma,
    HashRing,
    IngestGateway,
    MonitorFleet,
    PendingWindow,
    ShardedFleet,
    decision_sort_key,
    encode_chunk,
)
from repro.signals.windows import WindowingParams

FS = 64.0
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


class FakeClock:
    """A controllable monotonic clock for deterministic controller tests."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += float(dt)
        return self.now


def _window(patient_id, index, features):
    start = index * 60.0
    return PendingWindow(
        patient_id=patient_id,
        start_s=start,
        end_s=start + 60.0,
        n_beats=80,
        features=features,
    )


class _WindowSource:
    """Deterministic feature-window generator over a patient population."""

    def __init__(self, feature_matrix, n_patients, seed=0):
        self.features = feature_matrix.X
        self.n_patients = int(n_patients)
        self.rng = np.random.default_rng(seed)
        self.counters = {}

    def batch(self, count):
        windows = []
        for _ in range(count):
            pid = int(self.rng.integers(0, self.n_patients))
            index = self.counters.get(pid, 0)
            self.counters[pid] = index + 1
            feats = self.features[(pid + index) % self.features.shape[0]]
            windows.append(_window(pid, index, feats))
        return windows


# ---------------------------------------------------------------------------
# Detector units
# ---------------------------------------------------------------------------


class TestEwma:
    def test_first_sample_seeds(self):
        ewma = Ewma(half_life_s=10.0)
        assert ewma.value is None
        assert ewma.update(42.0, now=0.0) == 42.0

    def test_half_life_is_time_based(self):
        # One half-life later the value has moved exactly half way, whether
        # it took one sample or ten.
        one_step = Ewma(half_life_s=10.0)
        one_step.update(0.0, now=0.0)
        one_step.update(100.0, now=10.0)
        many_steps = Ewma(half_life_s=10.0)
        many_steps.update(0.0, now=0.0)
        for k in range(1, 11):
            many_steps.update(100.0, now=k * 1.0)
        assert one_step.value == pytest.approx(50.0)
        assert many_steps.value == pytest.approx(50.0)

    def test_gap_reset_reseeds(self):
        ewma = Ewma(half_life_s=10.0, gap_reset_s=60.0)
        ewma.update(1000.0, now=0.0)
        # A sample after a long gap must re-seed, not blend with stale state.
        assert ewma.update(5.0, now=1000.0) == 5.0

    def test_reset_and_validation(self):
        ewma = Ewma(half_life_s=1.0)
        ewma.update(3.0, now=0.0)
        ewma.reset()
        assert ewma.value is None
        with pytest.raises(ValueError):
            Ewma(half_life_s=0.0)
        with pytest.raises(ValueError):
            Ewma(half_life_s=1.0, gap_reset_s=0.0)


class TestCusum:
    def test_persistent_small_drift_alarms(self):
        cusum = Cusum(drift=0.5, threshold=5.0)
        # A +0.75 residual is inside what a plain threshold at 1.0 ignores,
        # but it accumulates 0.25 evidence per sample: alarm at sample 20.
        for _ in range(19):
            cusum.update(0.75)
            assert not cusum.alarm_high
        cusum.update(0.75)
        assert cusum.alarm_high
        assert not cusum.alarm_low

    def test_zero_mean_noise_never_alarms(self):
        cusum = Cusum(drift=0.5, threshold=5.0)
        rng = np.random.default_rng(11)
        for residual in rng.normal(0.0, 0.3, size=2000):
            cusum.update(float(residual))
        assert not cusum.alarm_high and not cusum.alarm_low

    def test_saturation_bounds_the_recovery_time(self):
        cusum = Cusum(drift=0.5, threshold=5.0)
        # A huge shift running for a long time must not bank unbounded
        # evidence: the sums saturate at 2x threshold.
        for _ in range(1000):
            cusum.update(50.0)
        assert cusum.pos == 10.0
        assert cusum.alarm_high
        # De-alarm within ~threshold/drift on-target samples, however long
        # (and however hard) the shift ran before it ended.
        for _ in range(11):
            cusum.update(0.0)
        assert not cusum.alarm_high

    def test_low_side_mirrors_high_side(self):
        cusum = Cusum(drift=0.25, threshold=2.0)
        for _ in range(10):
            cusum.update(-1.0)
        assert cusum.alarm_low and not cusum.alarm_high
        cusum.reset()
        assert cusum.pos == cusum.neg == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Cusum(drift=-0.1)
        with pytest.raises(ValueError):
            Cusum(threshold=0.0)


class TestAutoscaleConfig:
    def test_defaults_validate(self):
        AutoscaleConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_shards=0),
            dict(max_shards=2, min_shards=4),
            dict(low_pending_per_shard=300.0),  # above high
            dict(low_pending_per_shard=0.0),
            dict(high_age_s=-1.0),
            dict(cooldown_s=-1.0),
            dict(ewma_half_life_s=0.0),
            dict(gap_reset_s=0.0),
            dict(shed_tolerance=-0.5),
            dict(max_move_fraction=0.0),
            dict(max_move_fraction=1.5),
            dict(down_headroom=0.0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AutoscaleConfig(**kwargs)


# ---------------------------------------------------------------------------
# Weighted rings
# ---------------------------------------------------------------------------


class TestWeightedHashRing:
    def test_weight_one_ring_is_the_unweighted_ring(self):
        ids = range(1000)
        plain, weighted = HashRing(4), HashRing(4, weights=[1.0] * 4)
        assert [plain.shard_of(i) for i in ids] == [weighted.shard_of(i) for i in ids]

    def test_weights_route_proportional_key_ranges(self):
        ring = HashRing(2, weights=[2.0, 1.0])
        counts = np.bincount([ring.shard_of(i) for i in range(3000)], minlength=2)
        # Shard 0 owns ~2/3 of the patients; allow hashing variance.
        assert counts[0] > 1.5 * counts[1]

    def test_growth_of_a_weighted_ring_stays_minimal(self):
        ids = range(2000)
        ring = HashRing(3, weights=[1.0, 2.0, 1.0])
        new_ring, moved = ring.with_n_shards(4, ids, weights=[1.0, 2.0, 1.0, 1.0])
        assert 0 < len(moved) < 0.5 * 2000
        # Survivors' weights are unchanged, so every mover lands on the new
        # shard — never a reshuffle between survivors.
        assert all(new == 3 for _, new in moved.values())
        for pid in ids:
            if pid not in moved:
                assert ring.shard_of(pid) == new_ring.shard_of(pid)

    def test_reweighting_one_shard_moves_patients_one_way(self):
        ids = range(2000)
        ring = HashRing(2)
        _, moved = ring.with_n_shards(2, ids, weights=[1.0, 3.0])
        # Shard 0's points are untouched; only shard 1's key range grew.
        assert moved
        assert all((old, new) == (0, 1) for old, new in moved.values())

    def test_resized_weights_truncates_and_extends(self):
        ring = HashRing(3, weights=[2.0, 1.0, 0.5])
        assert ring.resized_weights(2) == (2.0, 1.0)
        assert ring.resized_weights(5) == (2.0, 1.0, 0.5, 1.0, 1.0)
        assert ring.resized_weights(2, weights=[1.0, 4.0]) == (1.0, 4.0)
        with pytest.raises(ValueError, match="entries"):
            ring.resized_weights(2, weights=[1.0])

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="entries"):
            HashRing(2, weights=[1.0])
        with pytest.raises(ValueError, match="positive"):
            HashRing(2, weights=[1.0, 0.0])

    def test_fleet_threads_weights_through(self, quantized_detector):
        fleet = ShardedFleet(
            quantized_detector, FS, n_shards=2, shard_weights=[2.0, 1.0]
        )
        assert fleet.ring.weights == (2.0, 1.0)
        fleet.add_shard(weight=4.0)
        assert fleet.n_shards == 3
        assert fleet.ring.weights == (2.0, 1.0, 4.0)

    def test_same_count_reweight_is_a_real_reshard(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=2, windowing=WINDOWING)
        for pid in range(32):
            fleet.push(pid, np.zeros(256), seq=0)
        assert fleet.reshard(2) == {}  # same count, same weights: no-op
        preview = fleet.preview_reshard(2, weights=[1.0, 3.0])
        assert preview  # a reweight moves patients without changing count
        assert fleet.reshard(2, weights=[1.0, 3.0]) == preview
        assert fleet.ring.weights == (1.0, 3.0)
        for pid in range(32):
            assert fleet.shard_of(pid) == fleet.ring.shard_of(pid)
            fleet.push(pid, np.zeros(256), seq=1)  # monitors survived


# ---------------------------------------------------------------------------
# Controller decisions
# ---------------------------------------------------------------------------


def _controller(fleet, clock, **overrides):
    defaults = dict(
        min_shards=1,
        max_shards=8,
        high_pending_per_shard=10.0,
        low_pending_per_shard=2.0,
        high_age_s=100.0,
        cooldown_s=0.0,
        ewma_half_life_s=10.0,
        gap_reset_s=10_000.0,
        cusum_threshold=50.0,  # keep unit tests EWMA-driven unless asked
    )
    defaults.update(overrides)
    return AutoscaleController(fleet, AutoscaleConfig(**defaults), clock=clock)


class TestControllerDecisions:
    def _fleet(self, detector, clock, n_shards=2):
        return ShardedFleet(
            detector, FS, n_shards=n_shards, windowing=WINDOWING, clock=clock
        )

    def test_requires_a_reshardable_fleet(self, quantized_detector):
        with pytest.raises(TypeError, match="live resharding"):
            AutoscaleController(MonitorFleet(quantized_detector, FS))

    def test_scales_up_on_sustained_pressure(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock)
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(100))
        decision = controller.step(now=clock.advance(1.0))
        assert decision.action == "up"
        assert decision.reason == "ewma>high"
        assert decision.to_shards == 3 and fleet.n_shards == 3
        assert controller.actions == [decision]
        assert decision.moved > 0  # the cost model priced a real migration

    def test_holds_inside_the_hysteresis_band(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock)
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(10))  # 5 per shard
        decision = controller.step(now=clock.advance(1.0))
        assert decision.action == "hold" and decision.reason == "in-band"
        assert fleet.n_shards == 2 and controller.actions == []

    def test_cooldown_blocks_consecutive_actions(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock, cooldown_s=60.0)
        source = _WindowSource(feature_matrix, 64)
        fleet.enqueue(source.batch(100))
        assert controller.step(now=clock.advance(1.0)).action == "up"
        fleet.enqueue(source.batch(100))
        held = controller.step(now=clock.advance(1.0))
        assert held.action == "hold" and held.reason == "cooldown"
        assert fleet.n_shards == 3
        # Once the cooldown lapses the pressure acts again.
        assert controller.step(now=clock.advance(120.0)).action == "up"

    def test_scales_down_only_with_headroom(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock, n_shards=4)
        for pid in range(16):
            fleet.push(pid, np.zeros(256), seq=0)
        controller = _controller(fleet, clock)
        decision = controller.step(now=clock.advance(1.0))  # queue is empty
        assert decision.action == "down" and decision.reason == "ewma<low"
        assert fleet.n_shards == 3
        # With load just under the low band but no post-shrink headroom the
        # controller holds instead of bouncing back up.
        tight = _controller(
            fleet, clock, low_pending_per_shard=9.0, down_headroom=0.5
        )
        fleet.enqueue(_WindowSource(feature_matrix, 16).batch(24))  # 8 per shard
        held = tight.plan(now=clock.advance(1.0))
        assert held.action == "hold" and held.reason == "no-down-headroom"

    def test_respects_shard_count_bounds(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock, n_shards=2)
        controller = _controller(fleet, clock, min_shards=2, max_shards=2)
        decision = controller.plan(now=clock.advance(1.0))
        assert decision.action == "hold" and decision.reason == "at-min-shards"
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(100))
        decision = controller.plan(now=clock.advance(100.0))  # let the EWMA catch up
        assert decision.action == "hold" and decision.reason == "at-max-shards"

    def test_cost_veto_and_emergency_override(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(
            fleet, clock, max_move_fraction=0.001, high_age_s=30.0
        )
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(100))
        vetoed = controller.plan(now=clock.advance(1.0))
        assert vetoed.action == "hold" and vetoed.reason == "cost-veto"
        assert fleet.n_shards == 2
        # Let the backlog age past the latency bound: relief now outranks
        # migration cost and the veto is waived.
        emergency = controller.step(now=clock.advance(60.0))
        assert emergency.action == "up" and emergency.reason == "age>=high"
        assert fleet.n_shards == 3

    def test_plan_never_mutates_the_fleet(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock)
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(100))
        decision = controller.plan(now=clock.advance(1.0))
        assert decision.action == "up"
        assert fleet.n_shards == 2 and controller.actions == []

    def test_cusum_catches_drift_below_the_band_edge(
        self, quantized_detector, feature_matrix
    ):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        # Pressure parks at 8/shard: under high=10, above the band midpoint
        # of 6 — invisible to the EWMA threshold, cumulative to the CUSUM.
        controller = _controller(fleet, clock, cusum_threshold=4.0, cusum_drift=0.25)
        source = _WindowSource(feature_matrix, 64)
        decision = None
        for _ in range(30):
            fleet.enqueue(source.batch(16))
            decision = controller.step(now=clock.advance(10.0))
            if decision.action != "hold":
                break
            fleet.drain()
        assert decision.action == "up" and decision.reason == "cusum-high"

    def test_gap_reset_drops_stale_cusum_evidence(
        self, quantized_detector, feature_matrix
    ):
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock, gap_reset_s=100.0, cusum_drift=0.25)
        source = _WindowSource(feature_matrix, 64)
        for _ in range(10):
            fleet.enqueue(source.batch(16))
            controller.observe(now=clock.advance(10.0))
            fleet.drain()
        assert controller.cusum.pos > 0.0
        # Nobody sampled for longer than gap_reset_s: the accumulated
        # evidence describes an unwatched regime and must not carry over.
        controller.observe(now=clock.advance(500.0))
        assert controller.cusum.pos <= 1.0  # at most the single fresh sample

    def test_recovers_from_max_shards_after_a_long_burst(
        self, quantized_detector, feature_matrix
    ):
        # Regression: a burst pinning the fleet at max_shards saturates the
        # CUSUM (it alarms, but no further up-action can discharge the
        # evidence).  An unbounded accumulator would then keep want_up
        # latched — and scale-down blocked — for as long after the burst as
        # the burst itself ran.  The 2x-threshold cap bounds the recovery.
        clock = FakeClock()
        fleet = self._fleet(quantized_detector, clock)
        controller = _controller(fleet, clock, max_shards=3, cusum_threshold=4.0)
        fleet.enqueue(_WindowSource(feature_matrix, 64).batch(400))
        controller.step(now=clock.advance(100.0))  # let the EWMA catch up
        assert fleet.n_shards == 3
        # A long overload at max capacity: every tick holds "at-max-shards"
        # while the CUSUM rams its cap.
        for _ in range(30):
            decision = controller.step(now=clock.advance(1.0))
            assert decision.action == "hold" and decision.reason == "at-max-shards"
        assert controller.cusum.pos == 2.0 * controller.cusum.threshold
        # The burst ends.  The controller must shed the stale alarm and walk
        # back down to min_shards within a handful of quiet ticks — not the
        # burst's own duration.
        fleet.drain()
        for _ in range(8):
            controller.step(now=clock.advance(50.0))
            if fleet.n_shards == 1:
                break
        assert fleet.n_shards == 1


# ---------------------------------------------------------------------------
# Gateway integration: autonomous reshards through the quiesce path
# ---------------------------------------------------------------------------


class TestGatewayAutoscale:
    def test_gateway_validates_the_fleet(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=1)
        controller = AutoscaleController(fleet)
        with pytest.raises(TypeError, match="live resharding"):
            IngestGateway(MonitorFleet(quantized_detector, FS), autoscaler=controller)

    def test_pump_loop_autoscales_and_the_ledger_holds(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, FS, n_shards=1, windowing=WINDOWING)
        controller = AutoscaleController(
            fleet,
            AutoscaleConfig(
                min_shards=1,
                max_shards=4,
                high_pending_per_shard=4.0,
                low_pending_per_shard=1.0,
                cooldown_s=0.0,
                ewma_half_life_s=0.001,  # track the instantaneous queue depth
            ),
        )
        gateway = IngestGateway(
            fleet, autoscaler=controller, poll_interval_s=0.01, queue_depth=64
        )
        n_frames = 48

        async def run():
            await gateway.start()
            for k in range(n_frames):
                pid, seq = k % 8, k // 8
                await gateway.submit(encode_chunk(pid, seq, FS, np.zeros(64)))
            # Let the pump drain the burst (autoscaling as it goes), then
            # idle for a few poll ticks so scale-downs get their chance.
            for _ in range(100):
                await asyncio.sleep(0.01)
                assert gateway.stats().fully_accounted  # ledger holds throughout
                if gateway.stats().frames_delivered == n_frames:
                    break
            await asyncio.sleep(0.05)
            decisions = await gateway.stop()
            return decisions, gateway.stats()

        _, stats = asyncio.run(run())
        assert stats.fully_accounted
        assert stats.frames_delivered == n_frames
        assert stats.frames_errored == 0
        ups = [a for a in controller.actions if a.action == "up"]
        assert ups  # the burst drove at least one autonomous scale-up
        assert fleet.n_shards >= 1
        assert stats.autoscale_actions == len(controller.actions)
        assert stats.reshards == stats.autoscale_actions  # all were autonomous


# ---------------------------------------------------------------------------
# Convergence soak: diurnal load over thousands of patients
# ---------------------------------------------------------------------------


SOAK_CONFIG = AutoscaleConfig(
    min_shards=2,
    max_shards=8,
    high_pending_per_shard=100.0,
    low_pending_per_shard=20.0,
    high_age_s=10_000.0,  # the soak drains every tick; age never binds
    cooldown_s=30.0,
    ewma_half_life_s=20.0,
    gap_reset_s=100_000.0,
    cusum_threshold=1_000.0,  # let the soak exercise the EWMA/hysteresis law
)


def _run_soak(fleet, controller, feature_matrix, schedule, *, n_patients, seed, dt_s=10.0):
    """Drive ``fleet`` (and a never-autoscaled reference) through ``schedule``.

    ``schedule`` is a list of ``(windows_per_tick, n_ticks)`` phases.  Every
    tick enqueues one batch on both fleets, runs one controller step on the
    autoscaled fleet only, then drains both and asserts bit-exact decision
    parity.  Returns the per-tick shard counts (the trajectory).
    """
    clock = controller._clock
    reference = MonitorFleet(fleet.registry, FS, windowing=WINDOWING)
    source = _WindowSource(feature_matrix, n_patients, seed=seed)
    trajectory = []
    for load, ticks in schedule:
        for _ in range(ticks):
            clock.advance(dt_s)
            batch = source.batch(load)
            fleet.enqueue(batch)
            reference.enqueue(batch)
            controller.step(now=clock.now)
            got = sorted(fleet.drain(), key=decision_sort_key)
            expected = sorted(reference.drain(), key=decision_sort_key)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g.patient_id == e.patient_id
                assert g.start_s == e.start_s
                assert g.score == e.score  # bit-exact fixed-point parity
                assert g.alarm == e.alarm
            trajectory.append(fleet.n_shards)
    return trajectory


class TestSoakConvergence:
    def test_diurnal_soak_converges_with_parity(self, quantized_detector, feature_matrix):
        clock = FakeClock()
        fleet = ShardedFleet(
            quantized_detector, FS, n_shards=2, windowing=WINDOWING, clock=clock
        )
        controller = AutoscaleController(fleet, SOAK_CONFIG, clock=clock)
        day, night = (600, 20), (30, 20)
        trajectory = _run_soak(
            fleet,
            controller,
            feature_matrix,
            [day, night, day, night],
            n_patients=2000,
            seed=97,
        )
        # Grew through the peak, shrank through the trough, both cycles.
        assert max(trajectory[:20]) >= 5
        assert min(trajectory[20:40]) <= 3
        assert max(trajectory[40:60]) >= 5
        assert min(trajectory[60:]) <= 3
        # No thrash: four load transitions, each worth at most the full
        # min↔max traversal; the controller must not exceed that budget.
        assert len(controller.actions) <= 4 * (SOAK_CONFIG.max_shards - SOAK_CONFIG.min_shards)
        # Settled: the second half of each phase is (near) action-free —
        # every action's pressure reading belongs to a transition, so
        # consecutive same-direction runs are bounded by the traversal span.
        directions = [a.action for a in controller.actions]
        assert directions.count("up") <= 2 * (SOAK_CONFIG.max_shards - SOAK_CONFIG.min_shards)
        assert directions.count("down") <= 2 * (SOAK_CONFIG.max_shards - SOAK_CONFIG.min_shards)

    @given(
        phases=st.lists(
            st.tuples(st.sampled_from([20, 120, 400, 700]), st.integers(6, 12)),
            min_size=2,
            max_size=4,
        ),
        weighted=st.booleans(),
    )
    @settings(max_examples=5, deadline=None)
    def test_random_bursty_schedules_never_thrash(
        self, quantized_detector, feature_matrix, phases, weighted
    ):
        clock = FakeClock()
        fleet = ShardedFleet(
            quantized_detector,
            FS,
            n_shards=2,
            windowing=WINDOWING,
            clock=clock,
            shard_weights=[2.0, 1.0] if weighted else None,
        )
        controller = AutoscaleController(fleet, SOAK_CONFIG, clock=clock)
        _run_soak(
            fleet, controller, feature_matrix, phases, n_patients=500, seed=31
        )
        span = SOAK_CONFIG.max_shards - SOAK_CONFIG.min_shards
        assert len(controller.actions) <= len(phases) * span
        # Direction flips bound the oscillation: at most one reversal per
        # load transition (plus the initial ramp).
        flips = sum(
            1
            for a, b in zip(controller.actions, controller.actions[1:])
            if a.action != b.action
        )
        assert flips <= len(phases)
        assert fleet.n_shards >= SOAK_CONFIG.min_shards
        assert fleet.stats().pending_windows == 0  # every tick drained clean
