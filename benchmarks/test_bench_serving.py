"""Benchmarks: batched fleet inference vs the naive per-window loop, the
sharded fleet drain vs the single monolithic fleet drain, and the TCP
ingestion gateway vs the direct in-process ``push_wire`` loop.

The serving engine's claim is that classifying the pending windows of a whole
monitor fleet in one vectorised call is far cheaper than the one-window-at-a-
time loop a naive server would run.  This harness measures both paths on the
same stack of feature vectors with the paper's 9/15-bit fixed-point detector,
checks that the predictions agree exactly, and reports windows/second.

The sharded benchmark then scales the fleet up (128 patients, thousands of
pending windows per drain) and compares a single
:class:`~repro.serving.fleet.MonitorFleet` drain against an 8-shard
:class:`~repro.serving.sharding.ShardedFleet` drain over the identical
workload.  The shards drain one after another on the caller's thread, so
the sharded drain does the single drain's work plus per-shard bookkeeping
and a merge; with the fused preallocated kernel the monolithic drain no
longer pays a cache penalty for its batch size, so that orchestration is a
bounded overhead (asserted below), not a speed-up.  Decisions must agree
decision-for-decision with the single fleet.
"""

import asyncio
import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    AutoscaleConfig,
    AutoscaleController,
    GatewayCluster,
    IngestGateway,
    ModelRegistry,
    MonitorFleet,
    PendingWindow,
    ShardedFleet,
    classify_windows,
    decision_sort_key,
    encode_chunk,
)
from repro.svm.model import train_svm

from benchmarks.conftest import interleaved_ratio, run_once

#: Number of simultaneous pending windows in the simulated fleet drain.
TARGET_WINDOWS = 512

#: Sharded-drain workload: a 128-patient fleet with a deep pending queue.
#: The queue is deliberately deep so the drain, not the bookkeeping, is what
#: gets timed; the consistent-hash ring spreads the patients evenly enough
#: that every shard sees a comparable batch.
SHARDED_PATIENTS = 128
SHARDED_WINDOWS = 8192
SHARDED_SHARDS = 8
FS = 128.0

#: Heterogeneous-registry workload: 128 patients spread over four distinct
#: fixed-point design points (bit-width space), deep pending queue.
HET_PATIENTS = 128
HET_WINDOWS = 4096
HET_CONFIGS = ((9, 15), (12, 18), (8, 12), (10, 16))

#: Gateway workload: a fleet of nodes pushing ~8-second frames over TCP.
GATEWAY_PATIENTS = 32
GATEWAY_FRAMES_PER_PATIENT = 32
GATEWAY_FRAME_SAMPLES = 1024
GATEWAY_CONNECTIONS = 8

#: Live-reshard workload: a mid-stream 4→8 scale-out of a 128-patient fleet
#: with live DSP state and a deep pending queue on every drain cycle.
RESHARD_PATIENTS = 128
RESHARD_WINDOWS = 2048
RESHARD_FROM = 4
RESHARD_TO = 8

#: Autoscale workload: a diurnal load cycle over a large fleet, driven by the
#: closed-loop controller on a deterministic simulated clock.
AUTOSCALE_PATIENTS = 1000
AUTOSCALE_DAY_LOAD = 400  # windows enqueued per simulated tick at peak
AUTOSCALE_NIGHT_LOAD = 20
AUTOSCALE_PHASE_TICKS = 15
AUTOSCALE_TICK_S = 10.0
AUTOSCALE_CONFIG = AutoscaleConfig(
    min_shards=2,
    max_shards=8,
    high_pending_per_shard=60.0,
    low_pending_per_shard=15.0,
    high_age_s=10_000.0,
    cooldown_s=30.0,
    ewma_half_life_s=20.0,
    gap_reset_s=100_000.0,
    cusum_threshold=1_000.0,
)

#: Committed per-commit trajectory record (deterministic fields only, so the
#: file changes exactly when controller behaviour does).
AUTOSCALE_RECORD = Path(__file__).with_name("BENCH_autoscale.json")


def _measure(detector, X):
    t0 = time.perf_counter()
    naive = np.concatenate([detector.predict(X[i : i + 1]) for i in range(X.shape[0])])
    t_naive = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = detector.predict(X)
    t_batched = time.perf_counter() - t0

    # The same batch routed through the fleet's drain path (decision scores
    # plus labels), to time the full serving layer and not just the model.
    pending = [
        PendingWindow(
            patient_id=i % 16,
            start_s=180.0 * (i // 16),
            end_s=180.0 * (i // 16) + 180.0,
            n_beats=200,
            features=X[i],
        )
        for i in range(X.shape[0])
    ]
    t0 = time.perf_counter()
    decisions = classify_windows(detector, pending)
    t_drain = time.perf_counter() - t0
    return naive, batched, decisions, t_naive, t_batched, t_drain


def test_bench_serving_batched_inference(benchmark, experiment_data):
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    reps = -(-TARGET_WINDOWS // features.X.shape[0])
    X = np.tile(features.X, (reps, 1))[:TARGET_WINDOWS]

    naive, batched, decisions, t_naive, t_batched, t_drain = run_once(
        benchmark, _measure, detector, X
    )

    n = X.shape[0]
    print()
    print(
        "pending windows per drain : %d  (%d support vectors, 9/15 bits)"
        % (n, model.n_support_vectors)
    )
    print("naive per-window loop     : %8.0f windows/s" % (n / t_naive))
    print(
        "batched predict           : %8.0f windows/s  (%.1fx)"
        % (n / t_batched, t_naive / t_batched)
    )
    print(
        "fleet drain (scores+labels): %7.0f windows/s  (%.1fx)"
        % (n / t_drain, t_naive / t_drain)
    )

    # Correctness: the batched path is bit-identical to the per-window loop,
    # both through predict() and through the fleet drain.
    assert np.array_equal(naive, batched)
    drain_labels = np.asarray([1 if d.alarm else -1 for d in decisions])
    assert np.array_equal(naive, drain_labels)

    # The acceptance bar of the serving subsystem: at least 5x the naive
    # windows/second throughput.
    assert t_naive / t_batched >= 5.0


def _timed_drain(fleet, pending, sort):
    """Enqueue+drain once; both paths must yield canonically *ordered* output.

    ``ShardedFleet.drain`` sorts its merged decisions internally; the single
    fleet's drain returns arrival order, so the canonical sort every consumer
    of ``run()`` relies on is applied here — timing it for one path only
    would bias the comparison.
    """
    fleet.enqueue(pending)
    # The drain allocates thousands of decision objects; a garbage-collection
    # pause landing inside one timed region would skew the comparison.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        decisions = fleet.drain()
        if sort:
            decisions.sort(key=decision_sort_key)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, decisions


def _measure_sharded(detector, pending, pairs=9):
    """Median per-pair speedup, pending queue to ordered decisions, single
    fleet over sharded fleet.

    The allocator is warmed with a few large throwaway buffers first: glibc
    raises its dynamic mmap threshold after the first big frees, and without
    the warm-up whichever path runs first would pay the mmap/zero-page cost
    for everyone (this is also the steady state of a long-running server,
    which is what the comparison should reflect).  One untimed cycle of each
    path follows; then the two alternate in back-to-back pairs
    (``interleaved_ratio``), so a drift in host speed lands on both sides of
    a pair and the median drops the pairs a scheduler hiccup spoiled.
    """
    for _ in range(50):
        _warm = np.empty(1 << 21)
        del _warm
    single_fleet = MonitorFleet(detector, FS)
    sharded_fleet = ShardedFleet(detector, FS, n_shards=SHARDED_SHARDS)
    _timed_drain(single_fleet, pending, sort=True)
    _timed_drain(sharded_fleet, pending, sort=False)
    return interleaved_ratio(
        lambda: _timed_drain(single_fleet, pending, sort=True),
        lambda: _timed_drain(sharded_fleet, pending, sort=False),
        pairs,
    )


def test_bench_sharded_fleet_drain(benchmark, experiment_data):
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    reps = -(-SHARDED_WINDOWS // features.X.shape[0])
    X = np.tile(features.X, (reps, 1))[:SHARDED_WINDOWS]
    pending = [
        PendingWindow(
            patient_id=i % SHARDED_PATIENTS,
            start_s=180.0 * (i // SHARDED_PATIENTS),
            end_s=180.0 * (i // SHARDED_PATIENTS) + 180.0,
            n_beats=200,
            features=X[i],
        )
        for i in range(SHARDED_WINDOWS)
    ]

    ratio, t_single, t_sharded, single_decisions, sharded_decisions = run_once(
        benchmark, _measure_sharded, detector, pending
    )

    n = len(pending)
    print()
    print(
        "sharded fleet drain       : %d windows, %d patients, %d shards"
        % (n, SHARDED_PATIENTS, SHARDED_SHARDS)
    )
    print("single-fleet drain        : %8.0f windows/s" % (n / t_single))
    print(
        "sharded drain             : %8.0f windows/s  (%.2fx, median pair)"
        % (n / t_sharded, ratio)
    )

    # Parity: the sharded drain must be decision-for-decision identical to
    # the single fleet over the identical 128-patient workload.
    assert single_decisions == sharded_decisions
    assert all(d.usable for d in sharded_decisions)

    # Acceptance bar: shard orchestration costs at most a bounded slice of
    # the drain even on a single core.  The bar used to be strict (sharded
    # >= single): the old classification path allocated multi-megabyte
    # intermediates per batch, so the monolithic 8192-window drain fell out
    # of cache and shard-sized batches won outright.  The fused preallocated
    # kernel (see benchmarks/test_bench_hotpath.py) removed that penalty —
    # the monolithic drain no longer pays for its batch size, and what is
    # left of the difference is the per-shard drain and merge overhead (the
    # shards run one after another on this thread; there is no concurrency
    # to win it back).  The comparison stays stable because it is the median
    # of interleaved pair ratios (both paths see the same machine conditions,
    # and the median drops the pairs a scheduling hiccup spoiled), with GC
    # parked outside the timed regions.
    assert ratio >= 0.7


def _measure_heterogeneous(shared, registry, pending, pairs=9):
    """Median per-pair speedup, homogeneous over heterogeneous drain.

    Same methodology as :func:`_measure_sharded`: allocator warm-up, one
    untimed cycle of each path, then interleaved back-to-back pairs with GC
    parked outside the timed regions.
    """
    for _ in range(50):
        _warm = np.empty(1 << 21)
        del _warm
    homo_fleet = MonitorFleet(shared, FS)
    het_fleet = MonitorFleet(registry, FS)
    _timed_drain(homo_fleet, pending, sort=False)
    _timed_drain(het_fleet, pending, sort=False)
    return interleaved_ratio(
        lambda: _timed_drain(homo_fleet, pending, sort=False),
        lambda: _timed_drain(het_fleet, pending, sort=False),
        pairs,
    )


def test_bench_heterogeneous_registry_drain(benchmark, experiment_data):
    """Heterogeneous (4 design points, 128 patients) vs homogeneous drain.

    The group-by-model drain must not give up batching: windows are
    classified in one vectorised call per model group (four int64 pipeline
    runs of ~1/4 batch each instead of one full-batch run), so the
    heterogeneous fleet is required to hold >= 0.7x the homogeneous
    windows/s over the identical pending queue — and every patient's
    decisions must match the model the registry assigns them, in the exact
    arrival order of the homogeneous drain.
    """
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    backends = [
        QuantizedSVM(
            model, QuantizationConfig(feature_bits=fbits, coeff_bits=cbits)
        ).as_backend(name="q%d/%d" % (fbits, cbits))
        for fbits, cbits in HET_CONFIGS
    ]
    registry = ModelRegistry(
        models={pid: backends[pid % len(backends)] for pid in range(HET_PATIENTS)}
    )

    reps = -(-HET_WINDOWS // features.X.shape[0])
    X = np.tile(features.X, (reps, 1))[:HET_WINDOWS]
    pending = [
        PendingWindow(
            patient_id=i % HET_PATIENTS,
            start_s=180.0 * (i // HET_PATIENTS),
            end_s=180.0 * (i // HET_PATIENTS) + 180.0,
            n_beats=200,
            features=X[i],
        )
        for i in range(HET_WINDOWS)
    ]

    ratio, t_homo, t_het, homo_decisions, het_decisions = run_once(
        benchmark, _measure_heterogeneous, backends[0], registry, pending
    )

    n = len(pending)
    print()
    print(
        "heterogeneous drain       : %d windows, %d patients, %d design points"
        % (n, HET_PATIENTS, len(backends))
    )
    print("homogeneous drain         : %8.0f windows/s" % (n / t_homo))
    print(
        "group-by-model drain      : %8.0f windows/s  (%.2fx, median pair)"
        % (n / t_het, ratio)
    )

    # Order parity: the grouped drain emits the queue's arrival order, i.e.
    # exactly the homogeneous drain's decision sequence.
    assert [(d.patient_id, d.start_s) for d in het_decisions] == [
        (d.patient_id, d.start_s) for d in homo_decisions
    ]
    # Model parity: patients assigned the homogeneous model get bit-identical
    # decisions from the heterogeneous drain.
    assert [d for d in het_decisions if d.patient_id % len(backends) == 0] == [
        d for d in homo_decisions if d.patient_id % len(backends) == 0
    ]
    assert all(d.usable for d in het_decisions)

    # Acceptance bar: the grouped drain keeps per-group batching, so its
    # cost over the homogeneous drain is the fixed group-by-model and
    # order-restore bookkeeping.  The fused int32 MAC1 kernel roughly halved
    # the per-window classify cost, which doubled the *relative* weight of
    # that bookkeeping (measured ~0.85x solo); the slack below 0.85 absorbs
    # single-core scheduling jitter when the whole suite shares the box, and
    # the median of interleaved pair ratios keeps one spoiled rep from
    # deciding the verdict.
    assert ratio >= 0.7


def _live_fleet(detector, n_shards):
    fleet = ShardedFleet(detector, FS, n_shards=n_shards)
    # Live mid-stream state on every monitor: a chunk too short to finalise,
    # so the reshard really migrates DSP carry-over, not empty shells.
    for pid in range(RESHARD_PATIENTS):
        fleet.push(pid, np.zeros(512), seq=0)
    return fleet


def _measure_reshard(detector, pending, pairs=9):
    """Drain throughput before / after a live 4→8 reshard, plus its cost.

    Same warm-up as :func:`_measure_sharded`, on two identically fed fleets:
    one stays at 4 shards, the other is resharded to 8 (timed once: the
    wall-clock cost of migrating the reassigned patients' monitor state).
    Steady-state enqueue+drain cycles then alternate between them in
    back-to-back pairs (``interleaved_ratio``), and the throughput ratio is
    the median per-pair ratio, so host drift between the "before" and the
    "after" phase of one fleet cannot masquerade as a slowdown.
    """
    for _ in range(50):
        _warm = np.empty(1 << 21)
        del _warm
    before = _live_fleet(detector, RESHARD_FROM)
    after = _live_fleet(detector, RESHARD_FROM)
    t0 = time.perf_counter()
    moved = after.reshard(RESHARD_TO)
    t_reshard = time.perf_counter() - t0
    # One untimed cycle on each side: the comparison is steady state vs
    # steady state, not first-touch allocation vs warm caches.
    _timed_drain(before, pending, sort=False)
    _timed_drain(after, pending, sort=False)
    ratio, t_before, t_after, before_decisions, after_decisions = interleaved_ratio(
        lambda: _timed_drain(before, pending, sort=False),
        lambda: _timed_drain(after, pending, sort=False),
        pairs,
    )
    return ratio, t_before, before_decisions, t_reshard, moved, t_after, after_decisions


def test_bench_live_reshard(benchmark, experiment_data):
    """Cost of scaling 4→8 shards mid-stream, and the throughput after it.

    Two numbers matter for a production scale-out: what the migration itself
    costs (it quiesces the moving patients for that long) and whether the
    fleet still performs afterwards.  The acceptance bar pins the latter:
    steady-state drain throughput after the reshard must be >= 0.75x the
    throughput before it, as the median per-pair ratio of interleaved drains
    (measured solo the two hold ~1.0x; 0.75x guards the regression, not the
    win).
    """
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    reps = -(-RESHARD_WINDOWS // features.X.shape[0])
    X = np.tile(features.X, (reps, 1))[:RESHARD_WINDOWS]
    pending = [
        PendingWindow(
            patient_id=i % RESHARD_PATIENTS,
            start_s=180.0 * (i // RESHARD_PATIENTS),
            end_s=180.0 * (i // RESHARD_PATIENTS) + 180.0,
            n_beats=200,
            features=X[i],
        )
        for i in range(RESHARD_WINDOWS)
    ]

    ratio, t_before, before_decisions, t_reshard, moved, t_after, after_decisions = run_once(
        benchmark, _measure_reshard, detector, pending
    )

    n = len(pending)
    print()
    print(
        "live reshard              : %d patients, %d windows/drain, %d -> %d shards"
        % (RESHARD_PATIENTS, n, RESHARD_FROM, RESHARD_TO)
    )
    print("drain before reshard      : %8.0f windows/s" % (n / t_before))
    print(
        "reshard 4 -> 8            : %8.2f ms, %d/%d patients migrated"
        % (1e3 * t_reshard, len(moved), RESHARD_PATIENTS)
    )
    print(
        "drain after reshard       : %8.0f windows/s  (%.2fx before, median pair)"
        % (n / t_after, ratio)
    )

    # Migration is minimal (the consistent-hashing promise) and decisions
    # are identical before and after the topology change.
    assert 0 < len(moved) < RESHARD_PATIENTS
    assert sorted(before_decisions, key=decision_sort_key) == sorted(
        after_decisions, key=decision_sort_key
    )
    # Acceptance bar: steady-state throughput survives the scale-out.
    # Measured solo the 8-shard drain holds ~1.0x the 4-shard drain; the
    # slack absorbs single-core scheduling jitter (doubling the shard count
    # on one core adds fixed per-shard submit/merge overhead whose relative
    # weight grew when the fused int32 kernel halved classify cost).
    assert ratio >= 0.75


def _gateway_frames():
    """Wire frames for the gateway workload, grouped per TCP connection.

    A connection multiplexes a fixed subset of patients, preserving each
    patient's frame order (the wire contract).
    """
    frames = []
    conn_streams = [[] for _ in range(GATEWAY_CONNECTIONS)]
    for seq in range(GATEWAY_FRAMES_PER_PATIENT):
        for pid in range(GATEWAY_PATIENTS):
            frame_bytes = encode_chunk(
                pid, seq, FS, np.zeros(GATEWAY_FRAME_SAMPLES, dtype=np.float32)
            )
            frames.append(frame_bytes)
            conn_streams[pid % GATEWAY_CONNECTIONS].append(frame_bytes)
    return frames, [b"".join(stream) for stream in conn_streams]


async def _run_gateway(detector, per_conn):
    fleet = MonitorFleet(detector, FS)
    gateway = IngestGateway(fleet, queue_depth=16, backpressure="block")
    host, port = await gateway.serve()

    async def node(blob):
        _, writer = await asyncio.open_connection(host, port)
        writer.write(blob)
        await writer.drain()
        writer.close()
        await writer.wait_closed()

    t0 = time.perf_counter()
    await asyncio.gather(*[node(blob) for blob in per_conn])
    await gateway.stop()
    elapsed = time.perf_counter() - t0
    return elapsed, fleet, gateway.stats()


def _measure_gateway(detector):
    frames, per_conn = _gateway_frames()

    # Baseline: the pull-driven loop of PR 2 — same frames, same fleet DSP,
    # no socket, no queues, no event loop.
    direct_fleet = MonitorFleet(detector, FS)
    t0 = time.perf_counter()
    for frame_bytes in frames:
        direct_fleet.push_wire(frame_bytes)
    direct_fleet.finish()
    direct_fleet.drain()
    t_direct = time.perf_counter() - t0

    t_gateway, gateway_fleet, stats = asyncio.run(_run_gateway(detector, per_conn))
    return len(frames), t_direct, direct_fleet, t_gateway, gateway_fleet, stats


def test_bench_ingest_gateway_throughput(benchmark, experiment_data):
    """TCP gateway frames/s vs the direct push_wire loop over identical frames.

    The gateway adds framing reassembly, per-patient queues, an event loop
    and real localhost sockets on top of the same DSP work; this records
    what that front door costs, and checks the ledger and the DSP state are
    identical to the pull-driven path.
    """
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    n, t_direct, direct_fleet, t_gateway, gateway_fleet, stats = run_once(
        benchmark, _measure_gateway, detector
    )

    print()
    print(
        "gateway ingestion         : %d frames, %d patients, %d connections"
        % (n, GATEWAY_PATIENTS, GATEWAY_CONNECTIONS)
    )
    print("direct push_wire loop     : %8.0f frames/s" % (n / t_direct))
    print(
        "TCP gateway (end to end)  : %8.0f frames/s  (%.2fx the direct loop)"
        % (n / t_gateway, t_direct / t_gateway)
    )

    # The ledger balances and nothing was lost on the lossless policy.
    assert stats.frames_received == stats.frames_delivered == n
    assert stats.frames_shed == stats.frames_rejected == stats.frames_errored == 0
    assert stats.fully_accounted
    # Same DSP state as the pull-driven loop: every monitor saw every sample.
    for pid in range(GATEWAY_PATIENTS):
        assert (
            gateway_fleet.monitor(pid).time_seen_s
            == direct_fleet.monitor(pid).time_seen_s
        )


class _SimClock:
    """Deterministic monotonic clock driving the autoscale simulation."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _measure_autoscale(detector, X):
    """A diurnal day/night/day/night load cycle under the closed loop.

    Wall time covers the whole simulation (enqueue + controller planning +
    autonomous reshards + drains); each autonomous reshard is also timed
    individually — that migration cost, together with the shards-over-time
    trajectory, is the per-commit record this bench maintains.
    """
    clock = _SimClock()
    fleet = ShardedFleet(
        detector, FS, n_shards=AUTOSCALE_CONFIG.min_shards, clock=clock
    )
    controller = AutoscaleController(fleet, AUTOSCALE_CONFIG, clock=clock)
    rng = np.random.default_rng(7)
    counters = {}
    trajectory = []
    action_log = []
    tick = 0
    t0 = time.perf_counter()
    phases = (AUTOSCALE_DAY_LOAD, AUTOSCALE_NIGHT_LOAD) * 2
    for load in phases:
        for _ in range(AUTOSCALE_PHASE_TICKS):
            tick += 1
            clock.now += AUTOSCALE_TICK_S
            windows = []
            for _ in range(load):
                pid = int(rng.integers(0, AUTOSCALE_PATIENTS))
                index = counters.get(pid, 0)
                counters[pid] = index + 1
                windows.append(
                    PendingWindow(
                        patient_id=pid,
                        start_s=180.0 * index,
                        end_s=180.0 * index + 180.0,
                        n_beats=200,
                        features=X[(pid + index) % X.shape[0]],
                    )
                )
            fleet.enqueue(windows)
            r0 = time.perf_counter()
            decision = controller.step(now=clock.now)
            step_ms = 1e3 * (time.perf_counter() - r0)
            if decision.action != "hold":
                action_log.append(
                    dict(
                        tick=tick,
                        action=decision.action,
                        to_shards=decision.to_shards,
                        moved=decision.moved,
                        reshard_ms=round(step_ms, 3),
                    )
                )
            fleet.drain()
            trajectory.append(fleet.n_shards)
    t_sim = time.perf_counter() - t0
    return trajectory, action_log, t_sim


def test_bench_autoscale_diurnal_cycle(benchmark, experiment_data):
    """Closed-loop autoscaling under a bursty diurnal cycle, end to end.

    Records the shards-over-time trajectory and the migration cost of every
    autonomous action — both into the pytest-benchmark JSON (``extra_info``,
    uploaded per commit in CI) and into the committed
    ``benchmarks/BENCH_autoscale.json`` trajectory file, whose deterministic
    fields change exactly when controller behaviour changes.  The acceptance
    bars pin convergence: the controller grows the fleet through the peak,
    shrinks it through the trough, and never exceeds one min↔max traversal's
    worth of actions per load transition.
    """
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    trajectory, action_log, t_sim = run_once(
        benchmark, _measure_autoscale, detector, features.X
    )

    ticks = len(trajectory)
    total_windows = 2 * AUTOSCALE_PHASE_TICKS * (AUTOSCALE_DAY_LOAD + AUTOSCALE_NIGHT_LOAD)
    moved_total = sum(a["moved"] for a in action_log)
    print()
    print(
        "autoscale diurnal cycle   : %d patients, %d ticks, %d windows"
        % (AUTOSCALE_PATIENTS, ticks, total_windows)
    )
    print(
        "controller actions        : %d (%d up, %d down), %d patients migrated"
        % (
            len(action_log),
            sum(1 for a in action_log if a["action"] == "up"),
            sum(1 for a in action_log if a["action"] == "down"),
            moved_total,
        )
    )
    print(
        "shards over time          : min %d, max %d, final %d"
        % (min(trajectory), max(trajectory), trajectory[-1])
    )
    print("simulated cycle wall time : %8.2f ms" % (1e3 * t_sim))

    # Per-commit record: benchmark JSON (timings included) ...
    benchmark.extra_info["trajectory"] = trajectory
    benchmark.extra_info["actions"] = action_log
    benchmark.extra_info["patients_migrated"] = moved_total
    # ... and the committed trajectory file (deterministic fields only).
    record = dict(
        patients=AUTOSCALE_PATIENTS,
        day_load=AUTOSCALE_DAY_LOAD,
        night_load=AUTOSCALE_NIGHT_LOAD,
        trajectory=trajectory,
        actions=[{k: v for k, v in a.items() if k != "reshard_ms"} for a in action_log],
        patients_migrated=moved_total,
    )
    AUTOSCALE_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    # Convergence acceptance bars.
    span = AUTOSCALE_CONFIG.max_shards - AUTOSCALE_CONFIG.min_shards
    assert max(trajectory) >= 5  # grew through the peak
    assert trajectory[-1] <= 3  # shrank through the final trough
    assert 0 < len(action_log) <= 4 * span  # bounded: no thrash
    for action in action_log:
        assert action["moved"] <= 0.6 * AUTOSCALE_PATIENTS  # cost model held


# ---------------------------------------------------------------------------
# Federation: live cross-node patient migration
# ---------------------------------------------------------------------------

#: Federation workload: live patient migrations between two gateway nodes,
#: each shipping real monitor state (DSP carry-over, partial windows,
#: sequence tracker) over a localhost control socket as HANDOFF/STATE/ACK.
CLUSTER_PATIENTS = 16
CLUSTER_FRAMES_PER_PATIENT = 16
CLUSTER_FRAME_SAMPLES = 1024
CLUSTER_HANDOFFS = 64


async def _run_cluster_handoffs(detector):
    cluster = GatewayCluster(detector, FS, n_nodes=2, queue_depth=32)
    await cluster.start()
    for seq in range(CLUSTER_FRAMES_PER_PATIENT):
        for pid in range(CLUSTER_PATIENTS):
            await cluster.submit(
                encode_chunk(pid, seq, FS, np.zeros(CLUSTER_FRAME_SAMPLES, dtype=np.float32))
            )
    cluster.drain()  # materialise every monitor's live state in its fleet
    t0 = time.perf_counter()
    for i in range(CLUSTER_HANDOFFS):
        pid = i % CLUSTER_PATIENTS
        dest = next(s for s in cluster.live_nodes if s != cluster.node_of(pid))
        await cluster.handoff(pid, dest)
    elapsed = time.perf_counter() - t0
    await cluster.stop()
    return elapsed, cluster.stats()


def _measure_cluster(detector):
    return asyncio.run(_run_cluster_handoffs(detector))


def test_bench_cluster_handoff(benchmark, experiment_data):
    """Cost of a live cross-node migration, quiesce to ownership flip.

    Every handoff pickles the monitor's full state, ships it over a real
    TCP control socket, waits for the destination's ACK and forwards the
    queued backlog — this records that round trip, and checks the
    cluster-wide ledger balanced through all of them.
    """
    features = experiment_data.features
    model = train_svm(features.X, features.y)
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))

    elapsed, stats = run_once(benchmark, _measure_cluster, detector)

    print()
    print(
        "cluster handoff           : %d migrations of %d live patients, 2 nodes"
        % (CLUSTER_HANDOFFS, CLUSTER_PATIENTS)
    )
    print(
        "HANDOFF/STATE/ACK round   : %8.2f ms/handoff  (%.0f handoffs/s)"
        % (1e3 * elapsed / CLUSTER_HANDOFFS, CLUSTER_HANDOFFS / elapsed)
    )

    assert stats.handoffs == CLUSTER_HANDOFFS and stats.handoff_failures == 0
    assert stats.frames_routed == CLUSTER_PATIENTS * CLUSTER_FRAMES_PER_PATIENT
    assert stats.fully_accounted
