"""Set-up and the timed passes: wire bytes in, decisions out.

A *pass* replays a workload's whole frame list through a freshly built
serving stack and records, for every decision, when it left a fleet drain.
Closed-loop passes push frames back to back; the open-loop pass sends each
frame at its due time through ``IngestGateway.submit`` on one event loop.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.features.extractor import extract_cohort_features
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    ChunkCountPolicy,
    IngestGateway,
    LatencyPolicy,
    MonitorFleet,
    SequenceError,
    ShardedFleet,
    WireFormatError,
)
from repro.svm.model import train_svm

from perfbench.workloads import Inputs, Workload

CLOCK = time.perf_counter

#: Per-patient gateway queue bound; the open loop runs at about half the
#: sustainable rate, so "block" backpressure never engages in practice and
#: the emitted windows stay a deterministic function of the seed.
QUEUE_DEPTH = 64


@dataclass
class SetupTimes:
    features_s: float
    train_s: float
    quantize_s: float
    build_s: float

    @property
    def total_s(self) -> float:
        return self.features_s + self.train_s + self.quantize_s + self.build_s


def train_detector(inputs: Inputs) -> Tuple[QuantizedSVM, List[float]]:
    """The paper's 9/15-bit detector from the workload's labelled cohort;
    returns it with the features / train / quantise durations."""
    t0 = CLOCK()
    features = extract_cohort_features(inputs.training)
    t1 = CLOCK()
    model = train_svm(features.X, features.y)
    t2 = CLOCK()
    detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
    t3 = CLOCK()
    return detector, [t1 - t0, t2 - t1, t3 - t2]


def build_fleet(w: Workload, detector):
    if w.serving == "sharded":
        return ShardedFleet(
            detector, w.fs, n_shards=2, windowing=w.windowing, backend="thread",
            drain_policy=ChunkCountPolicy(w.drain_every),
        )
    return MonitorFleet(detector, w.fs, windowing=w.windowing, lossy=True)


def build_gateway(w: Workload, fleet) -> IngestGateway:
    return IngestGateway(
        fleet, queue_depth=QUEUE_DEPTH, backpressure="block",
        drain_policy=LatencyPolicy(0.0), lossy=True,
    )


def close(fleet) -> None:
    if isinstance(fleet, ShardedFleet):
        fleet.close()


def setup(inputs: Inputs) -> Tuple[QuantizedSVM, SetupTimes]:
    """One set-up, from process-ready to the first frame accepted.

    Trains and quantises the detector, builds the serving stack and hands it
    the workload's first frame; the stack is then discarded.
    """
    w = inputs.workload
    detector, (features_s, train_s, quantize_s) = train_detector(inputs)
    first = inputs.frames[0].payload
    t0 = CLOCK()
    fleet = build_fleet(w, detector)
    if w.serving == "gateway":

        async def accept_first() -> None:
            gateway = build_gateway(w, fleet)
            await gateway.start()
            await gateway.submit(first)
            nonlocal build_s
            build_s = CLOCK() - t0
            await gateway.abort()

        build_s = 0.0
        asyncio.run(accept_first())
    else:
        fleet.push_wire(first)
        build_s = CLOCK() - t0
    close(fleet)
    return detector, SetupTimes(features_s, train_s, quantize_s, build_s)


@dataclass
class PassResult:
    """One pass: decisions with their drain-exit times, and the timeline."""

    decisions: List[Tuple[object, float]]  # (WindowDecision, time out)
    #: Per sent frame (send order): when it was due (open loop) or submitted.
    due: List[float]
    t_first: float
    t_last: float
    frames_failed: int = 0
    send_lag_s: List[float] = field(default_factory=list)
    #: Open loop: seconds the event loop sat idle waiting for the next due frame.
    idle_s: float = 0.0
    gateway_stats: Optional[object] = None
    gap_stats: Optional[object] = None

    @property
    def wall_s(self) -> float:
        return self.t_last - self.t_first

    @property
    def busy_s(self) -> float:
        """Wall time minus idle time: on the open loop, the time the serving
        stack (and the generator) kept the event loop busy."""
        return self.wall_s - self.idle_s


def closed_pass(inputs: Inputs, detector, n_frames: Optional[int] = None) -> PassResult:
    """Push frames back to back through ``push_wire``; drain by chunk count."""
    w = inputs.workload
    frames = inputs.frames[:n_frames]
    fleet = build_fleet(w, detector)
    out: List[Tuple[object, float]] = []
    due: List[float] = []
    failed = 0
    n = len(frames)
    # Live reshards 2->1 a third of the way in and 1->2 at two thirds.
    reshard_at = {n // 3: 1, (2 * n) // 3: 2} if w.serving == "sharded" else {}
    try:
        t_first = CLOCK()
        for i, frame in enumerate(frames):
            if i in reshard_at:
                fleet.reshard(reshard_at[i])
            due.append(CLOCK())
            try:
                fleet.push_wire(frame.payload)
            except (WireFormatError, SequenceError, KeyError):
                failed += 1
            drained = fleet.maybe_drain()
            if drained:
                t = CLOCK()
                out += [(d, t) for d in drained]
        fleet.finish()
        drained = fleet.drain()
        t_last = CLOCK()
        out += [(d, t_last) for d in drained]
        gaps = fleet.gap_stats()
    finally:
        close(fleet)
    return PassResult(out, due, t_first, t_last, failed, gap_stats=gaps)


class _StampedDecisions(list):
    """``IngestGateway.decisions`` that also records when each batch left a
    fleet drain (the gateway appends every drain's output with ``extend``)."""

    def __init__(self) -> None:
        super().__init__()
        self.stamped: List[Tuple[object, float]] = []

    def extend(self, items) -> None:
        items = list(items)
        t = CLOCK()
        super().extend(items)
        self.stamped += [(d, t) for d in items]


class IdleMeter:
    """Seconds an event loop spends blocked in its selector (idle).

    Wraps the selector of a loop this benchmark created itself; asyncio has
    no public hook for it."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.idle_s = 0.0
        selector = loop._selector  # type: ignore[attr-defined]
        select = selector.select

        def timed_select(timeout=None):
            t0 = CLOCK()
            try:
                return select(timeout)
            finally:
                self.idle_s += CLOCK() - t0

        selector.select = timed_select


async def _open_pass(inputs: Inputs, detector, n_frames: Optional[int],
                     meter: IdleMeter) -> PassResult:
    w = inputs.workload
    frames = inputs.frames[:n_frames]
    fleet = build_fleet(w, detector)
    gateway = build_gateway(w, fleet)
    gateway.decisions = _StampedDecisions()
    await gateway.start()
    lags: List[float] = []
    due: List[float] = []
    idle0 = meter.idle_s
    t0 = CLOCK() - frames[0].due_s  # the schedule starts with the first frame due now
    t_first = CLOCK()
    for frame in frames:
        at = t0 + frame.due_s
        now = CLOCK()
        if now < at:
            await asyncio.sleep(at - now)
            now = CLOCK()
        due.append(at)
        lags.append(now - at)
        try:
            await gateway.submit(frame.payload)
        except WireFormatError:
            pass  # tallied by the gateway as a wire error
    await gateway.stop()
    t_last = CLOCK()
    stats = gateway.stats()
    failed = stats.frames_errored + stats.frames_rejected + stats.wire_errors
    return PassResult(
        gateway.decisions.stamped, due, t_first, t_last, failed, lags,
        idle_s=meter.idle_s - idle0,
        gateway_stats=stats, gap_stats=fleet.gap_stats(),
    )


def open_pass(inputs: Inputs, detector, n_frames: Optional[int] = None) -> PassResult:
    """Send every frame at its due time through ``IngestGateway.submit``."""
    loop = asyncio.new_event_loop()
    try:
        meter = IdleMeter(loop)
        return loop.run_until_complete(_open_pass(inputs, detector, n_frames, meter))
    finally:
        loop.close()


def run_pass(inputs: Inputs, detector, n_frames: Optional[int] = None) -> PassResult:
    """One pass over the first ``n_frames`` frames (all by default)."""
    if inputs.workload.lossy:
        return open_pass(inputs, detector, n_frames)
    return closed_pass(inputs, detector, n_frames)


def frame_positions(inputs: Inputs) -> Dict[Tuple[int, int], int]:
    """(patient, frame index) -> position in the send order."""
    return {(f.patient_id, f.index): i for i, f in enumerate(inputs.frames)}
