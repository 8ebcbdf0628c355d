"""Correctness checks and metric computation for the benchmark's passes."""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.drive import PassResult, frame_positions
from perfbench.tracing import LAYER_CALLS, Tracer
from perfbench.workloads import Inputs, Reference

Metrics = Dict[str, Tuple[float, str]]

#: The traced layers.  Their self times, the event loop's idle time and the
#: residual (untraced work) add up to the traced wall time.
LAYERS = sorted({layer for _, _, layer, _ in LAYER_CALLS})


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile (at most the 99th) with at least ten samples
    beyond it, as ``(quantile, value)``."""
    q = min(0.99, 1.0 - 10.0 / len(values)) if len(values) > 10 else 0.5
    return q, float(np.quantile(values, q))


@dataclass
class PassFigures:
    """What the metrics need from one checked pass.  A run keeps these, not
    whole passes, so its peak RSS does not grow with the number of passes."""

    wall_s: float
    busy_s: float
    idle_s: float
    decisions: int
    latencies_s: List[float]
    send_lag_s: List[float]
    gap_stats: object
    gateway_stats: Optional[object]


class Checks:
    """Checks every pass's decisions against the offline reference."""

    def __init__(self, inputs: Inputs, ref: Reference) -> None:
        self.inputs = inputs
        self.ref = ref
        self.positions = frame_positions(inputs)
        self.frames_attempted = 0
        self.frames_failed = 0
        self.mismatched = 0
        self.problems: List[str] = []

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def add(self, result: PassResult) -> PassFigures:
        """Check one pass and reduce it to its figures."""
        self.frames_attempted += len(result.due)
        self.frames_failed += result.frames_failed
        seen = set()
        for decision, _ in result.decisions:
            key = (decision.patient_id, decision.start_s)
            twin = self.ref.lossless.get(key)
            if twin is None or twin.decision != decision or key in seen:
                self.mismatched += 1
            seen.add(key)
            for a, b in self.inputs.lost_intervals(decision.patient_id):
                if decision.start_s < b and decision.end_s > a:
                    self.problem(
                        "window %r spans dropped samples [%g, %g)" % (key, a, b)
                    )
        if seen != set(self.ref.expected):
            self.problem(
                "emitted %d windows, the reference expects %d (%d differ)"
                % (len(seen), len(self.ref.expected), len(seen ^ set(self.ref.expected)))
            )
        gaps = result.gap_stats
        if (gaps.gaps, gaps.windows_reset) != (self.ref.gaps, self.ref.windows_reset):
            self.problem(
                "gaps/reset windows %d/%d, the reference expects %d/%d"
                % (gaps.gaps, gaps.windows_reset, self.ref.gaps, self.ref.windows_reset)
            )
        return PassFigures(
            result.wall_s, result.busy_s, result.idle_s, len(result.decisions),
            self.latencies_s(result), result.send_lag_s, gaps, result.gateway_stats,
        )

    def same_decisions(self, a: PassResult, b: PassResult) -> None:
        """Traced and untraced passes must emit bit-identical decisions."""

        def canonical(result: PassResult):
            return sorted((d for d, _ in result.decisions),
                          key=lambda d: (d.start_s, d.patient_id))

        if canonical(a) != canonical(b):
            self.problem("traced decisions differ from the untraced run's")

    @property
    def correct(self) -> bool:
        return not self.problems and self.mismatched == 0 and self.frames_failed == 0

    @property
    def notes(self) -> List[str]:
        return ["check failed: " + p for p in self.problems]

    def latencies_s(self, result: PassResult) -> List[float]:
        """Per decision: from the due time of the frame whose push made the
        window pending to the decision leaving a fleet drain.  Windows the
        end-of-stream flush emits have no such frame and are left out."""
        out = []
        for decision, t_out in result.decisions:
            origin = self.ref.expected.get((decision.patient_id, decision.start_s))
            if origin is None or origin.frame_index is None:
                continue
            position = self.positions[(decision.patient_id, origin.frame_index)]
            out.append(t_out - result.due[position])
        return out


def latency_metrics(results: List[PassFigures]) -> Tuple[Metrics, str]:
    """Per-pass decision-latency percentiles, each a median over passes (one
    pass slowed by the host does not set the run's figure), and a note on
    the tail: which percentile it is, over how many samples per pass."""
    latencies = [r.latencies_s for r in results]
    tails = [tail(x) for x in latencies]

    def ms(values) -> float:
        return 1e3 * statistics.median(values)

    metrics = {
        "decision_latency_p50_ms": (ms(float(np.median(x)) for x in latencies), "ms"),
        "decision_latency_p90_ms": (ms(float(np.quantile(x, 0.9)) for x in latencies), "ms"),
        "decision_latency_p99_ms": (ms(v for _, v in tails), "ms"),
    }
    note = (
        "decision latency: %d samples per pass over %d passes; the p99 metric is"
        " each pass's p%.3g, median across passes"
        % (min(len(x) for x in latencies), len(results), 100 * min(q for q, _ in tails))
    )
    return metrics, note


def end_to_end(checks: Checks, results: List[PassFigures], setups) -> Tuple[Metrics, str]:
    """The untraced passes' end-to-end metrics (medians over passes).

    Throughput is per busy second (wall time minus the open loop's idle
    time), so on the paced open loop it is the stack's capacity, not the
    offered rate."""
    inputs = checks.inputs
    latency, note = latency_metrics(results)
    return {
        "setup_s": (statistics.median(s.total_s for s in setups), "s"),
        "realtime_factor": (
            statistics.median(inputs.patient_seconds / r.busy_s for r in results),
            "patient-s/s",
        ),
        "windows_per_s": (
            statistics.median(r.decisions / r.busy_s for r in results), "1/s"
        ),
        "decision_latency_p50_ms": latency["decision_latency_p50_ms"],
    }, note


def check_metrics(checks: Checks, results: List[PassFigures]) -> Metrics:
    """The untraced passes' latency tail and generator lag, and the
    zero-by-design checks."""
    lags = [x for r in results for x in r.send_lag_s]
    latency, _ = latency_metrics(results)
    return {
        "decision_latency_p90_ms": latency["decision_latency_p90_ms"],
        "decision_latency_p99_ms": latency["decision_latency_p99_ms"],
        "send_lag_p99_ms": (1e3 * tail(lags)[1] if lags else 0.0, "ms"),
        "decisions_mismatched": (float(checks.mismatched), "count"),
        "frames_failed_frac": (
            checks.frames_failed / max(1, checks.frames_attempted), "fraction"
        ),
    }


class LayerCounters:
    """Counts gathered at the traced calls, beside the tracer's span times."""

    def __init__(self, inputs: Inputs, tracer: Tracer) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.beats = 0
        self.queued_at: Dict[Tuple[int, int], float] = {}
        self.queue_wait_s: List[float] = []
        self.emitted_by: Dict[Tuple[int, float], int] = {}
        self.routed: Dict[int, int] = defaultdict(int)
        self.batches: List[int] = []
        tracer.observe("peaks", "process", self._on_process)
        tracer.observe("wire", "decode_chunk", self._on_decode)
        tracer.observe("fleet", "push", self._on_fleet_push)
        tracer.observe("fleet", "maybe_drain", self._on_fleet_drain)
        tracer.observe("fleet", "drain", self._on_fleet_drain)
        tracer.observe("streaming", "push", self._on_monitor_push)
        tracer.observe("sharding", "push", self._on_route)

    def _on_process(self, args, kwargs, result, t0, t1) -> None:
        self.beats += len(result[0])

    def _on_decode(self, args, kwargs, chunk, t0, t1) -> None:
        # The gateway decodes inside submit() and queues the chunk at once.
        self.queued_at[(chunk.patient_id, chunk.seq)] = t1

    def _on_fleet_push(self, args, kwargs, result, t0, t1) -> None:
        queued = self.queued_at.pop((args[1], kwargs.get("seq")), None)
        if queued is not None:
            self.queue_wait_s.append(t0 - queued)

    def _on_fleet_drain(self, args, kwargs, result, t0, t1) -> None:
        if result:
            self.batches.append(len(result))

    def _on_monitor_push(self, args, kwargs, result, t0, t1) -> None:
        monitor = args[0]
        seq = kwargs.get("seq", args[2] if len(args) > 2 else None)
        w = self.inputs.workload
        index = seq // w.frame_samples if w.lossy else seq
        for window in result:
            self.emitted_by[(monitor.patient_id, window.start_s)] = index

    def _on_route(self, args, kwargs, result, t0, t1) -> None:
        fleet = args[0]
        if fleet.n_shards > 1:
            self.routed[fleet.shard_of(args[1])] += 1

    def check_emission_frames(self, checks: Checks) -> None:
        """The latency metric's frame attribution, checked against the run:
        each window must be emitted by the push of the frame the offline
        reference says emits it."""
        for key, index in self.emitted_by.items():
            origin = checks.ref.expected.get(key)
            if origin is not None and origin.frame_index != index:
                checks.problem(
                    "window %r was emitted by frame %d, the reference says %r"
                    % (key, index, origin.frame_index)
                )

    def metrics(self, traced: List[PassFigures], untraced: List[PassFigures],
                setups) -> Metrics:
        st = self.tracer.self_times()
        n = len(traced)
        wall = sum(r.wall_s for r in traced)

        def total(field: int, layer: str, *names: str) -> float:
            """Sum one self_times() field over a layer's calls (all by default)."""
            return sum(v[field] for (lay, call), v in st.items()
                       if lay == layer and (not names or call in names))

        def self_s(layer: str, *names: str) -> float:
            return total(0, layer, *names)

        def calls(layer: str) -> float:
            return total(1, layer)

        def counted(layer: str, *names: str) -> float:
            return total(2, layer, *names)

        def failed(layer: str) -> float:
            return total(3, layer)

        def per_pass(x: float) -> float:
            return x / n

        def share(layer: str) -> Tuple[float, str]:
            return (self_s(layer) / wall, "fraction")

        def ratio(a: float, b: float, scale: float = 1.0) -> float:
            return scale * a / b if b else 0.0

        m: Metrics = {}
        peaks_s = self_s("peaks")
        m["peaks.process_s"] = (per_pass(peaks_s), "s")
        m["peaks.samples"] = (per_pass(counted("peaks")), "count")
        m["peaks.ns_per_sample"] = (ratio(peaks_s, counted("peaks"), 1e9), "ns")
        m["peaks.beats"] = (per_pass(self.beats), "count")
        m["peaks.share"] = share("peaks")

        features_s = self_s("features")
        windows = calls("features")
        m["features.extract_s"] = (per_pass(features_s), "s")
        m["features.windows"] = (per_pass(windows), "count")
        m["features.us_per_window"] = (ratio(features_s, windows, 1e6), "us")
        m["features.usable_frac"] = (ratio(windows - failed("features"), windows), "fraction")
        m["features.share"] = share("features")

        m["windows.push_s"] = (per_pass(self_s("windows")), "s")
        m["windows.emitted"] = (per_pass(counted("windows")), "count")
        m["windows.share"] = share("windows")

        quant_s = self_s("quant")
        m["quant.classify_s"] = (per_pass(quant_s), "s")
        m["quant.windows"] = (per_pass(counted("quant")), "count")
        m["quant.us_per_window"] = (ratio(quant_s, counted("quant"), 1e6), "us")
        m["quant.share"] = share("quant")

        m["wire.decode_s"] = (per_pass(self_s("wire")), "s")
        m["wire.frames"] = (per_pass(calls("wire")), "count")
        m["wire.bytes"] = (per_pass(counted("wire")), "bytes")
        m["wire.errors"] = (per_pass(failed("wire")), "count")
        m["wire.share"] = share("wire")

        routed = list(self.routed.values())
        m["sharding.route_s"] = (per_pass(self_s("sharding", "push")), "s")
        m["sharding.drain_s"] = (per_pass(self_s("sharding", "maybe_drain", "drain")), "s")
        m["sharding.reshard_s"] = (per_pass(self_s("sharding", "reshard")), "s")
        m["sharding.patients_moved"] = (per_pass(counted("sharding", "reshard")), "count")
        m["sharding.shard_skew"] = (
            ratio(max(routed), statistics.mean(routed)) if routed else 0.0, "ratio"
        )
        m["sharding.share"] = share("sharding")

        m["fleet.push_self_s"] = (per_pass(self_s("fleet", "push")), "s")
        m["fleet.drain_s"] = (per_pass(self_s("fleet", "maybe_drain", "drain")), "s")
        m["fleet.drains"] = (per_pass(len(self.batches)), "count")
        m["fleet.batch_windows_mean"] = (
            statistics.mean(self.batches) if self.batches else 0.0, "count"
        )
        m["fleet.share"] = share("fleet")

        m["streaming.push_self_s"] = (per_pass(self_s("streaming", "push")), "s")
        m["streaming.note_gap_s"] = (per_pass(self_s("streaming", "note_gap")), "s")
        m["streaming.gaps"] = (per_pass(sum(r.gap_stats.gaps for r in traced)), "count")
        m["streaming.windows_reset"] = (
            per_pass(sum(r.gap_stats.windows_reset for r in traced)), "count"
        )
        m["streaming.share"] = share("streaming")

        gateway = [r.gateway_stats for r in traced if r.gateway_stats is not None]
        waits = self.queue_wait_s
        m["ingest.submit_s"] = (per_pass(self_s("ingest")), "s")
        m["ingest.queue_wait_p50_ms"] = (1e3 * float(np.median(waits)) if waits else 0.0, "ms")
        m["ingest.queue_wait_p99_ms"] = (1e3 * tail(waits)[1] if waits else 0.0, "ms")
        m["ingest.max_queue_depth"] = (
            float(max((g.max_queue_depth for g in gateway), default=0)), "count"
        )
        m["ingest.frames_gap_dropped"] = (
            per_pass(sum(g.frames_gap_dropped for g in gateway)), "count"
        )
        m["ingest.drains"] = (per_pass(sum(g.drains for g in gateway)), "count")
        m["ingest.share"] = share("ingest")

        m["setup.features_s"] = (statistics.median(s.features_s for s in setups), "s")
        m["setup.train_s"] = (statistics.median(s.train_s for s in setups), "s")
        m["setup.quantize_s"] = (statistics.median(s.quantize_s for s in setups), "s")
        m["setup.build_s"] = (statistics.median(s.build_s for s in setups), "s")

        idle = sum(r.idle_s for r in traced) / wall
        layered = sum(self_s(layer) for layer in LAYERS) / wall
        m["trace.spans"] = (per_pass(len(self.tracer.spans)), "count")
        m["trace.overhead_frac"] = (
            statistics.median(r.busy_s for r in traced)
            / statistics.median(r.busy_s for r in untraced) - 1.0,
            "fraction",
        )
        m["trace.idle_share"] = (idle, "fraction")
        m["trace.residual_share"] = (1.0 - layered - idle, "fraction")
        return m
