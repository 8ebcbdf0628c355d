"""The benchmark's own tests: toy-size runs with pinned counts.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
from pathlib import Path

import pytest

from perfbench import drive, report, run
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, generate, reference, toy

SEED = 5

#: Per toy workload: frames sent, frames dropped, windows emitted, usable
#: windows, gaps and windows reset by gaps, for seed ``SEED``.
EXPECTED = {
    "replay-64hz-overlap": dict(frames=300, dropped=0, windows=148, usable=148, gaps=0, reset=0),
    "gateway-lossy-128hz": dict(frames=401, dropped=19, windows=41, usable=41, gaps=5, reset=11),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def toy_run(request):
    inputs = generate(toy(WORKLOADS[request.param]), SEED)
    detector, _ = drive.setup(inputs)
    ref = reference(inputs, detector)
    checks = report.Checks(inputs, ref)
    result = drive.run_pass(inputs, detector)
    checks.add(result)
    return inputs, detector, ref, checks, result


def test_toy_counts_are_pinned(toy_run):
    inputs, _, ref, checks, result = toy_run
    decisions = [d for d, _ in result.decisions]
    got = dict(
        frames=len(inputs.frames),
        dropped=sum(len(v) for v in inputs.dropped.values()),
        windows=len(decisions),
        usable=sum(d.usable for d in decisions),
        gaps=result.gap_stats.gaps,
        reset=result.gap_stats.windows_reset,
    )
    assert got == EXPECTED[inputs.workload.name]
    assert checks.correct, checks.problems
    assert checks.mismatched == 0 and checks.frames_failed == 0
    assert len(ref.expected) == len(decisions)


def test_toy_traced_pass_is_bit_identical(toy_run):
    inputs, detector, _, checks, untraced = toy_run
    tracer = Tracer(drive.CLOCK)
    counters = report.LayerCounters(inputs, tracer)
    with tracer:
        traced = drive.run_pass(inputs, detector)
    checks.add(traced)
    checks.same_decisions(untraced, traced)
    counters.check_emission_frames(checks)
    assert checks.correct, checks.problems
    layers = {layer for _, _, layer, *_ in tracer.spans}
    assert {"wire", "fleet", "streaming", "peaks", "windows", "features", "quant"} <= layers
    # The patches are gone once the tracer exits.
    assert not hasattr(drive.MonitorFleet.push, "__wrapped__")


def test_seed_changes_inputs():
    w = toy(WORKLOADS["replay-64hz-overlap"])
    a, b, c = generate(w, 1), generate(w, 1), generate(w, 2)
    assert [f.payload for f in a.frames] == [f.payload for f in b.frames]
    assert [f.payload for f in a.frames] != [f.payload for f in c.frames]


def test_self_time_subtracts_child_coverage():
    ticks = iter(range(100))
    tracer = Tracer(lambda: float(next(ticks)))

    def inner():
        return None

    def outer():
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer._wrap(inner, "peaks", "inner", None)
    tracer._wrap(outer, "fleet", "outer", None)()
    times = tracer.self_times()
    # outer opens at 0, inners span [1, 2] and [3, 4], outer closes at 5.
    assert times[("peaks", "inner")][:2] == [2.0, 2]
    assert times[("fleet", "outer")][:2] == [3.0, 1]


def _declared():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(trace):
    end_to_end, per_layer = _declared()
    result = run.run(toy(WORKLOADS["gateway-lossy-128hz"]), SEED, 0.0, trace)
    assert result["correct"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == (per_layer if trace else end_to_end)
