"""End-to-end, layer-by-layer benchmark of the raw-ECG -> decision chain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-64hz-overlap --seed 1 --seconds 10 --trace 0

One run makes the workload's inputs from ``--seed``, times the set-up
(train + quantise the 9/15-bit detector, build the serving stack, accept the
first frame), warms up, then replays the pre-encoded frames through the
serving stack in passes for ``--seconds`` seconds, timing more set-ups
between the untraced passes.  Every
decision is checked bit for bit against the offline reference.  The last
line of standard output is one JSON object: ``--trace 0`` reports the
end-to-end metrics of untraced passes, ``--trace 1`` the per-layer metrics of
a traced run (plus the untraced passes it is compared against).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
from pathlib import Path

# One BLAS thread per serving thread, set before NumPy loads: OpenBLAS's
# workers spin on the other core, so with the sharded fleet's two pool
# threads they would oversubscribe a 2-core host and make set-up and pass
# times depend on whatever else that core is doing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not __package__:  # run as a script: import from the checkout
    ROOT = Path(__file__).resolve().parent.parent
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perfbench: no src/repro beside %s; run it from a repository checkout" % ROOT)
    # The package under test and this benchmark, from the checkout; this
    # directory itself comes off the path (its module names are not top-level).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import drive, report  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Workload, is_cached, load_inputs, reference,
)

#: Set-ups per run; ``setup_s`` is their median.  They are spread evenly
#: over the untraced passes: host stalls come in bursts of seconds, which a
#: block of back-to-back set-ups can fall into whole.
SETUP_REPS = 15
#: Share of the frames replayed once, untimed, before the first timed pass.
WARMUP_SHARE = 0.25


def _passes(inputs, detector, budget_s: float, checks: report.Checks, like=None,
            setups=None):
    """Full passes while another one fits in ``budget_s`` (at least one),
    each checked as it ends (and compared with the pass ``like``, if given).
    With a ``setups`` list, set-ups are appended to it between passes, in
    step with the elapsed share of the budget, until it holds SETUP_REPS.
    Returns every pass's figures and the last pass whole."""
    figures = []
    t0 = drive.CLOCK()
    while True:
        result = drive.run_pass(inputs, detector)
        figures.append(checks.add(result))
        if like is not None:
            checks.same_decisions(like, result)
        elapsed = drive.CLOCK() - t0
        done = elapsed * (len(figures) + 1) / len(figures) > budget_s
        if setups is not None:
            due = SETUP_REPS if done else int(SETUP_REPS * elapsed / budget_s)
            while len(setups) < due:
                setups.append(drive.setup(inputs)[1])
        if done:
            return figures, result


def _prepare(w: Workload, seed: int) -> None:
    """Fill the input and reference caches for ``seed``."""
    inputs = load_inputs(w, seed)
    reference(inputs, drive.setup(inputs)[0])


def run(w: Workload, seed: int, seconds: float, trace: bool, trace_out=None) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    if not is_cached(w, seed):
        # Generate in a child, so the measured process always starts by
        # loading both caches and its peak RSS does not depend on them.
        child = multiprocessing.get_context("fork").Process(target=_prepare, args=(w, seed))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError("perfbench: making the inputs failed (exit %s)" % child.exitcode)
    inputs = load_inputs(w, seed)
    detector, first = drive.setup(inputs)
    setup_times = [first]
    ref = reference(inputs, detector)
    gc.collect()

    drive.run_pass(inputs, detector, n_frames=max(1, int(len(inputs.frames) * WARMUP_SHARE)))
    # The traced run splits the time between untraced passes (the overhead
    # baseline) and traced ones.
    checks = report.Checks(inputs, ref)
    untraced, last = _passes(
        inputs, detector, seconds / 2 if trace else seconds, checks, setups=setup_times
    )

    metrics = {}
    notes = []
    if trace:
        tracer = Tracer(drive.CLOCK)
        layer = report.LayerCounters(inputs, tracer)
        with tracer:
            traced, _ = _passes(inputs, detector, seconds / 2, checks, like=last)
        layer.check_emission_frames(checks)
        if trace_out is not None:
            tracer.write(trace_out)
        metrics.update(layer.metrics(traced, untraced, setup_times))
        metrics.update(report.check_metrics(checks, untraced))
    else:
        e2e, note = report.end_to_end(checks, untraced, setup_times)
        metrics.update(e2e)
        notes.append(note)
        notes.append("pass walls (s): " + " ".join("%.3f" % r.wall_s for r in untraced))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
    return {
        "correct": checks.correct,
        "attempted": checks.frames_attempted,
        "failed": checks.frames_failed + checks.mismatched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes + checks.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)

    result = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.trace_out
    )
    for line in result.pop("notes"):
        print(line)
    for name, metric in result["metrics"].items():
        print("%-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
