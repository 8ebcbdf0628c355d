"""Hot-path profiling harness: ``python -m repro.profile``.

Drives the per-patient serving pipeline — streaming windower, feature
extraction, fixed-point classification — over a deterministic synthetic beat
workload, and reports per-stage wall time plus windows/second.
``--cprofile`` additionally prints the top functions by cumulative time,
which is how the hot spots behind the ring-buffer windower, the batched
Welch path and the fused int64 kernel were found in the first place.

The workload is synthesised directly at the beat level (seeded RNG, no ECG
waveform DSP), so the numbers isolate the windower → features → classifier
chain that dominates a drain cycle.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.extractor import FeatureExtractor
from repro.quant.quantized_model import QuantizationConfig, QuantizedSVM
from repro.serving.streaming import PendingWindow, classify_windows
from repro.signals.windows import BeatWindow, StreamingWindower, WindowingParams
from repro.svm.model import train_svm

__all__ = ["ProfileReport", "run_profile", "main"]


class ProfileReport:
    """Per-stage wall-time totals of one profiling run."""

    def __init__(self) -> None:
        self.push_s = 0.0
        self.featurize_s = 0.0
        self.classify_s = 0.0
        self.n_windows = 0
        self.n_usable = 0
        self.n_beats = 0

    @property
    def total_s(self) -> float:
        return self.push_s + self.featurize_s + self.classify_s

    def lines(self) -> List[str]:
        def rate(seconds: float) -> str:
            if seconds <= 0.0 or self.n_windows == 0:
                return "-"
            return "%10.0f win/s" % (self.n_windows / seconds)

        return [
            "windows emitted     : %d (%d usable), %d beats" % (
                self.n_windows,
                self.n_usable,
                self.n_beats,
            ),
            "windower push       : %8.1f ms  %s" % (1e3 * self.push_s, rate(self.push_s)),
            "feature extraction  : %8.1f ms  %s" % (1e3 * self.featurize_s, rate(self.featurize_s)),
            "classification      : %8.1f ms  %s" % (1e3 * self.classify_s, rate(self.classify_s)),
            "end to end          : %8.1f ms  %s" % (1e3 * self.total_s, rate(self.total_s)),
        ]


def _make_detector(rng: np.random.Generator, n_train: int = 160) -> QuantizedSVM:
    """A 9/15-bit fixed-point detector trained on a synthetic feature set."""
    X = rng.normal(size=(n_train, 53)) * rng.uniform(0.05, 20.0, size=53)
    y = np.where(rng.random(n_train) > 0.7, 1, -1)
    y[0], y[1] = 1, -1  # both classes present regardless of the draw
    model = train_svm(X, y)
    return QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))


def _synth_beat_chunks(
    rng: np.random.Generator, duration_s: float, chunk_s: float
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A deterministic beat stream (~72 bpm with jitter), split into chunks."""
    n = int(duration_s / 0.83) + 8
    rr = rng.uniform(0.7, 0.95, size=n)
    times = np.cumsum(rr)
    times = times[times < duration_s]
    amps = 1.0 + 0.2 * rng.standard_normal(times.shape[0])
    chunks: List[Tuple[np.ndarray, np.ndarray]] = []
    edges = np.arange(0.0, duration_s + chunk_s, chunk_s)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (times >= lo) & (times < hi)
        chunks.append((times[mask], amps[mask]))
    return chunks


def run_profile(
    patients: int,
    duration_s: float,
    window_s: float,
    step_fraction: float,
    seed: int,
    clock: Callable[[], float] = time.perf_counter,
) -> ProfileReport:
    """Run the windower → features → classifier chain over a synthetic fleet.

    Every patient gets an independent seeded beat stream, a ring-buffer
    windower on the overlapping grid (``step = step_fraction * window``);
    completed windows are featurised and then classified in one batched
    call per drain cycle, exactly like a fleet drain.
    """
    rng = np.random.default_rng(seed)
    detector = _make_detector(rng)
    windowing = WindowingParams(
        window_s=window_s, step_s=step_fraction * window_s, min_beats=16
    )
    report = ProfileReport()

    streams = [
        _synth_beat_chunks(np.random.default_rng(seed + 1 + p), duration_s, chunk_s=8.0)
        for p in range(patients)
    ]
    windowers = [StreamingWindower(windowing) for _ in range(patients)]
    extractor = FeatureExtractor()

    n_chunks = len(streams[0])
    for chunk_index in range(n_chunks):
        completed: List[Tuple[int, BeatWindow]] = []
        t0 = clock()
        for p in range(patients):
            times, amps = streams[p][chunk_index]
            for window in windowers[p].push(times, amps):
                completed.append((p, window))
        report.push_s += clock() - t0

        if not completed:
            continue
        t0 = clock()
        pending: List[PendingWindow] = []
        for p, window in completed:
            try:
                features: Optional[np.ndarray] = extractor.extract_beat_window(window)
            except ValueError:
                features = None
            pending.append(
                PendingWindow(
                    patient_id=p,
                    start_s=window.start_s,
                    end_s=window.end_s,
                    n_beats=window.n_beats,
                    features=features,
                )
            )
        report.featurize_s += clock() - t0
        report.n_windows += len(pending)
        report.n_usable += sum(1 for w in pending if w.usable)
        report.n_beats += sum(w.n_beats for w in pending)

        t0 = clock()
        classify_windows(detector, pending)
        report.classify_s += clock() - t0

    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Profile the streaming hot path on a synthetic fleet.",
    )
    parser.add_argument("--patients", type=int, default=16, help="fleet size")
    parser.add_argument(
        "--duration", type=float, default=600.0, help="simulated seconds per patient"
    )
    parser.add_argument("--window", type=float, default=60.0, help="window length (s)")
    parser.add_argument(
        "--step-fraction",
        type=float,
        default=0.25,
        help="stride as a fraction of the window (0.25 = 4x overlap)",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--cprofile",
        action="store_true",
        help="additionally print the top functions by cumulative time",
    )
    args = parser.parse_args(argv)

    kwargs = dict(
        patients=args.patients,
        duration_s=args.duration,
        window_s=args.window,
        step_fraction=args.step_fraction,
        seed=args.seed,
    )
    print(
        "profiling %d patients x %.0f s, window %.0f s, step %.2f"
        % (args.patients, args.duration, args.window, args.step_fraction)
    )
    if args.cprofile:
        profiler = cProfile.Profile()
        profiler.enable()
        report = run_profile(**kwargs)
        profiler.disable()
    else:
        profiler = None
        report = run_profile(**kwargs)

    for line in report.lines():
        print(line)
    if profiler is not None:
        print()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
