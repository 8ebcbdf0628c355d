"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the corresponding rows/series, so ``pytest benchmarks/ --benchmark-only -s``
doubles as the reproduction report.  The cohort profile is selected with the
``REPRO_PROFILE`` environment variable:

* ``quick`` (default) — small cohort, trimmed sweep axes; minutes end-to-end.
* ``paper`` — the 7-patient / 24-session / 34-seizure structure of the
  clinical dataset and the full sweep axes of the paper.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Tuple

import pytest

from repro.experiments.data import active_profile_name, get_experiment_data


def _is_paper_profile() -> bool:
    return active_profile_name() == "paper"


@pytest.fixture(scope="session")
def experiment_data():
    """Cohort + feature matrix for the selected profile (cached per session)."""
    return get_experiment_data()


@pytest.fixture(scope="session")
def full_axes() -> bool:
    """Whether to use the paper's full sweep axes (paper profile) or trimmed ones."""
    return _is_paper_profile()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are long-running (seconds to minutes); pedantic mode with a
    single round keeps the harness practical while still recording the wall
    time alongside the reproduced rows.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def timed(fn: Callable[[], Any]) -> Callable[[], Tuple[float, Any]]:
    """Wrap ``fn`` so that it returns ``(wall seconds, result)``."""

    def run() -> Tuple[float, Any]:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result

    return run


def interleaved_ratio(
    before: Callable[[], Tuple[float, Any]],
    after: Callable[[], Tuple[float, Any]],
    pairs: int,
) -> Tuple[float, float, float, Any, Any]:
    """Median of the per-pair time ratios ``before / after``.

    ``before`` and ``after`` each return ``(seconds, result)``.  Each pair
    runs the two back to back, alternating which goes first, so a drift in
    host speed lands on both sides of a pair alike, and the median drops the
    pairs a scheduler hiccup spoiled.  (A ratio of two independent best-ofs
    can pair one side's luckiest rep with the other's unluckiest.)

    Returns ``(ratio, t_before, t_after, result_before, result_after)``: the
    median ratio, each side's median time and its last result.
    """
    ratios, t_before, t_after = [], [], []
    for i in range(pairs):
        if i % 2:
            elapsed_after, result_after = after()
            elapsed_before, result_before = before()
        else:
            elapsed_before, result_before = before()
            elapsed_after, result_after = after()
        ratios.append(elapsed_before / elapsed_after)
        t_before.append(elapsed_before)
        t_after.append(elapsed_after)
    return (
        statistics.median(ratios),
        statistics.median(t_before),
        statistics.median(t_after),
        result_before,
        result_after,
    )
