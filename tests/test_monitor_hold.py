"""The monitor's hold schedule: R-peaks detected once per window step.

``StreamingMonitor.push`` lets its detector only *hold* a chunk while no
window can close, and runs one detector pass over everything held on the
push that reaches the next window's end.  These tests pin that this changes
nothing a caller can see: against :class:`tests.oracles.EagerMonitor`, which
runs a pass and a windower push on every chunk, the holding monitor returns
the same windows, with the same beat arrays, on the same push — across
chunk sizes from one sample to more than a window step, 64–256 Hz, both
windowings, lossy gaps, snapshot/restore (while chunks are held too) and
``finish`` — while its memory stays within one window of raw samples, its
pass context and one chunk, and no write to a pushed chunk reaches it.
"""

from __future__ import annotations

import math
import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.streaming import StreamingMonitor
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams
from tests import oracles

#: Overlapping short windows, and the paper's default three-minute grid.
WINDOWINGS = {
    "overlap": WindowingParams(window_s=20.0, step_s=5.0, min_beats=10),
    "default": WindowingParams(),
}
#: Trace length per windowing: a few windows, then a tail for ``finish``.
DURATION_S = {"overlap": 75.0, "default": 400.0}


@lru_cache(maxsize=None)
def _trace(fs: float, duration_s: float) -> np.ndarray:
    params = ECGWaveformParams(fs=fs)
    cohort = generate_cohort(
        CohortParams(
            n_patients=1,
            n_sessions=1,
            session_duration_s=1000.0,
            total_seizures=0,
            seed=int(fs),
            ecg_params=params,
        )
    )
    recording = cohort.recordings[0]
    ecg = synthesize_ecg(
        recording.beat_times_s,
        duration_s,
        recording.respiration,
        np.random.default_rng(int(fs)),
        params=params,
    )
    return ecg.ecg_mv.astype(np.float32)


def _summary(windows):
    """Everything a window shows a caller, beat arrays included."""
    out = []
    for window in windows:
        beats = window.beats
        arrays = (
            None
            if beats is None
            else tuple(
                np.asarray(a).tobytes()
                for a in (beats.beat_times_s, beats.rr_s, beats.r_amplitudes_mv)
            )
        )
        out.append((window.patient_id, window.start_s, window.end_s, window.n_beats, arrays))
    return out


def _restored(monitor: StreamingMonitor) -> StreamingMonitor:
    state = pickle.loads(pickle.dumps(monitor.snapshot()))
    return StreamingMonitor.from_snapshot(state, lossy=monitor.lossy)


def _hold_bound(monitor: StreamingMonitor, chunk_size: int) -> int:
    detector = monitor._detector
    window_s = monitor._windower.params.window_s
    return math.ceil(window_s * monitor.fs) + detector.context_samples + chunk_size


def _run(fs, windowing, sizes, drops, snapshots, dtype, scribble):
    """Feed one trace, cut by ``sizes`` (cycled), to a holding and an eager
    monitor, skipping the pushes in ``drops`` and restoring the holding one
    from its snapshot before those in ``snapshots``; return both monitors'
    outputs, push by push, then at ``finish``."""
    trace = _trace(fs, DURATION_S[windowing]).astype(dtype)
    params = WINDOWINGS[windowing]
    monitor = StreamingMonitor(0, fs, windowing=params, lossy=True)
    eager = oracles.EagerMonitor(0, fs, windowing=params, lossy=True)
    got, want = [], []
    lo, k = 0, 0
    while lo < trace.size:
        size = sizes[k % len(sizes)]
        chunk = trace[lo : lo + size]
        if k not in drops or k == 0:
            if k in snapshots:
                monitor = _restored(monitor)
            mine = chunk.copy()
            got.append(_summary(monitor.push(mine, seq=lo)))
            want.append(_summary(eager.push(chunk.copy(), seq=lo)))
            if scribble:
                mine[...] = np.nan
            assert monitor._detector.buffered_samples <= _hold_bound(monitor, mine.size)
        lo += size
        k += 1
    got.append(_summary(monitor.finish()))
    want.append(_summary(eager.finish()))
    return got, want


@st.composite
def schedules(draw):
    fs = draw(st.sampled_from([64.0, 128.0, 256.0]))
    windowing = draw(st.sampled_from(sorted(WINDOWINGS)))
    step = int(WINDOWINGS[windowing].step_s * fs)
    small = st.integers(1, 16)
    large = st.integers(1, int(1.5 * step))
    sizes = draw(st.lists(st.one_of(small, large), min_size=1, max_size=5))
    # One chunk of a second or more per cycle keeps the push count small.
    sizes.append(draw(st.integers(int(fs), int(1.5 * step))))
    drops = set(draw(st.lists(st.integers(1, 200), max_size=6)))
    snapshots = set(draw(st.lists(st.integers(0, 200), max_size=6)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return fs, windowing, sizes, drops, snapshots, dtype


@given(schedule=schedules(), scribble=st.booleans())
@settings(max_examples=60, deadline=None)
def test_holding_monitor_matches_the_eager_schedule(schedule, scribble):
    """Same windows, same beat arrays, on the same push, then at
    ``finish``; memory within one window, the pass context and one chunk;
    scribbling over a pushed chunk changes nothing."""
    got, want = _run(*schedule, scribble=scribble)
    assert len(got) == len(want)
    for index, (mine, theirs) in enumerate(zip(got, want)):
        assert mine == theirs, "push %d" % index
    drops = schedule[2]
    if not drops:
        # A gap may push every window start past the trace's end.
        assert sum(len(windows) for windows in want) >= 2


@pytest.mark.parametrize("windowing", sorted(WINDOWINGS))
def test_restore_while_chunks_are_held(windowing):
    """A snapshot taken with chunks held folds them into the detector's
    buffer; the revived monitor emits what the eager schedule emits."""
    fs = 128.0
    trace = _trace(fs, DURATION_S[windowing])
    frame = int(4 * fs)
    monitor = StreamingMonitor(0, fs, windowing=WINDOWINGS[windowing])
    eager = oracles.EagerMonitor(0, fs, windowing=WINDOWINGS[windowing])
    held_at_snapshot = 0
    for index, lo in enumerate(range(0, trace.size, frame)):
        chunk = trace[lo : lo + frame]
        if index % 3 == 2:
            held_at_snapshot = max(held_at_snapshot, monitor._detector._n_held)
            monitor = _restored(monitor)
        assert _summary(monitor.push(chunk)) == _summary(eager.push(chunk))
    assert held_at_snapshot > 0
    assert _summary(monitor.finish()) == _summary(eager.finish())


def test_a_push_that_holds_runs_no_pass_and_no_windower_call():
    """Until the stream reaches the next window's end, a push only holds:
    the detector's finalised time stands still and the windower sees no
    push; the push that reaches it detects everything held."""
    fs = 64.0
    params = WINDOWINGS["overlap"]
    trace = _trace(fs, DURATION_S["overlap"])
    monitor = StreamingMonitor(0, fs, windowing=params)
    frame = int(2 * fs)
    pushes = 0
    for lo in range(0, int(params.window_s * fs) - frame, frame):
        assert monitor.push(trace[lo : lo + frame]) == []
        pushes += 1
    assert pushes >= 9
    assert monitor._detector.finalized_time_s == 0.0
    assert monitor._windower.buffered_beats == 0
    assert monitor._detector._n_held == monitor._detector.n_samples_seen
    monitor.push(trace[int(params.window_s * fs) - frame : int(params.window_s * fs)])
    assert monitor._detector._n_held == 0
    assert monitor._windower.buffered_beats > 10


def test_held_chunks_keep_their_dtype_and_own_their_memory():
    """A float32 wire frame is held as float32, in a copy: the caller may
    reuse its buffer at once."""
    fs = 64.0
    monitor = StreamingMonitor(0, fs)
    frame = np.ones(int(4 * fs), dtype=np.float32)
    monitor.push(frame)
    (held,) = monitor._detector._held
    assert held.dtype == np.float32
    assert not np.shares_memory(held, frame)


def test_a_gap_bounds_the_held_samples():
    """After a gap the next window ends up to a step plus the detector's
    warm-up beyond one window away; the detector still holds at most one
    window of raw samples, its pass context and one chunk."""
    fs = 128.0
    params = WindowingParams()
    trace = _trace(fs, DURATION_S["default"])
    monitor = StreamingMonitor(0, fs, windowing=params, lossy=True)
    eager = oracles.EagerMonitor(0, fs, windowing=params, lossy=True)
    frame = int(4 * fs)
    for index, lo in enumerate(range(0, trace.size, frame)):
        if index in (3, 4):
            continue
        chunk = trace[lo : lo + frame]
        assert _summary(monitor.push(chunk, seq=lo)) == _summary(eager.push(chunk, seq=lo))
        assert monitor._detector.buffered_samples <= _hold_bound(monitor, frame)
    assert monitor.n_gaps == 1
    assert _summary(monitor.finish()) == _summary(eager.finish())
