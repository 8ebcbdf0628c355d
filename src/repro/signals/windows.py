"""Three-minute analysis windows and their seizure labels.

The paper extracts one 53-dimensional feature vector per three-minute ECG
window; windows overlapping a seizure are labelled ``+1`` and all others
``-1``.  Because seizures are rare, the positive class is heavily
under-represented — exactly the situation in which sensitivity/specificity
and their geometric mean are the appropriate figures of merit.

To give the training folds a workable number of positive examples, windows
around seizures may be generated with a finer stride (``seizure_step_s``)
than background windows (``step_s``); this is a standard practice for rare
event detection and does not change the evaluation protocol (folds are still
split by recording session).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from repro.signals.dataset import Recording
from repro.signals.seizures import Seizure

__all__ = [
    "Window",
    "WindowingParams",
    "WindowerState",
    "extract_windows",
    "window_label",
    "BeatWindow",
    "StreamingWindower",
]


@dataclass
class WindowingParams:
    """Windowing configuration."""

    #: Window length in seconds (the paper uses three-minute windows).
    window_s: float = 180.0
    #: Stride between consecutive background windows.
    step_s: float = 180.0
    #: Stride used inside the neighbourhood of a seizure, to enrich the
    #: positive class.  Set equal to ``step_s`` to disable enrichment.
    seizure_step_s: float = 45.0
    #: Half-width of the neighbourhood around each seizure in which the finer
    #: stride is applied, in seconds.
    seizure_context_s: float = 240.0
    #: Minimum fraction of the window that must be ictal for a positive label.
    min_ictal_fraction: float = 0.05
    #: Windows with fewer beats than this are discarded as unusable.
    min_beats: int = 60


@dataclass(frozen=True)
class Window:
    """A labelled analysis window of one recording."""

    patient_id: int
    session_id: int
    start_s: float
    end_s: float
    label: int
    beat_slice: slice

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def beats_of(self, recording: Recording) -> np.ndarray:
        """Beat times of the recording that fall inside the window."""
        return recording.beat_times_s[self.beat_slice]

    def rr_of(self, recording: Recording) -> np.ndarray:
        """RR intervals whose *starting* beat falls inside the window."""
        start, stop = self.beat_slice.start, self.beat_slice.stop
        stop_rr = min(stop, recording.rr_s.shape[0])
        return recording.rr_s[start:stop_rr]

    def r_amplitudes_of(self, recording: Recording) -> np.ndarray:
        """R-wave amplitudes of the beats inside the window."""
        return recording.r_amplitudes_mv[self.beat_slice]


def window_label(
    start_s: float, end_s: float, seizures: Sequence[Seizure], min_ictal_fraction: float
) -> int:
    """Label of a window: ``+1`` if it overlaps a seizure enough, else ``-1``."""
    for seizure in seizures:
        if seizure.ictal_fraction(start_s, end_s) >= min_ictal_fraction:
            return 1
        # Very short windows fully inside the ictal phase also count.
        if seizure.overlaps(start_s, end_s) and seizure.duration_s >= (end_s - start_s):
            return 1
    return -1


def _candidate_starts(
    duration_s: float, seizures: Sequence[Seizure], params: WindowingParams
) -> np.ndarray:
    """Start times of all candidate windows (background grid + seizure-context grid)."""
    last_start = duration_s - params.window_s
    if last_start < 0:
        return np.empty(0)
    starts = list(np.arange(0.0, last_start + 1e-9, params.step_s))
    if params.seizure_step_s < params.step_s:
        for seizure in seizures:
            lo = max(0.0, seizure.onset_s - params.seizure_context_s - params.window_s)
            hi = min(last_start, seizure.offset_s + params.seizure_context_s)
            if hi >= lo:
                starts.extend(np.arange(lo, hi + 1e-9, params.seizure_step_s))
    starts = np.unique(np.round(np.asarray(starts), 3))
    return starts


@dataclass(frozen=True)
class BeatWindow:
    """A completed streaming analysis window carrying its own beat data.

    Unlike :class:`Window`, which references a full :class:`Recording` by a
    beat slice, a :class:`BeatWindow` is self-contained — exactly what a
    streaming monitor has at hand when a window closes.  ``rr_s`` follows the
    :meth:`Window.rr_of` convention: it contains every RR interval whose
    *starting* beat falls inside the window, so it includes the interval
    spanning the window boundary whenever the first beat after the window has
    already been observed.
    """

    start_s: float
    end_s: float
    beat_times_s: np.ndarray
    rr_s: np.ndarray
    r_amplitudes_mv: np.ndarray

    @property
    def n_beats(self) -> int:
        return int(self.beat_times_s.shape[0])

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, eq=False)
class WindowerState:
    """Picklable state of a :class:`StreamingWindower` mid-stream.

    The buffered beats that have not yet closed a window, the start of the
    next window and the stream clock — everything needed to resume windowing
    with no window lost, duplicated or shifted.  Captured by
    :meth:`StreamingWindower.snapshot`, revived by
    :meth:`StreamingWindower.from_snapshot`.
    """

    params: WindowingParams
    beat_times_s: np.ndarray
    r_amplitudes_mv: np.ndarray
    window_start_s: float
    clock_s: float

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowerState):
            return NotImplemented
        return (
            self.params == other.params
            and np.array_equal(self.beat_times_s, other.beat_times_s)
            and np.array_equal(self.r_amplitudes_mv, other.r_amplitudes_mv)
            and self.window_start_s == other.window_start_s
            and self.clock_s == other.clock_s
        )


class StreamingWindower:
    """Incremental assembly of analysis windows from an incoming beat stream.

    Beats (times + R amplitudes) are pushed as they are detected; completed
    windows are emitted as :class:`BeatWindow` objects.  Consecutive windows
    start ``params.step_s`` apart (the default ``step_s == window_s``
    reproduces the non-overlapping three-minute grid of the monitor).

    A window is emitted once either

    * a beat at or past its end has been observed (so the boundary RR
      interval is available), or
    * the stream clock has advanced ``boundary_grace_s`` past its end (no
      boundary beat is coming soon — e.g. a detector dropout).

    The stream clock is advanced implicitly by pushed beats and explicitly by
    ``now_s`` (:meth:`push`) or :meth:`advance`, which a caller should feed
    with the *finalised* time of its beat detector.

    The buffered beats live in plain linear arrays — times, amplitudes and
    the RR interval starting at each beat but the last — that a push extends
    and a retiring window trims from the front, so each RR interval is
    computed exactly once per beat pair rather than once per overlapping
    window.  The arrays are never written in place (a push concatenates, a
    retirement slices), so an emitted window's arrays are views of them.
    Emitted windows are bit-identical to a one-shot push of the whole beat
    stream (pinned by the hot-path property suite).
    """

    #: Extra stream time to wait for a window-boundary beat before closing a
    #: window on the clock alone.
    boundary_grace_s: float = 2.0

    #: The RR array is derived from the beat times: :meth:`from_snapshot`
    #: recomputes it, bit-identically.
    _SNAPSHOT_EXCLUDE = ("_rr",)

    def __init__(self, params: WindowingParams | None = None) -> None:
        self.params = params or WindowingParams()
        if self.params.step_s <= 0:
            raise ValueError("step_s must be positive")
        self._times = np.empty(0)
        self._amps = np.empty(0)
        #: ``_rr[i] = _times[i+1] - _times[i]``: one entry per buffered beat
        #: pair, computed when beat ``i+1`` arrives and reused by every
        #: window containing it.
        self._rr = np.empty(0)
        self._start = 0.0
        self._clock = 0.0

    @property
    def window_start_s(self) -> float:
        """Start time of the next window to be emitted."""
        return self._start

    @property
    def buffered_beats(self) -> int:
        """Number of beats currently buffered."""
        return int(self._times.shape[0])

    # ------------------------------------------------------- snapshot / reset
    def snapshot(self) -> WindowerState:
        """Capture the partial-window state as a picklable value object."""
        return WindowerState(
            params=replace(self.params),
            beat_times_s=self._times.copy(),
            r_amplitudes_mv=self._amps.copy(),
            window_start_s=self._start,
            clock_s=self._clock,
        )

    @classmethod
    def from_snapshot(cls, state: WindowerState) -> "StreamingWindower":
        """Revive a windower mid-stream, emitting exactly the windows the
        original would have emitted for any continuation of the beat stream."""
        windower = cls(replace(state.params))
        windower._times = times = np.array(state.beat_times_s, dtype=float, copy=True).ravel()
        windower._amps = np.array(state.r_amplitudes_mv, dtype=float, copy=True).ravel()
        windower._rr = times[1:] - times[:-1]
        windower._start = float(state.window_start_s)
        windower._clock = float(state.clock_s)
        return windower

    def reset(self, start_s: float) -> int:
        """Drop every buffered beat and restart the window grid at ``start_s``.

        The recovery primitive for sequence gaps (lossy transport): windows
        spanning the gap are abandoned instead of being emitted with a hole
        in their beat data.

        Returns the number of grid windows abandoned by the restart — the
        window starts in ``[old_start, start_s)`` that now can never be
        emitted (0 when restarting at or before the current window).
        """
        start_s = float(start_s)
        step = self.params.step_s
        abandoned = max(int(math.ceil((start_s - self._start) / step - 1e-9)), 0)
        self._times = self._amps = self._rr = np.empty(0)
        self._start = start_s
        self._clock = max(self._clock, start_s)
        return abandoned

    # ---------------------------------------------------------------- stream
    def push(
        self, beat_times_s: np.ndarray, r_amplitudes: np.ndarray, now_s: float | None = None
    ) -> List[BeatWindow]:
        """Add newly detected beats (sorted, after all previous ones), then
        advance the stream clock to ``now_s`` if given: one call emits what
        a push and an :meth:`advance` would."""
        beat_times_s = np.asarray(beat_times_s, dtype=float).ravel()
        r_amplitudes = np.asarray(r_amplitudes, dtype=float).ravel()
        if beat_times_s.shape != r_amplitudes.shape:
            raise ValueError("beat times and amplitudes must have the same length")
        if beat_times_s.size:
            times = self._times
            if times.size and beat_times_s[0] < times[-1]:
                raise ValueError("beats must be pushed in non-decreasing time order")
            self._times = times = np.concatenate((times, beat_times_s))
            self._amps = np.concatenate((self._amps, r_amplitudes))
            # RR intervals: the seam pair (old last beat -> new first beat)
            # plus the pairs inside the pushed block.  Same subtractions a
            # window-time np.diff would perform, done once per pair.
            fresh = times[self._rr.shape[0] :]
            self._rr = np.concatenate((self._rr, fresh[1:] - fresh[:-1]))
            last = float(beat_times_s[-1])
            if last > self._clock:
                self._clock = last
        if now_s is not None and now_s > self._clock:
            self._clock = float(now_s)
        return self._emit(final=False)

    def advance(self, now_s: float) -> List[BeatWindow]:
        """Advance the stream clock without new beats (detector finalised time)."""
        self._clock = max(self._clock, float(now_s))
        return self._emit(final=False)

    def flush(self) -> List[BeatWindow]:
        """Emit every fully elapsed window; the trailing partial one is dropped."""
        return self._emit(final=True)

    def _emit(self, final: bool) -> List[BeatWindow]:
        out: List[BeatWindow] = []
        while True:
            end = self._start + self.params.window_s
            times = self._times
            has_boundary_beat = times.size > 0 and times[-1] >= end
            closed_by_clock = self._clock >= (end if final else end + self.boundary_grace_s)
            if not (has_boundary_beat or closed_by_clock):
                break
            first = int(times.searchsorted(self._start))
            last = int(times.searchsorted(end))
            # ``_rr`` stops one short of the beats: a window without its
            # boundary beat gets one RR interval fewer than beats.
            out.append(
                BeatWindow(
                    start_s=float(self._start),
                    end_s=float(end),
                    beat_times_s=times[first:last],
                    rr_s=self._rr[first:last],
                    r_amplitudes_mv=self._amps[first:last],
                )
            )
            self._start += self.params.step_s
            keep = int(times.searchsorted(self._start))
            if keep:
                self._times = times[keep:]
                self._amps = self._amps[keep:]
                self._rr = self._rr[keep:]
        return out


def extract_windows(recording: Recording, params: WindowingParams | None = None) -> List[Window]:
    """Slice a recording into labelled analysis windows.

    Parameters
    ----------
    recording:
        The recording session to window.
    params:
        Windowing configuration; the defaults reproduce the paper's
        three-minute windows with positive-class enrichment around seizures.

    Returns
    -------
    list of :class:`Window`, ordered by start time.
    """
    if params is None:
        params = WindowingParams()
    starts = _candidate_starts(recording.duration_s, recording.seizures, params)
    beat_times = recording.beat_times_s

    windows: List[Window] = []
    for start in starts:
        end = start + params.window_s
        first = int(np.searchsorted(beat_times, start, side="left"))
        last = int(np.searchsorted(beat_times, end, side="right"))
        if last - first < params.min_beats:
            continue
        label = window_label(start, end, recording.seizures, params.min_ictal_fraction)
        windows.append(
            Window(
                patient_id=recording.patient_id,
                session_id=recording.session_id,
                start_s=float(start),
                end_s=float(end),
                label=label,
                beat_slice=slice(first, last),
            )
        )
    return windows
