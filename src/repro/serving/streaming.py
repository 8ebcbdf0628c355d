"""Single-patient streaming monitor: ECG chunks in, window decisions out.

:class:`StreamingMonitor` chains the incremental R-peak detector and the
incremental windower.  It neither featurises nor classifies:
:meth:`StreamingMonitor.push` returns :class:`PendingWindow` objects that
carry their window's beat arrays, so that a
:class:`~repro.serving.fleet.MonitorFleet` can pool the windows of many
patients and featurise them *where it classifies them*: a drain sends every
queued window through one
:meth:`~repro.features.extractor.FeatureExtractor.extract_batch` call
(:func:`featurise`), then through one batched SVM call per model group.  A
window gets its verdict from a fleet drain, or from an explicit
:func:`classify_windows` call on the windows :meth:`StreamingMonitor.push`
returned, which featurises them the same way.  Featurised windows drop their
beat arrays, and a drain whose classifier raises keeps them queued
featurised, so a retry reads the same features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams, PeakDetectorState, StreamingPeakDetector
from repro.features.extractor import FeatureExtractor
from repro.serving.wire import SequenceTracker
from repro.signals.windows import BeatWindow, StreamingWindower, WindowerState, WindowingParams

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.serving.registry import InferenceBackend

__all__ = [
    "MONITOR_STATE_VERSION",
    "GapStats",
    "MonitorState",
    "PendingWindow",
    "WindowDecision",
    "StreamingMonitor",
    "classify_windows",
    "featurise",
]

#: Version stamp of :class:`MonitorState`; bumped on any incompatible change
#: to the snapshot layout, so a restore can never silently misread a state
#: produced by a different serving build.  Version 2: the ring-buffer
#: windower added ``WindowerState.base_beat_index``.  Version 3: the lossy
#: transport mode added ``MonitorState.n_gaps`` / ``windows_lost`` and
#: ``PeakDetectorState.seed_from``.  Version 4: pending windows carry their
#: beat arrays until a drain featurises them, and ``MonitorState.n_usable``
#: is gone (usability is known only once a window is featurised).  Version
#: 5: ``WindowerState.base_beat_index`` is gone.
MONITOR_STATE_VERSION = 5

#: The serving stack's feature extractor: stateless, so one serves every
#: monitor and every drain.
_EXTRACTOR = FeatureExtractor()


@dataclass(frozen=True)
class GapStats:
    """Aggregated gap accounting of one or more lossy monitors.

    Returned by ``MonitorFleet.gap_stats()`` / ``ShardedFleet.gap_stats()``
    and folded into :class:`~repro.serving.ingest.GatewayStats` when the
    gateway runs in lossy mode.
    """

    #: Sequence gaps detected (each one a ``StreamingMonitor.note_gap``).
    gaps: int = 0
    #: Grid windows abandoned because they would have spanned a gap.
    windows_reset: int = 0

    def __add__(self, other: "GapStats") -> "GapStats":
        return GapStats(
            gaps=self.gaps + other.gaps,
            windows_reset=self.windows_reset + other.windows_reset,
        )


class PendingWindow:
    """A completed analysis window waiting for a classifier verdict.

    A monitor's window carries its :class:`~repro.signals.windows.BeatWindow`
    (``beats``) until it is featurised: by a fleet drain or
    :func:`classify_windows`, through :func:`featurise`, or on first reading
    of :attr:`features`.  Featurising drops the beat arrays.  A window built
    with ``features`` (a replayed or offloaded window, see
    ``MonitorFleet.enqueue``) is featurised from the start, and one built
    with neither is unusable.  Treat instances as immutable values:
    featurising fills in :attr:`features` and changes nothing observable.
    """

    __slots__ = ("patient_id", "start_s", "end_s", "n_beats", "_features", "_beats")

    def __init__(
        self,
        patient_id: int,
        start_s: float,
        end_s: float,
        n_beats: int,
        features: Optional[np.ndarray] = None,
        beats: Optional[BeatWindow] = None,
    ) -> None:
        self.patient_id = patient_id
        self.start_s = start_s
        self.end_s = end_s
        self.n_beats = n_beats
        self._features = features
        self._beats = None if features is not None else beats

    @property
    def features(self) -> Optional[np.ndarray]:
        """The 53-entry feature vector, or ``None`` when the window is
        unusable (too few beats, degenerate EDR segment, non-finite
        feature)."""
        if self._beats is not None:
            featurise((self,))
        return self._features

    @property
    def usable(self) -> bool:
        return self.features is not None

    @property
    def beats(self) -> Optional[BeatWindow]:
        """The window's beat arrays while it waits for :func:`featurise`;
        ``None`` once featurised, or when it never had any to featurise."""
        return self._beats

    def __repr__(self) -> str:
        return "PendingWindow(patient_id=%r, start_s=%r, end_s=%r, n_beats=%r, %s)" % (
            self.patient_id,
            self.start_s,
            self.end_s,
            self.n_beats,
            "awaiting features" if self._beats is not None else "features=%r" % (self._features,),
        )


def featurise(windows: Iterable[PendingWindow]) -> None:
    """Featurise every window that still carries its beat arrays, with one
    :meth:`~repro.features.extractor.FeatureExtractor.extract_batch` call.

    Each window's features are bit for bit the ones
    :meth:`~repro.features.extractor.FeatureExtractor.extract_beats` gives
    it alone, whatever else the batch holds.  Featurised windows drop their
    beat arrays; windows featurised already pass through untouched.
    """
    todo = [(window, beats) for window in windows if (beats := window._beats) is not None]
    if not todo:
        return
    X, kept = _EXTRACTOR.extract_batch(
        [(beats.beat_times_s, beats.rr_s, beats.r_amplitudes_mv) for _, beats in todo]
    )
    for window, _ in todo:
        window._beats = None
    for index, row in zip(kept, X):
        todo[index][0]._features = row


@dataclass(frozen=True)
class WindowDecision:
    """Alarm decision for one analysis window of one patient."""

    patient_id: int
    start_s: float
    end_s: float
    n_beats: int
    usable: bool
    #: Decision-function score (``None`` for unusable windows).
    score: Optional[float]
    #: ``True`` when the window was classified as seizure (+1).
    alarm: bool


def _pending_equal(a: Sequence[PendingWindow], b: Sequence[PendingWindow]) -> bool:
    if len(a) != len(b):
        return False
    for wa, wb in zip(a, b):
        if (
            wa.patient_id != wb.patient_id
            or wa.start_s != wb.start_s
            or wa.end_s != wb.end_s
            or wa.n_beats != wb.n_beats
            or wa.usable != wb.usable
        ):
            return False
        if wa.usable and not np.array_equal(wa.features, wb.features):
            return False
    return True


@dataclass(frozen=True, eq=False)
class MonitorState:
    """Versioned, picklable snapshot of one patient's full serving state.

    This is the unit of live migration: everything that must follow a
    patient when their monitor moves between fleet shards (or hosts) —

    * the :class:`~repro.dsp.peaks.StreamingPeakDetector` carry-over
      (:class:`~repro.dsp.peaks.PeakDetectorState`),
    * the :class:`~repro.signals.windows.StreamingWindower` partial buffers
      (:class:`~repro.signals.windows.WindowerState`),
    * the :class:`~repro.serving.wire.SequenceTracker` position, and
    * the :class:`PendingWindow` queue entries awaiting a classifier verdict,
      with their beat arrays until a drain featurises them (filled in by
      :meth:`~repro.serving.fleet.MonitorFleet.export_patient`; empty on a
      bare :meth:`StreamingMonitor.snapshot`).

    ``detector`` / ``windower`` / ``sequence`` are ``None`` for a patient
    known only through enqueued windows (no live monitor).  The state is a
    plain pickle-friendly value object, so the federated cluster can ship it
    inside a ``STATE`` frame unchanged.
    """

    version: int
    patient_id: int
    fs: float
    detector: Optional[PeakDetectorState]
    windower: Optional[WindowerState]
    sequence: Optional[Tuple[int, int]]
    n_windows: int
    pending: Tuple[PendingWindow, ...] = ()
    #: Lossy-mode gap accounting (both stay 0 on strict transports): gaps the
    #: monitor absorbed via ``note_gap`` and grid windows those resets
    #: abandoned.  Part of the snapshot so a migrated patient's gap history
    #: follows them.
    n_gaps: int = 0
    windows_lost: int = 0

    @property
    def has_monitor(self) -> bool:
        """Whether the state carries live DSP state (vs pending-only)."""
        return self.detector is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonitorState):
            return NotImplemented
        return (
            self.version == other.version
            and self.patient_id == other.patient_id
            and self.fs == other.fs
            and self.detector == other.detector
            and self.windower == other.windower
            and self.sequence == other.sequence
            and self.n_windows == other.n_windows
            and _pending_equal(self.pending, other.pending)
            and self.n_gaps == other.n_gaps
            and self.windows_lost == other.windows_lost
        )


def classify_windows(
    backend: InferenceBackend, pending: Sequence[PendingWindow]
) -> List[WindowDecision]:
    """Featurise and classify a batch of pending windows, one vectorised
    call each.

    Windows still carrying their beat arrays are featurised first, all in
    one :func:`featurise` call.  ``backend`` is an
    :class:`~repro.serving.registry.InferenceBackend`: all usable windows
    are stacked into a single feature matrix and scored by one
    ``scores_and_labels`` call, so on the fixed-point model the labels are
    bit-identical to a per-window loop.  Unusable windows yield
    ``alarm=False`` decisions with no score.  Decisions come back in the
    order of ``pending``.
    """
    featurise(pending)
    usable = [window for window in pending if window._features is not None]
    if usable:
        # One preallocated batch matrix filled row by row (the feature
        # vectors are scattered across PendingWindow objects, so a copy is
        # unavoidable — but np.vstack would build the same copy *plus* a
        # temporary tuple of row views).
        first = np.asarray(usable[0]._features)
        X = np.empty((len(usable), first.shape[0]), dtype=first.dtype)
        for row, window in enumerate(usable):
            X[row] = window._features
        scores, labels = backend.scores_and_labels(X)
    decisions: List[WindowDecision] = []
    row = 0
    for window in pending:
        score: Optional[float] = None
        alarm = False
        usable_window = window._features is not None
        if usable_window:
            score = float(scores[row])
            alarm = bool(labels[row] == 1)
            row += 1
        decisions.append(
            WindowDecision(
                patient_id=window.patient_id,
                start_s=window.start_s,
                end_s=window.end_s,
                n_beats=window.n_beats,
                usable=usable_window,
                score=score,
                alarm=alarm,
            )
        )
    return decisions


class StreamingMonitor:
    """Online monitor for one patient's raw ECG stream.

    Parameters
    ----------
    patient_id:
        Identifier attached to every emitted window.
    fs:
        Sampling frequency of the incoming ECG chunks (Hz).
    windowing:
        Window grid configuration (three-minute non-overlapping by default).
    detector_params:
        Pan–Tompkins tuning of the streaming R-peak detector.
    lossy:
        Datagram-transport mode.  ``seq`` becomes the *absolute sample
        offset* of the chunk's first sample (not a chunk counter): a jump
        ahead of the stream position is read as frame loss and absorbed via
        :meth:`note_gap` instead of raising
        :class:`~repro.serving.wire.OutOfOrderChunkError`; a stale chunk
        still raises :class:`~repro.serving.wire.DuplicateChunkError`.
    """

    #: Not captured by :meth:`snapshot`, and pinned so by the
    #: ``snapshot-completeness`` rule of :mod:`repro.analysis`: ``lossy`` is
    #: transport configuration owned by the fleet (a whole fleet is lossy or
    #: strict, never patient by patient), reapplied by ``from_snapshot``;
    #: ``_hold_limit`` is derived from the windowing and ``fs``.
    _SNAPSHOT_EXCLUDE = ("lossy", "_hold_limit")

    def __init__(
        self,
        patient_id: int,
        fs: float,
        windowing: WindowingParams | None = None,
        detector_params: PanTompkinsParams | None = None,
        lossy: bool = False,
    ) -> None:
        self.patient_id = int(patient_id)
        self.fs = float(fs)
        self.lossy = bool(lossy)
        self._detector = StreamingPeakDetector(self.fs, detector_params)
        self._windower = StreamingWindower(windowing)
        #: Most raw samples :meth:`push` lets the detector keep in memory
        #: while it holds chunks: one window, plus what a pass leaves.
        self._hold_limit = (
            math.ceil(self._windower.params.window_s * self.fs) + self._detector.context_samples
        )
        self._sequence = SequenceTracker()
        self._n_windows = 0
        self._n_gaps = 0
        self._windows_lost = 0

    @property
    def time_seen_s(self) -> float:
        """Stream time corresponding to the last pushed sample."""
        return self._detector.time_seen_s

    @property
    def n_windows(self) -> int:
        """Number of windows emitted so far (usable or not)."""
        return self._n_windows

    @property
    def last_seq(self) -> Optional[int]:
        """Sequence number of the last chunk accepted with an explicit ``seq``."""
        return self._sequence.last_seq

    @property
    def n_gaps(self) -> int:
        """Sequence gaps absorbed so far (always 0 on a strict transport)."""
        return self._n_gaps

    @property
    def windows_reset_by_gap(self) -> int:
        """Grid windows abandoned because they would have spanned a gap."""
        return self._windows_lost

    def snapshot(self) -> MonitorState:
        """Capture the monitor's complete per-patient state.

        The snapshot is a self-contained, picklable :class:`MonitorState`
        (DSP carry-over, partial windows, sequence position, window
        counters) that owns copies of every mutable buffer — the monitor
        keeps streaming without invalidating it.  ``pending`` is empty here:
        completed windows live on the owning fleet's queue and are attached
        by :meth:`MonitorFleet.export_patient
        <repro.serving.fleet.MonitorFleet.export_patient>`.
        """
        return MonitorState(
            version=MONITOR_STATE_VERSION,
            patient_id=self.patient_id,
            fs=self.fs,
            detector=self._detector.snapshot(),
            windower=self._windower.snapshot(),
            sequence=self._sequence.snapshot(),
            n_windows=self._n_windows,
            n_gaps=self._n_gaps,
            windows_lost=self._windows_lost,
        )

    @classmethod
    def from_snapshot(
        cls,
        state: MonitorState,
        lossy: bool = False,
    ) -> "StreamingMonitor":
        """Revive a monitor from a :class:`MonitorState`, mid-stream.

        The revived monitor is behaviourally indistinguishable from the one
        that was snapshotted: for any continuation of the chunk stream it
        emits bit-identical windows and enforces the same next-expected
        sequence number.  Raises :class:`ValueError` on a version mismatch
        or a pending-only state (no DSP state to revive).
        """
        if state.version != MONITOR_STATE_VERSION:
            raise ValueError(
                "monitor state version %d is not the supported version %d"
                % (state.version, MONITOR_STATE_VERSION)
            )
        if state.detector is None or state.windower is None or state.sequence is None:
            raise ValueError(
                "state of patient %d carries no monitor DSP state" % state.patient_id
            )
        monitor = cls(
            state.patient_id,
            state.fs,
            windowing=state.windower.params,
            detector_params=state.detector.params,
            lossy=lossy,
        )
        monitor._detector = StreamingPeakDetector.from_snapshot(state.detector)
        monitor._windower = StreamingWindower.from_snapshot(state.windower)
        monitor._sequence = SequenceTracker.from_snapshot(state.sequence)
        monitor._n_windows = int(state.n_windows)
        monitor._n_gaps = int(state.n_gaps)
        monitor._windows_lost = int(state.windows_lost)
        return monitor

    def push(self, chunk: np.ndarray, seq: int | None = None) -> List[PendingWindow]:
        """Consume one chunk of raw ECG; return newly completed windows.

        When ``seq`` is given, delivery order is policed *before* any sample
        touches the DSP state, but the tracker advances only once the chunk's
        samples are absorbed (commit-on-success): a push that failed before
        absorbing anything can simply be retried with the same ``seq``
        without being misread as a duplicate.

        On a strict transport ``seq`` is a per-patient chunk counter starting
        at 0 (see :mod:`repro.serving.wire`): a repeated sequence number
        raises :class:`~repro.serving.wire.DuplicateChunkError` and a skipped
        or reordered one raises
        :class:`~repro.serving.wire.OutOfOrderChunkError`, leaving the
        monitor's carry-over state untouched.

        In ``lossy`` mode ``seq`` is the absolute sample offset of
        ``chunk[0]``: a stale chunk still raises
        :class:`~repro.serving.wire.DuplicateChunkError`, but a jump ahead is
        frame loss — the gap is absorbed via :meth:`note_gap` (DSP reset, no
        emitted window ever spans the missing samples) and the chunk is then
        processed normally.  Every lossy push must carry a ``seq``; the gap
        arithmetic is what keeps the monitor's clock aligned with the true
        stream, so a lossy push without one raises ``ValueError`` before
        touching any state.

        The detector only *holds* the chunk (see
        :meth:`StreamingPeakDetector.process
        <repro.dsp.peaks.StreamingPeakDetector.process>`: no band-pass,
        energy, walk or windower call) while the stream time after it,
        ``n_samples_seen / fs``, is still below the end of the next window
        (``window_start_s + window_s``).  The first push that reaches that
        end runs one detector pass over everything held, and so does every
        push after it until the window is emitted.  This cannot change a
        window, nor the push that emits it: every beat the detector can emit
        lies before ``n_samples_seen`` and the windower's clock is at most
        the detector's finalised time, so no window can close on a push that
        only holds; and from the first push that does detect, the detector
        has emitted exactly the beats eager passes would have (its
        chunk-size invariance).  Samples a gap drops (:meth:`note_gap`) are
        dropped held or not.  The detector then holds about one window of
        raw samples per patient (184 KB of float32 wire samples at 256 Hz
        with the default 180 s windows); a hold that would take its memory
        past one window plus its pass context (after a gap pushes the next
        window's end far out) runs a pass instead.
        """
        if self.lossy and seq is None:
            raise ValueError("a lossy push must carry seq, the absolute sample offset of chunk[0]")
        chunk = np.asarray(chunk)
        if seq is not None:
            seq = int(seq)
            if self.lossy:
                if self._sequence.check_datagram(seq):
                    self.note_gap(seq)
            else:
                self._sequence.check(seq)
        detector = self._detector
        windower = self._windower
        size = chunk.size
        hold = (
            (detector.n_samples_seen + size) / self.fs
            < windower.window_start_s + windower.params.window_s
            and detector.buffered_samples + size <= self._hold_limit
        )
        indices, times, amplitudes = detector.process(chunk, hold)
        # The absorption point: only now may the tracker move (by the
        # chunk's sample span in datagram mode, by one chunk otherwise).
        if seq is not None:
            self._sequence.validate(seq, span=size if self.lossy else 1)
        if hold:
            return []
        completed = windower.push(times, amplitudes, now_s=detector.finalized_time_s)
        return self._pending(completed)

    def note_gap(self, resume_sample: int) -> int:
        """Absorb a sequence gap: samples up to ``resume_sample`` are lost.

        Declares everything between the stream position and the absolute
        sample index ``resume_sample`` missing, then resets every piece of
        state that could otherwise leak across the gap:

        * the sequence tracker skips forward (:meth:`SequenceTracker.skip_to
          <repro.serving.wire.SequenceTracker.skip_to>`),
        * the peak detector drops its carry-over buffer, unfinalised tail and
          adaptive level and resumes segment-fresh at ``resume_sample``
          (absolute beat indices stay monotone),
        * the windower abandons its partial windows and restarts the window
          grid at the first *original-grid* start past the resume point plus
          the detector's warm-up guard — so the first post-gap window only
          covers samples whose detection no longer depends on the gap, and
          its start lands exactly where a lossless run would have put a
          window.

        Returns the number of grid windows abandoned (also accumulated in
        :attr:`windows_reset_by_gap`).  Raises ``ValueError`` when
        ``resume_sample`` is behind the stream, and ``RuntimeError`` on a
        strict-transport monitor, where seqs do not measure samples.
        """
        if not self.lossy:
            raise RuntimeError(
                "note_gap is only meaningful in lossy mode, where seq numbers"
                " are sample offsets"
            )
        resume = int(resume_sample)
        self._sequence.skip_to(resume)
        self._detector.resume_at(resume)
        target = resume / self.fs + self._detector.warmup_s
        step = self._windower.params.step_s
        # Walk the grid forward by repeated addition — the same accumulation
        # the windower performs on emission — so post-gap window starts are
        # bit-identical to the lossless run's grid.
        new_start = self._windower.window_start_s
        while new_start < target:
            new_start += step
        lost = self._windower.reset(new_start)
        self._n_gaps += 1
        self._windows_lost += lost
        return lost

    def finish(self) -> List[PendingWindow]:
        """Flush the detector and windower at end of stream."""
        indices, times, amplitudes = self._detector.flush()
        completed = self._windower.push(times, amplitudes, now_s=self._detector.time_seen_s)
        completed += self._windower.flush()
        return self._pending(completed)

    # ------------------------------------------------------------- internals
    def _pending(self, windows: List[BeatWindow]) -> List[PendingWindow]:
        """Completed windows as pending windows carrying their beats; one
        with too few beats to featurise is unusable at once."""
        min_beats = self._windower.params.min_beats
        self._n_windows += len(windows)
        return [
            PendingWindow(
                self.patient_id,
                window.start_s,
                window.end_s,
                window.n_beats,
                beats=window if window.n_beats >= min_beats else None,
            )
            for window in windows
        ]
