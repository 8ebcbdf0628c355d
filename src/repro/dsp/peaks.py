"""Pan–Tompkins-style R-peak detection.

The WBSN signal path in Figure 1 of the paper starts from the raw ECG; the
feature extractor needs beat locations (for HRV / Lorenz features) and R-wave
amplitudes (for amplitude-based EDR).  This module provides a compact
Pan–Tompkins-style detector: band-pass filtering, differentiation, squaring,
moving-window integration and adaptive thresholding with a refractory period,
followed by a local refinement of the R-peak position on the filtered signal.

Two entry points are provided:

* :func:`detect_r_peaks` — one-shot detection over a complete trace, and
* :class:`StreamingPeakDetector` — the same pipeline operating on arbitrary
  sample chunks with carry-over state (filter context, adaptive threshold
  level, refractory bookkeeping), the front end of the
  :mod:`repro.serving` streaming engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.dsp.filters import _smooth, apply_fir, bandpass_fir, correlate_fir, moving_average

__all__ = [
    "PanTompkinsParams",
    "PeakDetectorState",
    "detect_r_peaks",
    "StreamingPeakDetector",
]

#: The smallest positive normal float: the walk's floor (see
#: :func:`_walk_and_refine`) is trusted only from here up.
_SMALLEST_NORMAL = sys.float_info.min


#: Shared results of a pass that emits nothing: no beat indices, times or
#: amplitudes.  Read-only, so that no caller can fill one for another.
_NO_INDICES = np.empty(0, dtype=int)
_NO_VALUES = np.empty(0)
_NO_INDICES.flags.writeable = _NO_VALUES.flags.writeable = False
_NO_PEAKS = (_NO_INDICES, _NO_VALUES, _NO_VALUES)


@dataclass
class PanTompkinsParams:
    """Tuning parameters of the R-peak detector."""

    #: Pass band of the QRS enhancement filter (Hz).
    band_low_hz: float = 5.0
    band_high_hz: float = 18.0
    #: Moving-window integration length in seconds (roughly the QRS width).
    integration_window_s: float = 0.150
    #: Refractory period: minimum spacing between detected beats (seconds).
    refractory_s: float = 0.25
    #: Threshold as a fraction of the running signal level.
    threshold_fraction: float = 0.35
    #: Time constant of the running signal-level estimate, in peaks.
    level_memory: float = 8.0
    #: Half-width of the window used to refine the R position (seconds).
    refine_half_window_s: float = 0.10


def _design_qrs_bandpass(
    fs: float, params: PanTompkinsParams, max_taps: int | None = None
) -> np.ndarray:
    """Design the QRS band-pass filter, clamping the band and tap count.

    The nominal 5–18 Hz band violates ``high_hz < fs/2`` for any ``fs <= 36``
    Hz, and the nominal ``numtaps ~ fs`` filter can be longer than a short
    trace; both are clamped here so the detector degrades gracefully instead
    of raising from :func:`repro.dsp.filters.bandpass_fir`.
    """
    nyquist = fs / 2.0
    high = min(params.band_high_hz, 0.9 * nyquist)
    low = min(params.band_low_hz, 0.5 * high)
    numtaps = int(fs // 2) * 2 + 1
    if max_taps is not None:
        # Keep the filter no longer than the available signal (odd length).
        limit = max(max_taps, 3)
        limit = limit if limit % 2 == 1 else limit - 1
        numtaps = min(numtaps, limit)
    numtaps = max(numtaps, 3)
    return bandpass_fir(low, high, fs, numtaps=numtaps)


def _integrated_energy(filtered: np.ndarray, integration_width: int) -> np.ndarray:
    """Differentiate, square and integrate the band-passed signal.

    The derivative is ``np.gradient(filtered)`` written out: central
    differences halved in the interior, one-sided differences at the edges —
    the same operations, without ``np.gradient``'s per-call set-up — then
    squared in place (``d * d`` is ``d**2`` bit for bit).  The integration
    is :func:`~repro.dsp.filters.moving_average`, through its per-width
    plan: a pass of any length reuses the one plan of its width.  A signal
    shorter than the window goes through ``moving_average`` itself.
    """
    if filtered.size < 2:
        np.gradient(filtered)  # ValueError: too few samples
    derivative = np.empty(filtered.size)
    np.subtract(filtered[2:], filtered[:-2], out=derivative[1:-1])
    derivative[1:-1] /= 2.0
    derivative[0] = filtered[1] - filtered[0]
    derivative[-1] = filtered[-1] - filtered[-2]
    derivative *= derivative
    if integration_width < 2 or derivative.size < integration_width:
        return moving_average(derivative, integration_width)
    return _smooth(derivative, integration_width)


def _seed_level(energy: np.ndarray) -> Optional[float]:
    """Initial adaptive level: the 98th percentile of the *finite* energy.

    A NaN or inf sample poisons the filtered energy around it; seeding from
    it would leave the level (and so the threshold) NaN for good.  ``None``
    when no finite energy is left to seed from.
    """
    finite = energy[np.isfinite(energy)]
    return float(np.percentile(finite, 98)) if finite.size else None


def _walk_and_refine(
    energy: np.ndarray,
    filtered: np.ndarray,
    start: int,
    end: int,
    level: float,
    params: PanTompkinsParams,
    refractory: int,
    half_refine: int,
) -> Tuple[np.ndarray, float]:
    """Adaptive-threshold walk over ``energy[start:end]``, then refinement.

    A sample fires when it exceeds ``threshold_fraction * level`` and is a
    local maximum (``>=`` both neighbours); each firing pulls the level
    towards the peak and blocks the next ``refractory`` samples.  Only local
    maxima can fire and the threshold moves only when one does, so walking
    the local maxima alone fires exactly the samples a per-sample scan
    fires.  Non-finite energy never fires: NaN fails every comparison, and an
    infinite peak (an inf sample, or overflow) would drag the level to inf
    and silence the detector for good.

    Most maxima are too small ever to fire, and the walk skips them against
    a floor.  With fraction ``f``, memory ``m > 0`` and
    ``q = 1 - (1 - f)/m``, a fire at value ``v > f·L`` moves the level to
    ``L + (v - L)/m``, which exceeds ``q·L`` by ``(v - f·L)/m > 0``.  Fires
    are at least ``refractory`` samples apart, so the span holds at most
    ``F = (end - start)//refractory + 1`` of them, and from a level
    ``L > 0`` no threshold in the walk drops below ``f·L·q^F`` (``q``
    capped at 1: a larger ``q`` only raises the level).  Maxima at or below
    half of that cannot fire: the factor ½ absorbs the rounding of up to
    ``F`` level updates, each a few ulps.  The floor applies only when it is
    a normal float, where those roundings are relative; otherwise (a level
    that is not positive, a floor that underflows, or parameters with
    ``q ≤ 0``) every maximum is walked.

    Every fired candidate is then moved to the maximum of ``filtered``
    within ``half_refine`` samples (first maximum on ties), all candidates
    in one gather and one ``argmax``.

    Returns the refined positions (in candidate order) and the updated level.
    """
    if start < 1:
        start = 1
    if end > energy.size - 1:
        end = energy.size - 1
    if end <= start:
        return _NO_INDICES, level
    fraction = params.threshold_fraction
    memory = params.level_memory
    threshold = fraction * level
    centre = energy[start:end]
    walked = (centre >= energy[start - 1 : end - 1]) & (centre >= energy[start + 1 : end + 1])
    decay = 1.0 - (1.0 - fraction) / memory if memory > 0 else 0.0
    if decay > 0.0 and level > 0.0:
        fires = (end - start) // refractory + 1
        floor = 0.5 * threshold * (decay if decay < 1.0 else 1.0) ** fires
        if floor >= _SMALLEST_NORMAL:
            walked &= centre > floor
    maxima = walked.nonzero()[0]
    fired = []
    blocked_until = 0
    for i, value in zip(maxima.tolist(), centre[maxima].tolist()):
        if i >= blocked_until and threshold < value < math.inf:
            fired.append(i)
            level += (value - level) / memory
            threshold = fraction * level
            blocked_until = i + refractory
    if not fired:
        return _NO_INDICES, level
    candidates = np.asarray(fired, dtype=int) + start
    offsets = np.arange(-half_refine, half_refine + 1)
    if fired[0] + start >= half_refine and fired[-1] + start + half_refine < filtered.size:
        # Every window lies inside the signal: row k is
        # filtered[c - half : c + half + 1] around candidate c.
        rows = filtered[candidates[:, None] + offsets]
        return candidates - half_refine + rows.argmax(axis=1), level
    # A window crosses an end: read the rows from a copy padded with -inf,
    # so that positions past either end of the signal never win the argmax.
    edge = np.full(half_refine, -np.inf)
    padded = np.concatenate((edge, filtered, edge))
    rows = padded[candidates[:, None] + offsets + half_refine]
    refined = candidates - half_refine + rows.argmax(axis=1)
    # An all -inf window ties with the padding; its first real sample wins,
    # as in a slice.
    return np.maximum(refined, 0), level


def detect_r_peaks(
    ecg: np.ndarray, fs: float, params: PanTompkinsParams | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Detect R peaks in a single-lead ECG trace.

    Parameters
    ----------
    ecg:
        ECG samples (millivolts or any consistent unit).
    fs:
        Sampling frequency in Hz.
    params:
        Detector parameters.

    Returns
    -------
    (peak_indices, peak_times_s):
        Sample indices and times (seconds) of the detected R peaks.
    """
    if params is None:
        params = PanTompkinsParams()
    ecg = np.asarray(ecg, dtype=float)
    if ecg.size < int(fs):
        return np.empty(0, dtype=int), np.empty(0)

    # 1. Band-pass filter to isolate the QRS energy.
    taps = _design_qrs_bandpass(fs, params, max_taps=ecg.size)
    filtered = apply_fir(ecg, taps)

    # 2. Differentiate, square, integrate.
    integrated = _integrated_energy(filtered, int(params.integration_window_s * fs))

    # 3. Adaptive threshold with refractory period; 4. refine each peak to
    # the local maximum of the filtered ECG.
    refractory = max(int(params.refractory_s * fs), 1)
    level = _seed_level(integrated)
    if level is None:
        return np.empty(0, dtype=int), np.empty(0)
    refined, _ = _walk_and_refine(
        integrated,
        filtered,
        1,
        integrated.size - 1,
        level,
        params,
        refractory,
        int(params.refine_half_window_s * fs),
    )
    if not refined.size:
        return np.empty(0, dtype=int), np.empty(0)
    refined_arr = np.unique(refined)

    # Drop refined peaks that collapsed onto each other within the refractory
    # period (keep the larger one).
    keep = [0]
    for idx in range(1, refined_arr.size):
        if refined_arr[idx] - refined_arr[keep[-1]] < refractory:
            if filtered[refined_arr[idx]] > filtered[refined_arr[keep[-1]]]:
                keep[-1] = idx
        else:
            keep.append(idx)
    final = refined_arr[keep]
    return final, final / fs


@dataclass(frozen=True, eq=False)
class PeakDetectorState:
    """Picklable carry-over state of a :class:`StreamingPeakDetector`.

    Everything the detector needs to continue a stream exactly where it left
    off: the raw-sample context buffer, the finalisation frontier, the
    adaptive threshold level and the refractory bookkeeping.  Captured by
    :meth:`StreamingPeakDetector.snapshot` and revived by
    :meth:`StreamingPeakDetector.from_snapshot` — the migration primitive of
    the serving layer's live resharding.
    """

    fs: float
    params: PanTompkinsParams
    buffer: np.ndarray
    buffer_start: int
    n_seen: int
    finalized: int
    level: Optional[float]
    last_peak: int
    #: Absolute sample index the adaptive-level seed window starts at — 0 for
    #: an unbroken stream, the resume point after a :meth:`resume_at` gap
    #: reset (the level re-seeds from the first two seconds *after* the gap).
    seed_from: int = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeakDetectorState):
            return NotImplemented
        return (
            self.fs == other.fs
            and self.params == other.params
            and np.array_equal(self.buffer, other.buffer)
            and self.buffer_start == other.buffer_start
            and self.n_seen == other.n_seen
            and self.finalized == other.finalized
            and self.level == other.level
            and self.last_peak == other.last_peak
            and self.seed_from == other.seed_from
        )


class StreamingPeakDetector:
    """Incremental Pan–Tompkins detection over arbitrary sample chunks.

    The detector keeps a bounded tail of raw samples as carry-over context so
    that filtering, integration and local-maximum refinement near a chunk
    boundary see exactly the same neighbourhood they would in a one-shot run.
    Peaks are only *finalised* once the look-ahead they need (filter group
    delay + integration window + refinement window + refractory period) has
    arrived, which makes the emitted beat sequence independent of how the
    stream is cut into chunks.

    A caller that needs no beats yet can have :meth:`process` *hold* a chunk
    instead (``hold=True``): the chunk is copied and counted as seen, and
    nothing else runs.  The next pass, :meth:`snapshot` or :meth:`flush`
    folds every held chunk into the buffer first, so by chunk-size
    invariance that pass emits exactly the beats a detector that never held
    would have emitted by then.

    Usage::

        detector = StreamingPeakDetector(fs)
        for chunk in chunks:
            indices, times, amplitudes = detector.process(chunk)
        indices, times, amplitudes = detector.flush()   # drain the tail

    Indices and times are absolute (relative to the first pushed sample).
    """

    #: Not part of :class:`PeakDetectorState` (the ``snapshot-completeness``
    #: rule of :mod:`repro.analysis` pins this list against the constructor):
    #: derived, immutable configuration recomputed by ``__init__`` from
    #: ``fs`` + ``params``, and the held chunks, which :meth:`snapshot`
    #: folds into ``buffer``.
    _SNAPSHOT_EXCLUDE = (
        "_held",
        "_n_held",
        "_taps",
        "_reversed_taps",
        "_refractory",
        "_half_refine",
        "_integration",
        "_margin",
        "_context",
        "_lead",
        "_lag",
    )

    def __init__(self, fs: float, params: PanTompkinsParams | None = None) -> None:
        if fs <= 0:
            raise ValueError("fs must be positive")
        self.fs = float(fs)
        self.params = params or PanTompkinsParams()
        self._taps = _design_qrs_bandpass(self.fs, self.params)
        #: The band-pass as :func:`~repro.dsp.filters.correlate_fir` takes it.
        self._reversed_taps = np.ascontiguousarray(self._taps[::-1])
        self._refractory = max(int(self.params.refractory_s * self.fs), 1)
        self._half_refine = int(self.params.refine_half_window_s * self.fs)
        self._integration = max(int(self.params.integration_window_s * self.fs), 1)
        #: Samples held back from the buffer end until their context arrives.
        self._margin = (
            self._taps.size // 2 + self._integration + self._half_refine + self._refractory
        )
        #: Raw-sample context kept to the left of the finalisation frontier.
        self._context = self._margin + self._taps.size
        #: Samples filtered left (``_lead``) and right (``_lag``) of the span
        #: a pass walks, so that every band-passed and energy value the walk
        #: and the refinement read is computed from the same samples, by the
        #: same operations, as over the whole buffer: FIR half-length, plus
        #: the integration reach and derivative neighbours, or the
        #: refinement half-window.
        delay = self._taps.size // 2
        self._lead = delay + max(self._integration // 2 + 2, self._half_refine)
        self._lag = delay + max((self._integration - 1) // 2 + 2, self._half_refine)

        self._buffer = np.empty(0)
        self._buffer_start = 0  # absolute index of buffer[0]
        #: Chunks held since the last fold, in their own dtypes, and their
        #: sample count; they follow ``_buffer`` in the stream.
        self._held: List[np.ndarray] = []
        self._n_held = 0
        self._n_seen = 0  # total samples pushed so far
        self._finalized = 0  # absolute index up to which detection is final
        self._level: float | None = None
        self._last_peak = -10 * self._refractory  # absolute index of last peak
        self._seed_from = 0  # absolute index the level seed window starts at

    @property
    def n_samples_seen(self) -> int:
        """Total number of samples pushed so far."""
        return self._n_seen

    @property
    def time_seen_s(self) -> float:
        """Stream time (seconds) corresponding to the last pushed sample."""
        return self._n_seen / self.fs

    @property
    def buffered_samples(self) -> int:
        """Raw samples in memory: the carry-over buffer plus the held chunks."""
        return self._buffer.size + self._n_held

    @property
    def context_samples(self) -> int:
        """Raw samples a seeded pass leaves in the buffer: the look-back
        context before the finalisation frontier and the held-back margin
        after it."""
        return self._context + self._margin

    @property
    def finalized_time_s(self) -> float:
        """Stream time up to which peak detection is final (no new peaks can
        appear before it)."""
        return self._finalized / self.fs

    def snapshot(self) -> PeakDetectorState:
        """Capture the full carry-over state as a picklable value object.

        The snapshot owns copies of the mutable pieces, so the detector can
        keep streaming (or be discarded) without invalidating it.  Held
        chunks are folded into ``buffer`` first.
        """
        if self._held:
            self._fold()
        return PeakDetectorState(
            fs=self.fs,
            params=replace(self.params),
            buffer=self._buffer.copy(),
            buffer_start=self._buffer_start,
            n_seen=self._n_seen,
            finalized=self._finalized,
            level=self._level,
            last_peak=self._last_peak,
            seed_from=self._seed_from,
        )

    @classmethod
    def from_snapshot(cls, state: PeakDetectorState) -> "StreamingPeakDetector":
        """Revive a detector mid-stream: byte-for-byte the snapshotted state.

        The revived detector emits exactly the peaks the original would have
        emitted for any continuation of the stream — the invariant the
        serving layer's churn parity harness pins.
        """
        detector = cls(state.fs, replace(state.params))
        detector._buffer = np.array(state.buffer, dtype=float, copy=True)
        detector._buffer_start = int(state.buffer_start)
        detector._n_seen = int(state.n_seen)
        detector._finalized = int(state.finalized)
        detector._level = None if state.level is None else float(state.level)
        detector._last_peak = int(state.last_peak)
        detector._seed_from = int(state.seed_from)
        return detector

    def process(
        self, chunk: np.ndarray, hold: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push a chunk of raw ECG samples; return newly finalised peaks.

        With ``hold=True`` the chunk is only held: copied in its own dtype
        (a float32 wire frame stays float32 until the fold widens it to
        float64, which is exact) and counted in :attr:`n_samples_seen`, with
        no band-pass, energy or walk, and nothing is returned.  The held
        samples are folded into the buffer, unchanged, by the next pass,
        :meth:`snapshot` or :meth:`flush`, and a pass over them emits the
        beats eager passes would have emitted by then.  A held chunk never
        aliases the caller's array.

        Returns
        -------
        (indices, times_s, amplitudes):
            Absolute sample indices, times and raw-sample amplitudes of the
            peaks finalised by this chunk (possibly empty).
        """
        if hold:
            held = np.array(chunk).ravel()
            if held.dtype.kind != "f" or held.dtype.itemsize > 8:
                held = held.astype(float)  # raises now on what is no sample
            if held.size:
                self._held.append(held)
                self._n_held += held.size
                self._n_seen += held.size
            return _NO_PEAKS
        chunk = np.asarray(chunk, dtype=float).ravel()
        self._n_seen += chunk.size
        if self._held:
            self._fold(chunk)
        elif chunk.size:
            self._buffer = np.concatenate((self._buffer, chunk))
        return self._detect(final=False)

    def flush(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Finalise the held-back tail at end of stream."""
        if self._held:
            self._fold()
        return self._detect(final=True)

    @property
    def warmup_s(self) -> float:
        """Seconds of post-:meth:`resume_at` signal before detection matches
        an unbroken stream's bit-for-bit.

        After a gap reset the first samples see a zero-padded filter edge
        instead of real left context, and the adaptive level re-seeds from
        the first two seconds of the new segment — so beats finalised inside
        this window may differ from the lossless run's.  Callers placing a
        post-gap window boundary (``StreamingMonitor.note_gap``) must leave
        at least this much guard after the resume point.
        """
        edge = self._taps.size + self._integration + self._half_refine + self._refractory
        return 2.0 + edge / self.fs

    def resume_at(self, abs_sample: int) -> None:
        """Resume the stream at absolute sample ``abs_sample`` after a gap.

        Samples ``[n_samples_seen, abs_sample)`` are declared lost: the
        carry-over buffer (including any unfinalised tail — its look-ahead
        context is gone for good), the adaptive level and the refractory
        bookkeeping are all reset to segment-fresh values, so everything the
        detector emits afterwards depends only on post-gap samples.  Indices
        stay absolute and strictly monotone: every future peak lies at or
        after ``abs_sample``, which is past everything already emitted.
        """
        abs_sample = int(abs_sample)
        if abs_sample < self._n_seen:
            raise ValueError(
                "cannot resume at sample %d: stream has already seen %d"
                % (abs_sample, self._n_seen)
            )
        self._buffer = np.empty(0)
        self._held = []
        self._n_held = 0
        self._buffer_start = abs_sample
        self._n_seen = abs_sample
        self._finalized = abs_sample
        self._level = None
        self._last_peak = abs_sample - 10 * self._refractory
        self._seed_from = abs_sample

    # ------------------------------------------------------------- internals
    def _fold(self, *tail: np.ndarray) -> None:
        """Append every held chunk, then ``tail``, to the buffer, widened to
        float64."""
        self._buffer = np.concatenate((self._buffer, *self._held, *tail))
        self._held = []
        self._n_held = 0

    def _detect(self, final: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        margin = 0 if final else self._margin
        end_abs = self._n_seen - margin
        if end_abs <= self._finalized or self._buffer.size < 2:
            return _NO_PEAKS

        if self._level is None:
            lo, hi = 0, self._buffer.size  # the seed window may lie anywhere
        else:
            # Filter only the span this pass walks plus its context; the
            # retained left context is sized for the next pass, not this one.
            lo = max(self._finalized - self._buffer_start - self._lead, 0)
            hi = min(end_abs - self._buffer_start + self._lag, self._buffer.size)
        filtered = correlate_fir(self._buffer[lo:hi], self._reversed_taps)
        integrated = _integrated_energy(filtered, self._integration)

        if self._level is None and not self._seed(integrated, final):
            self._trim(self._seed_from)
            return _NO_PEAKS

        start_abs = max(self._finalized, self._last_peak + self._refractory, self._seed_from)
        refined, self._level = _walk_and_refine(
            integrated,
            filtered,
            start_abs - self._buffer_start - lo,
            end_abs - self._buffer_start - lo,
            self._level,
            self.params,
            self._refractory,
            self._half_refine,
        )

        self._finalized = end_abs
        # Enforce the refractory period across chunk boundaries and against
        # refinement collapsing two candidates onto one beat.
        emitted = []
        if refined.size:
            last = self._last_peak - self._buffer_start - lo
            for position in refined.tolist():
                if position - last >= self._refractory:
                    emitted.append(position)
                    last = position
            self._last_peak = last + self._buffer_start + lo
        if not emitted:
            self._trim(end_abs)
            return _NO_PEAKS
        # Amplitudes are read from the raw signal, as in the one-shot path.
        local = np.asarray(emitted, dtype=int) + lo
        amplitudes = self._buffer[local]
        indices = local + self._buffer_start
        self._trim(end_abs)
        return indices, indices / self.fs, amplitudes

    def _seed(self, integrated: np.ndarray, final: bool) -> bool:
        """Freeze the initial adaptive level; ``False`` while it cannot be.

        The level is the 98th percentile of the finite energy in exactly the
        two seconds past ``_seed_from`` (the buffer still holds them: it is
        only trimmed to ``_context`` before ``_seed_from``).  It waits for
        those two seconds and the ``_margin`` samples after them to arrive,
        unless the stream is being flushed: the energy of the window's last
        samples reads the samples that follow it, so a seed taken while the
        buffer ended inside that reach would depend on how the stream was
        cut into chunks.  When the two seconds hold no finite energy at all
        (a NaN/inf burst), the seed window moves on by two seconds and
        nothing before it is detected.
        """
        span = max(int(2 * self.fs), 1)
        while final or self._n_seen - self._seed_from >= span + self._margin:
            lo = self._seed_from - self._buffer_start
            self._level = _seed_level(integrated[lo : lo + span])
            if self._level is not None:
                return True
            if lo + span >= integrated.size:
                return False
            self._seed_from += span
        return False

    def _trim(self, frontier: int) -> None:
        """Drop buffered samples more than ``_context`` before ``frontier``."""
        keep_from_abs = max(self._buffer_start, frontier - self._context)
        drop = keep_from_abs - self._buffer_start
        if drop > 0:
            self._buffer = self._buffer[drop:]
            self._buffer_start = keep_from_abs
