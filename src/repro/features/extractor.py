"""Assembly of per-window feature vectors into a labelled feature matrix.

This is the interface between the signal substrate and the learning / design
exploration layers: given a synthetic cohort, the extractor produces

* ``X`` — an ``(n_windows, 53)`` feature matrix,
* ``y`` — window labels in ``{-1, +1}``,
* ``session_ids`` / ``patient_ids`` — the grouping keys used by the
  leave-one-session-out cross-validation (24 folds in the paper).

Feature vectors whose window is too short or whose EDR segment degenerates are
dropped rather than imputed, mirroring how unusable clinical windows are
discarded by quality checks.

Two entry points share the per-window checks and the 1-D feature functions.
:meth:`FeatureExtractor.extract_beats` featurises one window; the streaming
monitor calls it on every window it emits.
:meth:`FeatureExtractor.extract_batch` featurises many windows at once, and
:func:`extract_cohort_features` sends a whole training cohort through it:
the checks, the HRV time-domain and Lorenz moments and the resample grids
run per window, then the windows are grouped by the length of their EDR
series and of their RR tachogram, and each group runs the EDR detrend, Burg
and the two Welch estimates as row kernels
(:func:`~repro.dsp.filters.detrend_rows`, :func:`~repro.dsp.ar.ar_burg_rows`,
:func:`~repro.dsp.psd.welch_band_powers_rows`), at most ``_CHUNK_ROWS`` rows
per call.  The 180 s training windows' series come in a handful of lengths,
so that replaces ~180 sets of per-window kernel calls with a few dozen.  One
window at a time the per-window chain is the faster one: routing
:meth:`~FeatureExtractor.extract_beats` through a one-window batch costs a
serving window ~25% more CPU time, and one-row wrappers of the row kernels
~13%, so serving keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.resample import uniform_grid
from repro.features.ar_features import ar_features, ar_features_rows
from repro.features.catalog import FEATURE_GROUPS, FEATURE_NAMES, N_FEATURES, FeatureGroup
from repro.features.edr import EDR_FS, edr_rows, edr_series_from_amplitudes
from repro.features.hrv import hrv_features, hrv_time_domain, lf_hf_ratio_rows, tachogram_grid
from repro.features.lorenz import lorenz_features
from repro.features.psd_features import psd_features, psd_features_rows
from repro.signals.dataset import Recording, SyntheticCohort
from repro.signals.windows import BeatWindow, Window, WindowingParams, extract_windows

__all__ = [
    "FeatureExtractionParams",
    "FeatureExtractor",
    "FeatureMatrix",
    "extract_cohort_features",
]


#: Rows per row-kernel call in :meth:`FeatureExtractor.extract_batch`.  The
#: length groups are drawn from the whole batch, but each runs in chunks of
#: at most this many rows, so the transient matrices stay bounded however
#: large the batch is: for 180 s training windows (720-sample series, four
#: Welch segments) every temporary stays under 128 KiB, glibc's default
#: mmap threshold, and the peak of all of them under 0.6 MB.  Measured on
#: perfbench's training cohort after 16 set-ups, the process's peak RSS
#: matched the per-window extractor's at 12 rows; 16 rows raised it by
#: ~0.15 MB and 32 rows by ~0.6 MB, with no measurable difference in time.
_CHUNK_ROWS = 12


def _columns(group: FeatureGroup) -> slice:
    first, last = FEATURE_GROUPS[group]
    return slice(first, last + 1)


#: The LF/HF ratio is the last HRV column; the seven before it are the
#: time-domain features.
_LF_HF = FEATURE_GROUPS[FeatureGroup.HRV][1]
_HRV_TIME = slice(FEATURE_GROUPS[FeatureGroup.HRV][0], _LF_HF)
_LORENZ = _columns(FeatureGroup.LORENZ)
_AR = _columns(FeatureGroup.AR)
_PSD = _columns(FeatureGroup.PSD)


@dataclass
class FeatureExtractionParams:
    """Configuration of the per-window feature extraction."""

    #: Sampling rate of the EDR series used for the AR and PSD features.
    edr_fs: float = EDR_FS
    #: Windowing configuration used when slicing recordings.
    windowing: WindowingParams = field(default_factory=WindowingParams)


@dataclass
class FeatureMatrix:
    """A labelled, session-annotated feature matrix."""

    X: np.ndarray
    y: np.ndarray
    session_ids: np.ndarray
    patient_ids: np.ndarray
    feature_names: List[str] = field(default_factory=lambda: list(FEATURE_NAMES))

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        self.session_ids = np.asarray(self.session_ids, dtype=int)
        self.patient_ids = np.asarray(self.patient_ids, dtype=int)
        if self.X.ndim != 2:
            raise ValueError("X must be two-dimensional")
        n = self.X.shape[0]
        if not (self.y.shape[0] == self.session_ids.shape[0] == self.patient_ids.shape[0] == n):
            raise ValueError("X, y, session_ids and patient_ids must have matching lengths")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match the number of columns of X")

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.y == -1))

    @property
    def sessions(self) -> np.ndarray:
        """Sorted unique session identifiers (one fold per session)."""
        return np.unique(self.session_ids)

    def select_features(self, indices: Sequence[int]) -> "FeatureMatrix":
        """Return a copy restricted to the given feature columns (in order)."""
        indices = list(indices)
        return FeatureMatrix(
            X=self.X[:, indices].copy(),
            y=self.y.copy(),
            session_ids=self.session_ids.copy(),
            patient_ids=self.patient_ids.copy(),
            feature_names=[self.feature_names[i] for i in indices],
        )

    def split_session(self, session_id: int) -> Tuple["FeatureMatrix", "FeatureMatrix"]:
        """Split into (train, test) where the test set is one held-out session."""
        test_mask = self.session_ids == session_id
        if not np.any(test_mask):
            raise KeyError("unknown session id %r" % session_id)
        train_mask = ~test_mask

        def _subset(mask: np.ndarray) -> "FeatureMatrix":
            return FeatureMatrix(
                X=self.X[mask].copy(),
                y=self.y[mask].copy(),
                session_ids=self.session_ids[mask].copy(),
                patient_ids=self.patient_ids[mask].copy(),
                feature_names=list(self.feature_names),
            )

        return _subset(train_mask), _subset(test_mask)


class FeatureExtractor:
    """Computes the 53-feature vector of individual analysis windows."""

    def __init__(self, params: Optional[FeatureExtractionParams] = None) -> None:
        self.params = params or FeatureExtractionParams()

    def extract_window(self, recording: Recording, window: Window) -> np.ndarray:
        """Feature vector of one window; raises ``ValueError`` if unusable."""
        return self.extract_beats(*_window_arrays(recording, window))

    def extract_beat_window(self, window: BeatWindow) -> np.ndarray:
        """Feature vector of a streaming window."""
        return self.extract_beats(window.beat_times_s, window.rr_s, window.r_amplitudes_mv)

    def extract_beats(
        self, beats: np.ndarray, rr: np.ndarray, amplitudes: np.ndarray
    ) -> np.ndarray:
        """Feature vector from raw per-window beat arrays.

        This is the self-contained core of :meth:`extract_window`; the
        streaming engine calls it directly on the
        :class:`~repro.signals.windows.BeatWindow` payloads it assembles,
        without a full :class:`~repro.signals.dataset.Recording` in hand.
        Raises ``ValueError`` if the window is unusable.
        """
        beats, rr, amplitudes = _beat_arrays(beats, rr, amplitudes)
        fs = self.params.edr_fs
        _, edr = edr_series_from_amplitudes(beats, amplitudes, fs=fs)
        vector = np.concatenate(
            (hrv_features(rr, beats), lorenz_features(rr), ar_features(edr), psd_features(edr, fs))
        )
        if not np.isfinite(vector).all():
            raise ValueError("non-finite feature value in window")
        return vector

    def extract_batch(
        self, items: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, List[int]]:
        """Feature matrix over a batch of ``(beats, rr, amplitudes)`` windows.

        Unusable windows are skipped; the second return value lists the
        indices (into ``items``) of the rows that were kept, in order, so
        callers can map the rows back onto their windows.  A window's row
        and verdict do not depend on the other windows of the batch.

        Per window: the beat-count and resample checks, the HRV time-domain
        and Lorenz features, and the grids of the EDR series and the RR
        tachogram.  Then per group of windows whose EDR series (or
        tachograms) have equal length, drawn from the whole batch and run
        ``_CHUNK_ROWS`` rows at a time: the resamples and moving averages
        (still one call per window, as ``np.interp`` and ``np.convolve``
        have no row-batched form with the same bits), then the detrends,
        Burg's recursion and the Welch band powers as row kernels.  A window
        is dropped when it has too few beats, beat times that cannot be
        resampled, an EDR series too short for AR or PSD features, or a
        non-finite feature; one whose tachogram cannot be resampled, or is
        shorter than 8 samples, gets an LF/HF ratio of 0.0.  These are the
        verdicts :meth:`extract_beats` reaches window by window.
        """
        fs = self.params.edr_fs
        X = np.empty((len(items), N_FEATURES))
        usable = np.zeros(len(items), dtype=bool)
        windows = []
        # Series length -> [(window index, grid start)].
        edr_groups: Dict[int, List[Tuple[int, float]]] = {}
        tachogram_groups: Dict[int, List[Tuple[int, float]]] = {}
        for idx, item in enumerate(items):
            try:
                beats, rr, amplitudes = _beat_arrays(*item)
                edr_start, edr_n = uniform_grid(beats, amplitudes, fs)
            except ValueError:
                windows.append(None)
                continue
            windows.append((beats, rr, amplitudes))
            X[idx, _HRV_TIME] = hrv_time_domain(rr)
            X[idx, _LORENZ] = lorenz_features(rr)
            try:
                tachogram_start, tachogram_n = tachogram_grid(rr, beats)
            except ValueError:
                X[idx, _LF_HF] = 0.0
            else:
                tachogram_groups.setdefault(tachogram_n, []).append((idx, tachogram_start))
            edr_groups.setdefault(edr_n, []).append((idx, edr_start))
            usable[idx] = True

        for n, chunk in _chunks(edr_groups):
            rows = [idx for idx, _ in chunk]
            edr = edr_rows([(windows[i][0], windows[i][2], start) for i, start in chunk], n, fs)
            try:
                X[rows, _AR] = ar_features_rows(edr)
                X[rows, _PSD] = psd_features_rows(edr, fs)
            except ValueError:
                usable[rows] = False
        for n, chunk in _chunks(tachogram_groups):
            X[[idx for idx, _ in chunk], _LF_HF] = lf_hf_ratio_rows(
                [(windows[i][1], windows[i][0], start) for i, start in chunk], n
            )

        usable &= np.isfinite(X).all(axis=1)
        kept = np.flatnonzero(usable).tolist()
        return X[kept], kept

    def extract_recording(
        self, recording: Recording
    ) -> Tuple[np.ndarray, np.ndarray, List[Window]]:
        """Feature matrix, labels and retained windows of one recording."""
        windows = extract_windows(recording, self.params.windowing)
        X, kept = self.extract_batch([_window_arrays(recording, w) for w in windows])
        retained = [windows[i] for i in kept]
        return X, np.asarray([w.label for w in retained], dtype=int), retained


def _beat_arrays(
    beats: np.ndarray, rr: np.ndarray, amplitudes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's beat arrays as float64; ``ValueError`` if it has too few
    beats to featurise."""
    beats = np.asarray(beats, dtype=float)
    rr = np.asarray(rr, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if rr.size < 8 or beats.size < 8:
        raise ValueError("window contains too few beats")
    return beats, rr, amplitudes


def _window_arrays(
    recording: Recording, window: Window
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return window.beats_of(recording), window.rr_of(recording), window.r_amplitudes_of(recording)


def _chunks(
    groups: Dict[int, List[Tuple[int, float]]],
) -> List[Tuple[int, List[Tuple[int, float]]]]:
    """Each length group cut into consecutive runs of at most ``_CHUNK_ROWS``."""
    return [
        (n, members[lo : lo + _CHUNK_ROWS])
        for n, members in groups.items()
        for lo in range(0, len(members), _CHUNK_ROWS)
    ]


def extract_cohort_features(
    cohort: SyntheticCohort,
    params: Optional[FeatureExtractionParams] = None,
) -> FeatureMatrix:
    """Extract the full labelled feature matrix of a synthetic cohort.

    Every window of every recording goes through one
    :meth:`FeatureExtractor.extract_batch` call, so windows of equal series
    length share row-kernel calls across recordings; the rows are bit for
    bit those of featurising each window with
    :meth:`FeatureExtractor.extract_beats`.

    Returns
    -------
    :class:`FeatureMatrix` whose rows are ordered by (session, window start).
    """
    extractor = FeatureExtractor(params)
    items = []
    labels: List[int] = []
    session_ids: List[int] = []
    patient_ids: List[int] = []
    for recording in cohort.recordings:
        for window in extract_windows(recording, extractor.params.windowing):
            items.append(_window_arrays(recording, window))
            labels.append(window.label)
            session_ids.append(recording.session_id)
            patient_ids.append(recording.patient_id)
    X, kept = extractor.extract_batch(items)
    if not kept:
        raise ValueError("no usable windows in the cohort")
    return FeatureMatrix(
        X=X,
        y=np.asarray(labels, dtype=int)[kept],
        session_ids=np.asarray(session_ids, dtype=int)[kept],
        patient_ids=np.asarray(patient_ids, dtype=int)[kept],
    )
