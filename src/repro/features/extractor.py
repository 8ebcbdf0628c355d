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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.features.ar_features import ar_features
from repro.features.catalog import FEATURE_NAMES, N_FEATURES
from repro.features.edr import EDR_FS, edr_series_from_amplitudes
from repro.features.hrv import hrv_features
from repro.features.lorenz import lorenz_features
from repro.features.psd_features import psd_features
from repro.signals.dataset import Recording, SyntheticCohort
from repro.signals.windows import BeatWindow, Window, WindowingParams, extract_windows

__all__ = [
    "FeatureExtractionParams",
    "FeatureExtractor",
    "FeatureMatrix",
    "extract_cohort_features",
]


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
        return self.extract_beats(
            window.beats_of(recording),
            window.rr_of(recording),
            window.r_amplitudes_of(recording),
        )

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
        beats = np.asarray(beats, dtype=float)
        rr = np.asarray(rr, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=float)
        if rr.size < 8 or beats.size < 8:
            raise ValueError("window contains too few beats")

        hrv = hrv_features(rr, beats)
        lorenz = lorenz_features(rr)
        _, edr = edr_series_from_amplitudes(beats, amplitudes, fs=self.params.edr_fs)
        ar = ar_features(edr)
        psd = psd_features(edr, fs=self.params.edr_fs)

        vector = np.concatenate((hrv, lorenz, ar, psd))
        if vector.shape[0] != N_FEATURES:
            raise RuntimeError(
                "feature vector has %d entries, expected %d" % (vector.shape[0], N_FEATURES)
            )
        if not np.isfinite(vector).all():
            raise ValueError("non-finite feature value in window")
        return vector

    def extract_batch(
        self, items: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, List[int]]:
        """Feature matrix over a batch of ``(beats, rr, amplitudes)`` windows.

        Unusable windows are skipped; the second return value lists the
        indices (into ``items``) of the rows that were kept, so callers can
        map batched predictions back onto their pending windows.  Rows are
        written straight into one preallocated matrix (no per-row stacking).
        """
        X = np.empty((len(items), N_FEATURES))
        kept: List[int] = []
        for idx, (beats, rr, amplitudes) in enumerate(items):
            try:
                X[len(kept)] = self.extract_beats(beats, rr, amplitudes)
            except ValueError:
                continue
            kept.append(idx)
        return X[: len(kept)], kept

    def extract_recording(
        self, recording: Recording
    ) -> Tuple[np.ndarray, np.ndarray, List[Window]]:
        """Feature matrix, labels and retained windows of one recording."""
        windows = extract_windows(recording, self.params.windowing)
        X = np.empty((len(windows), N_FEATURES))
        labels: List[int] = []
        kept: List[Window] = []
        for window in windows:
            try:
                X[len(kept)] = self.extract_window(recording, window)
            except ValueError:
                continue
            labels.append(window.label)
            kept.append(window)
        return X[: len(kept)], np.asarray(labels, dtype=int), kept


def extract_cohort_features(
    cohort: SyntheticCohort,
    params: Optional[FeatureExtractionParams] = None,
) -> FeatureMatrix:
    """Extract the full labelled feature matrix of a synthetic cohort.

    Returns
    -------
    :class:`FeatureMatrix` whose rows are ordered by (session, window start).
    """
    extractor = FeatureExtractor(params)
    blocks: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    session_ids: List[np.ndarray] = []
    patient_ids: List[np.ndarray] = []
    for recording in cohort.recordings:
        X_rec, y_rec, windows = extractor.extract_recording(recording)
        if X_rec.shape[0] == 0:
            continue
        blocks.append(X_rec)
        labels.append(y_rec)
        session_ids.append(np.full(y_rec.shape[0], recording.session_id, dtype=int))
        patient_ids.append(np.full(y_rec.shape[0], recording.patient_id, dtype=int))
    if not blocks:
        raise ValueError("no usable windows in the cohort")
    return FeatureMatrix(
        X=np.vstack(blocks),
        y=np.concatenate(labels),
        session_ids=np.concatenate(session_ids),
        patient_ids=np.concatenate(patient_ids),
    )
