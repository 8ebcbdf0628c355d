"""ECG-Derived Respiration (EDR) series.

Two of the paper's four feature groups (the AR coefficients, features 16–24,
and the PSD band powers, features 25–53) are computed from the ECG-derived
respiration signal.  Amplitude-based EDR exploits the fact that chest
impedance and heart orientation change with lung volume, modulating the
projection of the R wave on the measurement lead; the sequence of R-wave
amplitudes, resampled onto a uniform grid, is therefore a surrogate of the
respiration waveform.

Two entry points are provided:

* :func:`edr_series_from_amplitudes` — from per-beat R amplitudes (the fast
  path used by the cohort-level feature extractor), and
* :func:`edr_series_from_ecg` — from a raw ECG trace, running the R-peak
  detector first (the full signal path, exercised by the end-to-end tests and
  the ``wearable_monitor`` example).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.dsp.filters import detrend, detrend_rows, moving_average
from repro.dsp.peaks import PanTompkinsParams, detect_r_peaks
from repro.dsp.resample import resample_beats_to_uniform, resample_rows

__all__ = ["EDR_FS", "edr_rows", "edr_series_from_amplitudes", "edr_series_from_ecg"]

#: Uniform sampling rate of the EDR series (Hz).  4 Hz comfortably covers the
#: respiratory band (0.1 – 0.6 Hz).
EDR_FS: float = 4.0


def edr_series_from_amplitudes(
    beat_times_s: np.ndarray,
    r_amplitudes: np.ndarray,
    fs: float = EDR_FS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a uniformly sampled EDR series from per-beat R-wave amplitudes.

    The amplitude sequence is interpolated onto a uniform grid, detrended and
    lightly smoothed (3-sample moving average) to suppress beat-detection
    jitter while preserving the respiratory oscillation.

    Returns
    -------
    (t, edr): uniform time grid and the EDR waveform (zero-mean).
    """
    beat_times_s = np.asarray(beat_times_s, dtype=float)
    r_amplitudes = np.asarray(r_amplitudes, dtype=float)
    if beat_times_s.size < 4:
        raise ValueError("need at least four beats to derive an EDR series")
    t, series = resample_beats_to_uniform(beat_times_s, r_amplitudes, fs=fs)
    series = detrend(series)
    series = moving_average(series, 3)
    return t, series


def edr_rows(
    windows: Sequence[Tuple[np.ndarray, np.ndarray, float]], n: int, fs: float = EDR_FS
) -> np.ndarray:
    """The EDR series of several windows whose grids all hold ``n`` samples,
    as the rows of one matrix, each bit for bit the series
    :func:`edr_series_from_amplitudes` returns.

    ``windows`` holds ``(beat_times_s, r_amplitudes, start)``, with
    ``(start, n)`` from :func:`~repro.dsp.resample.uniform_grid`.  The
    resample and the 3-sample moving average run per row; the detrend runs
    on the whole matrix.
    """
    series = detrend_rows(resample_rows(windows, n, fs))
    for row in series:
        row[:] = moving_average(row, 3)
    return series


def edr_series_from_ecg(
    ecg: np.ndarray,
    fs_ecg: float,
    fs_edr: float = EDR_FS,
    detector_params: PanTompkinsParams | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the EDR series directly from a raw ECG trace.

    Runs the Pan–Tompkins-style detector, reads the ECG value at each detected
    R peak as the beat amplitude and then proceeds as
    :func:`edr_series_from_amplitudes`.

    Returns
    -------
    (t, edr): uniform time grid and the EDR waveform (zero-mean).
    """
    ecg = np.asarray(ecg, dtype=float)
    peak_indices, peak_times = detect_r_peaks(ecg, fs_ecg, detector_params)
    if peak_indices.size < 4:
        raise ValueError("too few R peaks detected to derive an EDR series")
    amplitudes = ecg[peak_indices]
    return edr_series_from_amplitudes(peak_times, amplitudes, fs=fs_edr)
