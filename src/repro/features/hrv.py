"""Heart-rate-variability features (paper features 1–8).

These are classical time- and frequency-domain HRV statistics computed from
the RR intervals of a single analysis window.  Ictal tachycardia raises the
mean heart rate and lowers the mean RR interval; the accompanying vagal
withdrawal reduces the short-term variability measures (RMSSD, pNN50) and
raises the LF/HF ratio — the discriminative signal exploited by the SVM.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.dsp.moments import mean, sample_std
from repro.dsp.psd import welch_band_powers, welch_band_powers_rows
from repro.dsp.resample import resample_beats_to_uniform, resample_rows, uniform_grid

__all__ = [
    "HRV_FEATURE_NAMES",
    "hrv_features",
    "hrv_time_domain",
    "lf_hf_ratio_rows",
    "tachogram_grid",
]

HRV_FEATURE_NAMES: List[str] = [
    "hrv_mean_rr",
    "hrv_sdnn",
    "hrv_rmssd",
    "hrv_pnn50",
    "hrv_mean_hr",
    "hrv_max_hr",
    "hrv_cv_rr",
    "hrv_lf_hf_ratio",
]

#: Classical HRV frequency bands (Hz).
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)
_LF_HF_EDGES = np.array([LF_BAND, HF_BAND])
_LF_HF_EDGES.setflags(write=False)

#: Resampling rate of the RR tachogram used for the spectral feature.
_TACHOGRAM_FS = 4.0


def hrv_features(rr_s: np.ndarray, beat_times_s: np.ndarray) -> np.ndarray:
    """Compute the eight HRV features of one window.

    Parameters
    ----------
    rr_s:
        RR intervals inside the window, in seconds.
    beat_times_s:
        Beat times inside the window (one more element than ``rr_s`` in the
        usual case; only the first ``len(rr_s)+1`` entries are used for the
        tachogram resampling).

    Returns
    -------
    ndarray of shape (8,)
    """
    rr = np.asarray(rr_s, dtype=float)
    time_domain = hrv_time_domain(rr)
    lf_hf = _lf_hf_ratio(rr, np.asarray(beat_times_s, dtype=float))
    return np.array(time_domain + [lf_hf], dtype=float)


def hrv_time_domain(rr: np.ndarray) -> List[float]:
    """The seven time-domain HRV features (all but the LF/HF ratio) of a
    float64 RR array."""
    if rr.size < 4:
        raise ValueError("need at least four RR intervals for HRV features")

    successive = rr[1:] - rr[:-1]
    successive_sq = successive**2
    nn50 = np.abs(successive) > 0.050
    hr = 60.0 / rr

    mean_rr = mean(rr)
    sdnn = sample_std(rr)
    rmssd = math.sqrt(mean(successive_sq)) if successive_sq.size else 0.0
    # The mean of a boolean vector: its count (exact in float) over n.
    pnn50 = np.count_nonzero(nn50) / nn50.size if nn50.size else 0.0
    mean_hr = mean(hr)
    max_hr = float(np.maximum.reduce(hr))
    cv_rr = sdnn / mean_rr if mean_rr > 0 else 0.0
    return [mean_rr, sdnn, rmssd, pnn50, mean_hr, max_hr, cv_rr]


def _lf_hf_ratio(rr: np.ndarray, beat_times_s: np.ndarray) -> float:
    """LF/HF power ratio of the RR tachogram (Welch estimate)."""
    try:
        _, tachogram = resample_beats_to_uniform(
            _tachogram_times(rr, beat_times_s), rr, fs=_TACHOGRAM_FS
        )
        lf, hf = welch_band_powers(tachogram, _TACHOGRAM_FS, _LF_HF_EDGES).tolist()
    except ValueError:
        return 0.0
    return _capped_ratio(lf, hf)


def _tachogram_times(rr: np.ndarray, beat_times_s: np.ndarray) -> np.ndarray:
    """Attach each RR interval to the beat that terminates it."""
    if beat_times_s.size >= rr.size + 1:
        return beat_times_s[1 : rr.size + 1]
    # The last RR interval ends at a beat past the window that the window
    # does not carry.  Every window closed by a boundary beat has
    # ``rr.size == beat_times_s.size`` and takes this branch, timing the
    # tachogram by the running sum of the RRs; only windows closed by the
    # clock (one RR fewer than beats) take the beat-time branch above.
    return np.cumsum(rr)


def _capped_ratio(lf: float, hf: float) -> float:
    if hf <= 1e-12:
        return 0.0 if lf <= 1e-12 else 50.0
    return float(min(lf / hf, 50.0))


def tachogram_grid(rr: np.ndarray, beat_times_s: np.ndarray) -> Tuple[np.ndarray, float, int]:
    """Sample times, grid start and grid sample count of a window's RR
    tachogram, from float64 arrays; raises ``ValueError`` where the LF/HF
    ratio reads 0.0 because the tachogram cannot be resampled."""
    times = _tachogram_times(rr, beat_times_s)
    start, n = uniform_grid(times, rr, _TACHOGRAM_FS)
    return times, start, n


def lf_hf_ratio_rows(
    windows: Sequence[Tuple[np.ndarray, np.ndarray, float]], n: int
) -> List[float]:
    """The LF/HF ratio of several windows whose tachograms all hold ``n``
    samples, bit for bit as :func:`hrv_features` computes it.

    ``windows`` holds ``(times, rr, start)``, with ``(times, start, n)``
    from :func:`tachogram_grid`.  The tachograms are resampled into the rows
    of one matrix and their Welch band powers computed at once.
    """
    tachograms = resample_rows(windows, n, _TACHOGRAM_FS)
    try:
        powers = welch_band_powers_rows(tachograms, _TACHOGRAM_FS, _LF_HF_EDGES)
    except ValueError:
        return [0.0] * len(windows)
    return [_capped_ratio(lf, hf) for lf, hf in powers.tolist()]
