"""Power-spectral-density features of the EDR series (paper features 25–53).

Twenty-nine features: the power of the ECG-derived respiration series
integrated over 29 contiguous narrow bands spanning 0–1.45 Hz (0.05 Hz wide
each), estimated with the Welch method.  Neighbouring narrow bands of a
smooth physiological spectrum carry largely redundant information — this is
exactly the redundancy visible as the large bright PSD block in the paper's
correlation matrix (Figure 3) and the reason the correlation-driven feature
selection prunes PSD features first.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dsp.psd import welch_band_powers
from repro.features.edr import EDR_FS

__all__ = ["PSD_BANDS", "PSD_FEATURE_NAMES", "psd_features"]

#: Number of PSD band features (paper features 25–53).
_N_BANDS = 29

#: Width of each band in Hz.
_BAND_WIDTH_HZ = 0.05

#: The 29 analysis bands, from 0 Hz up to 1.45 Hz.
PSD_BANDS: List[Tuple[float, float]] = [
    (k * _BAND_WIDTH_HZ, (k + 1) * _BAND_WIDTH_HZ) for k in range(_N_BANDS)
]

PSD_FEATURE_NAMES: List[str] = ["edr_psd_band_%02d" % k for k in range(1, _N_BANDS + 1)]

#: :data:`PSD_BANDS` as a read-only ``(29, 2)`` array, converted once rather
#: than on every window.
_PSD_EDGES = np.asarray(PSD_BANDS, dtype=float)
_PSD_EDGES.setflags(write=False)


def psd_features(edr: np.ndarray, fs: float = EDR_FS) -> np.ndarray:
    """Band powers of the EDR series of one window.

    Parameters
    ----------
    edr:
        Uniformly sampled, zero-mean EDR waveform of the window.
    fs:
        Sampling rate of the EDR series.

    Returns
    -------
    ndarray of shape (29,): power in each band, normalised by the total power
    so the features describe the *shape* of the respiratory spectrum rather
    than the (lead-dependent) absolute amplitude.
    """
    edr = np.asarray(edr, dtype=float)
    if edr.size < 16:
        raise ValueError("EDR segment too short for PSD features")
    powers = welch_band_powers(edr, fs, _PSD_EDGES)
    total = float(np.add.reduce(powers))
    if total <= 1e-18:
        return np.zeros(_N_BANDS)
    return powers / total
