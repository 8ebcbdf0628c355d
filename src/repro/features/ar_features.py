"""Auto-regressive features of the EDR series (paper features 16–24).

Nine features: the coefficients of an AR(9) model fitted with Burg's method to
the ECG-derived respiration series of the window.  The AR coefficients encode
the dominant respiratory frequency and its stability; ictal tachypnea and
breathing irregularity move the dominant pole and flatten the model, which is
what makes these features informative for seizure detection.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.dsp.ar import ar_burg, ar_burg_rows
from repro.dsp.filters import detrend, detrend_rows

__all__ = ["AR_ORDER", "AR_FEATURE_NAMES", "ar_features", "ar_features_rows"]

#: Order of the AR model; features 16–24 of the paper are nine coefficients.
AR_ORDER: int = 9

AR_FEATURE_NAMES: List[str] = ["edr_ar_coeff_%d" % k for k in range(1, AR_ORDER + 1)]


def ar_features(edr: np.ndarray) -> np.ndarray:
    """AR(9) coefficients of the EDR series of one window.

    Parameters
    ----------
    edr:
        Uniformly sampled, zero-mean EDR waveform of the window.

    Returns
    -------
    ndarray of shape (9,): the Burg prediction coefficients
    (``x[n] = sum a_k x[n-k] + e[n]`` convention).
    """
    edr = np.asarray(edr, dtype=float)
    if edr.size <= AR_ORDER + 1:
        raise ValueError("EDR segment too short for an AR(%d) model" % AR_ORDER)
    coefficients, _ = ar_burg(detrend(edr), AR_ORDER)
    return np.asarray(coefficients, dtype=float)


def ar_features_rows(edr: np.ndarray) -> np.ndarray:
    """:func:`ar_features` of each row of a matrix of equal-length EDR
    series, row for row bit-identical; returns ``(rows, 9)``."""
    edr = np.ascontiguousarray(edr, dtype=float)
    if edr.shape[1] <= AR_ORDER + 1:
        raise ValueError("EDR segment too short for an AR(%d) model" % AR_ORDER)
    return ar_burg_rows(detrend_rows(edr), AR_ORDER)
