"""Lorenz-plot (Poincaré) features (paper features 9–15).

The Lorenz plot scatters each RR interval against the next one.  The
short-axis dispersion SD1 captures beat-to-beat (vagal) variability while the
long-axis dispersion SD2 captures longer-term variability; seizures compress
SD1 much more strongly than SD2, which is why Lorenz-plot descriptors —
including the Cardiac Sympathetic Index popularised for seizure detection —
carry strong discriminative power.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.dsp.moments import sample_std

__all__ = ["LORENZ_FEATURE_NAMES", "lorenz_features", "poincare_sd"]

LORENZ_FEATURE_NAMES: List[str] = [
    "lorenz_sd1",
    "lorenz_sd2",
    "lorenz_sd1_sd2_ratio",
    "lorenz_ellipse_area",
    "lorenz_csi",
    "lorenz_cvi",
    "lorenz_modified_csi",
]


def poincare_sd(rr_s: np.ndarray) -> tuple[float, float]:
    """SD1 and SD2 of the Poincaré / Lorenz plot of an RR series.

    SD1 is the dispersion perpendicular to the identity line and SD2 the
    dispersion along it, computed with the classical rotation-by-45° formulas.
    """
    rr = np.asarray(rr_s, dtype=float)
    if rr.size < 3:
        raise ValueError("need at least three RR intervals for a Lorenz plot")
    x = rr[:-1]
    y = rr[1:]
    diff = (y - x) / np.sqrt(2.0)
    summ = (y + x) / np.sqrt(2.0)
    sd1 = sample_std(diff)
    sd2 = sample_std(summ)
    return sd1, sd2


def lorenz_features(rr_s: np.ndarray) -> np.ndarray:
    """Compute the seven Lorenz-plot features of one window.

    Returns
    -------
    ndarray of shape (7,):
        ``[SD1, SD2, SD1/SD2, ellipse area, CSI, CVI, modified CSI]``
        where CSI = SD2/SD1, CVI = log10(16 · SD1 · SD2) and
        modified CSI = SD2² / SD1 (all with SD1/SD2 expressed in
        milliseconds, following the seizure-detection literature).
    """
    sd1_s, sd2_s = poincare_sd(rr_s)
    # Express the axes in milliseconds, as is conventional for CSI / CVI.
    sd1 = sd1_s * 1000.0
    sd2 = sd2_s * 1000.0
    eps = 1e-9
    ratio = sd1 / max(sd2, eps)
    area = float(np.pi * sd1 * sd2)
    csi = sd2 / max(sd1, eps)
    cvi = float(np.log10(max(16.0 * sd1 * sd2, eps)))
    modified_csi = sd2**2 / max(sd1, eps)
    return np.array([sd1, sd2, ratio, area, csi, cvi, modified_csi], dtype=float)
