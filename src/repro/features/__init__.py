"""Feature extraction: the 53-feature set of the paper.

The baseline detector (Forooghifar et al., DSD 2018 — reference [6] of the
paper) computes 53 features per three-minute ECG window, organised in four
groups; the paper's Figure 3 and the feature-reduction exploration of
Section III operate on exactly this structure:

* **features 1–8**   — heart-rate / HRV statistics (:mod:`repro.features.hrv`),
* **features 9–15**  — Lorenz (Poincaré) plot descriptors (:mod:`repro.features.lorenz`),
* **features 16–24** — auto-regressive model coefficients of the ECG-derived
  respiration series (:mod:`repro.features.ar_features`),
* **features 25–53** — power-spectral-density band powers of the ECG-derived
  respiration series (:mod:`repro.features.psd_features`).

:mod:`repro.features.extractor` assembles the per-window vectors into a
:class:`~repro.features.extractor.FeatureMatrix` with the labels and the
session identifiers needed by the leave-one-session-out evaluation.
"""

from repro.features.catalog import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    N_FEATURES,
    FeatureGroup,
    feature_group_of,
    group_indices,
)
from repro.features.hrv import hrv_features, HRV_FEATURE_NAMES
from repro.features.lorenz import lorenz_features, LORENZ_FEATURE_NAMES
from repro.features.edr import edr_series_from_amplitudes, edr_series_from_ecg
from repro.features.ar_features import ar_features, AR_FEATURE_NAMES, AR_ORDER
from repro.features.psd_features import psd_features, PSD_FEATURE_NAMES, PSD_BANDS
from repro.features.extractor import (
    FeatureExtractionParams,
    FeatureExtractor,
    FeatureMatrix,
    extract_cohort_features,
)

__all__ = [
    "FEATURE_GROUPS",
    "FEATURE_NAMES",
    "N_FEATURES",
    "FeatureGroup",
    "feature_group_of",
    "group_indices",
    "hrv_features",
    "HRV_FEATURE_NAMES",
    "lorenz_features",
    "LORENZ_FEATURE_NAMES",
    "edr_series_from_amplitudes",
    "edr_series_from_ecg",
    "ar_features",
    "AR_FEATURE_NAMES",
    "AR_ORDER",
    "psd_features",
    "PSD_FEATURE_NAMES",
    "PSD_BANDS",
    "FeatureExtractionParams",
    "FeatureExtractor",
    "FeatureMatrix",
    "extract_cohort_features",
]
