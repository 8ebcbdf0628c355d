"""Digital signal processing substrate.

Small, dependency-light implementations of the signal-processing blocks the
feature-extraction stage relies on:

* :mod:`repro.dsp.filters` — moving-average / difference filters, detrending,
  simple band-limited filtering used by the R-peak detector and the EDR chain.
* :mod:`repro.dsp.peaks` — a Pan–Tompkins-style R-peak detector for the
  synthetic ECG waveform.
* :mod:`repro.dsp.resample` — conversion of irregularly sampled beat-indexed
  series (RR intervals, R amplitudes) onto uniform grids.
* :mod:`repro.dsp.ar` — auto-regressive model estimation (Burg and
  Yule–Walker), used for features 16–24 of the paper.
* :mod:`repro.dsp.psd` — Welch power spectral density estimation, used for
  features 25–53 and for the HRV LF/HF analysis.
* :mod:`repro.dsp.moments` — bit-exact ufunc-level ``np.mean`` /
  ``np.std(ddof=1)`` for the per-window HRV and Lorenz statistics.
"""

from repro.dsp.filters import detrend, difference, moving_average, bandpass_fir, apply_fir
from repro.dsp.peaks import PanTompkinsParams, StreamingPeakDetector, detect_r_peaks
from repro.dsp.resample import resample_beats_to_uniform, resample_rr_to_uniform
from repro.dsp.ar import ar_burg, ar_yule_walker, ar_power_spectrum
from repro.dsp.psd import welch_psd, band_power

__all__ = [
    "detrend",
    "difference",
    "moving_average",
    "bandpass_fir",
    "apply_fir",
    "PanTompkinsParams",
    "StreamingPeakDetector",
    "detect_r_peaks",
    "resample_beats_to_uniform",
    "resample_rr_to_uniform",
    "ar_burg",
    "ar_yule_walker",
    "ar_power_spectrum",
    "welch_psd",
    "band_power",
]
