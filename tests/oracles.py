"""Test-only reference implementations of the vectorised DSP hot paths.

Each function here is the straightforward loop the optimised code in
``src/repro`` replaced, kept so the equivalence tests can demand
``np.array_equal`` between the two:

* :func:`scan_and_refine` — the per-sample adaptive-threshold scan and the
  per-peak ``argmax`` refinement, a drop-in for
  ``repro.dsp.peaks._walk_and_refine`` (with its one rule the original scan
  lacked: infinite energy never fires);
* :class:`FullBufferDetector` — a streaming detector that band-passes its
  whole retained buffer on every pass, not just the span it walks;
* :func:`band_powers` — one ``np.add.reduce`` per band over the shared
  trapezoid panels, the loop behind ``repro.dsp.psd.band_powers``;
* :func:`welch_psd` — Welch over a sliding-window view of every segment,
  with no single-segment fast path.
"""

from __future__ import annotations

import sys
from typing import Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams, StreamingPeakDetector
from repro.dsp.psd import _hann, _rfftfreq, band_power


def scan_and_refine(
    energy: np.ndarray,
    filtered: np.ndarray,
    start: int,
    end: int,
    level: float,
    params: PanTompkinsParams,
    refractory: int,
    half_refine: int,
) -> Tuple[np.ndarray, float]:
    """Visit every sample of ``energy[start:end]``; refine peaks one by one."""
    start = max(start, 1)
    end = min(end, energy.size - 1)
    threshold = params.threshold_fraction * level
    peaks = []
    i = start
    while i < end:
        if (
            energy[i] > threshold
            and energy[i] >= energy[i - 1]
            and energy[i] >= energy[i + 1]
            and energy[i] < np.inf
        ):
            peaks.append(i)
            level += (energy[i] - level) / params.level_memory
            threshold = params.threshold_fraction * level
            i += refractory
        else:
            i += 1
    refined = []
    for p in peaks:
        lo = max(0, p - half_refine)
        hi = min(filtered.size, p + half_refine + 1)
        refined.append(lo + int(np.argmax(filtered[lo:hi])))
    return np.asarray(refined, dtype=int), float(level)


class FullBufferDetector(StreamingPeakDetector):
    """Filters the whole retained buffer on every pass."""

    def __init__(self, fs: float, params: PanTompkinsParams | None = None) -> None:
        super().__init__(fs, params)
        self._lead = self._lag = sys.maxsize


def band_powers(
    freqs: np.ndarray, psd: np.ndarray, edges: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Band powers as one slice reduction per band."""
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.size < 2 or np.any(np.diff(freqs) < 0):
        return np.array([band_power(freqs, psd, lo, hi) for lo, hi in edges])
    panel = np.diff(freqs) * (psd[1:] + psd[:-1]) / 2.0
    edge_arr = np.asarray(edges, dtype=float).reshape(-1, 2)
    first = np.searchsorted(freqs, edge_arr[:, 0], side="left")
    last = np.searchsorted(freqs, edge_arr[:, 1], side="right")
    out = np.empty(edge_arr.shape[0])
    for j in range(edge_arr.shape[0]):
        i0, i1 = int(first[j]), int(last[j])
        out[j] = np.add.reduce(panel[i0 : i1 - 1]) if i1 - i0 >= 2 else 0.0
    return out


def welch_psd(
    x: np.ndarray,
    fs: float,
    segment_length: int = 256,
    overlap: float = 0.5,
    detrend_segments: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD with every segment taken from a sliding-window view."""
    x = np.asarray(x, dtype=float)
    segment_length = int(min(segment_length, x.size))
    step = max(1, int(segment_length * (1.0 - overlap)))
    window, window_power = _hann(segment_length)
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_length)[::step]
    count = segments.shape[0]
    if detrend_segments:
        data = segments - segments.mean(axis=1, keepdims=True)
        np.multiply(data, window, out=data)
    else:
        data = segments * window
    periodograms = (np.abs(np.fft.rfft(data, axis=1)) ** 2) / (fs * window_power)
    if segment_length % 2 == 0:
        periodograms[:, 1:-1] *= 2.0
    else:
        periodograms[:, 1:] *= 2.0
    psd_acc = periodograms[0]
    for row in periodograms[1:]:
        psd_acc = psd_acc + row
    return _rfftfreq(segment_length, fs), psd_acc / count
