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
  with no single-segment fast path;
* :func:`welch_band_powers` — :func:`welch_psd` then :func:`band_powers`,
  the composition behind ``repro.dsp.psd.welch_band_powers``;
* :func:`ar_burg` — Burg with NumPy scalars and a NumPy-vector coefficient
  update, the formulation behind ``repro.dsp.ar.ar_burg``;
* :func:`resample_beats_to_uniform` — the ``np.diff``-checked resample
  (which lets NaN beat times through and overflows on infinite ones);
* :func:`detrend` — ``x.mean()`` and ``np.dot``, the wrappers behind
  ``repro.dsp.filters.detrend``.
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


def welch_band_powers(x: np.ndarray, fs: float, edges: Sequence[Tuple[float, float]]) -> np.ndarray:
    """The Welch estimate at the feature chain's segment length, then bands,
    both through the loops above (no code shared with the fused kernel)."""
    x = np.asarray(x, dtype=float)
    return band_powers(*welch_psd(x, fs, min(256, x.size)), edges)


def ar_burg(x: np.ndarray, order: int) -> Tuple[np.ndarray, float]:
    """Burg's recursion with ``np.dot`` scalars and a vector coefficient update."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if order <= 0:
        raise ValueError("order must be positive")
    if n <= order:
        raise ValueError("need more samples than the AR order")
    f = x.copy()
    b = x.copy()
    f_spare = np.empty(max(n - 1, 1))
    b_spare = np.empty(max(n - 1, 1))
    scratch = np.empty(max(n - 1, 1))
    energy = np.dot(x, x) / n
    coeffs = np.zeros(order)
    prev = np.empty(order)
    k = 0
    length = n
    for _ in range(order):
        m = length - 1
        ef = f[1:length]
        eb = b[: length - 1]
        den = np.dot(ef, ef) + np.dot(eb, eb)
        reflection = 0.0 if den <= 1e-30 else -2.0 * np.dot(eb, ef) / den
        if k > 0:
            prev[:k] = coeffs[:k]
            np.multiply(prev[k - 1 :: -1], reflection, out=coeffs[:k])
            np.add(coeffs[:k], prev[:k], out=coeffs[:k])
        coeffs[k] = reflection
        k += 1
        np.multiply(eb, reflection, out=scratch[:m])
        np.add(ef, scratch[:m], out=f_spare[:m])
        np.multiply(ef, reflection, out=scratch[:m])
        np.add(eb, scratch[:m], out=b_spare[:m])
        f, f_spare = f_spare, f
        b, b_spare = b_spare, b
        length = m
        energy *= 1.0 - reflection**2
    return -coeffs, float(max(energy, 0.0))


def resample_beats_to_uniform(
    beat_times_s: np.ndarray, values: np.ndarray, fs: float = 4.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Linear interpolation onto a uniform grid, order checked with ``np.diff``."""
    beat_times_s = np.asarray(beat_times_s, dtype=float)
    values = np.asarray(values, dtype=float)
    if beat_times_s.shape != values.shape:
        raise ValueError("beat_times_s and values must have the same shape")
    if beat_times_s.size < 2:
        raise ValueError("need at least two beats to resample")
    if np.any(np.diff(beat_times_s) <= 0):
        raise ValueError("beat_times_s must be strictly increasing")
    start, stop = beat_times_s[0], beat_times_s[-1]
    n = int(np.floor((stop - start) * fs)) + 1
    t = start + np.arange(n) / fs
    return t, np.interp(t, beat_times_s, values)


def detrend(x: np.ndarray) -> np.ndarray:
    """Least-squares line removal through ``mean`` and ``np.dot``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        return x - (np.mean(x) if n else 0.0)
    t = np.arange(n, dtype=float)
    t -= t.mean()
    centred = x - x.mean()
    slope = np.dot(t, centred) / float(np.dot(t, t))
    return centred - slope * t
