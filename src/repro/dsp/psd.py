"""Welch power spectral density estimation and band-power helpers.

Features 25–53 of the paper's feature set are obtained from the power spectral
analysis of the ECG-derived respiration series; the HRV features also use the
classical LF/HF band powers of the RR tachogram.  This module implements the
Welch method (segment averaging of windowed periodograms) without relying on
``scipy.signal`` so that the numerical behaviour is fully under the
repository's control.

The implementation is hot-path tuned without changing a single output bit
(pinned by the golden trace and the hot-path equivalence suite):

* Hann windows and ``rfftfreq`` grids are memoised per segment length — they
  are pure functions of ``(segment_length, fs)``.
* All Welch segments are windowed and FFT'd as one batched 2-D ``rfft``
  (row-wise FFTs are bitwise identical to per-segment 1-D FFTs); the
  periodogram average still accumulates row by row in the original
  sequential order, because changing a float summation order changes bits.
* :func:`band_powers` integrates every band from one shared trapezoid-panel
  vector instead of re-slicing the PSD per band; each band's panel sum uses
  the same ``np.add.reduce`` order the trapezoid rule uses, and bands of
  fewer than 8 panels are summed together as the zero-padded rows of one
  matrix.
* :func:`welch_band_powers` fuses the two.  Everything that depends only on
  ``(segment length, fs, band edges)`` — the Hann window, the ``fs·Σw²``
  normaliser, the one-sided doubling as a vector of ones and twos, the
  trapezoid widths and each band's gather row or slice bounds — is built
  once into a memoised spectral plan, so a signal pays only for the FFT and
  the handful of ufuncs that touch its data, issued in the same order as
  ``band_powers(*welch_psd(...))``.  The plan covers one-segment signals
  (every analysis window of the monitor) and multi-segment ones (the 180 s
  training windows): their segments are gathered through a memoised
  row-index matrix and their periodograms accumulated row by row, in
  segment order, exactly as :func:`welch_psd` does.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

__all__ = ["welch_psd", "band_power", "band_powers", "welch_band_powers"]

#: ``np.trapz`` was renamed to ``np.trapezoid`` in NumPy 2.0; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

#: Memoised Hann windows: segment length -> (window, sum(window**2)).
_HANN_CACHE: Dict[int, Tuple[np.ndarray, float]] = {}
#: Memoised one-sided frequency grids: (segment length, fs) -> read-only grid.
_RFFTFREQ_CACHE: Dict[Tuple[int, float], np.ndarray] = {}
#: Memoisation bound; cleared wholesale when exceeded (lengths vary with the
#: per-window beat count, so the key space is finite but not fixed).
_CACHE_LIMIT = 512
#: Bands spanning fewer panels than this are summed as rows of one matrix:
#: NumPy's pairwise summation adds fewer than 8 terms strictly left to right.
_ROW_SUM_LIMIT = 8


def _hann(segment_length: int) -> Tuple[np.ndarray, float]:
    cached = _HANN_CACHE.get(segment_length)
    if cached is None:
        if len(_HANN_CACHE) >= _CACHE_LIMIT:
            _HANN_CACHE.clear()
        window = np.hanning(segment_length)
        window.setflags(write=False)
        cached = (window, float(np.sum(window**2)))
        _HANN_CACHE[segment_length] = cached
    return cached


def _rfftfreq(segment_length: int, fs: float) -> np.ndarray:
    key = (segment_length, fs)
    cached = _RFFTFREQ_CACHE.get(key)
    if cached is None:
        if len(_RFFTFREQ_CACHE) >= _CACHE_LIMIT:
            _RFFTFREQ_CACHE.clear()
        cached = np.fft.rfftfreq(segment_length, d=1.0 / fs)
        cached.setflags(write=False)
        _RFFTFREQ_CACHE[key] = cached
    return cached


def welch_psd(
    x: np.ndarray,
    fs: float,
    segment_length: int = 256,
    overlap: float = 0.5,
    detrend_segments: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD estimate of a uniformly sampled signal.

    Parameters
    ----------
    x:
        Input signal (1-D).
    fs:
        Sampling frequency in Hz.
    segment_length:
        Length of each segment; shortened automatically if the signal is
        shorter than one segment.
    overlap:
        Fractional overlap between consecutive segments (0 ≤ overlap < 1).
    detrend_segments:
        Remove the mean of every segment before windowing (recommended for
        physiological series whose mean dwarfs the oscillatory content).

    Returns
    -------
    (freqs, psd):
        One-sided frequency grid and PSD (power per Hz).  The frequency grid
        is a shared read-only array; copy it before mutating.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 8:
        raise ValueError("signal too short for PSD estimation")
    if not (0.0 <= overlap < 1.0):
        raise ValueError("overlap must lie in [0, 1)")
    segment_length = int(min(segment_length, x.size))
    step = max(1, int(segment_length * (1.0 - overlap)))

    window, window_power = _hann(segment_length)

    # One strided view per segment start, exactly the starts of the
    # original ``range(0, x.size - segment_length + 1, step)`` loop.
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_length)[::step]
    count = segments.shape[0]
    if count == 0:
        raise ValueError("could not form any Welch segment")
    if detrend_segments:
        # ``segments.mean(axis=1, keepdims=True)`` without its wrapper.
        data = segments - np.add.reduce(segments, axis=1, keepdims=True) / segment_length
        np.multiply(data, window, out=data)
    else:
        data = segments * window
    spectra = np.fft.rfft(data, axis=1)
    periodograms = (np.abs(spectra) ** 2) / (fs * window_power)
    # One-sided correction (all bins except DC and Nyquist count twice).
    if segment_length % 2 == 0:
        periodograms[:, 1:-1] *= 2.0
    else:
        periodograms[:, 1:] *= 2.0
    # Sequential accumulation in segment order: a tree/pairwise reduction
    # over the segment axis would round differently for many segments.
    psd_acc = periodograms[0]
    for row in periodograms[1:]:
        psd_acc = psd_acc + row

    return _rfftfreq(segment_length, fs), psd_acc / count


def band_power(freqs: np.ndarray, psd: np.ndarray, low_hz: float, high_hz: float) -> float:
    """Integrated power of a PSD between two frequencies (trapezoidal rule)."""
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(mask):
        return 0.0
    return float(_trapezoid(psd[mask], freqs[mask]))


def band_powers(
    freqs: np.ndarray, psd: np.ndarray, edges: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Integrated power for a sequence of ``(low_hz, high_hz)`` bands.

    For a sorted frequency grid (the only kind a PSD estimate produces) every
    band selects a contiguous slice, so all bands share one precomputed
    trapezoid-panel vector ``diff(freqs) * (psd[1:] + psd[:-1]) / 2.0`` and
    each integral is a single slice reduction — bit-identical to calling
    :func:`band_power` per band, at a fraction of the work for the paper's
    29-band grid.  When no band spans 8 or more panels, all of them are
    summed in one reduction over the rows of a zero-padded matrix.
    """
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.size < 2:
        return np.array([band_power(freqs, psd, lo, hi) for lo, hi in edges])
    widths = freqs[1:] - freqs[:-1]  # np.diff, without its wrapper
    if (widths < 0).any():  # unsorted grid: fall back to the reference path
        return np.array([band_power(freqs, psd, lo, hi) for lo, hi in edges])
    return _integrate(_panels(widths, psd), _band_layout(freqs, edges))


#: How :func:`_integrate` sums the bands: the gather rows of the narrow-band
#: matrix, or one slice of the panel vector per band.
_BandLayout = Union[np.ndarray, List[slice]]


def _band_layout(freqs: np.ndarray, edges: Sequence[Tuple[float, float]]) -> _BandLayout:
    """Which trapezoid panels each band sums, for a sorted grid ``freqs``."""
    edge_arr = np.asarray(edges, dtype=float).reshape(-1, 2)
    first = np.searchsorted(freqs, edge_arr[:, 0], side="left")
    # Panels per band; fewer than two grid points (<= 0 panels) integrate to
    # zero, exactly as the trapezoid rule over a <2-point selection does.
    counts = np.searchsorted(freqs, edge_arr[:, 1], side="right") - first - 1
    span = int(counts.max()) if counts.size else 0
    if span >= _ROW_SUM_LIMIT:
        # Wide bands: NumPy's pairwise summation regroups 8+ terms, so each
        # band keeps its own slice reduction (an empty slice sums to +0.0).
        return [slice(int(i0), int(i0 + max(c, 0))) for i0, c in zip(first, counts)]
    # Narrow bands: one row per band, its panels then the zero pad entry at
    # index ``freqs.size - 1``.  NumPy adds fewer than 8 terms strictly left
    # to right from +0.0, so no partial sum is ever -0.0 and every trailing
    # +0.0 leaves it unchanged: each row sums to its band's slice reduction,
    # bit for bit.
    columns = np.arange(max(span, 1))
    rows = np.where(columns < counts[:, None], first[:, None] + columns, freqs.size - 1)
    rows.setflags(write=False)
    return rows


def _panels(widths: np.ndarray, psd: np.ndarray) -> np.ndarray:
    """Trapezoid panels ``widths * (psd[1:] + psd[:-1]) / 2.0`` — the
    elementwise expression ``np.trapezoid`` evaluates — plus one +0.0 pad."""
    padded = np.zeros(psd.size)
    panel = padded[:-1]
    np.add(psd[1:], psd[:-1], out=panel)
    np.multiply(widths, panel, out=panel)
    np.divide(panel, 2.0, out=panel)
    return padded


def _integrate(padded: np.ndarray, layout: _BandLayout) -> np.ndarray:
    if isinstance(layout, np.ndarray):
        return np.add.reduce(padded[layout], axis=1)
    return np.array([np.add.reduce(padded[band]) for band in layout])


class _SpectralPlan(NamedTuple):
    """Everything a Welch → band-power pass needs that depends only on
    ``(segment length, fs, band edges)``."""

    window: np.ndarray
    #: ``fs * sum(window**2)``, the periodogram normaliser.
    fs_power: float
    #: One-sided correction: 1.0 at DC (and at Nyquist for even lengths),
    #: 2.0 elsewhere.  Multiplying by 1.0 or 2.0 is exact, so one multiply
    #: equals the in-place ``*= 2.0`` of the interior slice, bit for bit.
    doubling: np.ndarray
    #: Trapezoid panel widths of the one-sided frequency grid.
    widths: np.ndarray
    layout: _BandLayout


#: Memoised spectral plans: (segment length, fs, edge bytes) -> plan.
_PLAN_CACHE: Dict[Tuple[int, float, bytes], _SpectralPlan] = {}
#: Memoised segment gathers: (signal length, segment length) -> row indices.
_ROWS_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _spectral_plan(segment_length: int, fs: float, edges: np.ndarray) -> _SpectralPlan:
    key = (segment_length, fs, edges.tobytes())
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _CACHE_LIMIT:
            _PLAN_CACHE.clear()
        window, window_power = _hann(segment_length)
        freqs = _rfftfreq(segment_length, fs)
        doubling = np.full(freqs.size, 2.0)
        doubling[0] = 1.0
        if segment_length % 2 == 0:
            doubling[-1] = 1.0
        doubling.setflags(write=False)
        widths = freqs[1:] - freqs[:-1]
        widths.setflags(write=False)
        plan = _SpectralPlan(
            window, fs * window_power, doubling, widths, _band_layout(freqs, edges)
        )
        _PLAN_CACHE[key] = plan
    return plan


def _segment_rows(size: int, segment_length: int) -> np.ndarray:
    """Row-index matrix gathering every Welch segment of a ``size``-sample
    signal at 50% overlap: the starts of :func:`welch_psd`'s segments."""
    key = (size, segment_length)
    rows = _ROWS_CACHE.get(key)
    if rows is None:
        if len(_ROWS_CACHE) >= _CACHE_LIMIT:
            _ROWS_CACHE.clear()
        starts = np.arange(0, size - segment_length + 1, max(1, segment_length // 2))
        rows = starts[:, None] + np.arange(segment_length)
        rows.setflags(write=False)
        _ROWS_CACHE[key] = rows
    return rows


def welch_band_powers(x: np.ndarray, fs: float, edges: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Band powers of the Welch PSD of ``x``, with the feature chain's defaults.

    Returns exactly the bits of
    ``band_powers(*welch_psd(x, fs, min(256, x.size)), edges)``, running on a
    memoised :class:`_SpectralPlan`: the same ufuncs on the data, in the same
    order, with every data-independent step done once per
    ``(segment length, fs, edges)``.  A signal of several segments (a
    training window) gathers them through a memoised row-index matrix and
    accumulates their periodograms row by row, in segment order.  Raises
    ``ValueError`` for a signal too short for PSD estimation.
    """
    x = np.asarray(x, dtype=float)
    n = min(256, x.size)
    if x.size < 8:
        return band_powers(*welch_psd(x, fs, n), edges)
    window, fs_power, doubling, widths, layout = _spectral_plan(
        n, fs, np.asarray(edges, dtype=float)
    )
    if x.size - n < max(1, n // 2):
        segment = x[:n]
        data = segment - np.add.reduce(segment) / n
    else:
        data = x[_segment_rows(x.size, n)]
        np.subtract(data, np.add.reduce(data, axis=1, keepdims=True) / n, out=data)
    np.multiply(data, window, out=data)
    power = np.abs(np.fft.rfft(data))
    np.multiply(power, power, out=power)
    np.divide(power, fs_power, out=power)
    np.multiply(power, doubling, out=power)
    if power.ndim == 2:
        # Row by row in segment order, as welch_psd: a pairwise reduction
        # over the segments would round differently.
        psd = power[0]
        for row in power[1:]:
            np.add(psd, row, out=psd)
        power = np.divide(psd, power.shape[0], out=psd)
    return _integrate(_panels(widths, power), layout)
