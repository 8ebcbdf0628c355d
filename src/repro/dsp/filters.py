"""Basic filtering primitives used across the feature-extraction chain.

The per-window hot path calls :func:`moving_average` and :func:`detrend` on
every analysis window, so both memoise what they would otherwise rebuild on
every call, bit-identical to recomputing it.  :func:`detrend` keeps the
centred time grid per input length ``n``, cached bounded.
:func:`moving_average` keeps one plan per *width*, whatever the length: the
edge-count normaliser of ``np.convolve(np.ones(n), kernel, "same")`` is
``width // 2`` left-edge counts, one inside constant and ``(width - 1) // 2``
right-edge counts, and none of them depends on ``n`` (pinned for every
length from ``width`` to ``width + 300`` and a few long ones).

:func:`detrend_rows` detrends every row of a matrix of equal-length signals
at once, for the batched training-cohort features: the same memoised grid,
per-row means reduced along a C-contiguous last axis (NumPy's pairwise sum,
row by row, as for a 1-D array) and per-row slopes through ``np.vecdot``,
which calls the same BLAS ``ddot`` as ``t.dot(centred)`` — so each row
carries exactly the bits of :func:`detrend`.  The moving average stays per
signal: ``np.convolve`` has no row-batched form with the same bits.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = [
    "moving_average",
    "difference",
    "detrend",
    "detrend_rows",
    "bandpass_fir",
    "apply_fir",
    "correlate_fir",
]

#: width -> (kernel, left-edge counts, inside count, right-edge counts).
_MA_PLANS: Dict[int, Tuple[np.ndarray, np.ndarray, float, np.ndarray]] = {}
#: signal length -> (centred time grid t, dot(t, t)).
_DETREND_CACHE: Dict[int, Tuple[np.ndarray, float]] = {}
#: Memoisation bound; cleared wholesale when exceeded (window lengths vary
#: with the beat count, so the key space is finite but not fixed).
_CACHE_LIMIT = 512


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average with edge handling by shrinking the window.

    Parameters
    ----------
    x:
        Input signal (1-D).
    width:
        Window width in samples; values smaller than 2 return a copy.
    """
    x = np.asarray(x, dtype=float)
    width = int(width)
    if width < 2 or x.size == 0:
        return x.copy()
    if x.size < width:
        # ``np.convolve`` swaps its operands here (the result is ``width``
        # long): keep its form.
        kernel = np.ones(width) / width
        counts = np.maximum(np.convolve(np.ones(x.size), kernel, mode="same"), 1e-12)
        return np.convolve(x, kernel, mode="same") / counts
    return _smooth(x, width)


def _smooth(x: np.ndarray, width: int) -> np.ndarray:
    """:func:`moving_average` of a float64 ``x`` with ``2 <= width <= x.size``.

    Every tap of the kernel is ``1/width``, so one ``np.correlate`` gives
    ``np.convolve``'s bits without its reversed copy; each stretch of the
    result is then divided in place by its plan count.
    """
    plan = _MA_PLANS.get(width) or _ma_plan(width)
    smoothed = np.correlate(x, plan[0], "same")
    left = plan[1].size
    right = smoothed.size - plan[3].size
    smoothed[:left] /= plan[1]
    smoothed[left:right] /= plan[2]
    smoothed[right:] /= plan[3]
    return smoothed


def _ma_plan(width: int) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The kernel and edge-count normaliser of a ``width``-sample moving
    average, read off a ``2·width``-sample signal and memoised per width."""
    kernel = np.ones(width) / width
    counts = np.maximum(np.convolve(np.ones(2 * width), kernel, mode="same"), 1e-12)
    left = counts[: width // 2].copy()
    right = counts[counts.size - (width - 1) // 2 :].copy()
    for array in (kernel, left, right):
        array.setflags(write=False)
    plan = (kernel, left, float(counts[width // 2]), right)
    _MA_PLANS[width] = plan
    return plan


def difference(x: np.ndarray) -> np.ndarray:
    """First difference with the same length as the input (prepends a zero)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.copy()
    return np.concatenate(([0.0], np.diff(x)))


def detrend(x: np.ndarray) -> np.ndarray:
    """Remove the best-fit straight line from a signal.

    Used before AR and PSD estimation so that the very-low-frequency trend
    does not dominate the spectrum.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        return x - (np.mean(x) if n else 0.0)
    t, t_dot_t = _DETREND_CACHE.get(n) or _detrend_grid(n)
    # ``x.mean()`` and ``np.dot`` without their wrappers: the same reduction
    # over n, the same BLAS dot, so the same bits.
    centred = x - np.add.reduce(x) / n
    slope = t.dot(centred) / t_dot_t
    return centred - slope * t


def detrend_rows(x: np.ndarray) -> np.ndarray:
    """:func:`detrend` of every row of a 2-D array, row for row bit-identical.

    A non-contiguous input is copied to C order first, so every reduction
    runs along a contiguous last axis.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("detrend_rows expects a 2-D array")
    n = x.shape[1]
    if n < 3:
        return np.array([detrend(row) for row in x]).reshape(x.shape)
    t, t_dot_t = _DETREND_CACHE.get(n) or _detrend_grid(n)
    centred = x - np.add.reduce(x, axis=1, keepdims=True) / n
    slope = np.vecdot(centred, t) / t_dot_t
    return np.subtract(centred, slope[:, None] * t, out=centred)


def _detrend_grid(n: int) -> Tuple[np.ndarray, float]:
    """The centred time grid of an ``n``-sample signal and its dot with
    itself, memoised per ``n``."""
    cached = _DETREND_CACHE.get(n)
    if cached is None:
        if len(_DETREND_CACHE) >= _CACHE_LIMIT:
            _DETREND_CACHE.clear()
        t = np.arange(n, dtype=float)
        t -= t.mean()
        t.setflags(write=False)
        cached = (t, float(t.dot(t)))
        _DETREND_CACHE[n] = cached
    return cached


def bandpass_fir(
    low_hz: float, high_hz: float, fs: float, numtaps: int = 101
) -> np.ndarray:
    """Design a linear-phase band-pass FIR filter by the windowed-sinc method.

    The implementation is deliberately self-contained (no ``scipy.signal``
    dependency) so the substrate remains easy to port to an embedded target.

    Parameters
    ----------
    low_hz, high_hz:
        Pass-band edges in Hz (``0 < low_hz < high_hz < fs / 2``).
    fs:
        Sampling frequency in Hz.
    numtaps:
        Number of filter coefficients (made odd if an even value is given).
    """
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ValueError("require 0 < low_hz < high_hz < fs/2")
    if numtaps % 2 == 0:
        numtaps += 1
    m = np.arange(numtaps) - (numtaps - 1) / 2.0
    # Ideal band-pass = difference of two low-pass sinc prototypes.
    def _lowpass(cutoff_hz: float) -> np.ndarray:
        normalized = 2.0 * cutoff_hz / fs
        return normalized * np.sinc(normalized * m)

    taps = _lowpass(high_hz) - _lowpass(low_hz)
    taps *= np.hamming(numtaps)
    # Normalise the pass-band gain at the geometric centre frequency.
    centre = np.sqrt(low_hz * high_hz)
    omega = 2.0 * np.pi * centre / fs
    gain = np.abs(np.sum(taps * np.exp(-1j * omega * np.arange(numtaps))))
    if gain > 1e-12:
        taps /= gain
    return taps


def apply_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase application of an FIR filter (forward filtering, group-delay
    compensated), returning a signal the same length as the input."""
    taps = np.asarray(taps, dtype=float)
    return correlate_fir(x, np.ascontiguousarray(taps[::-1]))


def correlate_fir(x: np.ndarray, reversed_taps: np.ndarray) -> np.ndarray:
    """:func:`apply_fir` with the taps passed reversed, bit for bit.

    ``np.convolve(a, v)`` is ``np.correlate(a, v[::-1])`` with ``v[::-1]``
    copied on every call; a caller that filters many signals with one
    filter reverses its taps once and hands them here.  When the padded
    signal is shorter than the taps ``np.convolve`` swaps its operands, so
    that case keeps the ``np.convolve`` form.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.copy()
    n = x.size
    delay = (reversed_taps.size - 1) // 2
    padded = np.empty(n + delay)
    padded[:n] = x
    padded[n:] = x[-1]
    if padded.size < reversed_taps.size:
        filtered = np.convolve(padded, reversed_taps[::-1], mode="full")
    else:
        filtered = np.correlate(padded, reversed_taps, "full")
    return filtered[delay : delay + n]
