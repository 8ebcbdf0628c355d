"""Resampling of beat-indexed series onto uniform time grids.

HRV spectral analysis, AR modelling and Welch PSD estimation all require a
uniformly sampled signal, whereas RR intervals and R-wave amplitudes are
sampled once per (irregular) heart beat.  The standard approach — also used by
the feature-extraction chain the paper builds on — is cubic-free linear
interpolation of the beat-indexed series onto a modest uniform rate
(typically 4 Hz), which preserves the spectral content up to ~0.5 Hz where all
HRV and respiratory activity lives.

The batched training-cohort features split the resample in two:
:func:`uniform_grid` checks each window's beats and sizes its grid, so that
windows can be grouped by length, and :func:`resample_rows` then
interpolates a group into the rows of one matrix.  ``np.interp`` itself
stays one call per series.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "resample_beats_to_uniform",
    "resample_rows",
    "resample_rr_to_uniform",
    "uniform_grid",
]


def resample_beats_to_uniform(
    beat_times_s: np.ndarray,
    values: np.ndarray,
    fs: float = 4.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate a per-beat series onto a uniform grid.

    Parameters
    ----------
    beat_times_s:
        Time of each beat (seconds), finite and strictly increasing;
        anything else raises ``ValueError``.
    values:
        Value attached to each beat (same length as ``beat_times_s``).
    fs:
        Output sampling rate in Hz.

    Returns
    -------
    (t, resampled):
        The uniform time grid (starting at the first beat) and the
        interpolated values.
    """
    beat_times_s = np.asarray(beat_times_s, dtype=float)
    values = np.asarray(values, dtype=float)
    start, n = uniform_grid(beat_times_s, values, fs)
    t = start + np.arange(n) / fs
    resampled = np.interp(t, beat_times_s, values)
    return t, resampled


def uniform_grid(beat_times_s: np.ndarray, values: np.ndarray, fs: float) -> Tuple[float, int]:
    """Start and sample count of the grid :func:`resample_beats_to_uniform`
    puts a float64 beat series on; raises ``ValueError`` where it does."""
    if beat_times_s.shape != values.shape:
        raise ValueError("beat_times_s and values must have the same shape")
    if beat_times_s.size < 2:
        raise ValueError("need at least two beats to resample")
    # ``>`` is False against NaN, so a NaN anywhere fails the order check;
    # strictly increasing between finite endpoints leaves no room for ±inf.
    if not (beat_times_s[1:] > beat_times_s[:-1]).all():
        raise ValueError("beat_times_s must be strictly increasing")
    start, stop = beat_times_s[0], beat_times_s[-1]
    span = (stop - start) * fs
    if not math.isfinite(span):
        raise ValueError("beat_times_s must be finite")
    return start, math.floor(span) + 1


def resample_rows(
    series: Sequence[Tuple[np.ndarray, np.ndarray, float]], n: int, fs: float
) -> np.ndarray:
    """The resampled values of several beat series whose grids all hold
    ``n`` samples, as the rows of one ``(len(series), n)`` matrix.

    ``series`` holds ``(beat_times_s, values, start)``, with ``(start, n)``
    from :func:`uniform_grid`.  Each row carries the bits of
    ``resample_beats_to_uniform(beat_times_s, values, fs)[1]``; the grid
    offsets ``np.arange(n) / fs`` are computed once for all of them.
    """
    offsets = np.arange(n) / fs
    rows = np.empty((len(series), n))
    for row, (beat_times_s, values, start) in zip(rows, series):
        row[:] = np.interp(start + offsets, beat_times_s, values)
    return rows


def resample_rr_to_uniform(
    beat_times_s: np.ndarray, fs: float = 4.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a uniformly sampled RR-interval (tachogram) signal.

    Each RR interval is attached to the time of the beat that *ends* it, then
    linearly interpolated onto the uniform grid.

    Returns
    -------
    (t, rr_uniform): uniform time grid and RR values in seconds.
    """
    beat_times_s = np.asarray(beat_times_s, dtype=float)
    if beat_times_s.size < 3:
        raise ValueError("need at least three beats to build an RR tachogram")
    rr = np.diff(beat_times_s)
    return resample_beats_to_uniform(beat_times_s[1:], rr, fs=fs)
