"""Test-only reference implementations of the vectorised DSP hot paths.

Each function here is the straightforward loop the optimised code in
``src/repro`` replaced, kept so the equivalence tests can demand
``np.array_equal`` between the two:

* :func:`scan_and_refine` — the per-sample adaptive-threshold scan and the
  per-peak ``argmax`` refinement, a drop-in for
  ``repro.dsp.peaks._walk_and_refine`` (with its one rule the original scan
  lacked: infinite energy never fires);
* :func:`apply_fir` — ``np.convolve`` over the edge-padded signal, the form
  behind ``repro.dsp.filters.apply_fir`` and ``correlate_fir``;
* :func:`moving_average` — ``np.convolve`` with a kernel and an edge-count
  normaliser built for the signal's own length, the form behind
  ``repro.dsp.filters.moving_average`` and its per-width plans;
* :class:`FullBufferDetector` — a streaming detector that band-passes its
  whole retained buffer on every pass, not just the span it walks;
* :class:`EagerMonitor` — a streaming monitor that runs a detector pass and
  a windower push on every chunk, the schedule behind the holding
  ``repro.serving.streaming.StreamingMonitor.push``;
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
  ``repro.dsp.filters.detrend``;
* :func:`smo_solve` — the SMO loop that rebuilds the I_up/I_low masks from
  all of α at every iteration (:func:`_select_working_pair`) and takes the
  two-variable step on NumPy scalars, the loop behind
  ``repro.svm.smo.smo_solve``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams, StreamingPeakDetector
from repro.dsp.psd import _hann, _rfftfreq, band_power
from repro.serving.streaming import PendingWindow, StreamingMonitor
from repro.svm.smo import SMOParams, SMOResult, _compute_bias, _per_sample_c


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


def apply_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase FIR through ``np.convolve`` on a copy padded with the last
    sample."""
    x = np.asarray(x, dtype=float)
    delay = (taps.size - 1) // 2
    padded = np.concatenate((x, np.full(delay, x[-1])))
    return np.convolve(padded, taps, mode="full")[delay : delay + x.size]


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centred moving average: ``np.convolve`` with ``ones(width)/width``,
    divided by the same convolution of ``ones(x.size)``."""
    x = np.asarray(x, dtype=float)
    if width < 2 or x.size == 0:
        return x.copy()
    kernel = np.ones(width) / width
    counts = np.maximum(np.convolve(np.ones(x.size), kernel, mode="same"), 1e-12)
    return np.convolve(x, kernel, mode="same") / counts


class FullBufferDetector(StreamingPeakDetector):
    """Filters the whole retained buffer on every pass."""

    def __init__(self, fs: float, params: PanTompkinsParams | None = None) -> None:
        super().__init__(fs, params)
        self._lead = self._lag = sys.maxsize


class EagerMonitor(StreamingMonitor):
    """Runs a detector pass and a windower push on every chunk, holding
    nothing."""

    def push(self, chunk: np.ndarray, seq: int | None = None) -> List[PendingWindow]:
        if seq is not None:
            seq = int(seq)
            if self.lossy:
                if self._sequence.check_datagram(seq):
                    self.note_gap(seq)
            else:
                self._sequence.check(seq)
        indices, times, amplitudes = self._detector.process(chunk)
        if seq is not None:
            self._sequence.validate(seq, span=np.asarray(chunk).size if self.lossy else 1)
        completed = self._windower.push(times, amplitudes, now_s=self._detector.finalized_time_s)
        return self._pending(completed)


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


def _select_working_pair(
    grad: np.ndarray,
    alpha: np.ndarray,
    y: np.ndarray,
    c: np.ndarray,
    tol: float,
) -> Tuple[int, int, float]:
    """Maximal-violating-pair selection (LIBSVM WSS1).

    Returns ``(i, j, violation)``; ``i`` or ``j`` is ``-1`` when the problem is
    already optimal within ``tol``.
    """
    # I_up: y=+1 & alpha<C  or  y=-1 & alpha>0
    up_mask = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    # I_low: y=+1 & alpha>0  or  y=-1 & alpha<C
    low_mask = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    if not np.any(up_mask) or not np.any(low_mask):
        return -1, -1, 0.0

    score = -y * grad
    up_scores = np.where(up_mask, score, -np.inf)
    low_scores = np.where(low_mask, score, np.inf)
    i = int(np.argmax(up_scores))
    j = int(np.argmin(low_scores))
    violation = float(up_scores[i] - low_scores[j])
    if violation <= tol:
        return -1, -1, violation
    return i, j, violation


def smo_solve(
    kernel_matrix: np.ndarray,
    y: np.ndarray,
    params: Optional[SMOParams] = None,
) -> SMOResult:
    """SMO that rebuilds both working-set masks from the whole α vector at
    every iteration and runs the two-variable step on NumPy scalars."""
    if params is None:
        params = SMOParams()
    K = np.asarray(kernel_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if K.shape != (n, n):
        raise ValueError("kernel_matrix must be square and match len(y)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present in the training set")

    c = _per_sample_c(y, params)
    Q = (y[:, None] * y[None, :]) * K

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of ½αᵀQα − eᵀα at α = 0

    n_iter = 0
    converged = False
    violation = np.inf
    while n_iter < params.max_iter:
        i, j, violation = _select_working_pair(grad, alpha, y, c, params.tol)
        if i < 0:
            converged = True
            break

        # Analytic solution of the two-variable sub-problem (see Fan, Chen,
        # Lin, "Working set selection using second order information").
        quad = Q[i, i] + Q[j, j] - 2.0 * y[i] * y[j] * Q[i, j]
        quad = max(quad, 1e-12)
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha_i_new = alpha[i] + delta
            alpha_j_new = alpha[j] + delta
            if diff > 0:
                if alpha_j_new < 0:
                    alpha_j_new = 0.0
                    alpha_i_new = diff
            else:
                if alpha_i_new < 0:
                    alpha_i_new = 0.0
                    alpha_j_new = -diff
            if diff > c[i] - c[j]:
                if alpha_i_new > c[i]:
                    alpha_i_new = c[i]
                    alpha_j_new = c[i] - diff
            else:
                if alpha_j_new > c[j]:
                    alpha_j_new = c[j]
                    alpha_i_new = c[j] + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            summ = alpha[i] + alpha[j]
            alpha_i_new = alpha[i] - delta
            alpha_j_new = alpha[j] + delta
            if summ > c[i]:
                if alpha_i_new > c[i]:
                    alpha_i_new = c[i]
                    alpha_j_new = summ - c[i]
            else:
                if alpha_j_new < 0:
                    alpha_j_new = 0.0
                    alpha_i_new = summ
            if summ > c[j]:
                if alpha_j_new > c[j]:
                    alpha_j_new = c[j]
                    alpha_i_new = summ - c[j]
            else:
                if alpha_i_new < 0:
                    alpha_i_new = 0.0
                    alpha_j_new = summ

        delta_i = alpha_i_new - alpha[i]
        delta_j = alpha_j_new - alpha[j]
        if abs(delta_i) < 1e-14 and abs(delta_j) < 1e-14:
            # Numerically stuck on this pair: declare convergence at the
            # current violation level rather than spinning.
            converged = violation <= max(params.tol * 10.0, 1e-2)
            break
        alpha[i] = alpha_i_new
        alpha[j] = alpha_j_new
        grad += Q[:, i] * delta_i + Q[:, j] * delta_j
        n_iter += 1

    alpha[alpha < params.alpha_floor] = 0.0
    bias = _compute_bias(grad, alpha, y, c)
    return SMOResult(
        alpha=alpha,
        bias=bias,
        n_iterations=n_iter,
        converged=converged,
        final_violation=float(violation if np.isfinite(violation) else 0.0),
    )
