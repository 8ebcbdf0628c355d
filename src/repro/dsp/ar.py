"""Auto-regressive model estimation (Burg and Yule–Walker).

Features 16–24 of the paper's feature set are the linear coefficients of an
auto-regressive model fitted to the ECG-derived respiration time series.  This
module provides two classic estimators:

* **Burg's method** — minimises forward and backward prediction errors and is
  the usual choice for short physiological segments because it guarantees a
  stable model and behaves well with few samples.
* **Yule–Walker** — solves the normal equations built from the biased
  autocorrelation sequence via Levinson–Durbin recursion; provided mainly as a
  cross-check and for the property-based tests.

Both return coefficients in the convention

    x[n] = sum_{k=1..p} a[k] * x[n-k] + e[n]

i.e. *positive* prediction coefficients, plus the white-noise driving
variance.  :func:`ar_power_spectrum` evaluates the implied parametric PSD.

:func:`ar_burg_rows` fits every row of a matrix of equal-length signals at
once (the batched feature extractor) and returns the coefficients only.  Its
dot products go through ``np.vecdot``, which calls the same BLAS ``ddot``
per row as the 1-D ``x.dot(y)``, and the reflection coefficients, the
coefficient recursion and the error updates are the same IEEE operations on
arrays instead of Python floats, so each row carries exactly the
coefficient bits of :func:`ar_burg`.  For one signal, :func:`ar_burg`'s
Python-float scalar side is the faster of the two (2.4-3x at 120-720
samples), so the per-window features keep it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["ar_burg", "ar_burg_rows", "ar_yule_walker", "ar_power_spectrum", "levinson_durbin"]


def ar_burg(x: np.ndarray, order: int) -> Tuple[np.ndarray, float]:
    """Fit an AR(p) model with Burg's method.

    Parameters
    ----------
    x:
        Input signal (1-D).  It is not demeaned internally; callers should
        detrend/demean beforehand if appropriate.
    order:
        Model order ``p`` (must satisfy ``0 < p < len(x)``).

    Returns
    -------
    (coefficients, noise_variance):
        ``coefficients`` has shape ``(order,)`` with the convention above.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if order <= 0:
        raise ValueError("order must be positive")
    if n <= order:
        raise ValueError("need more samples than the AR order")

    # Forward and backward prediction errors; both shrink by one sample per
    # model order as in the classic Burg recursion.  The recursion runs on a
    # fixed set of scratch buffers (ping-pong pairs for f/b, one temporary
    # for the scaled cross term) so each iteration performs zero vector
    # allocations.  Its scalar side — the BLAS dot products read back as
    # Python floats, the reflection coefficient, the noise variance and the
    # coefficient recursion on a list — issues the same IEEE operations, in
    # the same order and on the same operands, as a formulation on NumPy
    # scalars and vectors, so its results match that one bit for bit while
    # skipping a NumPy dispatch per operation.
    f = x.copy()
    b = x.copy()
    f_spare = np.empty(max(n - 1, 1))
    b_spare = np.empty(max(n - 1, 1))
    scratch = np.empty(max(n - 1, 1))
    energy = float(x.dot(x)) / n

    coeffs: List[float] = []
    length = n
    for _ in range(order):
        m = length - 1
        ef = f[1:length]
        eb = b[:m]
        den = float(ef.dot(ef)) + float(eb.dot(eb))
        reflection = 0.0 if den <= 1e-30 else -2.0 * float(eb.dot(ef)) / den
        # Update the error-filter coefficients (Levinson-style recursion):
        # new[i] = old[k-1-i] * reflection + old[i], then append reflection.
        coeffs = [c_rev * reflection + c for c_rev, c in zip(reversed(coeffs), coeffs)]
        coeffs.append(reflection)
        # Update the prediction errors: f' = ef + r*eb, b' = eb + r*ef.
        cross = scratch[:m]
        np.multiply(eb, reflection, out=cross)
        np.add(ef, cross, out=f_spare[:m])
        np.multiply(ef, reflection, out=cross)
        np.add(eb, cross, out=b_spare[:m])
        f, f_spare = f_spare, f
        b, b_spare = b_spare, b
        length = m
        energy *= 1.0 - reflection**2

    # Convert from the "error filter" convention (1 + c1 z^-1 + ...) to the
    # prediction convention x[n] = sum a_k x[n-k] + e[n].
    a = -np.array(coeffs)
    return a, max(energy, 0.0)


def ar_burg_rows(x: np.ndarray, order: int) -> np.ndarray:
    """:func:`ar_burg` coefficients of every row of a 2-D array, row for row
    bit-identical; returns ``(rows, order)``.

    A non-contiguous input is copied to C order first.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("ar_burg_rows expects a 2-D array")
    rows, n = x.shape
    if order <= 0:
        raise ValueError("order must be positive")
    if n <= order:
        raise ValueError("need more samples than the AR order")

    # The recursion of ar_burg on flat ``rows * n`` buffers, updated in
    # place, so each error update is one contiguous ufunc loop with
    # same-shape operands (a broadcast reflection column costs ~3x per
    # element).  Row i lives at [i*n, (i+1)*n).  After k orders its forward
    # errors sit at row positions [k, n) and its backward errors at
    # [0, n - k): ef[p] = f[p + k + 1] and eb[p] = b[p] line up at every
    # flat position p, and an update at p reads and writes only p and
    # p + k + 1.  Where p is a valid error of row i, both are in row i; where
    # it is not, both land outside every row's valid errors.
    f = x.ravel().copy()
    b = f.copy()
    cross = np.empty_like(f)
    reflection_at = np.empty_like(f)
    coeffs = np.empty((rows, order))
    reflection = np.empty(rows)
    for k in range(order):
        m = n - k - 1
        ef = f.reshape(rows, n)[:, k + 1 :]
        eb = b.reshape(rows, n)[:, :m]
        den = np.vecdot(ef, ef) + np.vecdot(eb, eb)
        # ``0.0 if den <= 1e-30 else -2.0 * (eb . ef) / den``; a NaN den
        # fails ``<=`` and takes the division, as in ar_burg.
        reflection[:] = 0.0
        np.divide(-2.0 * np.vecdot(eb, ef), den, out=reflection, where=~(den <= 1e-30))
        # new[i] = old[k-1-i] * reflection + old[i], then append reflection.
        coeffs[:, :k] = coeffs[:, :k][:, ::-1] * reflection[:, None] + coeffs[:, :k]
        coeffs[:, k] = reflection
        # f' = ef + r*eb and b' = eb + r*ef (with the old ef), in place.
        span = f.size - k - 1
        ef, eb, r = f[k + 1 :], b[:span], reflection_at[:span]
        reflection_at.reshape(rows, n)[:] = reflection[:, None]
        np.multiply(eb, r, out=cross[:span])
        np.multiply(ef, r, out=r)
        np.add(ef, cross[:span], out=ef)
        np.add(eb, r, out=eb)
    return -coeffs


def levinson_durbin(autocorr: np.ndarray, order: int) -> Tuple[np.ndarray, float]:
    """Levinson–Durbin recursion on an autocorrelation sequence.

    Returns the prediction coefficients (positive convention) and the final
    prediction-error variance.
    """
    autocorr = np.asarray(autocorr, dtype=float)
    if autocorr.size < order + 1:
        raise ValueError("autocorrelation sequence too short for the requested order")
    error = autocorr[0]
    if error <= 0:
        return np.zeros(order), 0.0
    a = np.zeros(order)
    for k in range(order):
        acc = autocorr[k + 1] - np.dot(a[:k], autocorr[k:0:-1][:k])
        reflection = acc / error
        new_a = a.copy()
        new_a[k] = reflection
        new_a[:k] = a[:k] - reflection * a[:k][::-1]
        a = new_a
        error *= 1.0 - reflection**2
        if error <= 1e-30:
            error = 1e-30
    return a, float(error)


def ar_yule_walker(x: np.ndarray, order: int) -> Tuple[np.ndarray, float]:
    """Fit an AR(p) model with the Yule–Walker (autocorrelation) method."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if order <= 0:
        raise ValueError("order must be positive")
    if n <= order:
        raise ValueError("need more samples than the AR order")
    x = x - x.mean()
    autocorr = np.array([np.dot(x[: n - lag], x[lag:]) / n for lag in range(order + 1)])
    return levinson_durbin(autocorr, order)


def ar_power_spectrum(
    coefficients: np.ndarray, noise_variance: float, fs: float, n_freqs: int = 256
) -> Tuple[np.ndarray, np.ndarray]:
    """Parametric PSD implied by an AR model.

    Returns the frequency grid (0 .. fs/2) and the PSD values.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    freqs = np.linspace(0.0, fs / 2.0, n_freqs)
    omega = 2.0 * np.pi * freqs / fs
    # Denominator |1 - sum a_k e^{-j w k}|^2
    k = np.arange(1, coefficients.size + 1)
    phases = np.exp(-1j * np.outer(omega, k))
    denom = np.abs(1.0 - phases @ coefficients) ** 2
    psd = noise_variance / np.maximum(denom, 1e-30) / fs
    return freqs, psd
