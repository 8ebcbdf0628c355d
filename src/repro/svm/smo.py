"""Sequential Minimal Optimization solver for the soft-margin C-SVC dual.

The solver follows the structure of LIBSVM's working-set-selection algorithm
(maximal violating pair):

* dual problem:  minimise  ``f(α) = ½ αᵀQα − eᵀα``  subject to
  ``0 ≤ α_i ≤ C_i`` and ``Σ y_i α_i = 0``, with ``Q_ij = y_i y_j k(x_i, x_j)``;
* per-sample penalties ``C_i`` implement class weighting, which matters here
  because seizure windows are heavily outnumbered by background windows;
* at every iteration the pair of indices that most violates the KKT
  conditions is selected and the corresponding two-variable sub-problem is
  solved analytically; the gradient is maintained incrementally;
* convergence is declared when the maximal KKT violation falls below ``tol``.

The full kernel matrix is precomputed and cached: the reproduction's training
sets contain at most a few thousand windows, for which an ``n × n`` float64
Gram matrix is far cheaper than recomputing kernel rows.

The loop is tuned without changing a single output bit (pinned against the
mask-rebuilding loop it replaced, kept in ``tests/oracles.py``):

* the I_up / I_low masks are boolean arrays with running counts; a step moves
  only α_i and α_j, so only entries i and j are re-evaluated, with the same
  predicates on Python floats;
* ``-y·grad`` is written into preallocated buffers whose off-set entries hold
  ∓inf, and ``argmax`` / ``argmin`` still pick the first index on ties;
* the two-variable step runs on Python-float mirrors of y, C, diag(Q) and α,
  the same IEEE binary64 operations in the same order;
* ``Q`` is built transposed, so the gradient update reads two contiguous rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SMOParams", "SMOResult", "smo_solve"]


@dataclass
class SMOParams:
    """Solver configuration."""

    #: Soft-margin penalty for the positive class.
    c_positive: float = 1.0
    #: Soft-margin penalty for the negative class.
    c_negative: float = 1.0
    #: KKT violation tolerance used as the stopping criterion.
    tol: float = 1e-3
    #: Hard cap on the number of SMO iterations (pair updates).
    max_iter: int = 200_000
    #: Numerical floor below which an α is treated as exactly zero.
    alpha_floor: float = 1e-8


@dataclass
class SMOResult:
    """Solution of the dual problem."""

    alpha: np.ndarray
    bias: float
    n_iterations: int
    converged: bool
    #: Final maximal KKT violation (m(α) − M(α)).
    final_violation: float

    def support_mask(self, floor: float = 1e-8) -> np.ndarray:
        """Boolean mask of the training samples with non-negligible α."""
        return self.alpha > floor


def _per_sample_c(y: np.ndarray, params: SMOParams) -> np.ndarray:
    c = np.where(y > 0, params.c_positive, params.c_negative)
    return c.astype(float)


def _compute_bias(grad: np.ndarray, alpha: np.ndarray, y: np.ndarray, c: np.ndarray) -> float:
    """Bias from the KKT conditions of the final iterate.

    Free support vectors (0 < α < C) pin the bias exactly; when none exists the
    midpoint of the admissible interval is used, as in LIBSVM.
    """
    free = (alpha > 1e-8) & (alpha < c - 1e-8)
    score = -y * grad
    if np.any(free):
        return float(np.mean(score[free]))
    up_mask = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    low_mask = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    hi = np.max(score[up_mask]) if np.any(up_mask) else 0.0
    lo = np.min(score[low_mask]) if np.any(low_mask) else 0.0
    return float((hi + lo) / 2.0)


def smo_solve(
    kernel_matrix: np.ndarray,
    y: np.ndarray,
    params: Optional[SMOParams] = None,
) -> SMOResult:
    """Solve the C-SVC dual for a precomputed kernel matrix.

    Parameters
    ----------
    kernel_matrix:
        The ``(n, n)`` Gram matrix ``k(x_i, x_j)`` of the training samples.
    y:
        Labels in ``{-1, +1}``.
    params:
        Solver configuration (per-class penalties, tolerance, iteration cap).

    Returns
    -------
    :class:`SMOResult` with the dual variables and the bias term of
    Equation 1 of the paper.  Raises ``ValueError`` for a non-square or
    non-finite kernel matrix, for labels outside ``{-1, +1}`` and for a
    training set with one class only.
    """
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
    if not np.isfinite(K).all():
        raise ValueError("kernel_matrix must be finite")

    c = _per_sample_c(y, params)
    # Row k of ``Qt`` is column k of ``Q = (y yᵀ) ∘ K``: ``(y_k y_m) K_mk``
    # equals ``Q_mk`` bit for bit because ``y_k y_m = y_m y_k``.  The
    # gradient update then reads two contiguous rows.
    Qt = np.multiply(y[:, None], y[None, :])
    np.multiply(Qt, K.T, out=Qt)

    # Python-float mirrors of everything the two-variable step reads.
    y_l = y.tolist()
    c_l = c.tolist()
    q_diag = Qt.diagonal().tolist()
    alpha_l = [0.0] * n
    grad = -np.ones(n)  # gradient of ½αᵀQα − eᵀα at α = 0

    # I_up: y=+1 & alpha<C  or  y=-1 & alpha>0
    # I_low: y=+1 & alpha>0  or  y=-1 & alpha<C
    # At α = 0 that is the positive (negative) class wherever 0 < C.
    up = (y > 0) & (c > 0)
    low = (y < 0) & (c > 0)
    up_l = up.tolist()
    low_l = low.tolist()
    n_up = up_l.count(True)
    n_low = low_l.count(True)

    neg_y = -y
    score = np.empty(n)
    # ``score`` on the set, -inf (+inf) off it: the arrays ``argmax``
    # (``argmin``) selects the maximal violating pair from, first index on ties.
    up_score = np.full(n, -np.inf)
    low_score = np.full(n, np.inf)
    step_i = np.empty(n)
    step_j = np.empty(n)

    tol = params.tol
    n_iter = 0
    converged = False
    violation = math.inf
    while n_iter < params.max_iter:
        # Maximal-violating-pair selection (LIBSVM WSS1).
        if not n_up or not n_low:
            violation = 0.0
            converged = True
            break
        np.multiply(neg_y, grad, out=score)
        np.copyto(up_score, score, where=up)
        np.copyto(low_score, score, where=low)
        i = int(up_score.argmax())
        j = int(low_score.argmin())
        violation = up_score.item(i) - low_score.item(j)
        if violation <= tol:
            converged = True
            break

        # Analytic solution of the two-variable sub-problem (see Fan, Chen,
        # Lin, "Working set selection using second order information").
        y_i, y_j = y_l[i], y_l[j]
        c_i, c_j = c_l[i], c_l[j]
        a_i, a_j = alpha_l[i], alpha_l[j]
        quad = q_diag[i] + q_diag[j] - 2.0 * y_i * y_j * Qt.item(j, i)
        quad = max(quad, 1e-12)
        if y_i != y_j:
            delta = (-grad.item(i) - grad.item(j)) / quad
            diff = a_i - a_j
            alpha_i_new = a_i + delta
            alpha_j_new = a_j + delta
            if diff > 0:
                if alpha_j_new < 0:
                    alpha_j_new = 0.0
                    alpha_i_new = diff
            else:
                if alpha_i_new < 0:
                    alpha_i_new = 0.0
                    alpha_j_new = -diff
            if diff > c_i - c_j:
                if alpha_i_new > c_i:
                    alpha_i_new = c_i
                    alpha_j_new = c_i - diff
            else:
                if alpha_j_new > c_j:
                    alpha_j_new = c_j
                    alpha_i_new = c_j + diff
        else:
            delta = (grad.item(i) - grad.item(j)) / quad
            summ = a_i + a_j
            alpha_i_new = a_i - delta
            alpha_j_new = a_j + delta
            if summ > c_i:
                if alpha_i_new > c_i:
                    alpha_i_new = c_i
                    alpha_j_new = summ - c_i
            else:
                if alpha_j_new < 0:
                    alpha_j_new = 0.0
                    alpha_i_new = summ
            if summ > c_j:
                if alpha_j_new > c_j:
                    alpha_j_new = c_j
                    alpha_i_new = summ - c_j
            else:
                if alpha_i_new < 0:
                    alpha_i_new = 0.0
                    alpha_j_new = summ

        delta_i = alpha_i_new - a_i
        delta_j = alpha_j_new - a_j
        if abs(delta_i) < 1e-14 and abs(delta_j) < 1e-14:
            # Numerically stuck on this pair: declare convergence at the
            # current violation level rather than spinning.
            converged = violation <= max(tol * 10.0, 1e-2)
            break
        alpha_l[i] = alpha_i_new
        alpha_l[j] = alpha_j_new
        # grad += Q[:, i] * delta_i + Q[:, j] * delta_j, in that order.
        np.multiply(Qt[i], delta_i, out=step_i)
        np.multiply(Qt[j], delta_j, out=step_j)
        np.add(step_i, step_j, out=step_i)
        np.add(grad, step_i, out=grad)
        n_iter += 1

        # Only α_i and α_j moved, so only their set memberships can change
        # (for i == j the second pass finds nothing left to flip).
        for k in (i, j):
            a_k = alpha_l[k]
            below, above = a_k < c_l[k], a_k > 0
            in_up, in_low = (below, above) if y_l[k] > 0 else (above, below)
            if in_up != up_l[k]:
                up_l[k] = up[k] = in_up
                n_up += 1 if in_up else -1
                if not in_up:
                    up_score[k] = -np.inf
            if in_low != low_l[k]:
                low_l[k] = low[k] = in_low
                n_low += 1 if in_low else -1
                if not in_low:
                    low_score[k] = np.inf

    alpha = np.array(alpha_l)
    alpha[alpha < params.alpha_floor] = 0.0
    bias = _compute_bias(grad, alpha, y, c)
    return SMOResult(
        alpha=alpha,
        bias=bias,
        n_iterations=n_iter,
        converged=converged,
        final_violation=float(violation if math.isfinite(violation) else 0.0),
    )
