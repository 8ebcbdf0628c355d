"""Bit-exactness of the incremental-mask SMO solver against its loop oracle.

``repro.svm.smo.smo_solve`` keeps the I_up/I_low masks as running arrays,
updates only the two working-set entries after each step and runs the
two-variable sub-problem on Python floats.  ``tests/oracles.py`` keeps the
loop it replaced, which rebuilds both masks from all of α at every iteration.
Every test here demands the same α bytes, bias, iteration count, convergence
flag and final violation from the two.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.svm.kernels import GaussianKernel, LinearKernel, PolynomialKernel
from repro.svm.model import class_weighted_penalties, train_svm
from repro.svm.smo import SMOParams, SMOResult, smo_solve
from tests import oracles

KERNELS = {
    "linear": LinearKernel(),
    "quadratic": PolynomialKernel(degree=2),
    "cubic": PolynomialKernel(degree=3),
    "gaussian": GaussianKernel(),
}


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_solution(kernel_matrix, y, params) -> SMOResult:
    result = smo_solve(kernel_matrix, y, params)
    expected = oracles.smo_solve(kernel_matrix, y, params)
    assert result.alpha.dtype == expected.alpha.dtype
    assert result.alpha.tobytes() == expected.alpha.tobytes()
    assert _bits(result.bias) == _bits(expected.bias)
    assert result.n_iterations == expected.n_iterations
    assert result.converged == expected.converged
    assert _bits(result.final_violation) == _bits(expected.final_violation)
    assert type(result.bias) is float and type(result.final_violation) is float
    return result


@st.composite
def smo_problems(draw):
    """A kernel matrix, labels and solver settings, ties and edge cases included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    d = draw(st.integers(1, 6))
    X = rng.normal(size=(n, d))
    labels = draw(st.sampled_from(["mixed", "mixed", "one positive", "one negative"]))
    if labels == "mixed":
        y = np.where(rng.random(n) < rng.uniform(0.1, 0.6), 1.0, -1.0)
        y[rng.choice(n, size=2, replace=False)] = (1.0, -1.0)
        X[y > 0] += draw(st.sampled_from([0.0, 0.5, 2.0]))
    else:
        sign = 1.0 if labels == "one positive" else -1.0
        y = np.full(n, -sign)
        y[rng.integers(n)] = sign
    if draw(st.booleans()):
        # Duplicate rows, some under the opposite label: tied scores.
        copies = rng.integers(0, n, size=max(1, n // 3))
        X[rng.integers(0, n, size=copies.size)] = X[copies]
    kernel = draw(st.sampled_from(sorted(KERNELS)))
    K = KERNELS[kernel](X, X)
    # A huge kernel scale makes every step smaller than the 1e-14 floor:
    # the stuck-pair exit.
    K *= draw(st.sampled_from([1.0, 1.0, 1.0, 1e18]))
    if draw(st.booleans()):
        # K_ij != K_ji in the last bits, as a blocked matrix product can give.
        K *= 1.0 + 1e-15 * rng.standard_normal(K.shape)
    c = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    if draw(st.booleans()):
        params = class_weighted_penalties(y, c, balanced=True)
    else:
        params = SMOParams(c_positive=c, c_negative=c)
    params.tol = draw(st.sampled_from([1e-3, 1e-4]))
    params.max_iter = draw(st.sampled_from([0, 7, 4000, 4000]))
    return K, y, params


@given(problem=smo_problems())
@settings(max_examples=120, deadline=None)
def test_smo_matches_the_mask_rebuilding_oracle(problem):
    _assert_same_solution(*problem)


def _separable(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    return X, y


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("weighted", [False, True])
def test_smo_matches_the_oracle_per_kernel(kernel, weighted):
    X, y = _separable(100, seed=3)
    params = class_weighted_penalties(y, 10.0, balanced=weighted)
    result = _assert_same_solution(KERNELS[kernel](X, X), y, params)
    assert result.n_iterations > 10


def test_smo_matches_the_oracle_when_the_iteration_cap_hits():
    X, y = _separable(120, seed=4)
    params = SMOParams(c_positive=100.0, c_negative=100.0, tol=1e-6, max_iter=25)
    result = _assert_same_solution(PolynomialKernel(degree=2)(X, X), y, params)
    assert result.n_iterations == 25 and not result.converged


def test_smo_matches_the_oracle_on_a_stuck_pair():
    X, y = _separable(40, seed=5)
    result = _assert_same_solution(1e18 * (X @ X.T), y, SMOParams())
    assert result.n_iterations < SMOParams().max_iter
    assert not result.converged and result.final_violation > SMOParams().tol


def test_smo_matches_the_oracle_on_duplicate_rows():
    X, y = _separable(60, seed=6)
    X = np.vstack([X, X])
    y = np.concatenate([y, -y])
    _assert_same_solution(X @ X.T, y, SMOParams(c_positive=1.0, c_negative=1.0))


def test_smo_matches_the_oracle_on_an_asymmetric_gram():
    """The solver reads column i of ``Q`` as the oracle does, not row i."""
    X, y = _separable(80, seed=7)
    K = PolynomialKernel(degree=2)(X, X)
    K *= 1.0 + 1e-15 * np.random.default_rng(8).standard_normal(K.shape)
    assert not np.array_equal(K, K.T)
    _assert_same_solution(K, y, SMOParams(c_positive=10.0, c_negative=10.0))


@pytest.mark.parametrize("n", [2, 3])
def test_smo_matches_the_oracle_on_tiny_problems(n):
    y = np.array([1.0, -1.0, 1.0][:n])
    _assert_same_solution(np.eye(n), y, SMOParams())


def test_train_svm_on_the_golden_cohort_matches_the_oracle_solver(
    feature_matrix, quadratic_model
):
    """The cohort ``tests/data/make_golden.py`` trains its model on."""
    with mock.patch("repro.svm.model.smo_solve", oracles.smo_solve):
        expected = train_svm(feature_matrix.X, feature_matrix.y, kernel=PolynomialKernel(degree=2))
    for field in ("support_vectors", "dual_coef", "alpha", "sv_labels", "support_indices"):
        a, b = getattr(quadratic_model, field), getattr(expected, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert _bits(quadratic_model.bias) == _bits(expected.bias)
    assert quadratic_model.n_iterations == expected.n_iterations
    assert quadratic_model.converged and expected.converged
