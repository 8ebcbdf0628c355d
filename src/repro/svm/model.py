"""Trained SVM model container, training entry point and inference.

:class:`SVMModel` stores exactly the quantities the hardware accelerator of
Figure 2 needs: the support vectors (the content of the local SV memory), the
signed coefficients ``α_i y_i`` (the MAC2 multiplicands), the bias ``b`` and
the kernel.  The float-domain :meth:`SVMModel.decision_function` is the
reference against which the fixed-point pipeline of :mod:`repro.quant` is
validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.svm.kernels import Kernel, PolynomialKernel
from repro.svm.scaling import StandardScaler, make_scaler
from repro.svm.smo import SMOParams, SMOResult, smo_solve

__all__ = ["SVMTrainParams", "SVMModel", "train_svm", "class_weighted_penalties"]


@dataclass
class SVMTrainParams:
    """Training configuration for :func:`train_svm`."""

    #: Base soft-margin penalty.
    c: float = 1.0
    #: When True, per-class penalties are rebalanced inversely to the class
    #: frequencies ("balanced" weighting) — essential with rare seizures.
    balanced: bool = True
    #: Feature normalisation fitted on the training fold: ``"standard"``
    #: (zero-mean / unit-variance, the default — it keeps the polynomial
    #: kernels well conditioned), ``"pow2"`` (shift-only, embedded-friendly)
    #: or ``"none"``.
    scaling: str = "standard"
    #: KKT tolerance of the SMO solver.
    tol: float = 1e-3
    #: Iteration cap of the SMO solver.
    max_iter: int = 200_000


@dataclass
class SVMModel:
    """A trained soft-margin SVM (Equation 1 of the paper)."""

    support_vectors: np.ndarray
    #: Signed dual coefficients ``α_i y_i`` of each support vector.
    dual_coef: np.ndarray
    bias: float
    kernel: Kernel
    #: Raw (unsigned) α of each support vector — needed by the SV-budgeting
    #: norm ``‖α_i‖² · k(x_i, x_i)``.
    alpha: np.ndarray
    #: Labels of the support vectors.
    sv_labels: np.ndarray
    #: Scaler applied to inputs before kernel evaluation (None = identity).
    scaler: Optional[StandardScaler] = None
    #: Names of the features this model consumes (column order of the SVs).
    feature_names: Optional[Sequence[str]] = None
    #: Diagnostics from the SMO solver.
    n_iterations: int = 0
    converged: bool = True
    #: Row indices (into the training matrix passed to ``train_svm``) of the
    #: support vectors; used by the SV-budgeting loop to remove training rows.
    support_indices: Optional[np.ndarray] = None

    @property
    def n_support_vectors(self) -> int:
        return int(self.support_vectors.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.support_vectors.shape[1])

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(
                "expected %d features, got %d" % (self.n_features, X.shape[1])
            )
        if self.scaler is not None:
            X = self.scaler.transform(X)
        return X

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score ``Σ α_i y_i k(x, x_i) + b`` for each row."""
        X = self._prepare(X)
        gram = self.kernel(X, self.support_vectors)
        return gram @ self.dual_coef + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels in ``{-1, +1}`` (the sign of the decision function)."""
        scores = self.decision_function(X)
        labels = np.where(scores >= 0.0, 1, -1)
        return labels.astype(int)

    def scores_and_labels(self, X: np.ndarray) -> tuple:
        """Decision scores and their sign labels from one kernel evaluation.

        Mirrors :meth:`QuantizedSVM.scores_and_labels
        <repro.quant.quantized_model.QuantizedSVM.scores_and_labels>` so the
        batched serving drain can treat float and fixed-point classifiers
        uniformly without evaluating the Gram matrix twice.
        """
        scores = self.decision_function(X)
        return scores, np.where(scores >= 0.0, 1, -1).astype(int)

    def as_backend(self, feature_indices=None, name: Optional[str] = None):
        """Wrap this model as a serving-layer inference backend.

        The adapter (:class:`~repro.svm.backend.FloatSVMBackend`) selects the
        model's ``feature_indices`` columns from the fleet's full-width window
        vectors before evaluation, so a feature-reduced design point can live
        in the same :class:`~repro.serving.registry.ModelRegistry` as
        full-width ones.
        """
        from repro.svm.backend import FloatSVMBackend

        return FloatSVMBackend(self, feature_indices=feature_indices, name=name)

    def scaled_support_vectors(self) -> np.ndarray:
        """The support vectors in the (scaled) space seen by the kernel.

        These are exactly the words stored in the accelerator's SV memory, and
        the values on which the fixed-point range selection of
        :mod:`repro.quant.ranges` operates.
        """
        return self.support_vectors.copy()

    def sv_norms(self) -> np.ndarray:
        """Budgeting norm ``‖α_i‖² · k(x_i, x_i)`` of every support vector."""
        diag = self.kernel.diagonal(self.support_vectors)
        return (self.alpha**2) * diag

    def memory_words(self) -> int:
        """Number of feature words held in the accelerator SV memory."""
        return self.n_support_vectors * self.n_features


def class_weighted_penalties(y: np.ndarray, c: float, balanced: bool) -> SMOParams:
    """Per-class penalties; 'balanced' weighting scales C inversely to class size."""
    y = np.asarray(y)
    if balanced:
        n = y.shape[0]
        n_pos = max(int(np.sum(y > 0)), 1)
        n_neg = max(int(np.sum(y < 0)), 1)
        c_pos = c * n / (2.0 * n_pos)
        c_neg = c * n / (2.0 * n_neg)
    else:
        c_pos = c_neg = c
    return SMOParams(c_positive=c_pos, c_negative=c_neg)


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    kernel: Optional[Kernel] = None,
    params: Optional[SVMTrainParams] = None,
    feature_names: Optional[Sequence[str]] = None,
) -> SVMModel:
    """Train a soft-margin SVM on a labelled feature matrix.

    Parameters
    ----------
    X:
        Training features, shape ``(n_samples, n_features)``.
    y:
        Labels in ``{-1, +1}``.
    kernel:
        Kernel function; defaults to the paper's quadratic kernel.
    params:
        Training configuration.
    feature_names:
        Optional column names recorded in the model for reporting.

    Returns
    -------
    :class:`SVMModel`.  Raises ``ValueError`` for a non-finite ``X``.
    """
    if kernel is None:
        kernel = PolynomialKernel(degree=2)
    if params is None:
        params = SVMTrainParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have the same number of rows")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")

    scaler = make_scaler(params.scaling)
    X_train = X
    if scaler is not None:
        scaler.fit(X)
        X_train = scaler.transform(X)

    smo_params = class_weighted_penalties(y, params.c, params.balanced)
    smo_params.tol = params.tol
    smo_params.max_iter = params.max_iter

    gram = kernel(X_train, X_train)
    result: SMOResult = smo_solve(gram, y, smo_params)

    mask = result.support_mask()
    if not np.any(mask):
        # Degenerate but possible on tiny folds: keep the sample closest to
        # the boundary of each class so the model stays well-formed.
        mask = np.zeros(y.shape[0], dtype=bool)
        mask[int(np.argmax(y > 0))] = True
        mask[int(np.argmax(y < 0))] = True

    alpha = result.alpha[mask]
    labels = y[mask]
    return SVMModel(
        support_vectors=X_train[mask].copy(),
        dual_coef=alpha * labels,
        bias=result.bias,
        kernel=kernel,
        alpha=alpha,
        sv_labels=labels.astype(int),
        scaler=scaler,
        feature_names=list(feature_names) if feature_names is not None else None,
        n_iterations=result.n_iterations,
        converged=result.converged,
        support_indices=np.nonzero(mask)[0],
    )
