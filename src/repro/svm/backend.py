"""Float-domain inference backend: the serving adapter around ``SVMModel``.

The serving layer's :class:`~repro.serving.registry.ModelRegistry` maps every
patient to an *inference backend* — anything satisfying the structural
:class:`~repro.serving.registry.InferenceBackend` protocol.  A bare
:class:`~repro.svm.model.SVMModel` already satisfies it, but a *tailored*
design point usually consumes a subset of the 53 extracted features: the
fleet's monitors always emit full-width feature vectors, so the model needs a
front-end that selects its own columns before the kernel sees them.
:class:`FloatSVMBackend` is that thin adapter: column projection + a stable
human-readable label for per-model serving stats, delegating the actual
mathematics to the wrapped model unchanged (scores are therefore bit-identical
to calling the model directly on pre-sliced inputs).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.svm.model import SVMModel

__all__ = ["FloatSVMBackend", "project_features"]


def project_features(X: np.ndarray, feature_indices: Optional[np.ndarray]) -> np.ndarray:
    """Select a backend's feature columns from full-width window vectors.

    ``feature_indices is None`` means the backend consumes the vectors as-is.
    The projection is the only thing the serving adapters add in front of the
    models, so it is shared by the float and fixed-point backends.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if feature_indices is None:
        return X
    if feature_indices.size:
        if int(feature_indices.min()) < 0:
            # Negative indices would wrap silently — in the alarm path a
            # caller's off-by-one must fail loudly, not select a wrong column.
            raise ValueError(
                "backend feature indices must be non-negative, got %d"
                % int(feature_indices.min())
            )
        if int(feature_indices.max()) >= X.shape[1]:
            raise ValueError(
                "backend selects feature %d but the window vectors have only %d features"
                % (int(feature_indices.max()), X.shape[1])
            )
    return X[:, feature_indices]


class FloatSVMBackend:
    """A trained float SVM behind the serving-layer backend interface.

    Parameters
    ----------
    model:
        The trained :class:`~repro.svm.model.SVMModel`.
    feature_indices:
        Optional column indices (into the fleet's full-width feature vectors)
        this model consumes, in the order the model was trained on.  ``None``
        means the model consumes the full vector.
    name:
        Optional label override for :meth:`describe` (per-model drain stats);
        defaults to a ``float64[f=...,sv=...]`` signature.
    """

    def __init__(
        self,
        model: SVMModel,
        feature_indices: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.model = model
        self.feature_indices = (
            None
            if feature_indices is None
            else np.asarray(list(feature_indices), dtype=int)
        )
        if self.feature_indices is not None and self.feature_indices.size != model.n_features:
            raise ValueError(
                "feature_indices selects %d columns but the model consumes %d features"
                % (self.feature_indices.size, model.n_features)
            )
        self._name = name

    # ------------------------------------------------------------- protocol
    @property
    def n_features(self) -> int:
        """Features the wrapped model consumes (after column projection)."""
        return self.model.n_features

    @property
    def n_support_vectors(self) -> int:
        return self.model.n_support_vectors

    def _project(self, X: np.ndarray) -> np.ndarray:
        return project_features(X, self.feature_indices)

    def scores_and_labels(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.model.scores_and_labels(self._project(X))

    def describe(self) -> str:
        """Stable label used by per-model serving stats and drain counters."""
        if self._name is not None:
            return self._name
        return "float64[f=%d,sv=%d]" % (self.model.n_features, self.model.n_support_vectors)

    def __repr__(self) -> str:
        return "FloatSVMBackend(%s)" % self.describe()
