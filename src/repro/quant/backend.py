"""Fixed-point inference backend: the serving adapter around ``QuantizedSVM``.

The fixed-point twin of :class:`repro.svm.backend.FloatSVMBackend`: it puts a
:class:`~repro.quant.quantized_model.QuantizedSVM` behind the serving layer's
:class:`~repro.serving.registry.InferenceBackend` protocol, selecting the
design point's feature columns from the fleet's full-width window vectors
before the integer pipeline quantises them.  The projection happens in the
float domain (it is pure column selection), so the scores stay bit-identical
to running the quantised model directly on pre-sliced inputs — the property
the heterogeneous-fleet parity suite pins.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.quant.quantized_model import QuantizationConfig, QuantizedSVM
from repro.svm.backend import project_features

__all__ = ["QuantizedSVMBackend"]


class QuantizedSVMBackend:
    """A fixed-point SVM pipeline behind the serving-layer backend interface.

    Parameters
    ----------
    quantized:
        The bit-accurate :class:`~repro.quant.quantized_model.QuantizedSVM`.
    feature_indices:
        Optional column indices (into the fleet's full-width feature vectors)
        this design point consumes; ``None`` for the full vector.
    name:
        Optional label override for :meth:`describe`; defaults to a
        ``q<Dbits>/<Abits>[f=...,sv=...]`` signature.
    """

    def __init__(
        self,
        quantized: QuantizedSVM,
        feature_indices: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.quantized = quantized
        self.feature_indices = (
            None
            if feature_indices is None
            else np.asarray(list(feature_indices), dtype=int)
        )
        if (
            self.feature_indices is not None
            and self.feature_indices.size != quantized.n_features
        ):
            raise ValueError(
                "feature_indices selects %d columns but the pipeline consumes %d features"
                % (self.feature_indices.size, quantized.n_features)
            )
        self._name = name

    # ------------------------------------------------------------- protocol
    @property
    def n_features(self) -> int:
        """Features the integer pipeline consumes (after column projection)."""
        return self.quantized.n_features

    @property
    def n_support_vectors(self) -> int:
        return self.quantized.n_support_vectors

    @property
    def config(self) -> "QuantizationConfig":
        """The :class:`~repro.quant.quantized_model.QuantizationConfig`."""
        return self.quantized.config

    def _project(self, X: np.ndarray) -> np.ndarray:
        return project_features(X, self.feature_indices)

    def scores_and_labels(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.quantized.scores_and_labels(self._project(X))

    def describe(self) -> str:
        """Stable label used by per-model serving stats and drain counters."""
        if self._name is not None:
            return self._name
        config = self.quantized.config
        return "q%d/%d[f=%d,sv=%d]" % (
            config.feature_bits,
            config.coeff_bits,
            self.quantized.n_features,
            self.quantized.n_support_vectors,
        )

    def __repr__(self) -> str:
        return "QuantizedSVMBackend(%s)" % self.describe()
