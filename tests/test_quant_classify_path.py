"""One classify path: every entry point of ``QuantizedSVM`` maps one accumulator.

``decision_function``, ``predict`` and ``scores_and_labels`` are the MAC2
accumulator scaled and signed.  These tests pin that on the exact
(arbitrary-precision) path, which wide words and a homogeneous 64-bit
datapath (the width of Figure 7's baseline) take, and pin which words take
which path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import QuantizationConfig, QuantizedSVM

EXACT_CONFIGS = {
    "per-feature-16bit": QuantizationConfig(feature_bits=16, coeff_bits=16),
    "homogeneous-64bit": QuantizationConfig(
        feature_bits=64, coeff_bits=64, per_feature_scaling=False, datapath_cap_bits=64
    ),
}


@pytest.fixture(scope="module", params=sorted(EXACT_CONFIGS))
def exact_detector(request, quadratic_model):
    detector = QuantizedSVM(quadratic_model, EXACT_CONFIGS[request.param])
    assert not detector._use_fast_path and not detector._use_fused
    return detector


class TestExactPath:
    def test_scores_and_labels_match_the_single_entry_points(
        self, exact_detector, feature_matrix
    ):
        X = feature_matrix.X[:16]
        scores, labels = exact_detector.scores_and_labels(X)
        assert scores.dtype == np.float64 and labels.dtype == int
        assert scores.tobytes() == exact_detector.decision_function(X).tobytes()
        assert np.array_equal(labels, exact_detector.predict(X))
        assert set(np.unique(labels)) <= {-1, 1}

    def test_batch_matches_per_row(self, exact_detector, feature_matrix):
        X = feature_matrix.X[:16]
        scores, labels = exact_detector.scores_and_labels(X)
        rows = [exact_detector.scores_and_labels(X[i : i + 1]) for i in range(X.shape[0])]
        assert scores.tobytes() == np.concatenate([s for s, _ in rows]).tobytes()
        assert np.array_equal(labels, np.concatenate([lab for _, lab in rows]))

    def test_scores_are_the_exact_accumulator_scaled(self, exact_detector, feature_matrix):
        X = feature_matrix.X[:16]
        acc = exact_detector._accumulate_exact(exact_detector.quantize_input(X))
        assert acc.dtype == object and all(type(v) is int for v in acc)
        expected = np.asarray([float(v) for v in acc]) * exact_detector.output_scale
        scores, labels = exact_detector.scores_and_labels(X)
        assert scores.tobytes() == expected.tobytes()
        assert labels.tolist() == [1 if v >= 0 else -1 for v in acc]

    def test_empty_batch(self, exact_detector, quadratic_model):
        empty = np.empty((0, quadratic_model.support_vectors.shape[1]))
        scores, labels = exact_detector.scores_and_labels(empty)
        assert scores.shape == (0,) and labels.shape == (0,)
        assert exact_detector.decision_function(empty).shape == (0,)
        assert exact_detector.predict(empty).shape == (0,)


class TestPathSelection:
    """Which words take which path, on the shared test-cohort detector."""

    @pytest.mark.parametrize(
        "feature_bits, coeff_bits, mac1",
        [(9, 15, np.int32), (13, 15, np.int64)],
    )
    def test_mac1_word_type(self, quadratic_model, feature_bits, coeff_bits, mac1):
        detector = QuantizedSVM(
            quadratic_model, QuantizationConfig(feature_bits=feature_bits, coeff_bits=coeff_bits)
        )
        assert detector._use_fused
        assert detector._mac1_dtype == mac1
        assert detector._use_narrow_mac1 == (mac1 is np.int32)
        detector.predict(np.zeros((2, detector.n_features)))
        ws = detector._tls.ws
        assert ws.q.dtype == mac1 and ws.mac1.dtype == mac1 and ws.acc1.dtype == np.int64

    @pytest.mark.parametrize("feature_bits", [16, 17, 24])
    def test_wide_words_take_the_exact_path(self, quadratic_model, feature_bits):
        detector = QuantizedSVM(
            quadratic_model, QuantizationConfig(feature_bits=feature_bits, coeff_bits=15)
        )
        assert not detector._use_fast_path and not detector._use_fused
