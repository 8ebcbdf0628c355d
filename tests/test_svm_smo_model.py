"""Unit tests for the SMO solver and the SVM training / inference API."""

import numpy as np
import pytest

from repro.svm.kernels import LinearKernel, PolynomialKernel
from repro.svm.model import SVMTrainParams, class_weighted_penalties, train_svm
from repro.svm.smo import SMOParams, smo_solve


class TestSMOSolver:
    def _solve_linear(self, X, y, c=1.0):
        gram = X @ X.T
        return smo_solve(gram, y, SMOParams(c_positive=c, c_negative=c))

    def test_dual_constraints_satisfied(self, separable_dataset):
        X, y = separable_dataset
        result = self._solve_linear(X, y)
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= 1.0 + 1e-9)
        assert abs(np.dot(result.alpha, y)) < 1e-6

    def test_converges_on_separable_data(self, separable_dataset):
        X, y = separable_dataset
        result = self._solve_linear(X, y, c=10.0)
        assert result.converged

    def test_perfect_classification_of_training_set(self, separable_dataset):
        X, y = separable_dataset
        result = self._solve_linear(X, y, c=10.0)
        scores = (X @ X.T) @ (result.alpha * y) + result.bias
        assert np.all(np.sign(scores) == y)

    def test_sparse_solution_on_separable_data(self, separable_dataset):
        X, y = separable_dataset
        result = self._solve_linear(X, y, c=10.0)
        assert np.sum(result.support_mask()) < X.shape[0] / 2

    def test_alpha_capped_by_per_class_c(self):
        rng = np.random.default_rng(8)
        # Overlapping classes force some alphas to the box bound.
        X = np.vstack([rng.normal(0.3, 1.0, (40, 2)), rng.normal(-0.3, 1.0, (40, 2))])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        params = SMOParams(c_positive=0.5, c_negative=2.0)
        result = smo_solve(X @ X.T, y, params)
        assert np.all(result.alpha[y > 0] <= 0.5 + 1e-9)
        assert np.all(result.alpha[y < 0] <= 2.0 + 1e-9)

    def test_rejects_single_class(self):
        X = np.random.default_rng(9).normal(size=(10, 2))
        with pytest.raises(ValueError):
            smo_solve(X @ X.T, np.ones(10), SMOParams())

    def test_rejects_bad_labels(self):
        X = np.random.default_rng(10).normal(size=(4, 2))
        with pytest.raises(ValueError):
            smo_solve(X @ X.T, np.array([0, 1, 1, 0]), SMOParams())

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError):
            smo_solve(np.zeros((3, 4)), np.array([1, -1, 1]), SMOParams())


class TestClassWeights:
    def test_balanced_weights_scale_with_imbalance(self):
        y = np.array([1] * 10 + [-1] * 90)
        params = class_weighted_penalties(y, c=1.0, balanced=True)
        assert params.c_positive == pytest.approx(5.0)
        assert params.c_negative == pytest.approx(100.0 / 180.0)

    def test_unbalanced_weights_equal(self):
        y = np.array([1] * 10 + [-1] * 90)
        params = class_weighted_penalties(y, c=2.0, balanced=False)
        assert params.c_positive == params.c_negative == 2.0


class TestTrainSVM:
    def test_training_produces_support_vectors(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y, kernel=LinearKernel())
        assert 0 < model.n_support_vectors <= X.shape[0]
        assert model.support_vectors.shape[1] == 2
        assert model.dual_coef.shape == (model.n_support_vectors,)

    def test_training_accuracy_on_separable_data(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y, kernel=LinearKernel())
        assert np.mean(model.predict(X) == y) > 0.95

    def test_quadratic_solves_xor_like_problem(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1, -1)
        model = train_svm(X, y, kernel=PolynomialKernel(degree=2), params=SVMTrainParams(c=10.0))
        assert np.mean(model.predict(X) == y) > 0.95

    def test_linear_fails_xor_like_problem(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1, -1)
        model = train_svm(X, y, kernel=LinearKernel(), params=SVMTrainParams(c=10.0))
        assert np.mean(model.predict(X) == y) < 0.8

    def test_decision_function_sign_matches_predict(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y)
        scores = model.decision_function(X)
        labels = model.predict(X)
        assert np.all((scores >= 0) == (labels == 1))

    def test_feature_count_validated_at_predict(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 5)))

    def test_dual_coef_sign_matches_labels(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y, kernel=LinearKernel())
        assert np.all(np.sign(model.dual_coef) == model.sv_labels)

    def test_support_indices_refer_to_training_rows(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y, kernel=LinearKernel(), params=SVMTrainParams(scaling="none"))
        assert np.allclose(model.support_vectors, X[model.support_indices])

    def test_scaling_none_keeps_raw_support_vectors(self, separable_dataset):
        X, y = separable_dataset
        model = train_svm(X, y, params=SVMTrainParams(scaling="none"))
        assert model.scaler is None

    def test_sv_norms_positive(self, quadratic_model):
        norms = quadratic_model.sv_norms()
        assert norms.shape == (quadratic_model.n_support_vectors,)
        assert np.all(norms > 0.0)

    def test_memory_words(self, quadratic_model):
        expected = quadratic_model.n_support_vectors * quadratic_model.n_features
        assert quadratic_model.memory_words() == expected

    def test_cohort_model_beats_chance(self, feature_matrix, quadratic_model):
        predictions = quadratic_model.predict(feature_matrix.X)
        accuracy = np.mean(predictions == feature_matrix.y)
        assert accuracy > 0.8


class TestNonFiniteTrainingData:
    """Non-finite data is refused, never trained into a "converged" NaN model."""

    @staticmethod
    def _problem():
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 5))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=60) > 0, 1, -1)
        return X, y

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_train_svm_rejects_a_non_finite_feature(self, bad):
        X, y = self._problem()
        X[17, 3] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            train_svm(X, y)

    @pytest.mark.parametrize("scaling", ["standard", "none"])
    def test_train_svm_rejects_nan_before_scaling(self, scaling):
        X, y = self._problem()
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            train_svm(X, y, params=SVMTrainParams(scaling=scaling))

    def test_smo_rejects_an_overflowing_cubic_kernel(self):
        X, y = self._problem()
        gram = PolynomialKernel(degree=3)(X * 1e110, X * 1e110)
        assert not np.isfinite(gram).all()
        with pytest.raises(ValueError, match="kernel_matrix must be finite"):
            smo_solve(gram, y, SMOParams())
        with pytest.raises(ValueError, match="kernel_matrix must be finite"):
            train_svm(
                X * 1e110, y, kernel=PolynomialKernel(degree=3),
                params=SVMTrainParams(scaling="none"),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_smo_rejects_one_non_finite_kernel_entry(self, bad):
        X, y = self._problem()
        gram = X @ X.T
        gram[5, 40] = bad
        with pytest.raises(ValueError, match="finite"):
            smo_solve(gram, y, SMOParams())

    def test_finite_training_still_converges(self):
        X, y = self._problem()
        model = train_svm(X, y)
        assert model.converged
        assert np.isfinite(model.bias)
        assert np.isfinite(model.dual_coef).all()
