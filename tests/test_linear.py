import numpy as np
import pytest

from rwdetect.classifiers import (
    LogRegParams,
    SvmParams,
    fit_linear_svm,
    fit_logistic_regression,
    logistic_loss_and_gradient,
    svm_objective,
)
from rwdetect.errors import FitError

from conftest import matrix_from_dense, random_dense


class TestLinearSvm:
    def test_separable_1d(self):
        m, y = matrix_from_dense([[0]] * 5 + [[1]] * 5, labels=[0] * 5 + [1] * 5)
        model = fit_linear_svm(m, y)
        assert [p.label for p in model.predict(m)] == list(y.labels)

    def test_objective_not_worse_than_zero_vector(self):
        rng = np.random.default_rng(19)
        X = random_dense(rng, 30, 8)
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m, labels = matrix_from_dense(X, labels=y)
        params = SvmParams()
        model = fit_linear_svm(m, labels, params)

        y_pm = np.where(y == 1, 1.0, -1.0)
        w = np.asarray(model.weights)
        j_final = svm_objective(w, model.bias, X.astype(float), y_pm, params.regularization)
        j_zero = svm_objective(
            np.zeros(8), 0.0, X.astype(float), y_pm, params.regularization
        )
        assert j_final <= j_zero

    def test_duplicated_dataset_same_boundary_signs(self):
        m, y = matrix_from_dense(
            [[0, 1], [1, 0], [0, 0], [1, 1]], labels=[0, 1, 0, 1]
        )
        doubled, y2 = matrix_from_dense(
            [[0, 1], [1, 0], [0, 0], [1, 1]] * 2, labels=[0, 1, 0, 1] * 2
        )
        a = fit_linear_svm(m, y).predict(m)
        b = fit_linear_svm(doubled, y2).predict(m)
        assert [p.label for p in a] == [p.label for p in b]

    def test_single_class_rejected(self):
        m, y = matrix_from_dense([[0], [1]], labels=[1, 1], family_ids=[1, 1])
        with pytest.raises(FitError, match="both classes"):
            fit_linear_svm(m, y)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(20)
        X = random_dense(rng, 20, 5)
        y = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        m, labels = matrix_from_dense(X, labels=y)
        a = fit_linear_svm(m, labels, SvmParams(seed=4))
        b = fit_linear_svm(m, labels, SvmParams(seed=4))
        assert a.weights == b.weights and a.bias == b.bias

    def test_label_is_margin_sign_and_score_link_agrees(self):
        rng = np.random.default_rng(21)
        X = random_dense(rng, 25, 6)
        y = rng.integers(0, 2, size=25)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_linear_svm(m, labels)
        margins = model.margins(X.astype(float))
        for p, margin in zip(model.predict(m), margins):
            assert p.label == int(margin >= 0)
            assert p.label == int(p.score >= 0.5)


class TestLogisticRegression:
    def test_all_zero_features_balanced_labels(self):
        m, y = matrix_from_dense([[0], [0], [0], [0]], labels=[0, 1, 0, 1])
        model = fit_logistic_regression(m, y)
        assert model.weights == (0.0,)
        assert abs(model.bias) < 1e-9
        assert model.predict(m)[0].score == pytest.approx(0.5, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        X = random_dense(rng, 5, 8).astype(np.float64)
        y = rng.integers(0, 2, size=5).astype(np.float64)
        w = rng.normal(size=8)
        b = float(rng.normal())
        l2 = 0.01
        h = 1e-5

        loss, grad_w, grad_b = logistic_loss_and_gradient(w, b, X, y, l2)

        def loss_at(wv, bv):
            return logistic_loss_and_gradient(wv, bv, X, y, l2)[0]

        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd = (loss_at(w + e, b) - loss_at(w - e, b)) / (2 * h)
            assert abs(fd - grad_w[j]) / max(abs(fd), 1e-8) < 1e-5
        fd_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        assert abs(fd_b - grad_b) / max(abs(fd_b), 1e-8) < 1e-5

    def test_separable_1d_monotone_and_perfect(self):
        m, y = matrix_from_dense([[0]] * 4 + [[1]] * 4, labels=[0] * 4 + [1] * 4)
        model = fit_logistic_regression(m, y)
        preds = model.predict(m)
        assert [p.label for p in preds] == list(y.labels)
        assert preds[-1].score > preds[0].score

    def test_loss_monotone_decreasing_at_small_lr(self):
        rng = np.random.default_rng(32)
        X = random_dense(rng, 30, 6)
        y = rng.integers(0, 2, size=30)
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_logistic_regression(
            m, labels, LogRegParams(learning_rate=0.01, epochs=200)
        )
        history = model.loss_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_non_positive_learning_rate_rejected(self):
        m, y = matrix_from_dense([[0], [1]], labels=[0, 1])
        with pytest.raises(FitError, match="learning_rate"):
            fit_logistic_regression(m, y, LogRegParams(learning_rate=-1.0))
