import math
import tracemalloc

import numpy as np
import pytest

from rwdetect import cli
from rwdetect.classifiers import (
    LogRegParams,
    SvmParams,
    fit_linear_svm,
    fit_logistic_regression,
    labels_of,
    linear,
    logistic_gradient,
)
from rwdetect.classifiers.base import sigmoid, to_grid
from rwdetect.classifiers.linear import LinearSvmModel, LogRegModel, OneEntries
from rwdetect.errors import FitError

from conftest import random_dense, xy
from fixtures import (
    dense_logreg_fit,
    logistic_loss,
    sequential_svm_fit,
    svm_objective,
    synthesize_dataset,
    to_dense,
)
from test_golden import D, N, SIGNAL


def zero_edges(rng):
    """A 0/1 matrix whose first and last rows and columns are all zero."""
    X = random_dense(rng, 12, 6)
    X[[0, -1]] = 0
    X[:, [0, -1]] = 0
    return X


class TestLinearSvm:
    def test_iterates_stay_in_the_ball(self, monkeypatch):
        # 39 of 40 rows positive and dense: the first step does not cancel, and
        # without the projection an iterate reaches norm 4.3 against a radius of 1.
        rng = np.random.default_rng(5)
        X = (rng.random((40, 100)) < 0.9).astype(np.uint8)
        y = np.array([1] * 39 + [0])
        norms = []

        def recording(values, bound):
            norms.append(math.sqrt(np.sum(values * values)))
            return to_grid(values, bound)

        monkeypatch.setattr(linear, "to_grid", recording)
        fit_linear_svm(X, y, SvmParams(regularization=1.0, epochs=20))
        radius = 1.0  # 1 / sqrt(regularization)
        assert len(norms) == 21  # one step per epoch, then the average
        assert max(norms) <= radius * (1 + 1e-12)

    def test_separable_1d(self):
        X, y = xy([[0]] * 5 + [[1]] * 5, [0] * 5 + [1] * 5)
        model = fit_linear_svm(X, y, SvmParams())
        assert labels_of(model.predict(X)).tolist() == y.tolist()

    def test_objective_not_worse_than_zero_vector(self):
        rng = np.random.default_rng(19)
        X = random_dense(rng, 30, 8)
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = SvmParams()
        model = fit_linear_svm(X, y, params)

        y_pm = np.where(y == 1, 1.0, -1.0)
        w = np.asarray(model.weights)
        j_final = svm_objective(w, model.bias, X.astype(float), y_pm, params.regularization)
        j_zero = svm_objective(
            np.zeros(8), 0.0, X.astype(float), y_pm, params.regularization
        )
        assert j_final <= j_zero

    @pytest.mark.parametrize("params", [SvmParams(), SvmParams(regularization=1.0)])
    def test_objective_near_the_one_row_fit(self, params):
        # On the golden input the mini-batch fit's objective is at most 0.1 % above
        # that of the fit which stepped on one row at a time. It read 52 % below it
        # at the default regularization, and 0.001 % above it at regularization=1.
        matrix, y = synthesize_dataset(N, D, 0.25, SIGNAL, seed=77)
        X = to_dense(matrix)
        y_pm = np.where(y == 1, 1.0, -1.0)
        lam = params.regularization
        model = fit_linear_svm(X, y, params)
        new = svm_objective(np.asarray(model.weights), model.bias, X.astype(float), y_pm, lam)
        old = svm_objective(*sequential_svm_fit(X, y, params), X.astype(float), y_pm, lam)
        assert new <= old * 1.001

    def test_duplicated_dataset_same_boundary_signs(self):
        X, y = xy([[0, 1], [1, 0], [0, 0], [1, 1]], [0, 1, 0, 1])
        doubled, y2 = xy([[0, 1], [1, 0], [0, 0], [1, 1]] * 2, [0, 1, 0, 1] * 2)
        a = fit_linear_svm(X, y, SvmParams()).predict(X)
        b = fit_linear_svm(doubled, y2, SvmParams()).predict(X)
        assert labels_of(a).tolist() == labels_of(b).tolist()

    def test_single_class_rejected(self, tmp_path, capsys):
        # The svm is fit on a split's train partition, and the split needs both classes.
        data = tmp_path / "one_class.sparse"
        data.write_text("#FEATURES 1\nAPI:a\n#SAMPLES 2\ns0\t1\t\ns1\t3\tAPI:a\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(data), "--out", str(out),
                         "--model", "svm"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: stratified split requires both classes present\n"
        assert not out.exists()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(20)
        X = random_dense(rng, 20, 5)
        y = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        a = fit_linear_svm(X, y, SvmParams(seed=4))
        b = fit_linear_svm(X, y, SvmParams(seed=4))
        assert a.weights == b.weights and a.bias == b.bias

    def test_label_is_margin_sign_and_score_link_agrees(self):
        rng = np.random.default_rng(21)
        X = random_dense(rng, 25, 6)
        y = rng.integers(0, 2, size=25)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = fit_linear_svm(X, y, SvmParams())
        margins = X.astype(float) @ np.asarray(model.weights) + model.bias
        scores = model.predict(X)
        assert labels_of(scores).tolist() == (margins >= 0).astype(int).tolist()
        assert labels_of(scores).tolist() == (scores >= 0.5).astype(int).tolist()

    @pytest.mark.parametrize("seed", [22, 23])
    def test_scores_equal_a_per_row_scalar_sigmoid(self, seed):
        # predict applies the sigmoid to the whole margin array; the reference
        # applies it to one numpy scalar margin at a time, and the bits agree.
        # Weights and bias lie on a grid, as a fit leaves them.
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 400, 30)
        wb = to_grid(rng.normal(scale=10.0, size=31), 2**20)
        model = LinearSvmModel(weights=tuple(wb[:-1].tolist()), bias=float(wb[-1]),
                               params=SvmParams())
        margins = X.astype(np.float64) @ wb[:-1] + wb[-1]
        per_row = [1.0 / (1.0 + np.exp(-np.clip(m, -500, 500))) for m in margins]
        assert model.predict(X).tobytes() == np.array(per_row).tobytes()

    def test_predict_holds_no_float_copy_of_the_batch(self):
        # A float64 copy of the 5000 x 400 batch alone would be 8 X.nbytes.
        rng = np.random.default_rng(24)
        X = np.zeros((5000, 400), np.uint8)
        X[np.arange(5000)[:, None], rng.integers(0, 400, size=(5000, 3))] = 1
        wb = to_grid(rng.normal(size=401), 2**20)
        model = LinearSvmModel(weights=tuple(wb[:-1].tolist()), bias=float(wb[-1]),
                               params=SvmParams())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.predict(X)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * X.nbytes

    @pytest.mark.parametrize("margin, score, label", [
        (-1e-16, 0.5, 1),  # inside the band where the sigmoid rounds to 0.5
        (-1e-15, 0.4999999999999998, 0),
        (0.0, 0.5, 1),
    ])
    def test_label_of_a_margin_next_to_zero(self, margin, score, label):
        model = LinearSvmModel(weights=(0.0,), bias=margin, params=SvmParams())
        scores = model.predict(np.zeros((1, 1), np.uint8))
        assert scores.tolist() == [score]
        assert labels_of(scores).tolist() == [label]


class TestLogisticRegression:
    def test_all_zero_features_balanced_labels(self):
        X, y = xy([[0], [0], [0], [0]], [0, 1, 0, 1])
        model = fit_logistic_regression(X, y, LogRegParams())
        assert model.weights == (0.0,)
        assert abs(model.bias) < 1e-9
        assert model.predict(X)[0] == pytest.approx(0.5, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        X = random_dense(rng, 5, 8).astype(np.float64)
        y = rng.integers(0, 2, size=5).astype(np.float64)
        w = rng.normal(size=8)
        b = float(rng.normal())
        l2 = 0.01
        h = 1e-5

        grad_w, grad_b = logistic_gradient(w, b, X, y, l2)

        def loss_at(wv, bv):
            return logistic_loss(wv, bv, X, y, l2)

        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd = (loss_at(w + e, b) - loss_at(w - e, b)) / (2 * h)
            assert abs(fd - grad_w[j]) / max(abs(fd), 1e-8) < 1e-5
        fd_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        assert abs(fd_b - grad_b) / max(abs(fd_b), 1e-8) < 1e-5

    def test_separable_1d_monotone_and_perfect(self):
        X, y = xy([[0]] * 4 + [[1]] * 4, [0] * 4 + [1] * 4)
        model = fit_logistic_regression(X, y, LogRegParams())
        scores = model.predict(X)
        assert labels_of(scores).tolist() == y.tolist()
        assert scores[-1] > scores[0]

    def test_loss_monotone_decreasing_at_small_lr(self):
        rng = np.random.default_rng(32)
        X = random_dense(rng, 30, 6)
        y = rng.integers(0, 2, size=30)
        params = LogRegParams(learning_rate=0.01, epochs=200)
        model = fit_logistic_regression(X, y, params)
        w, bias, history = dense_logreg_fit(X, y, params)
        assert np.array(model.weights).tobytes() == w.tobytes()
        assert model.bias.hex() == bias.hex()
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_non_positive_learning_rate_rejected(self):
        X, y = xy([[0], [1]], [0, 1])
        with pytest.raises(FitError, match="learning_rate"):
            fit_logistic_regression(X, y, LogRegParams(learning_rate=-1.0))

    def test_weights_past_the_exact_bound_are_a_fit_error(self):
        # One step of 1e8 takes |w| to 2.5e7, past the 2^20 within which X @ w + b is exact.
        X, y = xy([[0]] * 4 + [[1]] * 4, [0] * 4 + [1] * 4)
        with pytest.raises(FitError, match=r"2\^20"):
            fit_logistic_regression(X, y, LogRegParams(learning_rate=1e8, epochs=2))

    def test_weights_and_bias_lie_on_the_grid(self):
        rng = np.random.default_rng(34)
        X = random_dense(rng, 40, 6)
        y = rng.integers(0, 2, size=40)
        model = fit_logistic_regression(X, y, LogRegParams(epochs=50))
        assert all((v * 2.0**32).is_integer() for v in (*model.weights, model.bias))

    @pytest.mark.parametrize("case", ["random", "random-sparse", "all-zero", "single-row",
                                      "zero-edges"])
    def test_one_entry_fit_equals_the_dense_fit_bit_for_bit(self, case):
        rng = np.random.default_rng(35)
        X = {"random": lambda: random_dense(rng, 40, 7),
             "random-sparse": lambda: random_dense(rng, 60, 9, p=0.1),
             "all-zero": lambda: np.zeros((6, 4), np.uint8),
             "single-row": lambda: np.array([[1, 0, 1]], np.uint8),
             "zero-edges": lambda: zero_edges(rng)}[case]()
        y = rng.integers(0, 2, size=len(X))
        y[0] = 1
        params = LogRegParams(learning_rate=0.5, epochs=300)
        model = fit_logistic_regression(X, y, params)
        w, b, _ = dense_logreg_fit(X, y, params)
        assert np.array(model.weights).tobytes() == w.tobytes()
        assert model.bias.hex() == b.hex()

    def test_one_entry_products_equal_dense_products_bit_for_bit(self):
        rng = np.random.default_rng(36)
        X = zero_edges(rng)
        X[1] = 0
        X[1, 2] = 1  # row 1's one entry, and column 3's, hold -0.0 below
        w = to_grid(rng.normal(size=6), 2**20)
        r = to_grid(rng.normal(size=12) / 4, 12)
        w[2] = -0.0
        r[X[:, 3] == 1] = -0.0
        ones, dense = OneEntries(X), X.astype(np.float64)
        assert (ones @ w).tobytes() == (dense @ w).tobytes()
        assert (ones.T @ r).tobytes() == (dense.T @ r).tobytes()

    @pytest.mark.parametrize("seed", [37, 38, 39])
    def test_predict_scores_equal_the_dense_product_bit_for_bit(self, seed):
        # Weights and bias on the fit's 2^-32 grid with |w|_1 + |b| < 2^20;
        # the first and last rows and columns of the queries are all zero.
        rng = np.random.default_rng(seed)
        X = zero_edges(rng)
        wb = to_grid(rng.normal(size=X.shape[1] + 1), 2**20)
        model = LogRegModel(weights=tuple(wb[:-1].tolist()), bias=float(wb[-1]),
                            params=LogRegParams())
        dense = sigmoid(X.astype(np.float64) @ wb[:-1] + wb[-1])
        scores = model.predict(X)
        assert scores.tobytes() == dense.tobytes()
        assert labels_of(scores).tolist() == (dense >= 0.5).astype(int).tolist()
