import math

import numpy as np
import pytest

from rwdetect.classifiers import GbtParams, fit_gradient_boosting
from rwdetect.errors import FitError

from conftest import matrix_from_dense, random_dense


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def gain_oracle(X, y, lam):
    """Exhaustive first-round split enumeration with the second-order gain.

    Returns (best_gain, set of gain-optimal features, leaf weight pairs).
    g_i = p - y_i and h_i = p(1-p) with p = mean(y) because round one
    starts from base_score = logit(mean y).
    """
    p = y.mean()
    g = p - y.astype(float)
    h = np.full(len(y), p * (1 - p))

    results = {}
    for j in range(X.shape[1]):
        mask = X[:, j] == 1
        if mask.all() or not mask.any():
            continue
        gl, hl = g[~mask].sum(), h[~mask].sum()
        gr, hr = g[mask].sum(), h[mask].sum()
        gain = 0.5 * (
            gl**2 / (hl + lam) + gr**2 / (hr + lam)
            - (gl + gr) ** 2 / (hl + hr + lam)
        )
        weights = (-gl / (hl + lam), -gr / (hr + lam))
        results[j] = (gain, weights)
    if not results:
        return None, set(), {}
    best_gain = max(gain for gain, _ in results.values())
    optimal = {j for j, (gain, _) in results.items() if abs(gain - best_gain) < 1e-12}
    return best_gain, optimal, results


class TestGradientBoosting:
    def test_zero_rounds_predicts_positive_rate(self):
        m, y = matrix_from_dense(
            [[0], [1], [0], [1]], labels=[0, 1, 1, 1]
        )
        model = fit_gradient_boosting(m, y, GbtParams(n_rounds=0))
        for p in model.predict(m):
            assert p.score == pytest.approx(0.75, abs=1e-12)

    def test_separating_feature_reaches_perfect_accuracy(self):
        m, y = matrix_from_dense(
            [[0, 1], [1, 0], [0, 0], [1, 1], [0, 1], [1, 0]],
            labels=[0, 1, 0, 1, 0, 1],
        )
        model = fit_gradient_boosting(m, y, GbtParams(n_rounds=10))
        assert [p.label for p in model.predict(m)] == list(y.labels)

    @pytest.mark.parametrize("seed", range(30))
    def test_first_tree_matches_exhaustive_gain(self, seed):
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 8, 4)
        y = rng.integers(0, 2, size=8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m, labels = matrix_from_dense(X, labels=y)
        lam = 1.0
        model = fit_gradient_boosting(
            m, labels, GbtParams(n_rounds=1, max_depth=1, l2_leaf_penalty=lam)
        )
        best_gain, optimal, results = gain_oracle(X, y, lam)

        root = model.trees[0]
        if best_gain is None or best_gain <= 0:
            assert root.is_leaf
            return
        assert root.feature in optimal
        expected_left, expected_right = results[root.feature][1]
        assert root.left.weight == pytest.approx(expected_left, abs=1e-12)
        assert root.right.weight == pytest.approx(expected_right, abs=1e-12)

    def test_huge_l2_penalty_flattens_leaves(self):
        rng = np.random.default_rng(33)
        X = random_dense(rng, 40, 6)
        y = rng.integers(0, 2, size=40)
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_gradient_boosting(
            m, labels, GbtParams(n_rounds=5, l2_leaf_penalty=1e9)
        )

        def leaves(node):
            if node.is_leaf:
                yield node.weight
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        for root in model.trees:
            for w in leaves(root):
                assert abs(w) < 1e-6

    def test_non_positive_learning_rate_rejected(self):
        m, y = matrix_from_dense([[0], [1]], labels=[0, 1])
        with pytest.raises(FitError, match="learning_rate"):
            fit_gradient_boosting(m, y, GbtParams(learning_rate=0.0))

    def test_base_score_is_logit_of_mean(self):
        m, y = matrix_from_dense([[0]] * 3 + [[1]], labels=[0, 0, 0, 1])
        model = fit_gradient_boosting(m, y, GbtParams(n_rounds=0))
        assert sigmoid(model.base_score) == pytest.approx(0.25, abs=1e-12)
