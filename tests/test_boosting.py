import math

import numpy as np
import pytest

from rwdetect.classifiers import GbtParams, fit_gradient_boosting, labels_of
from rwdetect.errors import FitError

from conftest import random_dense, xy
from fixtures import gathered_gbt_trees


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
    def test_base_score_alone_predicts_positive_rate(self):
        # one round whose step vanishes leaves the margin at the base score
        X, y = xy([[0], [1], [0], [1]], [0, 1, 1, 1])
        model = fit_gradient_boosting(X, y, GbtParams(n_rounds=1, learning_rate=5e-324))
        for score in model.predict(X):
            assert score == pytest.approx(0.75, abs=1e-12)

    def test_separating_feature_reaches_perfect_accuracy(self):
        X, y = xy([[0, 1], [1, 0], [0, 0], [1, 1], [0, 1], [1, 0]], [0, 1, 0, 1, 0, 1])
        model = fit_gradient_boosting(X, y, GbtParams(n_rounds=10))
        assert labels_of(model.predict(X)).tolist() == y.tolist()

    @pytest.mark.parametrize("seed", range(30))
    def test_first_tree_matches_exhaustive_gain(self, seed):
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 8, 4)
        y = rng.integers(0, 2, size=8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        lam = 1.0
        model = fit_gradient_boosting(
            X, y, GbtParams(n_rounds=1, max_depth=1, l2_leaf_penalty=lam)
        )
        best_gain, optimal, results = gain_oracle(X, y, lam)

        tree = model.trees[0]
        if best_gain is None or best_gain <= 0:
            assert tree.is_leaf(0)
            return
        feature = int(tree.feature[0])
        assert feature in optimal
        expected_left, expected_right = results[feature][1]
        assert tree.value[tree.left[0]] == pytest.approx(expected_left, abs=1e-12)
        assert tree.value[tree.right[0]] == pytest.approx(expected_right, abs=1e-12)

    def test_huge_l2_penalty_flattens_leaves(self):
        rng = np.random.default_rng(33)
        X = random_dense(rng, 40, 6)
        y = rng.integers(0, 2, size=40)
        model = fit_gradient_boosting(
            X, y, GbtParams(n_rounds=5, l2_leaf_penalty=1e9)
        )

        def leaves(tree, node=0):
            if tree.is_leaf(node):
                yield tree.value[node]
            else:
                yield from leaves(tree, tree.left[node])
                yield from leaves(tree, tree.right[node])

        for tree in model.trees:
            for w in leaves(tree):
                assert abs(w) < 1e-6

    def test_non_positive_learning_rate_rejected(self):
        X, y = xy([[0], [1]], [0, 1])
        with pytest.raises(FitError, match="learning_rate"):
            fit_gradient_boosting(X, y, GbtParams(learning_rate=0.0))

    def test_base_score_is_logit_of_mean(self):
        X, y = xy([[0]] * 3 + [[1]], [0, 0, 0, 1])
        model = fit_gradient_boosting(X, y, GbtParams(n_rounds=1))
        assert sigmoid(model.base_score) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", [255, 256, 257, 1025])  # the grid steps at 257 and 1025
def test_subtraction_grows_the_trees_of_gathering_every_node(n):
    rng = np.random.default_rng(n)
    base = random_dense(rng, n, 7, p=0.3)
    X = np.hstack([base, base[:, ::-1]])  # column j + 7 repeats 6 - j: every split ties
    y = (rng.random(n) < 0.2 + 0.5 * base[:, 2]).astype(np.int64)
    params = GbtParams(n_rounds=8, max_depth=4)
    model = fit_gradient_boosting(X, y, params)
    expected = gathered_gbt_trees(X, y, params)
    for tree, reference in zip(model.trees, expected, strict=True):
        for name in ("feature", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(reference, name).tobytes()
    # Of two equal columns, the lower ordinal wins.
    assert max(int(t.feature.max()) for t in model.trees) < 7
