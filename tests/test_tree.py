from fractions import Fraction

import numpy as np
import pytest

from rwdetect.classifiers import TreeParams, fit_decision_tree
from rwdetect.errors import FitError

from conftest import random_dense, xy


def gini_oracle_root(X, y, min_leaf=1):
    """Exhaustive weighted-Gini search in exact rational arithmetic.

    Returns the best split feature (lowest ordinal on ties) or None when
    no split strictly reduces impurity.
    """
    n = len(y)

    def gini(pos, m):
        if m == 0:
            return Fraction(0)
        p = Fraction(int(pos), m)
        return 1 - p * p - (1 - p) * (1 - p)

    parent = gini(y.sum(), n)
    best_j, best_w = None, None
    for j in range(X.shape[1]):
        mask = X[:, j] == 1
        n1 = int(mask.sum())
        n0 = n - n1
        if n0 < min_leaf or n1 < min_leaf:
            continue
        w = (n0 * gini(y[~mask].sum(), n0) + n1 * gini(y[mask].sum(), n1)) / n
        if w >= parent:
            continue
        if best_w is None or w < best_w:
            best_j, best_w = j, w
    return best_j


class TestDecisionTree:
    def test_single_separating_feature(self):
        X, y = xy([[0, 1], [1, 0], [0, 0], [1, 1]], [0, 1, 0, 1])
        model = fit_decision_tree(X, y)
        tree = model.tree
        assert tree.feature[0] == 0
        assert tree.is_leaf(tree.left[0]) and tree.is_leaf(tree.right[0])
        preds = model.predict(X)
        assert [p.label for p in preds] == y.tolist()

    def test_pure_input_single_leaf(self):
        X, y = xy([[0, 1], [1, 0]], [1, 1])
        tree = fit_decision_tree(X, y).tree
        assert tree.is_leaf(0)
        assert tree.value[0] == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(FitError, match="empty"):
            fit_decision_tree(np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("seed", range(30))
    def test_root_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 8, 3)
        y = rng.integers(0, 2, size=8)
        model = fit_decision_tree(X, y)
        expected = gini_oracle_root(X, y.astype(np.int64))
        actual = None if model.tree.is_leaf(0) else model.tree.feature[0]
        assert actual == expected

    def test_perfect_training_accuracy_on_consistent_data(self):
        rng = np.random.default_rng(17)
        X = random_dense(rng, 40, 12)
        # deduplicate feature vectors so no two rows conflict
        X = np.unique(X, axis=0)
        y = rng.integers(0, 2, size=len(X))
        model = fit_decision_tree(X, y, TreeParams(max_depth=64))
        preds = model.predict(X)
        assert [p.label for p in preds] == y.tolist()

    def test_max_depth_respected(self):
        rng = np.random.default_rng(5)
        X = random_dense(rng, 60, 10)
        y = rng.integers(0, 2, size=60)
        model = fit_decision_tree(X, y, TreeParams(max_depth=2))

        tree = model.tree

        def depth(node):
            if tree.is_leaf(node):
                return 0
            return 1 + max(depth(tree.left[node]), depth(tree.right[node]))

        assert depth(0) <= 2

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(6)
        X = random_dense(rng, 30, 6)
        y = rng.integers(0, 2, size=30)
        model = fit_decision_tree(X, y, TreeParams(min_samples_leaf=5))

        tree = model.tree

        def check(node, idx):
            if tree.is_leaf(node):
                assert len(idx) >= 5
                return
            mask = X[idx, tree.feature[node]] == 1
            check(tree.left[node], idx[~mask])
            check(tree.right[node], idx[mask])

        check(0, np.arange(30))
