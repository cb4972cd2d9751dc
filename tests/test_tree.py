from fractions import Fraction

import numpy as np
import pytest

from rwdetect.classifiers import TreeParams, fit_decision_tree
from rwdetect.errors import FitError
from rwdetect.dataset import DataMatrix, LabelVector

from conftest import matrix_from_dense, random_dense


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
        m, y = matrix_from_dense(
            [[0, 1], [1, 0], [0, 0], [1, 1]], labels=[0, 1, 0, 1]
        )
        model = fit_decision_tree(m, y)
        assert model.root.feature == 0
        assert model.root.left.is_leaf and model.root.right.is_leaf
        preds = model.predict(m)
        assert [p.label for p in preds] == list(y.labels)

    def test_pure_input_single_leaf(self):
        m, y = matrix_from_dense([[0, 1], [1, 0]], labels=[1, 1], family_ids=[1, 1])
        model = fit_decision_tree(m, y)
        assert model.root.is_leaf
        assert model.root.score == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(FitError, match="empty"):
            fit_decision_tree(DataMatrix.from_rows(2, []), LabelVector(()))

    @pytest.mark.parametrize("seed", range(30))
    def test_root_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 8, 3)
        y = rng.integers(0, 2, size=8)
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_decision_tree(m, labels)
        expected = gini_oracle_root(X, y.astype(np.int64))
        actual = None if model.root.is_leaf else model.root.feature
        assert actual == expected

    def test_perfect_training_accuracy_on_consistent_data(self):
        rng = np.random.default_rng(17)
        X = random_dense(rng, 40, 12)
        # deduplicate feature vectors so no two rows conflict
        X = np.unique(X, axis=0)
        y = rng.integers(0, 2, size=len(X))
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_decision_tree(m, labels, TreeParams(max_depth=64))
        preds = model.predict(m)
        assert [p.label for p in preds] == list(labels.labels)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(5)
        X = random_dense(rng, 60, 10)
        y = rng.integers(0, 2, size=60)
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_decision_tree(m, labels, TreeParams(max_depth=2))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(6)
        X = random_dense(rng, 30, 6)
        y = rng.integers(0, 2, size=30)
        m, labels = matrix_from_dense(X, labels=y)
        model = fit_decision_tree(m, labels, TreeParams(min_samples_leaf=5))

        def check(node, idx):
            if node.is_leaf:
                assert len(idx) >= 5
                return
            mask = X[idx, node.feature] == 1
            check(node.left, idx[~mask])
            check(node.right, idx[mask])

        check(model.root, np.arange(30))
