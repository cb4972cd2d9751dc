from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect import cli
from rwdetect.classifiers import TreeParams, fit_decision_tree, labels_of
from rwdetect.classifiers.tree import bitsets, grow_tree

from conftest import random_dense, xy
from fixtures import numpy_grow_tree


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
        model = fit_decision_tree(X, y, TreeParams())
        tree = model.tree
        assert tree.feature[0] == 0
        assert tree.is_leaf(tree.left[0]) and tree.is_leaf(tree.right[0])
        assert labels_of(model.predict(X)).tolist() == y.tolist()

    def test_pure_input_single_leaf(self):
        X, y = xy([[0, 1], [1, 0]], [1, 1])
        tree = fit_decision_tree(X, y, TreeParams()).tree
        assert tree.is_leaf(0)
        assert tree.value[0] == 1.0

    def test_empty_matrix_rejected(self, tmp_path, capsys):
        # The tree is fit on a split's train partition, and a file of no
        # samples has no classes to split.
        data = tmp_path / "empty.sparse"
        data.write_text("#FEATURES 2\nAPI:a\nAPI:b\n#SAMPLES 0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(data), "--out", str(out),
                         "--model", "dt"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: stratified split requires both classes present\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", range(30))
    def test_root_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = random_dense(rng, 8, 3)
        y = rng.integers(0, 2, size=8)
        model = fit_decision_tree(X, y, TreeParams())
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
        assert labels_of(model.predict(X)).tolist() == y.tolist()

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


@st.composite
def grower_inputs(draw):
    """A 0/1 matrix whose columns repeat (tied candidates), its labels, and sorted
    bootstrap draws in which one row is drawn at least 8 times, so the draw
    counts need a fourth binary digit."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    bits = st.lists(st.integers(0, 1), min_size=n * d, max_size=n * d)
    X = np.array(draw(bits), np.uint8).reshape(n, d)
    X = X[:, draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2 * d))]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.int64)
    rows = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    idx = np.sort(np.array(rows + [draw(st.integers(0, n - 1))] * 8))
    return X, y, idx


@settings(max_examples=300, deadline=None)
@given(inputs=grower_inputs(), min_samples_leaf=st.sampled_from([1, 2, 5]),
       max_depth=st.sampled_from([0, 1, 3, 32]), picker_seed=st.none() | st.integers(0, 99))
def test_bitset_grower_equals_the_numpy_grower(inputs, min_samples_leaf, max_depth, picker_seed):
    X, y, idx = inputs
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)

    def picker():  # a fresh one per grower, each drawing the same candidates
        if picker_seed is None:
            return None
        rng = np.random.default_rng(picker_seed)
        size = 1 + picker_seed % X.shape[1]
        return lambda: np.sort(rng.choice(X.shape[1], size=size, replace=False))

    expected = numpy_grow_tree(np.ascontiguousarray(X.T), y, idx, params, picker())
    tree = grow_tree(bitsets(X.T), bitsets(y[None])[0], np.bincount(idx, minlength=len(y)),
                     params, picker())
    for name in ("feature", "left", "right"):
        assert np.array_equal(getattr(tree, name), getattr(expected, name)), name
    assert tree.value.tobytes() == expected.value.tobytes()
