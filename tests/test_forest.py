import numpy as np
import pytest

from rwdetect.classifiers import (
    ForestParams,
    TreeParams,
    fit_decision_tree,
    fit_random_forest,
    labels_of,
    serialize_model,
)
from rwdetect.errors import FitError

from conftest import random_dense, xy
from fixtures import every_column, synthesize_dataset, to_dense


def test_degenerate_forest_equals_single_tree():
    rng = np.random.default_rng(8)
    X = random_dense(rng, 30, 6)
    y = rng.integers(0, 2, size=30)
    forest = fit_random_forest(
        X, y, ForestParams(n_trees=1, features_per_split=6, bootstrap=False),
    )
    tree = fit_decision_tree(X, y, TreeParams())
    assert labels_of(forest.predict(X)).tolist() == labels_of(tree.predict(X)).tolist()


def test_same_seed_byte_identical():
    rng = np.random.default_rng(9)
    X = random_dense(rng, 25, 8)
    y = rng.integers(0, 2, size=25)
    params = ForestParams(n_trees=20, seed=123)
    a = serialize_model(fit_random_forest(X, y, params), every_column(X.shape[1]))
    b = serialize_model(fit_random_forest(X, y, params), every_column(X.shape[1]))
    assert a == b


def test_different_seed_differs():
    rng = np.random.default_rng(10)
    X = random_dense(rng, 25, 8)
    y = rng.integers(0, 2, size=25)
    fingerprint = every_column(X.shape[1])
    a = serialize_model(fit_random_forest(X, y, ForestParams(n_trees=20, seed=1)), fingerprint)
    b = serialize_model(fit_random_forest(X, y, ForestParams(n_trees=20, seed=2)), fingerprint)
    assert a != b


def test_forest_beats_single_tree_on_noisy_data():
    # 5 weak signal features in noise; bagging should generalize better.
    signal = [(j, 0.25, 0.75) for j in range(5)]
    train_m, train_y = synthesize_dataset(50, 40, 0.5, signal, seed=21)
    test_m, test_y = synthesize_dataset(400, 40, 0.5, signal, seed=22)
    train_X = to_dense(train_m)

    tree = fit_decision_tree(train_X, train_y, TreeParams())
    forest = fit_random_forest(train_X, train_y, ForestParams(n_trees=100, seed=3))

    def acc(model):
        return np.mean(labels_of(model.predict(to_dense(test_m))) == test_y)

    assert acc(forest) > acc(tree)


def test_vote_fraction_score():
    rng = np.random.default_rng(11)
    X = random_dense(rng, 40, 10)
    y = rng.integers(0, 2, size=40)
    forest = fit_random_forest(X, y, ForestParams(n_trees=10, seed=7))
    scores = forest.predict(X)
    # score is a vote fraction over 10 trees
    assert (scores * 10).tolist() == pytest.approx(np.round(scores * 10).tolist())
    assert labels_of(scores).tolist() == (scores >= 0.5).tolist()


def test_features_per_split_too_large():
    X, labels = xy([[0, 1], [1, 0]], [0, 1])
    with pytest.raises(FitError, match="features_per_split"):
        fit_random_forest(X, labels, ForestParams(features_per_split=3))
