import tracemalloc

import numpy as np
import pytest

from rwdetect.classifiers import KnnParams, fit_knn, knn, labels_of
from rwdetect.errors import FitError

from conftest import random_dense, xy


def knn_oracle(train_X, train_y, query, k):
    """Score of ``query``: the positive fraction of its k nearest training rows,
    by brute-force all-pairs Hamming scan; ties on distance by row index."""
    ranked = sorted(
        (int(np.sum(train_X[i] != query)), i) for i in range(len(train_X))
    )
    ones = sum(int(train_y[i]) for _, i in ranked[:k])
    return ones / k


def test_zero_distance_neighbor_wins():
    X, y = xy([[1, 0, 1], [0, 1, 0]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=1))
    query = np.array([[1, 0, 1]], dtype=np.uint8)
    assert labels_of(model.predict(query)).tolist() == [1]


def test_k_larger_than_n_rejected():
    X, y = xy([[0], [1]], [0, 1])
    with pytest.raises(FitError, match="k_neighbors"):
        fit_knn(X, y, KnnParams(k_neighbors=3))


def small_blocks(monkeypatch, block):
    """Query blocks and training tiles of ``block`` rows, or the defaults for None."""
    if block is not None:
        monkeypatch.setattr(knn, "QUERY_BLOCK", block)
        monkeypatch.setattr(knn, "TRAIN_TILE", block)


def assert_matches_oracle(train_X, train_y, query_X, k):
    model = fit_knn(train_X, train_y, KnnParams(k_neighbors=k))
    assert model.predict(query_X).tolist() == [knn_oracle(train_X, train_y, q, k) for q in query_X]


@pytest.mark.parametrize("block", [None, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_matches_brute_force_on_random_data(k, block, monkeypatch):
    small_blocks(monkeypatch, block)
    rng = np.random.default_rng(77)
    train_X = random_dense(rng, 20, 10)
    train_y = rng.integers(0, 2, size=20)
    query_X = random_dense(rng, 15, 10)
    assert_matches_oracle(train_X, train_y, query_X, k)


@pytest.mark.parametrize("tile", [None, 1, 2, 3])
def test_query_blocks_match_brute_force(tile, monkeypatch):
    # 15 query rows in blocks of 4: the last block is short. 20 training
    # rows in tiles of 1, 2 or 3: the last tile is short for 3.
    small_blocks(monkeypatch, tile)
    monkeypatch.setattr(knn, "QUERY_BLOCK", 4)
    rng = np.random.default_rng(78)
    train_X = random_dense(rng, 20, 10)
    train_y = rng.integers(0, 2, size=20)
    query_X = random_dense(rng, 15, 10)
    assert_matches_oracle(train_X, train_y, query_X, 3)


@pytest.mark.parametrize("block", [None, 1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 7, 30])
def test_many_equal_distances_match_brute_force(k, block, monkeypatch):
    # 5 distinct training rows, each 6 times over, on 4 features: most
    # distances tie, and the tie rule picks among copies by row index.
    # k=30 is every training row; the even k can tie the vote.
    small_blocks(monkeypatch, block)
    rng = np.random.default_rng(79)
    train_X = np.tile(random_dense(rng, 5, 4), (6, 1))
    train_y = rng.integers(0, 2, size=30)
    query_X = random_dense(rng, 16, 4)
    assert_matches_oracle(train_X, train_y, query_X, k)


class SplitRows:
    """``n`` training rows of ``d`` features, all ones before row ``split`` and
    all zeros from it on, made a tile at a time as ``predict`` reads them: a
    training set of 2^31 entries without the memory to hold one."""

    def __init__(self, n, d, split):
        self.shape, self.split = (n, d), split
        self.ones = np.ones((knn.TRAIN_TILE, d), np.uint8)

    def sum(self, axis, dtype):
        return np.where(np.arange(self.shape[0]) < self.split, self.shape[1], 0).astype(dtype)

    def __getitem__(self, rows):
        ones = np.arange(*rows.indices(self.shape[0])) < self.split
        if ones.all():
            return self.ones[:len(ones)]
        return np.broadcast_to(ones[:, None], (len(ones), self.shape[1])).astype(np.uint8)


def test_keys_past_int32_take_the_int64_path(monkeypatch):
    # (d + 1) * n_train = 2^31 + 2^15. The all-ones rows are d from an
    # all-zeros query, so their keys d * n_train + row pass 2^31 and would
    # wrap to the smallest int32 keys; the 3 all-zeros rows are the nearest.
    monkeypatch.setattr(knn, "TRAIN_TILE", 64)
    d, n, k = 2**16, 2**15, 3
    model = knn.KnnModel(SplitRows(n, d, n - k), (0,) * (n - k) + (1,) * k,
                         KnnParams(k_neighbors=k))
    assert model.predict(np.zeros((1, d), np.uint8)).tolist() == [1.0]


def test_predict_holds_no_copy_of_the_training_array():
    # The float32 copy of the whole 2000 x 400 training array alone is 3.2 MB.
    rng = np.random.default_rng(80)
    train_X = random_dense(rng, 2000, 400)
    model = fit_knn(train_X, rng.integers(0, 2, size=2000), KnnParams(k_neighbors=5))
    query_X = random_dense(rng, 512, 400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict(query_X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 400 * 4


def test_distance_tie_broken_by_training_index():
    # Two training rows equidistant from the query; index 0 must win.
    X, y = xy([[1, 0], [0, 1]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=1))
    query = np.array([[0, 0]], dtype=np.uint8)
    assert labels_of(model.predict(query)).tolist() == [1]


def test_even_k_vote_tie_goes_positive():
    # k=2, one neighbor of each class: score 0.5, which labels_of labels 1,
    # as it does a forest whose trees split their votes evenly.
    X, y = xy([[1, 0], [0, 1]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=2))
    query = np.array([[0, 0]], dtype=np.uint8)
    scores = model.predict(query)
    assert scores.tolist() == [0.5]
    assert labels_of(scores).tolist() == [1]
