import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    """Query blocks of ``block`` rows, or the default for None."""
    if block is not None:
        monkeypatch.setattr(knn, "QUERY_BLOCK", block)


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


def test_query_blocks_match_brute_force(monkeypatch):
    # 15 query rows in blocks of 4: the last block is short.
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


def test_nearest_of_many_training_rows_matches_brute_force():
    # 1 000 training rows, k = 1. On a few dozen rows a partition at the
    # wrong index still happens to leave the nearest row first; here it does not.
    rng = np.random.default_rng(81)
    train_X = random_dense(rng, 1000, 16)
    train_y = rng.integers(0, 2, size=1000)
    query_X = random_dense(rng, 10, 16)
    assert_matches_oracle(train_X, train_y, query_X, 1)


def bits(value, d):
    """The ``d`` low bits of ``value``, lowest first, as a 0/1 uint8 row."""
    return np.array([(value >> j) & 1 for j in range(d)], dtype=np.uint8)


@st.composite
def knn_cases(draw):
    """``(train_X, train_y, query_X, k, block)``: 1-40 training rows drawn from
    a pool of 1-5, so rows repeat and distances tie, on 1-200 features (the
    widths either side of one and two 64-bit words often), 0-20 query rows
    from the pool or not, any k, and query blocks of 1, 2, 3 or the default."""
    d = draw(st.sampled_from([63, 64, 65, 127, 128, 129]) | st.integers(1, 200))
    row = st.integers(0, 2**d - 1)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    train = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    query = draw(st.lists(st.sampled_from(pool) | row, max_size=20))
    train_y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(train),
                                     max_size=len(train))))
    k = draw(st.integers(1, len(train)))
    block = draw(st.sampled_from([1, 2, 3, knn.QUERY_BLOCK]))
    query_X = np.array([bits(v, d) for v in query], dtype=np.uint8).reshape(len(query), d)
    return np.array([bits(v, d) for v in train]), train_y, query_X, k, block


@settings(max_examples=150, deadline=None)
@given(knn_cases())
def test_predict_matches_brute_force(case):
    train_X, train_y, query_X, k, block = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(knn, "QUERY_BLOCK", block)
        assert_matches_oracle(train_X, train_y, query_X, k)


def test_distances_wider_than_uint16_are_exact():
    # The all-ones row is 70 000 from the all-zeros query: summed in uint16 it
    # wraps to 4 464 and beats the row of 5 000 ones, the nearest.
    d = 70_000
    train_X = np.zeros((2, d), dtype=np.uint8)
    train_X[0] = 1
    train_X[1, :5000] = 1
    model = fit_knn(train_X, np.array([1, 0]), KnnParams(k_neighbors=1))
    assert model.predict(np.zeros((1, d), dtype=np.uint8)).tolist() == [0.0]


def test_predict_holds_no_copy_of_the_training_array():
    # 3.2 MB is what a float32 copy of the 2000 x 400 training array would take.
    # A block's int64 keys take 2 MB, so holding them while the next block's
    # distances are summed goes past it.
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
