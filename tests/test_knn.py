import numpy as np
import pytest

from rwdetect.classifiers import Fingerprint, KnnParams, fit_knn, knn
from rwdetect.errors import FitError

from conftest import random_dense, xy


def knn_oracle(train_X, train_y, query, k):
    """Brute-force all-pairs Hamming scan; ties on distance by row index."""
    ranked = sorted(
        (int(np.sum(train_X[i] != query)), i) for i in range(len(train_X))
    )
    ones = sum(int(train_y[i]) for _, i in ranked[:k])
    return int(2 * ones > k), ones / k


def test_zero_distance_neighbor_wins():
    X, y = xy([[1, 0, 1], [0, 1, 0]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=1), Fingerprint(X.shape[1]))
    query = np.array([[1, 0, 1]], dtype=np.uint8)
    assert model.predict(query)[0].label == 1


def test_k_larger_than_n_rejected():
    X, y = xy([[0], [1]], [0, 1])
    with pytest.raises(FitError, match="k_neighbors"):
        fit_knn(X, y, KnnParams(k_neighbors=3), Fingerprint(X.shape[1]))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_matches_brute_force_on_random_data(k):
    rng = np.random.default_rng(77)
    train_X = random_dense(rng, 20, 10)
    train_y = rng.integers(0, 2, size=20)
    query_X = random_dense(rng, 15, 10)

    model = fit_knn(train_X, train_y, KnnParams(k_neighbors=k), Fingerprint(train_X.shape[1]))
    preds = model.predict(query_X)

    for q, p in zip(query_X, preds):
        label, score = knn_oracle(train_X, train_y, q, k)
        assert p.label == label
        assert p.score == pytest.approx(score, abs=1e-15)


def test_query_blocks_match_brute_force(monkeypatch):
    # 15 query rows in blocks of 4: the last block is short.
    monkeypatch.setattr(knn, "QUERY_BLOCK", 4)
    rng = np.random.default_rng(78)
    train_X = random_dense(rng, 20, 10)
    train_y = rng.integers(0, 2, size=20)
    query_X = random_dense(rng, 15, 10)

    model = fit_knn(train_X, train_y, KnnParams(k_neighbors=3), Fingerprint(train_X.shape[1]))
    preds = model.predict(query_X)
    assert [(p.label, p.score) for p in preds] == \
        [knn_oracle(train_X, train_y, q, 3) for q in query_X]


def test_distance_tie_broken_by_training_index():
    # Two training rows equidistant from the query; index 0 must win.
    X, y = xy([[1, 0], [0, 1]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=1), Fingerprint(X.shape[1]))
    query = np.array([[0, 0]], dtype=np.uint8)
    assert model.predict(query)[0].label == 1


def test_even_k_vote_tie_goes_negative():
    # k=2, one neighbor of each class: ones == k/2, not strictly greater.
    X, y = xy([[1, 0], [0, 1]], [1, 0])
    model = fit_knn(X, y, KnnParams(k_neighbors=2), Fingerprint(X.shape[1]))
    query = np.array([[0, 0]], dtype=np.uint8)
    p = model.predict(query)[0]
    assert p.score == 0.5
    assert p.label == 0
