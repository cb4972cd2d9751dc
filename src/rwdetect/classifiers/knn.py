"""K-nearest-neighbour classifier over binary vectors, Hamming metric.

Fitting just stores the training array. Neighbour ties on distance are
broken by training-row index. The score is the positive fraction of the k
nearest rows, so ``labels_of`` gives a vote tie (an even k split in half,
score 0.5) the positive label, as it does a tied forest vote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .base import KnnParams

QUERY_BLOCK = 128
TRAIN_TILE = 256


@dataclass(frozen=True)
class KnnModel:
    kind = "knn"
    train: np.ndarray  # 0/1, one row per training sample
    train_labels: tuple[int, ...]
    params: KnnParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        # Hamming distance |q| + |t| - 2 q.t, built in place, exactly: every value
        # is an integer of magnitude <= n_features, or an even one <= 2 n_features,
        # and float32 holds each of them below 2^24 features.
        n_train, d = self.train.shape
        dtype = np.float32 if d < 2**24 else np.float64
        # Key distance * n_train + row: distinct, and ordered as (distance, row) is, so
        # the k smallest keys are the k nearest rows with ties broken by row index.
        key_dtype = np.int32 if (d + 1) * n_train < 2**31 else np.int64
        t_ones = self.train.sum(axis=1, dtype=dtype)
        labels = np.asarray(self.train_labels)
        k = self.params.k_neighbors

        # Query rows go in blocks and training rows in tiles, so no copy larger
        # than QUERY_BLOCK x n_train keys is made however many rows are scored.
        votes = np.empty(len(X))
        for start in range(0, len(X), QUERY_BLOCK):
            q = X[start:start + QUERY_BLOCK].astype(dtype)
            keys = np.empty((len(q), n_train), dtype=key_dtype)
            for t in range(0, n_train, TRAIN_TILE):
                dists = q @ self.train[t:t + TRAIN_TILE].astype(dtype).T
                dists *= -2
                dists += q.sum(axis=1)[:, None]
                dists += t_ones[t:t + TRAIN_TILE]
                keys[:, t:t + TRAIN_TILE] = dists
            keys *= n_train
            keys += np.arange(n_train, dtype=key_dtype)
            keys.partition(k - 1, axis=1)
            votes[start:start + QUERY_BLOCK] = labels[keys[:, :k] % n_train].sum(axis=1)
        votes /= k
        return votes


def fit_knn(X: np.ndarray, y: np.ndarray, params: KnnParams) -> KnnModel:
    if params.k_neighbors > len(X):
        raise FitError(f"k_neighbors {params.k_neighbors} > n_samples {len(X)}")
    return KnnModel(X, tuple(y.tolist()), params)
