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


def pack_rows(X: np.ndarray) -> np.ndarray:
    """The 0/1 rows of ``X`` as bits in uint64 words, zero-padded, transposed:
    row j of the result holds word j of every row."""
    packed = np.packbits(X, axis=1, bitorder="little")
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    return np.ascontiguousarray(words.T)


@dataclass(frozen=True)
class KnnModel:
    kind = "knn"
    train: np.ndarray  # 0/1, one row per training sample
    train_labels: tuple[int, ...]
    params: KnnParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        n_train, d = self.train.shape
        train = pack_rows(self.train)
        labels = np.asarray(self.train_labels)
        k = self.params.k_neighbors

        # Query rows go in blocks, so no copy larger than QUERY_BLOCK x n_train keys
        # is made. A Hamming distance is the popcount of q ^ t, a word at a time,
        # summed in an unsigned type that holds n_features, so it is exact.
        votes = np.empty(len(X))
        for start in range(0, len(X), QUERY_BLOCK):
            block = pack_rows(X[start:start + QUERY_BLOCK])
            dists = np.zeros((block.shape[1], n_train), np.min_scalar_type(d))
            for q, t in zip(block, train):
                dists += np.bitwise_count(np.bitwise_xor.outer(q, t))
            # Key distance * n_train + row: distinct, and ordered as (distance, row) is, so
            # the k smallest keys are the k nearest rows with ties broken by row index.
            keys = np.multiply(dists, n_train, dtype=np.int64)
            keys += np.arange(n_train)
            keys.partition(k - 1, axis=1)
            votes[start:start + QUERY_BLOCK] = labels[keys[:, :k] % n_train].sum(axis=1)
            del keys  # before the next block's distances
        votes /= k
        return votes


def fit_knn(X: np.ndarray, y: np.ndarray, params: KnnParams) -> KnnModel:
    if params.k_neighbors > len(X):
        raise FitError(f"k_neighbors {params.k_neighbors} > n_samples {len(X)}")
    return KnnModel(X, tuple(y.tolist()), params)
