"""K-nearest-neighbour classifier over binary vectors, Hamming metric.

Fitting just stores the training array. Neighbour ties on distance are
broken by training-row index (stable sort); the vote goes to the positive
class only when its neighbour count strictly exceeds k/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .base import Fingerprint, KnnParams, Prediction, check_xy

QUERY_BLOCK = 1024


@dataclass(frozen=True)
class KnnModel:
    kind = "knn"
    train: np.ndarray  # 0/1, one row per training sample
    train_labels: tuple[int, ...]
    params: KnnParams
    fingerprint: Fingerprint

    def predict(self, X: np.ndarray) -> list[Prediction]:
        self.fingerprint.check_matrix(X)
        T = self.train.astype(np.float64)
        t_ones = T.sum(axis=1)
        labels = np.asarray(self.train_labels)
        k = self.params.k_neighbors

        # Query rows go in blocks, so the distance matrix stays
        # QUERY_BLOCK x n_train however many rows are scored at once.
        votes = []
        for start in range(0, len(X), QUERY_BLOCK):
            q = X[start:start + QUERY_BLOCK]
            # Hamming distance |q| + |t| - 2 q.t, built in place in float64,
            # exactly: every partial sum is an integer <= n_features. Cast to
            # the narrowest type holding that, as numpy radix-sorts 8/16-bit keys.
            dists = q.astype(np.float64) @ T.T
            dists *= -2
            dists += q.sum(axis=1)[:, None]
            dists += t_ones
            dists = dists.astype(np.min_scalar_type(X.shape[1]))
            nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
            votes += labels[nearest].sum(axis=1).tolist()
        return [Prediction(int(2 * ones > k), ones / k) for ones in votes]


def fit_knn(
    X: np.ndarray,
    y: np.ndarray,
    params: KnnParams = KnnParams(),
    fingerprint: Fingerprint | None = None,
) -> KnnModel:
    check_xy(X, y)
    if params.k_neighbors > len(X):
        raise FitError(f"k_neighbors {params.k_neighbors} > n_samples {len(X)}")
    return KnnModel(
        train=X,
        train_labels=tuple(y.tolist()),
        params=params,
        fingerprint=fingerprint or Fingerprint(X.shape[1]),
    )
