"""K-nearest-neighbour classifier over binary vectors, Hamming metric.

Fitting just stores the training matrix. Neighbour ties on distance are
broken by training-row index (stable sort); the vote goes to the positive
class only when its neighbour count strictly exceeds k/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import DataMatrix, LabelVector
from ..errors import FitError
from .base import Fingerprint, KnnParams, Prediction, as_xy

QUERY_BLOCK = 1024


@dataclass(frozen=True)
class KnnModel:
    kind = "knn"
    train: DataMatrix  # active ordinals only; no sample ids or families
    train_labels: tuple[int, ...]
    params: KnnParams
    fingerprint: Fingerprint

    def predict(self, matrix: DataMatrix) -> list[Prediction]:
        self.fingerprint.check_matrix(matrix)
        T = self.train.to_dense().astype(np.int64)
        t_ones = T.sum(axis=1)
        Q = matrix.to_dense()
        labels = np.asarray(self.train_labels)
        k = self.params.k_neighbors

        # Query rows go in blocks, so the distance matrix stays
        # QUERY_BLOCK x n_train however many rows are scored at once.
        votes = []
        for start in range(0, len(Q), QUERY_BLOCK):
            q = Q[start:start + QUERY_BLOCK].astype(np.int64)
            # Hamming distance via |q| + |t| - 2 q.t, exact in integers.
            dists = q.sum(axis=1)[:, None] + t_ones[None, :] - 2 * (q @ T.T)
            nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
            votes += labels[nearest].sum(axis=1).tolist()
        return [Prediction(int(2 * ones > k), ones / k) for ones in votes]


def fit_knn(
    matrix: DataMatrix,
    y: LabelVector,
    params: KnnParams = KnnParams(),
    fingerprint: Fingerprint | None = None,
) -> KnnModel:
    as_xy(matrix, y)  # shape validation only
    if params.k_neighbors > matrix.n_samples:
        raise FitError(
            f"k_neighbors {params.k_neighbors} > n_samples {matrix.n_samples}"
        )
    return KnnModel(
        train=DataMatrix(matrix.n_features, matrix.indptr, matrix.indices),
        train_labels=y.labels,
        params=params,
        fingerprint=fingerprint or Fingerprint(matrix.n_features),
    )
