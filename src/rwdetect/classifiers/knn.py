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
        Q = matrix.to_dense().astype(np.int64)
        labels = np.asarray(self.train_labels)
        k = self.params.k_neighbors

        # Hamming distance via |q| + |t| - 2 q.t, exact in integers.
        dists = Q.sum(axis=1)[:, None] + T.sum(axis=1)[None, :] - 2 * (Q @ T.T)
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
        return [Prediction(int(2 * ones > k), ones / k)
                for ones in labels[nearest].sum(axis=1).tolist()]


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
