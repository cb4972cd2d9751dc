"""Random forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .base import Fingerprint, ForestParams, Prediction, check_xy, scores_to_predictions
from .tree import FlatTree, grow_tree, leaf_values


@dataclass(frozen=True)
class RandomForestModel:
    kind = "rf"
    trees: tuple[FlatTree, ...]
    params: ForestParams
    fingerprint: Fingerprint

    def predict(self, X: np.ndarray) -> list[Prediction]:
        """The score is the fraction of trees whose leaf score is at least 0.5."""
        self.fingerprint.check_matrix(X)
        votes = np.count_nonzero(leaf_values(self.trees, X) >= 0.5, axis=1)
        return scores_to_predictions(votes / len(self.trees))


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams = ForestParams(),
    fingerprint: Fingerprint | None = None,
) -> RandomForestModel:
    check_xy(X, y)
    n, d = X.shape
    if n < 2:
        raise FitError("random forest needs at least 2 samples")
    fps = params.features_per_split
    if fps is None:
        fps = max(1, math.isqrt(d) + (math.isqrt(d) ** 2 < d))
    if fps > d:
        raise FitError(f"features_per_split {fps} > n_features {d}")

    XT = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(params.seed)
    trees = []
    for _ in range(params.n_trees):
        if params.bootstrap:
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)

        if fps == d:
            picker = None
        else:
            def picker():
                return np.sort(rng.choice(d, size=fps, replace=False))

        trees.append(grow_tree(XT, y, idx, params, candidate_picker=picker))
    return RandomForestModel(
        trees=tuple(trees),
        params=params,
        fingerprint=fingerprint or Fingerprint(d),
    )
