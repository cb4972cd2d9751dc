"""Random forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .base import ForestParams, labels_of
from .tree import FlatTree, bitsets, grow_tree, leaf_values


@dataclass(frozen=True)
class RandomForestModel:
    kind = "rf"
    trees: tuple[FlatTree, ...]
    params: ForestParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The fraction of trees whose leaf score ``labels_of`` labels positive."""
        return labels_of(leaf_values(self.trees, X)).sum(axis=1) / len(self.trees)


def fit_random_forest(X: np.ndarray, y: np.ndarray, params: ForestParams) -> RandomForestModel:
    n, d = X.shape
    fps = params.features_per_split
    if fps is None:
        fps = max(1, math.isqrt(d) + (math.isqrt(d) ** 2 < d))
    if fps > d:
        raise FitError(f"features_per_split {fps} > n_features {d}")

    columns, labels = bitsets(X.T), bitsets(y[None])[0]
    rng = np.random.default_rng(params.seed)

    def picker():
        return np.sort(rng.choice(d, size=fps, replace=False))

    trees = []
    for _ in range(params.n_trees):
        draws = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(grow_tree(columns, labels, np.bincount(draws, minlength=n), params,
                               candidate_picker=None if fps == d else picker))
    return RandomForestModel(tuple(trees), params)
