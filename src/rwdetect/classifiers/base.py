"""Shared classifier plumbing: fingerprints, predictions, hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import DataMatrix, LabelVector
from ..errors import FingerprintMismatch, FitError

DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class Fingerprint:
    """Binds a model to the feature space it was trained on."""

    n_features: int
    dictionary_sha256: str = ""
    selected: tuple[int, ...] = ()

    def check_matrix(self, matrix: DataMatrix) -> None:
        if matrix.n_features != self.n_features:
            raise FingerprintMismatch(
                f"model expects {self.n_features} features, "
                f"matrix has {matrix.n_features}"
            )


@dataclass(frozen=True)
class Prediction:
    label: int
    score: float


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def scores_to_predictions(scores) -> list[Prediction]:
    return [
        Prediction(int(s >= DECISION_THRESHOLD), float(s)) for s in scores
    ]


def as_xy(matrix: DataMatrix, y: LabelVector):
    """Dense float-free views used by all fitters."""
    if matrix.n_samples == 0:
        raise FitError("empty training matrix")
    if len(y) != matrix.n_samples:
        raise FitError(f"labels length {len(y)} != n_samples {matrix.n_samples}")
    return matrix.to_dense(), y.to_array()


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 32
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0
    max_depth: int = 32
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class KnnParams:
    k_neighbors: int = 5


@dataclass(frozen=True)
class SvmParams:
    regularization: float = 1e-4
    epochs: int = 50
    seed: int = 0


@dataclass(frozen=True)
class GbtParams:
    n_rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    l2_leaf_penalty: float = 1.0
    min_child_weight: float = 0.0


@dataclass(frozen=True)
class LogRegParams:
    learning_rate: float = 0.1
    epochs: int = 500
    l2_penalty: float = 1e-4
    tolerance: float = 1e-8


# Hyperparameter type of each model kind; model files and --hp overrides
# are checked against these fields.
DEFAULT_PARAMS = {
    "dt": TreeParams,
    "rf": ForestParams,
    "knn": KnnParams,
    "svm": SvmParams,
    "gbt": GbtParams,
    "logreg": LogRegParams,
}
