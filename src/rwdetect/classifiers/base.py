"""Shared classifier plumbing: fingerprints, predictions, hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FingerprintMismatch, FitError

DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class Fingerprint:
    """Binds a model to the feature space it was trained on."""

    n_features: int
    dictionary_sha256: str = ""
    selected: tuple[int, ...] = ()

    def check_matrix(self, X: np.ndarray) -> None:
        if X.shape[1] != self.n_features:
            raise FingerprintMismatch(
                f"model expects {self.n_features} features, "
                f"matrix has {X.shape[1]}"
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


def check_xy(X: np.ndarray, y: np.ndarray) -> None:
    """Reject what no fitter trains on: a 0/1 array with no rows, or not one label per row."""
    if len(X) == 0:
        raise FitError("empty training matrix")
    if len(y) != len(X):
        raise FitError(f"labels length {len(y)} != n_samples {len(X)}")


# Counts that must be at least 1 when set, and rates that must be above 0.
AT_LEAST_ONE = ("n_trees", "k_neighbors", "epochs", "features_per_split")
POSITIVE = ("learning_rate", "regularization")


class Params:
    """Checks its hyperparameters' ranges when made, so ``--hp``, config files
    and model files all apply one rule; every float must also be finite."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise FitError(f"{name}={value!r} is not finite")
            if name in AT_LEAST_ONE and value is not None and value < 1:
                raise FitError(f"{name}={value!r} must be >= 1")
            if name in POSITIVE and value <= 0:
                raise FitError(f"{name}={value!r} must be > 0")


@dataclass(frozen=True)
class TreeParams(Params):
    max_depth: int = 32
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class ForestParams(Params):
    n_trees: int = 100
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0
    max_depth: int = 32
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class KnnParams(Params):
    k_neighbors: int = 5


@dataclass(frozen=True)
class SvmParams(Params):
    regularization: float = 1e-4
    epochs: int = 50
    seed: int = 0


@dataclass(frozen=True)
class GbtParams(Params):
    n_rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    l2_leaf_penalty: float = 1.0
    min_child_weight: float = 0.0


@dataclass(frozen=True)
class LogRegParams(Params):
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
