"""Shared classifier plumbing: the label rule, hyperparameters and fit checks.

A classifier only fits and predicts; the fingerprint of the feature
selection that made its columns belongs to the model file (``io``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import FitError

DECISION_THRESHOLD = 0.5


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def labels_of(scores: np.ndarray) -> np.ndarray:
    """The label of each score a model's ``predict`` returns: 1 (ransomware)
    where it reaches ``DECISION_THRESHOLD``, else 0. No other code labels a row."""
    return (scores >= DECISION_THRESHOLD).astype(np.uint8)


def to_grid(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` rounded in place to the grid 2^-(52 - ceil(log2 bound)), on which values whose
    magnitudes add up to at most ``bound`` sum exactly in float64, in every order."""
    scale = 2.0 ** (52 - (bound - 1).bit_length())
    np.rint(np.multiply(values, scale, out=values), out=values)
    values /= scale
    return values


def check_finite(values) -> None:
    """Reject a fit that overflowed: a model file holds only finite numbers."""
    if not np.isfinite(values).all():
        raise FitError("the fit produced a non-finite number; "
                       "a smaller learning_rate or a larger penalty avoids it")


# The values each annotation of a hyperparameter accepts; a float may be an int.
VALUE_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "None": (type(None),)}
# Counts that must be at least 1 when set, values that must be at least 0,
# and rates that must be above 0.
AT_LEAST_ONE = ("n_trees", "k_neighbors", "epochs", "features_per_split", "n_rounds",
                "min_samples_leaf")
NON_NEGATIVE = ("max_depth", "seed", "l2_leaf_penalty", "min_child_weight", "tolerance",
                "l2_penalty")
POSITIVE = ("learning_rate", "regularization")
# Upper bounds: a deeper tree recurses past Python's limit when it is grown or written.
AT_MOST = {"max_depth": 512}


class Params:
    """Checks its hyperparameters when made, so ``--hp``, config files and
    model files all apply one rule: each value has the type of its field's
    annotation (``VALUE_TYPES``), a float is finite, and each lies in its range."""

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if not any(type(value) in VALUE_TYPES[t] for t in f.type.split(" | ")):
                raise FitError(f"{name}={value!r} is not {f.type}")
            if f.type == "float" and not math.isfinite(value):  # OverflowError on a huge int
                raise FitError(f"{name}={value!r} is not finite")
            if name in AT_LEAST_ONE and value is not None and value < 1:
                raise FitError(f"{name}={value!r} must be >= 1")
            if name in NON_NEGATIVE and value < 0:
                raise FitError(f"{name}={value!r} must be >= 0")
            if name in POSITIVE and value <= 0:
                raise FitError(f"{name}={value!r} must be > 0")
            if name in AT_MOST and value > AT_MOST[name]:
                raise FitError(f"{name}={value!r} must be <= {AT_MOST[name]}")


@dataclass(frozen=True)
class TreeParams(Params):
    max_depth: int = 32
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class ForestParams(TreeParams):
    n_trees: int = 100
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0


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
