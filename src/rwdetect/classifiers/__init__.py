"""Six classifiers behind one fit/predict contract, plus serialization."""

from .base import (
    DECISION_THRESHOLD,
    DEFAULT_PARAMS,
    Fingerprint,
    ForestParams,
    GbtParams,
    KnnParams,
    LogRegParams,
    Prediction,
    SvmParams,
    TreeParams,
)
from .boosting import GbtModel, fit_gradient_boosting
from .forest import RandomForestModel, fit_random_forest
from .io import deserialize_model, serialize_model
from .knn import KnnModel, fit_knn
from .linear import (
    LinearSvmModel,
    LogRegModel,
    fit_linear_svm,
    fit_logistic_regression,
    logistic_loss_and_gradient,
    svm_objective,
)
from .tree import DecisionTreeModel, fit_decision_tree

MODEL_KINDS = ("dt", "rf", "knn", "svm", "gbt", "logreg")

FITTERS = {
    "dt": fit_decision_tree,
    "rf": fit_random_forest,
    "knn": fit_knn,
    "svm": fit_linear_svm,
    "gbt": fit_gradient_boosting,
    "logreg": fit_logistic_regression,
}


__all__ = [
    "DECISION_THRESHOLD",
    "DEFAULT_PARAMS",
    "FITTERS",
    "Fingerprint",
    "ForestParams",
    "GbtModel",
    "GbtParams",
    "KnnModel",
    "KnnParams",
    "LinearSvmModel",
    "LogRegModel",
    "LogRegParams",
    "MODEL_KINDS",
    "Prediction",
    "RandomForestModel",
    "DecisionTreeModel",
    "SvmParams",
    "TreeParams",
    "deserialize_model",
    "fit_decision_tree",
    "fit_gradient_boosting",
    "fit_knn",
    "fit_linear_svm",
    "fit_logistic_regression",
    "fit_random_forest",
    "logistic_loss_and_gradient",
    "serialize_model",
    "svm_objective",
]
