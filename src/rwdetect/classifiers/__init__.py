"""Six classifiers behind one fit/predict contract, plus serialization."""

from .base import (
    DEFAULT_PARAMS,
    Fingerprint,
    ForestParams,
    GbtParams,
    KnnParams,
    LogRegParams,
    SvmParams,
    TreeParams,
    labels_of,
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

