"""Six classifiers behind one fit/predict contract, plus the model-file codec.

``FITTERS[kind](X, y, params)`` fits a model to the columns of ``X`` and
``model.predict(X)`` scores rows of the same columns. Which features those
columns are is the ``Fingerprint`` of the selection, which ``serialize_model``
writes into the model file beside the model and ``deserialize_model`` returns
with it.
"""

from .base import (
    DEFAULT_PARAMS,
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
from .io import Fingerprint, deserialize_model, serialize_model
from .knn import KnnModel, fit_knn
from .linear import (
    LinearSvmModel,
    LogRegModel,
    fit_linear_svm,
    fit_logistic_regression,
    logistic_gradient,
)
from .tree import DecisionTreeModel, fit_decision_tree

FITTERS = {
    "dt": fit_decision_tree,
    "rf": fit_random_forest,
    "knn": fit_knn,
    "svm": fit_linear_svm,
    "gbt": fit_gradient_boosting,
    "logreg": fit_logistic_regression,
}

MODEL_KINDS = tuple(FITTERS)
