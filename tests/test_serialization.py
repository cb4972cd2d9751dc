import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect.classifiers import (
    DEFAULT_PARAMS,
    FITTERS,
    MODEL_KINDS,
    Fingerprint,
    ForestParams,
    GbtParams,
    TreeParams,
    deserialize_model,
    serialize_model,
)
from rwdetect.classifiers.base import sigmoid
from rwdetect.dataset import synthesize_dataset
from rwdetect.errors import FingerprintMismatch, ModelFormatError

from conftest import random_dense, xy


def fitted_models():
    rng = np.random.default_rng(55)
    X = random_dense(rng, 30, 7)
    y = np.r_[np.zeros(15, dtype=int), np.ones(15, dtype=int)]
    return X, {kind: FITTERS[kind](X, y) for kind in MODEL_KINDS}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_round_trip_byte_equal(kind):
    X, models = fitted_models()
    blob = serialize_model(models[kind])
    restored = deserialize_model(blob)
    assert serialize_model(restored) == blob
    assert restored.predict(X) == models[kind].predict(X)


def test_version_mismatch_rejected():
    _, models = fitted_models()
    doc = json.loads(serialize_model(models["dt"]))
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError, match="format_version"):
        deserialize_model(json.dumps(doc).encode())


def test_unknown_model_kind_rejected():
    _, models = fitted_models()
    doc = json.loads(serialize_model(models["dt"]))
    doc["model_kind"] = "perceptron"
    with pytest.raises(ModelFormatError, match="model kind"):
        deserialize_model(json.dumps(doc).encode())


def test_truncated_payload_rejected():
    _, models = fitted_models()
    blob = serialize_model(models["logreg"])
    with pytest.raises(ModelFormatError):
        deserialize_model(blob[: len(blob) // 2])


def test_fingerprint_dimension_mismatch():
    rng = np.random.default_rng(56)
    X = random_dense(rng, 10, 4)
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    model = FITTERS["logreg"](X, y, fingerprint=Fingerprint(4))
    narrow = random_dense(rng, 3, 3)
    with pytest.raises(FingerprintMismatch, match="expects 4 features"):
        model.predict(narrow)


def test_fingerprint_survives_round_trip():
    rng = np.random.default_rng(57)
    X = random_dense(rng, 10, 4)
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    fp = Fingerprint(4, "ab" * 32, (3, 1, 9, 2))
    model = FITTERS["svm"](X, y, fingerprint=fp)
    assert deserialize_model(serialize_model(model)).fingerprint == fp


@pytest.fixture(scope="module")
def models():
    return fitted_models()[1]


def edited(model, edit):
    """Serialized ``model`` after ``edit`` changed its decoded document."""
    doc = json.loads(serialize_model(model))
    edit(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("kind, tree", [
    ("dt", lambda p: p["root"]),
    ("rf", lambda p: next(t for t in p["trees"] if "f" in t)),
    ("gbt", lambda p: next(t for t in p["trees"] if "f" in t)),
])
@pytest.mark.parametrize("feature", [7, -1, "0", 1.0])
def test_split_feature_outside_fingerprint_rejected(models, kind, tree, feature):
    def edit(doc):
        doc["fingerprint"]["n_features"] = 2
        doc["fingerprint"]["selected"] = []
        tree(doc["payload"])["f"] = feature

    with pytest.raises(ModelFormatError, match="split feature"):
        deserialize_model(edited(models[kind], edit))


def test_knn_k_beyond_stored_rows_rejected(models):
    blob = edited(models["knn"], lambda doc: doc["hyperparameters"].update(k_neighbors=31))
    with pytest.raises(ModelFormatError, match="k_neighbors 31"):
        deserialize_model(blob)


def test_knn_row_ordinal_beyond_n_features_rejected(models):
    blob = edited(models["knn"], lambda doc: doc["payload"]["rows"][0].append(7))
    with pytest.raises(ModelFormatError, match="ordinal 7 outside"):
        deserialize_model(blob)


@pytest.mark.parametrize("kind", ["svm", "logreg"])
def test_weight_count_differs_from_n_features(models, kind):
    blob = edited(models[kind], lambda doc: doc["payload"]["weights"].pop())
    with pytest.raises(ModelFormatError, match="weights has 6 entries, expected 7"):
        deserialize_model(blob)


def test_integer_weights_decode_as_floats(models):
    def weight(value):
        def edit(doc):
            doc["payload"]["weights"][0] = value
        return edited(models["logreg"], edit)

    model = deserialize_model(weight(2**70))
    assert model.weights[0] == float(2**70)
    assert len(model.predict(np.eye(7, dtype=np.uint8))) == 7
    with pytest.raises(ModelFormatError, match="truncated or malformed"):
        deserialize_model(weight(10**400))


@pytest.mark.parametrize("kind, values", [
    ("knn", {"k_neighbors": 1}),
    ("rf", {"n_trees": 1, "features_per_split": 1}),
    ("rf", {"features_per_split": None}),
    ("svm", {"epochs": 1, "regularization": 5e-324}),
    ("gbt", {"n_rounds": 0, "learning_rate": 5e-324}),
    ("logreg", {"epochs": 1, "learning_rate": 5e-324, "l2_penalty": 0.0}),
])
def test_hyperparameters_at_their_bounds_are_accepted(kind, values):
    params = DEFAULT_PARAMS[kind](**values)
    assert all(getattr(params, name) == value for name, value in values.items())


def small_blobs():
    rng = np.random.default_rng(58)
    X, labels = xy(random_dense(rng, 8, 3), [0, 1] * 4)
    small = {"rf": {"n_trees": 2}, "gbt": {"n_rounds": 2}, "svm": {"epochs": 2},
             "logreg": {"epochs": 2}, "knn": {"k_neighbors": 3}}
    fp = Fingerprint(3, "ab" * 32, (4, 0, 2))
    return [
        serialize_model(FITTERS[k](X, labels, DEFAULT_PARAMS[k](**small.get(k, {})), fp))
        for k in MODEL_KINDS
    ]


SMALL_BLOBS = small_blobs()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.sampled_from([2**70, -2**70])
    | st.floats(allow_nan=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                              max_size=3),
    max_leaves=5,
)


def paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_models(draw):
    blob = draw(st.sampled_from(SMALL_BLOBS))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + draw(st.binary(min_size=1, max_size=3)) + blob[at + 1:]
    doc = json.loads(blob)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None)
@given(mutated_models())
def test_mutated_model_raises_only_model_format_error(blob):
    try:
        model = deserialize_model(blob)
    except ModelFormatError:
        return
    # A model that decodes can predict on data of its fingerprint's width.
    width = model.fingerprint.n_features
    query = np.eye(2, max(width, 1), dtype=np.uint8)[:, :width]
    with np.errstate(all="ignore"):
        assert len(model.predict(query)) == 2


# sha256 of each kind's model file, fitted with default hyperparameters on
# the synthetic set of ``pinned_dataset``. Any change to a fit, to the tree
# layout or to the codec that moves one byte of a model file fails here.
# The float-valued models (svm, gbt, logreg) were recorded with numpy's
# OpenBLAS on x86-64; another BLAS may order its sums differently.
PINNED_SHA256 = {
    "dt": "33d30bccb90961450b0de0645d9d679538a7b52e37ef7194c3a6bee79724be20",
    "rf": "925ae49715f722d304594538379f21331dfe0d858660789c21b8389d8d4edfea",
    "knn": "17db3964777c20be0d17748c2f8ba41c322663bb7b5a5489eb0b77095396cd31",
    "svm": "0299240d7ae711a1f708798db26b9608680d76cb5f1fe22cd4c3a853a62ddd4c",
    "gbt": "9e6b08634c7aced243405dd8366673edf91a80e1334083f6ceb9a740d69e7cd4",
    "logreg": "2f587c85b852a44f258c2892ba1f5aee4035217bcff67293e7f8ba769f31ba99",
}


@pytest.fixture(scope="module")
def pinned_dataset():
    signal = [(0, 0.1, 0.6), (3, 0.5, 0.2), (7, 0.3, 0.45), (12, 0.2, 0.3)]
    matrix, y = synthesize_dataset(240, 40, 0.2, signal, seed=2024)
    return matrix.to_dense(), y


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_model_bytes_are_pinned(pinned_dataset, kind):
    blob = serialize_model(FITTERS[kind](*pinned_dataset))
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[kind]


def walk(node, x, leaf_key):
    """Leaf value a 0/1 row reaches in a tree of the nested file layout."""
    while "f" in node:
        node = node["r"] if x[node["f"]] else node["l"]
    return node[leaf_key]


def nested_scores(doc, X):
    """dt/rf/gbt scores computed from the model file's nested trees alone."""
    payload = doc["payload"]
    if doc["model_kind"] == "dt":
        return [walk(payload["root"], x, "s") for x in X]
    if doc["model_kind"] == "rf":
        trees = payload["trees"]
        return [sum(walk(t, x, "s") >= 0.5 for t in trees) / len(trees) for x in X]
    margin = np.full(len(X), payload["base_score"])
    for t in payload["trees"]:
        margin += doc["hyperparameters"]["learning_rate"] * np.array([walk(t, x, "w") for x in X])
    return sigmoid(margin).tolist()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind, params", [
    ("dt", TreeParams()),
    ("dt", TreeParams(max_depth=3, min_samples_leaf=4)),
    ("rf", ForestParams(n_trees=9, seed=5)),
    ("rf", ForestParams(n_trees=4, max_depth=2, bootstrap=False, seed=1)),
    ("gbt", GbtParams(n_rounds=7)),
    ("gbt", GbtParams(n_rounds=5, max_depth=2, learning_rate=0.7)),
])
def test_flat_tree_predictions_match_nested_walk(kind, params, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 12))
    X = random_dense(rng, 70, d, p=rng.uniform(0.1, 0.9))
    y = rng.integers(0, 2, size=70)
    y[:2] = (0, 1)
    queries = random_dense(rng, 40, d)
    model = FITTERS[kind](X, y, params)
    blob = serialize_model(model)
    expected = nested_scores(json.loads(blob), queries)
    for candidate in (model, deserialize_model(blob)):
        preds = candidate.predict(queries)
        assert [p.score for p in preds] == expected
        assert [p.label for p in preds] == [int(s >= 0.5) for s in expected]
