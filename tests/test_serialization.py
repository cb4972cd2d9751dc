import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect.classifiers import (
    DEFAULT_PARAMS,
    FITTERS,
    MODEL_KINDS,
    Fingerprint,
    deserialize_model,
    serialize_model,
)
from rwdetect.errors import FingerprintMismatch, ModelFormatError

from conftest import matrix_from_dense, random_dense


def fitted_models():
    rng = np.random.default_rng(55)
    X = random_dense(rng, 30, 7)
    y = np.r_[np.zeros(15, dtype=int), np.ones(15, dtype=int)]
    m, labels = matrix_from_dense(X, labels=y)
    return m, {kind: FITTERS[kind](m, labels) for kind in MODEL_KINDS}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_round_trip_byte_equal(kind):
    m, models = fitted_models()
    blob = serialize_model(models[kind])
    restored = deserialize_model(blob)
    assert serialize_model(restored) == blob
    assert restored.predict(m) == models[kind].predict(m)


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
    m, labels = matrix_from_dense(X, labels=y)
    model = FITTERS["logreg"](m, labels, fingerprint=Fingerprint(4))
    narrow = matrix_from_dense(random_dense(rng, 3, 3))
    with pytest.raises(FingerprintMismatch, match="expects 4 features"):
        model.predict(narrow)


def test_fingerprint_survives_round_trip():
    rng = np.random.default_rng(57)
    X = random_dense(rng, 10, 4)
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    m, labels = matrix_from_dense(X, labels=y)
    fp = Fingerprint(4, "ab" * 32, (3, 1, 9, 2))
    model = FITTERS["svm"](m, labels, fingerprint=fp)
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
    assert len(model.predict(matrix_from_dense(np.eye(7, dtype=np.uint8)))) == 7
    with pytest.raises(ModelFormatError, match="truncated or malformed"):
        deserialize_model(weight(10**400))


def small_blobs():
    rng = np.random.default_rng(58)
    m, labels = matrix_from_dense(random_dense(rng, 8, 3), labels=[0, 1] * 4)
    small = {"rf": {"n_trees": 2}, "gbt": {"n_rounds": 2}, "svm": {"epochs": 2},
             "logreg": {"epochs": 2}, "knn": {"k_neighbors": 3}}
    fp = Fingerprint(3, "ab" * 32, (4, 0, 2))
    return [
        serialize_model(FITTERS[k](m, labels, DEFAULT_PARAMS[k](**small.get(k, {})), fp))
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
    query = matrix_from_dense(np.eye(2, max(width, 1), dtype=np.uint8)[:, :width])
    with np.errstate(all="ignore"):
        assert len(model.predict(query)) == 2
