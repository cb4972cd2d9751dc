import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect import cli
from rwdetect.classifiers import (
    DEFAULT_PARAMS,
    FITTERS,
    MODEL_KINDS,
    Fingerprint,
    ForestParams,
    GbtParams,
    SvmParams,
    TreeParams,
    deserialize_model,
    labels_of,
    serialize_model,
)
from rwdetect.classifiers.base import AT_MOST, sigmoid
from rwdetect.classifiers.tree import DecisionTreeModel, build_tree
from rwdetect.errors import ModelFormatError

from conftest import random_dense, xy
from fixtures import every_column, synthesize_dataset, to_dense


def fitted_models():
    rng = np.random.default_rng(55)
    X = random_dense(rng, 30, 7)
    y = np.r_[np.zeros(15, dtype=int), np.ones(15, dtype=int)]
    return X, {kind: FITTERS[kind](X, y, DEFAULT_PARAMS[kind]()) for kind in MODEL_KINDS}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_round_trip_byte_equal(kind):
    X, models = fitted_models()
    fingerprint = Fingerprint("ab" * 32, (6, 0, 5, 1, 4, 2, 3))
    blob = serialize_model(models[kind], fingerprint)
    restored, decoded = deserialize_model(blob)
    assert decoded == fingerprint
    assert serialize_model(*deserialize_model(blob)) == blob
    assert restored.predict(X).tobytes() == models[kind].predict(X).tobytes()


def test_every_table_of_kinds_covers_exactly_the_model_kinds():
    _, models = fitted_models()
    assert set(DEFAULT_PARAMS) == set(cli.BASELINE) == set(MODEL_KINDS)
    assert {kind: model.kind for kind, model in models.items()} == \
        {kind: kind for kind in MODEL_KINDS}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_returns_one_float64_score_per_row(kind):
    X, models = fitted_models()
    for rows in (0, 1, len(X)):
        scores = models[kind].predict(X[:rows])
        assert type(scores) is np.ndarray
        assert (scores.dtype, scores.shape) == (np.float64, (rows,))
        assert ((scores >= 0) & (scores <= 1)).all()


def test_version_mismatch_rejected():
    _, models = fitted_models()
    doc = json.loads(serialize_model(models["dt"], every_column(7)))
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError, match="format_version"):
        deserialize_model(json.dumps(doc).encode())


def test_unknown_model_kind_rejected():
    _, models = fitted_models()
    doc = json.loads(serialize_model(models["dt"], every_column(7)))
    doc["model_kind"] = "perceptron"
    with pytest.raises(ModelFormatError, match="model kind"):
        deserialize_model(json.dumps(doc).encode())


def test_truncated_payload_rejected():
    _, models = fitted_models()
    blob = serialize_model(models["logreg"], every_column(7))
    with pytest.raises(ModelFormatError):
        deserialize_model(blob[: len(blob) // 2])


def test_fingerprint_dimension_mismatch():
    # A file that selects no ordinals for its 4 features has no columns of a
    # dictionary to predict on: it is rejected when it is read, before any
    # array is built.
    rng = np.random.default_rng(56)
    X = random_dense(rng, 10, 4)
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    model = FITTERS["logreg"](X, y, DEFAULT_PARAMS["logreg"]())
    blob = serialize_model(model, Fingerprint("", ()))
    with pytest.raises(ModelFormatError, match="fingerprint selects 0 ordinals for 4 features"):
        deserialize_model(blob.replace(b'"n_features":0', b'"n_features":4'))


# What the decoder says of a payload that is one feature wider than its fingerprint.
WIDER_PAYLOAD = {
    **dict.fromkeys(("dt", "rf", "gbt"), "split feature 4 outside"),
    "knn": "knn n_features 5 differs",
    **dict.fromkeys(("svm", "logreg"), "weights has 5 entries, expected 4"),
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fingerprint_of_another_width_is_not_fit(kind):
    # A fit gets the fingerprint of the selection that made X, so only a
    # model file can claim another width, and no loader takes it. Column 4
    # is the label, so every tree kind splits on it.
    rng = np.random.default_rng(58)
    y = np.r_[np.zeros(15, dtype=int), np.ones(15, dtype=int)]
    X = np.c_[random_dense(rng, 30, 4), y].astype(np.uint8)
    model = FITTERS[kind](X, y, DEFAULT_PARAMS[kind]())
    with pytest.raises(ModelFormatError, match=WIDER_PAYLOAD[kind]):
        deserialize_model(edited(model, lambda doc: doc["fingerprint"].update(
            n_features=4, selected=[0, 1, 2, 3]), width=5))


def test_fingerprint_survives_round_trip():
    rng = np.random.default_rng(57)
    X = random_dense(rng, 10, 4)
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    fp = Fingerprint("ab" * 32, (3, 1, 9, 2))
    model = FITTERS["svm"](X, y, DEFAULT_PARAMS["svm"]())
    assert deserialize_model(serialize_model(model, fp))[1] == fp


@pytest.fixture(scope="module")
def models():
    return fitted_models()[1]


def edited(model, edit, width=7):
    """The file of ``model``, fit on all its ``width`` columns, after ``edit``
    changed its decoded document."""
    doc = json.loads(serialize_model(model, every_column(width)))
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
        doc["fingerprint"]["selected"] = [0, 1]
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


@pytest.mark.parametrize("label", [True, 1.0, 2, "1"])
def test_knn_label_other_than_int_0_or_1_rejected(models, label):
    def edit(doc):
        doc["payload"]["labels"][0] = label

    with pytest.raises(ModelFormatError, match="knn labels must be 0 or 1"):
        deserialize_model(edited(models["knn"], edit))


# Edits of the first stored knn row of at least two ordinals, and the message each gives.
KNN_ROW_DEFECTS = {
    "negative": (lambda row: row.insert(0, -1), "ordinal -1 outside"),
    "repeated": (lambda row: row.append(row[-1]), "not strictly sorted"),
    "out-of-order": (lambda row: row.reverse(), "not strictly sorted"),
    "true": (lambda row: row.append(True), "ordinals must be integers"),
}


@pytest.mark.parametrize("defect", KNN_ROW_DEFECTS)
def test_knn_row_ordinals_not_increasing_in_range_rejected(models, defect):
    change, message = KNN_ROW_DEFECTS[defect]

    def edit(doc):
        change(next(row for row in doc["payload"]["rows"] if len(row) > 1))

    with pytest.raises(ModelFormatError, match=message):
        deserialize_model(edited(models["knn"], edit))


def reference_knn_rows(rows, n_features):
    """The per-row check of knn rows that the decoder's flat pass replaces:
    the message of the first row that breaks a rule, or None."""
    for i, row in enumerate(rows):
        if not all(a < b for a, b in zip(row, row[1:])):
            return f"knn row {i}: active ordinals not strictly sorted"
        for j in row[:1] + row[-1:]:
            if not 0 <= j < n_features:
                return f"knn row {i}: ordinal {j} outside [0, {n_features})"
    return None


KNN_ORDINALS = st.integers(0, 7) | st.sampled_from([-1, -2**64, 2**63, 10**30])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(KNN_ORDINALS, max_size=5), min_size=1, max_size=6))
def test_knn_rows_match_per_row_reference(models, rows):
    def edit(doc):
        doc["hyperparameters"].update(k_neighbors=1)
        doc["payload"].update(rows=rows, labels=[0] * len(rows))

    blob = edited(models["knn"], edit)
    message = reference_knn_rows(rows, 7)
    if message is None:
        expected = np.zeros((len(rows), 7), dtype=np.uint8)
        for i, row in enumerate(rows):
            expected[i, row] = 1
        assert np.array_equal(deserialize_model(blob)[0].train, expected)
    else:
        with pytest.raises(ModelFormatError) as raised:
            deserialize_model(blob)
        assert str(raised.value) == message


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

    model, _ = deserialize_model(weight(2**70))
    assert model.weights[0] == float(2**70)
    assert len(model.predict(np.eye(7, dtype=np.uint8))) == 7
    with pytest.raises(ModelFormatError, match="truncated or malformed"):
        deserialize_model(weight(10**400))


@pytest.mark.parametrize("kind, values", [
    ("knn", {"k_neighbors": 1}),
    ("rf", {"n_trees": 1, "features_per_split": 1}),
    ("rf", {"features_per_split": None}),
    ("svm", {"epochs": 1, "regularization": 5e-324}),
    ("gbt", {"n_rounds": 1, "learning_rate": 5e-324}),
    ("logreg", {"epochs": 1, "learning_rate": 5e-324, "l2_penalty": 0.0}),
])
def test_hyperparameters_at_their_bounds_are_accepted(kind, values):
    params = DEFAULT_PARAMS[kind](**values)
    assert all(getattr(params, name) == value for name, value in values.items())


def test_tree_as_deep_as_the_bound_round_trips():
    # A chain: the split at depth j reads feature j, its 0 side is a leaf of
    # value (j + 1) / 1024, and its 1 side goes on down to a leaf of 1.0.
    bound = AT_MOST["max_depth"]

    def expand(leaf, depth):
        if leaf:
            return depth / 1024
        return 1.0 if depth == bound else (depth, True, False)

    model = DecisionTreeModel(build_tree(expand, False), TreeParams(max_depth=bound))
    assert len(model.tree.feature) == 2 * bound + 1
    X = np.ones((4, bound), dtype=np.uint8)
    for row, j in enumerate((0, 100, bound - 1)):
        X[row, j] = 0
    blob = serialize_model(model, every_column(bound))
    restored, fingerprint = deserialize_model(blob)
    assert serialize_model(restored, fingerprint) == blob
    assert restored.predict(X).tolist() == [1 / 1024, 101 / 1024, bound / 1024, 1.0]


def tree_depth(tree, node=0) -> int:
    if tree.is_leaf(node):
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def with_max_depth(model, max_depth: int, width: int) -> bytes:
    """The file of ``model``, fit on all its ``width`` columns, with ``max_depth`` edited."""
    return edited(model, lambda doc: doc["hyperparameters"].update(max_depth=max_depth), width)


def test_tree_deeper_than_its_file_max_depth_rejected():
    # One-hot rows with alternating labels: each split peels one row off, so
    # the dt fit at the bound is a chain 20 deep. Edited to its own depth the
    # file loads; edited below it, say to 6, it is a data error.
    X, y = xy(np.eye(40), [0, 1] * 20)
    model = FITTERS["dt"](X, y, TreeParams(max_depth=AT_MOST["max_depth"]))
    depth = tree_depth(model.tree)
    assert depth == 20
    restored, _ = deserialize_model(with_max_depth(model, depth, 40))
    assert restored.predict(X).tolist() == model.predict(X).tolist()
    for max_depth in (depth - 1, 6):
        with pytest.raises(ModelFormatError, match=f"tree deeper than max_depth {max_depth}$"):
            deserialize_model(with_max_depth(model, max_depth, 40))


@pytest.mark.parametrize("kind", ["dt", "rf", "gbt"])
def test_tree_one_level_deeper_than_max_depth_rejected(kind):
    rng = np.random.default_rng(59)
    X, y = xy(random_dense(rng, 60, 8), rng.integers(0, 2, size=60))
    model = FITTERS[kind](X, y, DEFAULT_PARAMS[kind](max_depth=3))
    trees = [model.tree] if kind == "dt" else model.trees
    assert max(map(tree_depth, trees)) == 3
    restored, _ = deserialize_model(with_max_depth(model, 3, 8))
    assert restored.predict(X).tolist() == model.predict(X).tolist()
    with pytest.raises(ModelFormatError, match="tree deeper than max_depth 2$"):
        deserialize_model(with_max_depth(model, 2, 8))


def small_blobs():
    rng = np.random.default_rng(58)
    X, labels = xy(random_dense(rng, 8, 3), [0, 1] * 4)
    small = {"rf": {"n_trees": 2}, "gbt": {"n_rounds": 2}, "svm": {"epochs": 2},
             "logreg": {"epochs": 2}, "knn": {"k_neighbors": 3}}
    fp = Fingerprint("ab" * 32, (4, 0, 2))
    return [
        serialize_model(FITTERS[k](X, labels, DEFAULT_PARAMS[k](**small.get(k, {}))), fp)
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
        model, fingerprint = deserialize_model(blob)
    except ModelFormatError:
        return
    # A model that decodes can predict on data of its fingerprint's width.
    width = len(fingerprint.selected)
    query = np.eye(2, max(width, 1), dtype=np.uint8)[:, :width]
    with np.errstate(all="ignore"):
        assert len(model.predict(query)) == 2


# sha256 of each kind's model file, fitted with default hyperparameters on
# every column of the synthetic set of ``pinned_data``. Any change to a fit, to the tree
# layout or to the codec that moves one byte of a model file fails here.
# dt and rf count in integers, and the svm, gbt and logreg sum only values on an
# exact grid, so their bytes hold on every BLAS kernel (see the kernel test below).
PINNED_SHA256 = {
    "dt": "1351e8547ad96049d04cc35421acceae3c63061e951364f14388ade6fe2a75d3",
    "rf": "32336eeeeee9d4a9d9416bc5b16d4809d54988cc2123a6350fead8fb174af79d",
    "knn": "33cf9c573249495e67ddfd6ce3bd8d76dd769232678d0391c25e96aae21540bc",
    "svm": "27d4910fe8a88b909fcab9f865d54739bb94bf297dcf404931df1c82f63c4be3",
    "gbt": "09f39de75876185dc5b17156218dcb7da38edab8d2cb1b2c4f8769675afdbd74",
    "logreg": "7c0d7f9f26ff6087403d0799aae4b081102b6d25672811dce111ac3f712f93f1",
    "svm regularization=1": "5b8e3610d5d45680e1a508d6f6196ee6b6dbacf0f9faabaa7a99b36b435f7540",
}
# Each kind at its defaults, and the SVM at regularization=1: the ball's
# radius is then 1, so its projection onto the ball runs (at 1e-4 it never does).
PINNED_CASES = {**{kind: (kind, DEFAULT_PARAMS[kind]()) for kind in MODEL_KINDS},
                "svm regularization=1": ("svm", SvmParams(regularization=1.0))}


def pinned_data():
    signal = [(0, 0.1, 0.6), (3, 0.5, 0.2), (7, 0.3, 0.45), (12, 0.2, 0.3)]
    matrix, y = synthesize_dataset(240, 40, 0.2, signal, seed=2024)
    return to_dense(matrix), y


def pinned_blob(case, data) -> bytes:
    kind, params = PINNED_CASES[case]
    X, y = data
    return serialize_model(FITTERS[kind](X, y, params), every_column(X.shape[1]))


def pinned_sha256(case, data) -> str:
    return hashlib.sha256(pinned_blob(case, data)).hexdigest()


@pytest.fixture(scope="module")
def pinned_dataset():
    return pinned_data()


@pytest.mark.parametrize("case", PINNED_SHA256)
def test_model_bytes_are_pinned(pinned_dataset, case):
    blob = pinned_blob(case, pinned_dataset)
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[case]
    # A pinned file is one the decoder loads, and it re-encodes to the same bytes.
    assert serialize_model(*deserialize_model(blob)) == blob


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without ``mode``, or no BLAS entry
        return ""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "openblas" not in blas_name().lower(),
                    reason="OPENBLAS_CORETYPE selects kernels of an x86-64 OpenBLAS")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_exact_sum_models_are_pinned_on_every_blas_kernel(coretype, pinned_dataset, tmp_path):
    # Each kernel sums in its own order; on the exact grid every order gives the same bits.
    # The svm, tree, gbt and logreg files fitted there must be the pinned ones, and an
    # svm file fitted here must give the pinned rows the same score bytes there.
    svm_file = tmp_path / "model_svm.json"
    svm_file.write_bytes(pinned_blob("svm", pinned_dataset))
    svm, _ = deserialize_model(svm_file.read_bytes())
    scores = svm.predict(pinned_dataset[0]).tobytes()
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    script = ("import hashlib, sys, test_serialization as t\n"
              "data = t.pinned_data()\n"
              "print(*(t.pinned_sha256(case, data) for case in sys.argv[2:]))\n"
              "with open(sys.argv[1], 'rb') as fh:\n"
              "    svm, _ = t.deserialize_model(fh.read())\n"
              "print(hashlib.sha256(svm.predict(data[0]).tobytes()).hexdigest())\n")
    cases = ["svm", "svm regularization=1", "dt", "rf", "gbt", "logreg"]
    done = subprocess.run([sys.executable, "-c", script, str(svm_file), *cases], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [*(PINNED_SHA256[case] for case in cases),
                                   hashlib.sha256(scores).hexdigest()]


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
    blob = serialize_model(model, every_column(X.shape[1]))
    expected = nested_scores(json.loads(blob), queries)
    for candidate in (model, deserialize_model(blob)[0]):
        scores = candidate.predict(queries)
        assert scores.tolist() == expected
        assert labels_of(scores).tolist() == [int(s >= 0.5) for s in expected]
