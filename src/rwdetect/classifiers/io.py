"""Versioned model files: a fitted classifier together with its fingerprint.

A classifier knows only its columns; the ``Fingerprint`` says which
features of which dictionary they are. The two travel together in the
model file and come back together from it. The container is canonical
JSON (sorted keys, compact separators, UTF-8), so re-serializing a
round-tripped model is byte-identical:

    {"format_version": 1, "model_kind": ..., "hyperparameters": {...},
     "fingerprint": {"n_features": ..., "dictionary_sha256": ..., "selected": [...]},
     "payload": {...}}

Decoding validates the whole document against the fingerprint (split
features, weight counts, stored KNN rows and k), so a file that loads
can be used to predict.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import FitError, ModelFormatError
from .base import DEFAULT_PARAMS
from .boosting import GbtModel
from .forest import RandomForestModel
from .knn import KnnModel
from .linear import LinearSvmModel, LogRegModel
from .tree import DecisionTreeModel, FlatTree, build_tree

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Fingerprint:
    """The feature selection a model's columns come from: the sha256 of the
    training dictionary and the ordinal of each column's feature in it, so
    ``len(selected)`` is the model's width."""

    dictionary_sha256: str
    selected: tuple[int, ...]


def _encode_tree(tree: FlatTree, leaf_key: str, node: int = 0):
    """Nested JSON of ``tree`` from ``node`` down: {"f", "l", "r"} at a split,
    {leaf_key: value} at a leaf, where the key is "s" for dt/rf and "w" for gbt."""
    if tree.is_leaf(node):
        return {leaf_key: float(tree.value[node])}
    return {"f": int(tree.feature[node]), "l": _encode_tree(tree, leaf_key, tree.left[node]),
            "r": _encode_tree(tree, leaf_key, tree.right[node])}


def _require(condition, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _decode_tree(obj, leaf_key: str, n_features: int, params) -> FlatTree:
    def expand(obj, depth):
        _require(isinstance(obj, dict), "tree node must be a JSON object")
        if "f" not in obj:
            return _number(obj[leaf_key], "leaf value")
        _require(depth < params.max_depth, f"tree deeper than max_depth {params.max_depth}")
        feature = obj["f"]
        if type(feature) is not int or not 0 <= feature < n_features:
            raise ModelFormatError(f"split feature {feature!r} outside [0, {n_features})")
        return feature, obj["l"], obj["r"]

    return build_tree(expand, obj)


def _decode_trees(payload, leaf_key: str, n_features: int, params, count: int) -> tuple:
    return tuple(_decode_tree(t, leaf_key, n_features, params)
                 for t in _list(payload["trees"], "trees", count))


def _number(value, what: str) -> float:
    """A finite JSON number as a float; NaN, Infinity and huge ints fail here, not at predict."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ModelFormatError(f"{what} {value!r} is not a finite number")
    return float(value)


def _list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a JSON array")
    if length is not None and len(value) != length:
        raise ModelFormatError(f"{what} has {len(value)} entries, expected {length}")
    return value


def _payload(model):
    kind = model.kind
    if kind == "dt":
        return {"root": _encode_tree(model.tree, "s")}
    if kind == "rf":
        return {"trees": [_encode_tree(t, "s") for t in model.trees]}
    if kind == "knn":
        return {
            "rows": [row.nonzero()[0].tolist() for row in model.train],
            "labels": list(model.train_labels),
            "n_features": model.train.shape[1],
        }
    if kind in ("svm", "logreg"):
        return {"weights": list(model.weights), "bias": model.bias}
    return {  # gbt
        "trees": [_encode_tree(t, "w") for t in model.trees],
        "base_score": model.base_score,
    }


def serialize_model(model, fingerprint: Fingerprint) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "hyperparameters": asdict(model.params),
        "fingerprint": {
            "n_features": len(fingerprint.selected),
            "dictionary_sha256": fingerprint.dictionary_sha256,
            "selected": list(fingerprint.selected),
        },
        "payload": _payload(model),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_params(kind: str, hp):
    """``kind``'s hyperparameters; ``Params`` checks each value's type and range."""
    _require(isinstance(hp, dict), "hyperparameters must be a JSON object")
    names = {f.name for f in fields(DEFAULT_PARAMS[kind])}
    for name in hp:
        _require(name in names, f"unknown {kind} hyperparameter {name!r}")
    return DEFAULT_PARAMS[kind](**hp)


def _decode_fingerprint(fp) -> Fingerprint:
    n_features, sha = fp["n_features"], fp["dictionary_sha256"]
    _require(type(n_features) is int and n_features >= 1,
             f"fingerprint n_features {n_features!r} is invalid")
    _require(isinstance(sha, str), "fingerprint dictionary_sha256 must be a string")
    selected = _list(fp["selected"], "fingerprint selected")
    _require(len(selected) == n_features,
             f"fingerprint selects {len(selected)} ordinals for {n_features} features")
    _require(all(type(j) is int and j >= 0 for j in selected)
             and len(set(selected)) == len(selected),
             "fingerprint selected must be distinct ordinals >= 0")
    return Fingerprint(sha, tuple(selected))


def _decode_knn(payload, params, d: int) -> KnnModel:
    n_features = payload["n_features"]
    _require(type(n_features) is int and n_features == d,
             f"knn n_features {n_features!r} differs from the fingerprint's")
    rows = _list(payload["rows"], "knn rows")
    labels = _list(payload["labels"], "knn labels", len(rows))
    _require(all(type(v) is int and v in (0, 1) for v in labels),
             "knn labels must be 0 or 1")
    _require(1 <= params.k_neighbors <= len(rows),
             f"k_neighbors {params.k_neighbors} outside [1, {len(rows)}] stored rows")
    # Allocated before the flat pass: after it, score-batch peak RSS read 0.3-0.5 MB higher.
    train = np.zeros((len(rows), n_features), dtype=np.uint8)
    row_of = np.repeat(np.arange(len(rows)), [len(_list(row, "knn row")) for row in rows])
    flat = list(itertools.chain.from_iterable(rows))
    _require(set(map(type, flat)) <= {int}, "knn row ordinals must be integers")
    try:
        ordinals = np.array(flat, dtype=np.int64)
    except OverflowError:  # beyond int64, so outside [0, n_features) too
        ordinals = np.array([min(max(j, -1), n_features) for j in flat], dtype=np.int64)
    # One flat pass: an entry is bad when out of range or not above the one before in its row.
    bad = (ordinals < 0) | (ordinals >= n_features)
    bad[1:] |= (ordinals[1:] <= ordinals[:-1]) & (row_of[1:] == row_of[:-1])
    if bad.any():
        i = int(row_of[bad.argmax()])
        row = rows[i]
        _require(all(a < b for a, b in zip(row, row[1:])),
                 f"knn row {i}: active ordinals not strictly sorted")
        j = row[-1] if 0 <= row[0] < n_features else row[0]
        raise ModelFormatError(f"knn row {i}: ordinal {j} outside [0, {n_features})")
    train[row_of, ordinals] = 1
    return KnnModel(train, tuple(labels), params)


def _decode_payload(kind: str, payload, params, d: int):
    """``kind``'s classifier from its file payload, ``d`` columns wide."""
    if kind == "knn":
        return _decode_knn(payload, params, d)
    if kind == "dt":
        return DecisionTreeModel(_decode_tree(payload["root"], "s", d, params), params)
    if kind == "rf":
        return RandomForestModel(_decode_trees(payload, "s", d, params, params.n_trees), params)
    if kind == "gbt":
        return GbtModel(_decode_trees(payload, "w", d, params, params.n_rounds),
                        _number(payload["base_score"], "base_score"), params)
    linear = LinearSvmModel if kind == "svm" else LogRegModel
    weights = _list(payload["weights"], "weights", d)
    return linear(tuple(_number(w, "weight") for w in weights),
                  _number(payload["bias"], "bias"), params)


def deserialize_model(data: bytes):
    """``(model, fingerprint)`` of a model file, every part of it checked."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"malformed model payload: {exc}") from exc
    _require(isinstance(doc, dict), "model document must be a JSON object")
    version = doc.get("format_version")
    _require(version == FORMAT_VERSION,
             f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    kind = doc.get("model_kind")
    _require(isinstance(kind, str) and kind in DEFAULT_PARAMS,
             f"unknown model kind {kind!r}")
    try:
        params = _decode_params(kind, doc["hyperparameters"])
        fingerprint = _decode_fingerprint(doc["fingerprint"])
        model = _decode_payload(kind, doc["payload"], params, len(fingerprint.selected))
        return model, fingerprint
    except FitError as exc:  # a hyperparameter of another type or out of its range
        raise ModelFormatError(f"hyperparameter {exc}") from None
    # RecursionError: a tree nested deeper than the decoder recurses.
    except (KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ModelFormatError(f"truncated or malformed payload: {exc}") from exc
