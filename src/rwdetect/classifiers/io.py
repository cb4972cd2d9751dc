"""Versioned model serialization.

The container is canonical JSON (sorted keys, compact separators, UTF-8),
so re-serializing a round-tripped model is byte-identical:

    {"format_version": 1, "model_kind": ..., "hyperparameters": {...},
     "fingerprint": {...}, "payload": {...}}

Decoding validates the whole document against the fingerprint (split
features, weight counts, stored KNN rows and k), so a file that loads
can be used to predict.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

from ..dataset import DataMatrix
from ..errors import DataFormatError, FitError, ModelFormatError
from .base import DEFAULT_PARAMS, Fingerprint
from .boosting import GbtModel
from .forest import RandomForestModel
from .knn import KnnModel
from .linear import LinearSvmModel, LogRegModel
from .tree import DecisionTreeModel, FlatTree, build_tree

FORMAT_VERSION = 1


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


def _decode_tree(obj, leaf_key: str, n_features: int) -> FlatTree:
    def expand(obj, depth):
        _require(isinstance(obj, dict), "tree node must be a JSON object")
        if "f" not in obj:
            return _number(obj[leaf_key], "leaf value")
        feature = obj["f"]
        if type(feature) is not int or not 0 <= feature < n_features:
            raise ModelFormatError(f"split feature {feature!r} outside [0, {n_features})")
        return feature, obj["l"], obj["r"]

    return build_tree(expand, obj)


def _decode_trees(payload, leaf_key: str, n_features: int, count: int) -> tuple:
    return tuple(_decode_tree(t, leaf_key, n_features)
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
    if kind == "gbt":
        return {
            "trees": [_encode_tree(t, "w") for t in model.trees],
            "base_score": model.base_score,
        }
    raise ModelFormatError(f"unknown model kind {kind!r}")


def serialize_model(model) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "hyperparameters": asdict(model.params),
        "fingerprint": {
            "n_features": model.fingerprint.n_features,
            "dictionary_sha256": model.fingerprint.dictionary_sha256,
            "selected": list(model.fingerprint.selected),
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
    _require(not selected or len(selected) == n_features,
             f"fingerprint selects {len(selected)} ordinals for {n_features} features")
    _require(all(type(j) is int and j >= 0 for j in selected)
             and len(set(selected)) == len(selected),
             "fingerprint selected must be distinct ordinals >= 0")
    return Fingerprint(n_features, sha, tuple(selected))


def _decode_knn(payload, params, fingerprint: Fingerprint) -> KnnModel:
    n_features = payload["n_features"]
    _require(type(n_features) is int and n_features == fingerprint.n_features,
             f"knn n_features {n_features!r} differs from the fingerprint's")
    rows = _list(payload["rows"], "knn rows")
    labels = _list(payload["labels"], "knn labels", len(rows))
    _require(all(type(v) is int and v in (0, 1) for v in labels),
             "knn labels must be 0 or 1")
    _require(1 <= params.k_neighbors <= len(rows),
             f"k_neighbors {params.k_neighbors} outside [1, {len(rows)}] stored rows")
    _require(all(type(j) is int for row in rows for j in _list(row, "knn row")),
             "knn row ordinals must be integers")
    return KnnModel(DataMatrix.from_rows(n_features, rows).to_dense(), tuple(labels), params,
                    fingerprint)


def deserialize_model(data: bytes):
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
        d, payload = fingerprint.n_features, doc["payload"]
        bound = {"params": params, "fingerprint": fingerprint}
        if kind == "knn":
            return _decode_knn(payload, params, fingerprint)
        if kind == "dt":
            return DecisionTreeModel(tree=_decode_tree(payload["root"], "s", d), **bound)
        if kind == "rf":
            return RandomForestModel(trees=_decode_trees(payload, "s", d, params.n_trees),
                                     **bound)
        if kind == "gbt":
            return GbtModel(trees=_decode_trees(payload, "w", d, params.n_rounds),
                            base_score=_number(payload["base_score"], "base_score"), **bound)
        linear = LinearSvmModel if kind == "svm" else LogRegModel
        weights = _list(payload["weights"], "weights", d)
        return linear(weights=tuple(_number(w, "weight") for w in weights),
                      bias=_number(payload["bias"], "bias"), **bound)
    except FitError as exc:  # a hyperparameter of another type or out of its range
        raise ModelFormatError(f"hyperparameter {exc}") from None
    # RecursionError: a tree nested deeper than the decoder recurses.
    except (KeyError, TypeError, OverflowError, RecursionError, DataFormatError) as exc:
        raise ModelFormatError(f"truncated or malformed payload: {exc}") from exc
