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
from dataclasses import asdict, fields

from ..dataset import DataMatrix
from ..errors import DataFormatError, ModelFormatError
from .base import DEFAULT_PARAMS, Fingerprint
from .boosting import GbtModel, GbtNode
from .forest import RandomForestModel
from .knn import KnnModel
from .linear import LinearSvmModel, LogRegModel
from .tree import DecisionTreeModel, TreeNode

FORMAT_VERSION = 1

# JSON value types accepted for each hyperparameter annotation.
_VALUE_TYPES = {"bool": {bool}, "int": {int}, "float": {int, float}, "None": {type(None)}}

# Tree node type -> (leaf key in the file, leaf field of the node).
_LEAF = {TreeNode: ("s", "score"), GbtNode: ("w", "weight")}


def _encode_tree(node):
    if node.is_leaf:
        key, attr = _LEAF[type(node)]
        return {key: getattr(node, attr)}
    return {"f": node.feature, "l": _encode_tree(node.left), "r": _encode_tree(node.right)}


def _require(condition, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _decode_tree(obj, node_type, n_features: int):
    _require(isinstance(obj, dict), "tree node must be a JSON object")
    if "f" in obj:
        feature = obj["f"]
        if type(feature) is not int or not 0 <= feature < n_features:
            raise ModelFormatError(f"split feature {feature!r} outside [0, {n_features})")
        return node_type(
            feature=feature,
            left=_decode_tree(obj["l"], node_type, n_features),
            right=_decode_tree(obj["r"], node_type, n_features),
        )
    key, attr = _LEAF[node_type]
    return node_type(**{attr: _number(obj[key], "leaf value")})


def _decode_trees(payload, node_type, n_features: int) -> tuple:
    return tuple(_decode_tree(t, node_type, n_features)
                 for t in _list(payload["trees"], "trees"))


def _number(value, what: str) -> float:
    """A JSON number as a float; an int beyond float range fails here, not at predict."""
    if type(value) not in (int, float):
        raise ModelFormatError(f"{what} {value!r} is not a number")
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
        return {"root": _encode_tree(model.root)}
    if kind == "rf":
        return {"trees": [_encode_tree(t) for t in model.trees]}
    if kind == "knn":
        return {
            "rows": [row.tolist() for row in model.train.row_ordinals()],
            "labels": list(model.train_labels),
            "n_features": model.train.n_features,
        }
    if kind in ("svm", "logreg"):
        return {"weights": list(model.weights), "bias": model.bias}
    if kind == "gbt":
        return {
            "trees": [_encode_tree(t) for t in model.trees],
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
    _require(isinstance(hp, dict), "hyperparameters must be a JSON object")
    annotations = {f.name: f.type for f in fields(DEFAULT_PARAMS[kind])}
    hp = dict(hp)
    for name, value in hp.items():
        _require(name in annotations, f"unknown {kind} hyperparameter {name!r}")
        if name == "features_per_split" and isinstance(value, float) \
                and value.is_integer():
            value = hp[name] = int(value)
        allowed = set().union(*(_VALUE_TYPES[t] for t in annotations[name].split(" | ")))
        _require(type(value) in allowed,
                 f"hyperparameter {name}={value!r} is not {annotations[name]}")
        if annotations[name] == "float":
            _number(value, f"hyperparameter {name}")
    return DEFAULT_PARAMS[kind](**hp)


def _decode_fingerprint(fp) -> Fingerprint:
    n_features, sha = fp["n_features"], fp["dictionary_sha256"]
    _require(type(n_features) is int and n_features >= 0,
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
    return KnnModel(DataMatrix.from_rows(n_features, rows), tuple(labels), params,
                    fingerprint)


def deserialize_model(data: bytes):
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
            return DecisionTreeModel(root=_decode_tree(payload["root"], TreeNode, d), **bound)
        if kind == "rf":
            return RandomForestModel(trees=_decode_trees(payload, TreeNode, d), **bound)
        if kind == "gbt":
            return GbtModel(trees=_decode_trees(payload, GbtNode, d),
                            base_score=_number(payload["base_score"], "base_score"), **bound)
        linear = LinearSvmModel if kind == "svm" else LogRegModel
        weights = _list(payload["weights"], "weights", d)
        return linear(weights=tuple(_number(w, "weight") for w in weights),
                      bias=_number(payload["bias"], "bias"), **bound)
    except (KeyError, TypeError, OverflowError, DataFormatError) as exc:
        raise ModelFormatError(f"truncated or malformed payload: {exc}") from exc
