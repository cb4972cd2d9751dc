"""Sandbox behavioral report adapter: parse, vectorize, score.

A report is a JSON object with up to seven arrays of string tokens, one
per behavioral category. Tokens are joined to the training feature space
by prefixing the category code, e.g. an API call "CreateFileW" becomes
the feature name "API:CreateFileW". Presence is binary; duplicate tokens
are collapsed before matching. Unknown tokens are counted as unmatched
diagnostics, never errors.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .classifiers import Prediction
from .dataset import DataMatrix, FeatureDictionary
from .errors import DataFormatError, FingerprintMismatch
from .selection import SelectionResult, project

logger = logging.getLogger(__name__)

# report field -> feature-name category prefix
CATEGORY_FIELDS = {
    "api_calls": "API",
    "dropped_exts": "DROP",
    "registry_ops": "REG",
    "file_ops": "FILES",
    "file_ext_ops": "FILES_EXT",
    "dir_ops": "DIR",
    "strings": "STR",
}

UNMATCHED_WARN_RATIO = 0.9
UNMATCHED_SAMPLE_LIMIT = 20


@dataclass(frozen=True)
class BehaviorReport:
    api_calls: tuple[str, ...] = ()
    registry_ops: tuple[str, ...] = ()
    file_ops: tuple[str, ...] = ()
    file_ext_ops: tuple[str, ...] = ()
    dir_ops: tuple[str, ...] = ()
    dropped_exts: tuple[str, ...] = ()
    strings: tuple[str, ...] = ()


@dataclass(frozen=True)
class VectorizeOutcome:
    row: tuple[int, ...]
    matched: int
    unmatched: int
    unmatched_samples: tuple[str, ...] = field(default=())


def parse_report(text: str) -> BehaviorReport:
    """Parse one JSON report document; missing arrays default to empty."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed report document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("report document must be a JSON object")
    fields = {}
    for name in CATEGORY_FIELDS:
        value = doc.get(name, [])
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise DataFormatError(f"report field {name!r} must be an array of strings")
        fields[name] = tuple(value)
    return BehaviorReport(**fields)


def prefixed_tokens(report: BehaviorReport) -> set[str]:
    """Distinct category-prefixed feature names occurring in the report."""
    tokens = set()
    for field_name, prefix in CATEGORY_FIELDS.items():
        for token in getattr(report, field_name):
            tokens.add(f"{prefix}:{token}")
    return tokens


def vectorize(report: BehaviorReport, dictionary: FeatureDictionary) -> VectorizeOutcome:
    ordinals = set()
    misses = []
    for name in sorted(prefixed_tokens(report)):
        if name in dictionary:
            ordinals.add(dictionary.ordinal(name))
        else:
            misses.append(name)
    total = len(ordinals) + len(misses)
    if total and len(misses) / total > UNMATCHED_WARN_RATIO:
        logger.warning(
            "report matched only %d of %d tokens; dictionary drift likely",
            len(ordinals), total,
        )
    return VectorizeOutcome(
        row=tuple(sorted(ordinals)),
        matched=len(ordinals),
        unmatched=len(misses),
        unmatched_samples=tuple(misses[:UNMATCHED_SAMPLE_LIMIT]),
    )


def score_report(
    report: BehaviorReport,
    model,
    dictionary: FeatureDictionary,
    selection: SelectionResult,
) -> tuple[Prediction, VectorizeOutcome]:
    """vectorize -> project through the selection -> predict."""
    fp = model.fingerprint
    if fp.n_features != len(selection.selected):
        raise FingerprintMismatch(
            f"model expects {fp.n_features} selected features, "
            f"selection has {len(selection.selected)}"
        )
    if fp.selected and tuple(fp.selected) != tuple(selection.selected):
        raise FingerprintMismatch("selected-ordinal list differs from the model's")
    if fp.dictionary_sha256 and fp.dictionary_sha256 != dictionary.sha256():
        raise FingerprintMismatch("feature dictionary differs from the model's")
    if selection.selected and max(selection.selected) >= len(dictionary):
        raise FingerprintMismatch("selected ordinals exceed the feature dictionary")

    outcome = vectorize(report, dictionary)
    row = DataMatrix(len(dictionary), [0, len(outcome.row)], outcome.row)
    prediction = model.predict(project(row, selection.selected))[0]
    return prediction, outcome
