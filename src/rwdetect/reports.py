"""Sandbox behavioral report adapter: parse, vectorize, score.

A report is a JSON object with up to seven arrays of string tokens, one
per behavioral category. Tokens are joined to the training feature space
by prefixing the category code, e.g. an API call "CreateFileW" becomes
the feature name "API:CreateFileW". Presence is binary; duplicate tokens
are collapsed before matching. Unknown tokens are counted as unmatched
diagnostics, never errors.

Reports are scored in batches: the model's fingerprint is checked once
against the dictionary, every report is vectorized into one
sparse matrix of the selected columns, and the model predicts all rows in
one call. The dictionary comes from the feature section of the training
dataset alone; a fingerprint mismatch fails the whole batch, while a
report that does not parse is set aside and the rest are scored.
"""

from __future__ import annotations

import json
import logging
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classifiers import Prediction
from .dataset import DataMatrix, FeatureDictionary
from .errors import DataFormatError, FingerprintMismatch

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


@dataclass(frozen=True)
class BehaviorReport:
    api_calls: tuple[str, ...] = ()
    registry_ops: tuple[str, ...] = ()
    file_ops: tuple[str, ...] = ()
    file_ext_ops: tuple[str, ...] = ()
    dir_ops: tuple[str, ...] = ()
    dropped_exts: tuple[str, ...] = ()
    strings: tuple[str, ...] = ()


class VectorizeOutcome(NamedTuple):
    """A report's sorted dictionary ordinals and how many of its distinct
    tokens the dictionary has and has not; a batch keeps it with ``row=()``."""

    row: tuple[int, ...]
    matched: int
    unmatched: int


def parse_report(text: str | bytes) -> BehaviorReport:
    """Parse one JSON report document (bytes must be UTF-8); missing arrays
    default to empty."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deeply.
        raise DataFormatError(f"malformed report document: {exc}") from None
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
    return {f"{prefix}:{token}"
            for field_name, prefix in CATEGORY_FIELDS.items()
            for token in getattr(report, field_name)}


def vectorize(report: BehaviorReport, dictionary: FeatureDictionary) -> VectorizeOutcome:
    ordinals, misses = dictionary.lookup(prefixed_tokens(report))
    ordinals.sort()
    total = len(ordinals) + len(misses)
    if total and len(misses) / total > UNMATCHED_WARN_RATIO:
        logger.warning(
            "report matched only %d of %d tokens; dictionary drift likely",
            len(ordinals), total,
        )
    return VectorizeOutcome(tuple(ordinals), len(ordinals), len(misses))


def check_fingerprint(fingerprint, dictionary: FeatureDictionary) -> None:
    """Raise ``FingerprintMismatch`` unless the fingerprint's selected
    ordinals of ``dictionary`` are the feature space the model was trained on."""
    selected = fingerprint.selected
    if fingerprint.n_features != len(selected):
        raise FingerprintMismatch(
            f"model expects {fingerprint.n_features} selected features, "
            f"selection has {len(selected)}"
        )
    if fingerprint.dictionary_sha256 != dictionary.sha256():
        raise FingerprintMismatch("feature dictionary differs from the model's")
    if selected and max(selected) >= len(dictionary):
        raise FingerprintMismatch("selected ordinals exceed the feature dictionary")


def score_reports(
    reports, model, dictionary: FeatureDictionary
) -> list[tuple[Prediction, VectorizeOutcome]]:
    """vectorize -> project through the model's selection -> predict, for a whole batch.

    The fingerprint is checked once, before any report is read, and the
    model predicts every report's row in one call; results follow the
    order of ``reports``, which may be any iterable. Each report's row is
    projected onto the selected columns as it is vectorized and goes
    straight into the batch's sparse arrays, and its outcome is kept beside
    them with ``row=()``.
    """
    selected = model.fingerprint.selected
    check_fingerprint(model.fingerprint, dictionary)
    if len(set(selected)) != len(selected) or min(selected, default=0) < 0:
        raise ValueError("selection must be distinct ordinals >= 0")
    # dictionary ordinal -> selected column, None where not selected
    column = [None] * len(dictionary)
    for c, j in enumerate(selected):
        column[j] = c
    indptr, indices, counts = [0], array("i"), []
    for report in reports:
        outcome = vectorize(report, dictionary)
        row = [c for c in map(column.__getitem__, outcome.row) if c is not None]
        row.sort()
        indices.extend(row)
        indptr.append(len(indices))
        counts.append(outcome._replace(row=()))
    matrix = DataMatrix(len(selected), np.array(indptr, dtype=np.int64),
                        np.asarray(indices, dtype=np.int32))
    return list(zip(model.predict(matrix), counts))


def score_report(
    report: BehaviorReport, model, dictionary: FeatureDictionary
) -> tuple[Prediction, VectorizeOutcome]:
    """``score_reports`` of a one-report batch."""
    return score_reports([report], model, dictionary)[0]


def score_documents(documents, model, dictionary: FeatureDictionary):
    """Parse and score ``(report_id, text)`` documents as one batch.

    A document that could not be read is passed as its ``DataFormatError``
    in place of the text. Returns ``(verdicts, failures)``:
    ``(report_id, prediction, outcome)`` for every document that parses, in
    input order, and ``(report_id, DataFormatError)`` for every one that
    does not. Each document is parsed as ``score_reports`` reaches it, so
    only its vectorized row outlives it.
    """
    report_ids, failures = [], []

    def parsed():
        for report_id, text in documents:
            try:
                if isinstance(text, DataFormatError):
                    raise text
                report = parse_report(text)
            except DataFormatError as exc:
                failures.append((report_id, exc))
                continue
            report_ids.append(report_id)
            yield report

    scored = score_reports(parsed(), model, dictionary)
    return [(report_id, *result) for report_id, result in zip(report_ids, scored)], failures
