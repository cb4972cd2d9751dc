"""Sandbox behavioral report adapter: parse, vectorize, score.

A report is a JSON object with up to seven arrays of string tokens, one
per behavioral category. Tokens are joined to the training feature space
by prefixing the category code, e.g. an API call "CreateFileW" becomes
the feature name "API:CreateFileW". Presence is binary; duplicate tokens
are collapsed before matching. Unknown tokens are counted as unmatched,
never errors; the caller decides what a count says.

Reports are scored in batches against a model and the fingerprint that
came with it in its model file: the fingerprint is checked once against
the dictionary, every report is vectorized into one 0/1 array of the
selected columns, and the model predicts all rows in one call. The
dictionary comes from the feature section of the training dataset alone;
a fingerprint mismatch fails the whole batch, while a report that does
not parse is set aside and the rest are scored.
"""

from __future__ import annotations

import json
from array import array
from typing import NamedTuple

import numpy as np

from .dataset import FeatureDictionary
from .errors import DataFormatError, FingerprintMismatch

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


class VectorizeOutcome(NamedTuple):
    """How many of a report's distinct tokens the dictionary has and has not."""

    matched: int
    unmatched: int


def parse_report(text: str | bytes) -> set[str]:
    """The distinct category-prefixed tokens of one JSON report document
    (bytes must be UTF-8); a missing array counts as empty."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deeply.
        raise DataFormatError(f"malformed report document: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError("report document must be a JSON object")
    tokens = set()
    for name, prefix in CATEGORY_FIELDS.items():
        value = doc.get(name, [])
        if not isinstance(value, list) or not set(map(type, value)) <= {str}:
            raise DataFormatError(f"report field {name!r} must be an array of strings")
        tokens.update(map(f"{prefix}:".__add__, value))
    return tokens


def vectorize(tokens: set[str], dictionary: FeatureDictionary) -> VectorizeOutcome:
    """Count the report's tokens the dictionary has and has not."""
    unmatched = len(dictionary.unknown(tokens))
    return VectorizeOutcome(len(tokens) - unmatched, unmatched)


def check_fingerprint(fingerprint, dictionary: FeatureDictionary) -> None:
    """Raise ``FingerprintMismatch`` unless the fingerprint's selected
    ordinals of ``dictionary`` are the feature space the model was trained on.
    The model decoder has checked that it selects at least one ordinal."""
    if fingerprint.dictionary_sha256 != dictionary.sha256():
        raise FingerprintMismatch("feature dictionary differs from the model's")
    if max(fingerprint.selected) >= len(dictionary):
        raise FingerprintMismatch("selected ordinals exceed the feature dictionary")


def score_documents(documents, model, fingerprint, dictionary: FeatureDictionary):
    """parse -> vectorize -> project through ``fingerprint``'s selection -> predict,
    for ``(report_id, text)`` documents as one batch.

    A document that could not be read is passed as its ``DataFormatError``
    in place of the text. The fingerprint is checked once, before any
    document is read, and the model predicts every row in one call. Returns
    ``(report_ids, scores, counts, failures)``: the id of every document that
    parses, in input order, with its score and its ``vectorize`` outcome, and
    ``(report_id, DataFormatError)`` for every one that does not. Each report
    is parsed when the loop reaches it, and only its outcome and the (row,
    column) entries of the selected names it holds outlive it.
    """
    selected = fingerprint.selected
    check_fingerprint(fingerprint, dictionary)
    column = {dictionary.names[j]: c for c, j in enumerate(selected)}
    names = frozenset(column)  # a set intersection walks the smaller side
    report_ids, counts, failures = [], [], []
    rows, columns = array("i"), array("i")
    for report_id, text in documents:
        try:
            if isinstance(text, DataFormatError):
                raise text
            tokens = parse_report(text)
        except DataFormatError as exc:
            failures.append((report_id, exc))
            continue
        report_ids.append(report_id)
        counts.append(vectorize(tokens, dictionary))
        hits = tokens.intersection(names)
        rows.extend([len(counts) - 1] * len(hits))
        columns.extend(map(column.__getitem__, hits))
    X = np.zeros((len(counts), len(selected)), dtype=np.uint8)
    X[np.asarray(rows), np.asarray(columns)] = 1
    return report_ids, model.predict(X), counts, failures


def score_report(
    text: str | bytes, model, fingerprint, dictionary: FeatureDictionary
) -> tuple[float, VectorizeOutcome]:
    """``score_documents`` of the one report ``text``: its score and its outcome.
    Raises the report's ``DataFormatError``."""
    _, scores, counts, failures = score_documents([(None, text)], model, fingerprint, dictionary)
    if failures:
        raise failures[0][1]
    return scores[0], counts[0]
