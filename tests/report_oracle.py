"""Plain-Python reference for reading one sandbox report, kept apart from
``rwdetect.reports``: it walks the raw JSON field by field and token by
token, with lists where the program uses sets.
"""

import json

import numpy as np

# Report field and its feature-name prefix, in the order fields are checked.
FIELDS = (
    ("api_calls", "API"),
    ("dropped_exts", "DROP"),
    ("registry_ops", "REG"),
    ("file_ops", "FILES"),
    ("file_ext_ops", "FILES_EXT"),
    ("dir_ops", "DIR"),
    ("strings", "STR"),
)


class BadReport(Exception):
    """A JSON document that is not a report; the message is the program's."""


def reference_tokens(text) -> list[str]:
    """Distinct prefixed tokens of a JSON report, in first-seen order."""
    doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    if type(doc) is not dict:
        raise BadReport("report document must be a JSON object")
    tokens = []
    for field, prefix in FIELDS:
        values = doc[field] if field in doc else []
        if type(values) is not list:
            raise BadReport(f"report field {field!r} must be an array of strings")
        for value in values:
            if type(value) is not str:
                raise BadReport(f"report field {field!r} must be an array of strings")
        for value in values:
            name = prefix + ":" + value
            if name not in tokens:
                tokens.append(name)
    return tokens


def reference_report(text, names, selected):
    """``(tokens, matched, unmatched, row)`` of one report against the
    dictionary ``names``: ``row[c]`` is 1 when the report holds the name of
    ordinal ``selected[c]``."""
    tokens = reference_tokens(text)
    matched = 0
    for token in tokens:
        if token in names:
            matched += 1
    row = [1 if names[j] in tokens else 0 for j in selected]
    return tokens, matched, len(tokens) - matched, row


class RecordingModel:
    """Stands in for a classifier: keeps each array it is asked to predict."""

    def __init__(self):
        self.arrays = []

    def predict(self, X):
        self.arrays.append(X.copy())
        return np.zeros(len(X))
