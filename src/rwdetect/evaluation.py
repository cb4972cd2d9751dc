"""Confusion counts and accuracy/precision/recall, ransomware positive.

Metrics are computed as exact rationals and rounded only when rendered.
Undefined metrics (zero denominator) are reported as None and rendered
as "n/a" instead of being silently coerced to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    true_labels = np.asarray(y_true)
    predicted = np.asarray(y_pred)
    if len(true_labels) != len(predicted):
        raise ValueError(
            f"length mismatch: {len(true_labels)} labels vs {len(predicted)} predictions"
        )
    if not (np.isin(true_labels, (0, 1)).all() and np.isin(predicted, (0, 1)).all()):
        raise ValueError("labels and predictions must be 0 or 1")
    cells = 2 * true_labels.astype(np.int64) + predicted.astype(np.int64)
    tn, fp, fn, tp = np.bincount(cells, minlength=4).tolist()
    return ConfusionMatrix(tp, tn, fp, fn)


def accuracy(cm: ConfusionMatrix) -> Fraction:
    if cm.total == 0:
        raise ValueError("accuracy undefined on zero samples")
    return Fraction(cm.tp + cm.tn, cm.total)


def precision(cm: ConfusionMatrix) -> Fraction | None:
    if cm.tp + cm.fp == 0:
        return None
    return Fraction(cm.tp, cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> Fraction | None:
    if cm.tp + cm.fn == 0:
        return None
    return Fraction(cm.tp, cm.tp + cm.fn)


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    cm: ConfusionMatrix

    @property
    def accuracy(self) -> Fraction:
        return accuracy(self.cm)

    @property
    def precision(self) -> Fraction | None:
        return precision(self.cm)

    @property
    def recall(self) -> Fraction | None:
        return recall(self.cm)

    def has_undefined(self) -> bool:
        return self.precision is None or self.recall is None


def evaluate_predictions(model_name: str, y_true, y_pred) -> EvalReport:
    return EvalReport(model_name, confusion(y_true, y_pred))


def _fmt_pct(value) -> str:
    return "n/a" if value is None else f"{float(value) * 100:.2f}"


def _fmt_ratio(value) -> str:
    return "n/a" if value is None else f"{float(value):.2f}"


COLUMNS = ("Model", "Accuracy(%)", "Precision", "Recall", "TP", "TN", "FP", "FN")


def report_cells(r: EvalReport) -> tuple[str, ...]:
    return (r.model_name, _fmt_pct(r.accuracy), _fmt_ratio(r.precision), _fmt_ratio(r.recall),
            *map(str, (r.cm.tp, r.cm.tn, r.cm.fp, r.cm.fn)))


def aligned(rows) -> str:
    """Rows of text cells as columns two spaces apart, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def compare_models_text(reports: list[EvalReport]) -> str:
    """Aligned text table, models in input order."""
    if not reports:
        raise ValueError("no reports to compare")
    return aligned([COLUMNS] + [report_cells(r) for r in reports])


def compare_models_csv(reports: list[EvalReport]) -> str:
    if not reports:
        raise ValueError("no reports to compare")
    lines = ["model,accuracy_pct,precision,recall,tp,tn,fp,fn"]
    lines += [",".join(report_cells(r)) for r in reports]
    return "\n".join(lines) + "\n"
