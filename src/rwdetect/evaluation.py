"""The paper's metrics row, ransomware positive.

``EvalReport`` is one model's confusion counts; its accuracy, precision
and recall are exact rationals computed from them and rounded only when
rendered. Undefined metrics (zero denominator) are reported as None and
rendered as "n/a" instead of being silently coerced to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.tp + self.tn, self.tp + self.tn + self.fp + self.fn)

    @property
    def precision(self) -> Fraction | None:
        return None if self.tp + self.fp == 0 else Fraction(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> Fraction | None:
        return None if self.tp + self.fn == 0 else Fraction(self.tp, self.tp + self.fn)

    def has_undefined(self) -> bool:
        return self.precision is None or self.recall is None


def evaluate_predictions(model_name: str, y_true, y_pred) -> EvalReport:
    cells = 2 * np.asarray(y_true, dtype=np.int64) + np.asarray(y_pred, dtype=np.int64)
    tn, fp, fn, tp = np.bincount(cells, minlength=4).tolist()
    return EvalReport(model_name, tp, tn, fp, fn)


def _fmt_pct(value) -> str:
    return "n/a" if value is None else f"{float(value) * 100:.2f}"


def _fmt_ratio(value) -> str:
    return "n/a" if value is None else f"{float(value):.2f}"


COLUMNS = ("Model", "Accuracy(%)", "Precision", "Recall", "TP", "TN", "FP", "FN")


def report_cells(r: EvalReport) -> tuple[str, ...]:
    return (r.model_name, _fmt_pct(r.accuracy), _fmt_ratio(r.precision), _fmt_ratio(r.recall),
            *map(str, (r.tp, r.tn, r.fp, r.fn)))


def aligned(rows) -> str:
    """Rows of text cells as columns two spaces apart, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def compare_models_text(reports: list[EvalReport]) -> str:
    """Aligned text table, models in input order."""
    return aligned([COLUMNS] + [report_cells(r) for r in reports])


def compare_models_csv(reports: list[EvalReport]) -> str:
    lines = ["model,accuracy_pct,precision,recall,tp,tn,fp,fn"]
    lines += [",".join(report_cells(r)) for r in reports]
    return "\n".join(lines) + "\n"
