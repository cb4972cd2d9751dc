"""Span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces public names
(module functions, class methods, entries of the ``FITTERS`` table) with
wrappers that record one span per call, and ``uninstall`` puts the
originals back. A span holds its name, start, end and the index of the
span that was open when it began, so self time is the span's duration
minus that of its direct children. Spans stay in memory until ``dump``.

A wrap target that no longer exists (renamed or removed by a refactor)
is recorded in ``absent`` and its metrics read 0; it never fails a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

MODEL_KINDS = ("dt", "rf", "knn", "svm", "gbt", "logreg")


def _tokens_loaded(result):
    matrix = result[0]
    return {"dataset.samples_loaded": matrix.n_samples,
            "dataset.tokens_loaded": sum(len(r.active) for r in matrix.rows)}


def _rows_predicted(result):
    return {"classifiers.predict_calls": 1, "classifiers.rows_predicted": len(result)}


def _tokens_matched(result):
    return {"reports.tokens_seen": result.matched + result.unmatched,
            "reports.tokens_matched": result.matched}


# (owner path below the rwdetect package, attribute, span name, counter).
# A span name ending in "." takes the model kind of the call's first
# argument (the model instance for ``predict``), or of the FITTERS key.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("dataset", "load_sparse", "dataset.load_sparse", _tokens_loaded),
    ("dataset", "stratified_split", "dataset.stratified_split", None),
    ("dataset", "take_rows", "dataset.take_rows", None),
    ("dataset.FeatureDictionary", "sha256", "dataset.sha256",
     lambda _: {"dataset.sha256_calls": 1}),
    ("selection", "score_all", "selection.score_all", None),
    ("selection", "select_k_best", "selection.select_k_best", None),
    ("selection", "project", "selection.project", None),
    ("selection", "write_scores_csv", "selection.write_scores_csv", None),
    *(("classifiers.FITTERS", kind, f"classifiers.fit.{kind}", None) for kind in MODEL_KINDS),
    *((f"classifiers.{cls}", "predict", "classifiers.predict.", _rows_predicted)
      for cls in ("DecisionTreeModel", "RandomForestModel", "KnnModel",
                  "LinearSvmModel", "GbtModel", "LogRegModel")),
    ("classifiers", "deserialize_model", "io.deserialize",
     lambda _: {"io.deserialize_calls": 1}),
    ("reports", "parse_report", "reports.parse_report", None),
    ("reports", "vectorize", "reports.vectorize", _tokens_matched),
    ("reports", "score_report", "reports.score_report", None),
    ("evaluation", "evaluate_predictions", "evaluation.evaluate_predictions", None),
)

LAYERS = ("cli", "dataset", "selection", "classifiers", "io", "reports", "evaluation")

# Per-layer metric -> (kind, span name or counter). "busy" sums the
# duration of outermost spans of that name, "self" sums self time.
METRICS = {
    "dataset.load_sparse_s": ("busy", "dataset.load_sparse"),
    "dataset.samples_loaded": ("count", "dataset.samples_loaded"),
    "dataset.tokens_loaded": ("count", "dataset.tokens_loaded"),
    "dataset.stratified_split_s": ("busy", "dataset.stratified_split"),
    "dataset.take_rows_s": ("busy", "dataset.take_rows"),
    "dataset.sha256_s": ("busy", "dataset.sha256"),
    "dataset.sha256_calls": ("count", "dataset.sha256_calls"),
    "selection.score_all_s": ("busy", "selection.score_all"),
    "selection.select_k_best_s": ("busy", "selection.select_k_best"),
    "selection.project_s": ("busy", "selection.project"),
    "selection.write_scores_csv_s": ("busy", "selection.write_scores_csv"),
    **{f"classifiers.fit_s.{k}": ("busy", f"classifiers.fit.{k}") for k in MODEL_KINDS},
    **{f"classifiers.predict_s.{k}": ("busy", f"classifiers.predict.{k}") for k in MODEL_KINDS},
    "classifiers.predict_calls": ("count", "classifiers.predict_calls"),
    "classifiers.rows_predicted": ("count", "classifiers.rows_predicted"),
    "io.deserialize_s": ("busy", "io.deserialize"),
    "io.deserialize_calls": ("count", "io.deserialize_calls"),
    "reports.parse_report_s": ("busy", "reports.parse_report"),
    "reports.vectorize_s": ("busy", "reports.vectorize"),
    "reports.score_report_self_s": ("self", "reports.score_report"),
    "reports.tokens_seen": ("count", "reports.tokens_seen"),
    "reports.tokens_matched": ("count", "reports.tokens_matched"),
    "evaluation.evaluate_predictions_s": ("busy", "evaluation.evaluate_predictions"),
    **{f"{layer}.self_s": ("layer_self", layer) for layer in LAYERS},
}


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, parent index, start, end]
        self.counts = Counter()
        self.absent = []
        self.uncounted = set()  # spans whose result no longer has the counted shape
        self._stack = []
        self._installed = []  # (owner, attr, original)

    def install(self):
        self.absent = []
        for owner_path, attr, name, counter in TARGETS:
            owner = _resolve(self.package, owner_path)
            is_table = isinstance(owner, dict)
            original = (owner.get(attr) if is_table else getattr(owner, attr, None)) \
                if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            if name.endswith("."):
                namer = lambda args, base=name: base + getattr(args[0], "kind", "?")  # noqa: E731
            else:
                namer = lambda args, fixed=name: fixed  # noqa: E731
            wrapper = self._wrapper(original, namer, counter)
            if is_table:
                owner[attr] = wrapper
            else:
                setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed = []

    def _wrapper(self, fn, namer, counter):
        spans, stack, counts, uncounted = self.spans, self._stack, self.counts, self.uncounted
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [namer(args), stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counts.update(counter(result))
                except (AttributeError, TypeError):
                    uncounted.add(span[0])
            return result

        return traced

    def totals(self):
        """Busy and self seconds per span name, self seconds per layer."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, own, layer_self = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            ancestor, nested = parent, False
            while ancestor >= 0 and not nested:
                nested = self.spans[ancestor][0] == name
                ancestor = self.spans[ancestor][1]
            if not nested:
                busy[name] += duration
            own[name] += duration - child_time[i]
            layer_self[name.split(".", 1)[0]] += duration - child_time[i]
        return busy, own, layer_self

    def metrics(self, rounds):
        """Every per-layer metric, averaged over ``rounds`` traced rounds."""
        busy, own, layer_self = self.totals()
        table = {"busy": busy, "self": own, "layer_self": layer_self, "count": self.counts}
        out = {}
        for metric, (kind, key) in METRICS.items():
            unit = "count" if kind == "count" else "s"
            out[metric] = {"value": table[kind].get(key, 0) / rounds, "unit": unit}
        out["trace.spans"] = {"value": len(self.spans) / rounds, "unit": "count"}
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "uncounted": sorted(self.uncounted),
                       "counts": dict(self.counts),
                       "spans": [{"name": n, "parent": p, "start": s, "end": e}
                                 for n, p, s, e in self.spans]}, fh)
