from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from rwdetect import cli
from rwdetect.evaluation import (
    ConfusionMatrix,
    EvalReport,
    accuracy,
    compare_models_csv,
    compare_models_text,
    confusion,
    evaluate_predictions,
    precision,
    recall,
)

counts = st.integers(min_value=0, max_value=1000)


class TestConfusion:
    def test_perfect_predictions(self):
        cm = confusion([0, 1, 1, 0], [0, 1, 1, 0])
        assert (cm.fp, cm.fn) == (0, 0)
        assert (cm.tp, cm.tn) == (2, 2)

    def test_inverted_predictions(self):
        cm = confusion([0, 1, 1, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (2, 2)

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(60)
        y_true = rng.integers(0, 2, size=50)
        y_pred = rng.integers(0, 2, size=50)
        cm = confusion(list(y_true), list(y_pred))
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
        tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
        assert cm == ConfusionMatrix(tp, tn, fp, fn)


class TestMetrics:
    def test_reference_xgb_row(self):
        cm = ConfusionMatrix(tp=188, tn=306, fp=7, fn=2)
        assert round(float(accuracy(cm)) * 100, 2) == 98.21

    def test_reference_dt_row(self):
        cm = ConfusionMatrix(tp=184, tn=297, fp=16, fn=6)
        assert round(float(precision(cm)), 2) == 0.92
        assert round(float(recall(cm)), 2) == 0.97

    def test_reference_lr_row(self):
        cm = ConfusionMatrix(tp=187, tn=307, fp=6, fn=3)
        assert round(float(precision(cm)), 2) == 0.97
        assert round(float(recall(cm)), 2) == 0.98

    def test_exact_rational_identity(self):
        cm = ConfusionMatrix(3, 5, 2, 1)
        assert accuracy(cm) * cm.total == cm.tp + cm.tn
        assert accuracy(cm) == Fraction(8, 11)

    def test_undefined_precision_is_none(self):
        assert precision(ConfusionMatrix(0, 5, 0, 2)) is None

    def test_undefined_recall_is_none(self):
        assert recall(ConfusionMatrix(0, 5, 2, 0)) is None

    @given(tp=counts, tn=counts, fp=st.integers(1, 1000), fn=st.integers(1, 1000))
    def test_precision_recall_monotone_in_tp(self, tp, tn, fp, fn):
        a = ConfusionMatrix(tp, tn, fp, fn)
        b = ConfusionMatrix(tp + 1, tn, fp, fn)
        assert precision(b) >= (precision(a) or 0)
        assert recall(b) >= (recall(a) or 0)

    def test_zero_total_accuracy_raises(self, tmp_path, capsys):
        # Accuracy is taken over a test partition, and a split that would
        # leave one empty raises first.
        data = tmp_path / "four.sparse"
        data.write_text("#FEATURES 1\nAPI:a\n#SAMPLES 4\n"
                        "s0\t0\t\ns1\t0\tAPI:a\ns2\t1\t\ns3\t2\tAPI:a\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["reproduce", "--data", str(data), "--out", str(out),
                         "--test-fraction", "0.1"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: test_fraction 0.1 empties a partition for class 0\n"
        assert not out.exists()


class TestCompare:
    # Published per-model confusion counts used as baseline anchors.
    REFERENCE_ROWS = {
        "DT": (184, 297, 16, 6),
        "RF": (186, 297, 16, 4),
        "SVM": (185, 300, 13, 5),
        "XGB": (188, 306, 7, 2),
        "LR": (187, 307, 6, 3),
    }
    EXPECTED_ACC = {"DT": "95.63", "RF": "96.02", "SVM": "96.42",
                    "XGB": "98.21", "LR": "98.21"}

    def test_reference_counts_reproduce_reference_accuracies(self):
        reports = [
            EvalReport(name, ConfusionMatrix(*row))
            for name, row in self.REFERENCE_ROWS.items()
        ]
        text = compare_models_text(reports)
        for name, expected in self.EXPECTED_ACC.items():
            row = next(line for line in text.splitlines() if line.startswith(name))
            assert expected in row

    def test_single_report_table(self):
        table = compare_models_text([EvalReport("m", ConfusionMatrix(1, 1, 0, 0))])
        assert len(table.splitlines()) == 2

    def test_undefined_cells_render_na(self):
        csv_out = compare_models_csv([EvalReport("m", ConfusionMatrix(0, 5, 0, 0))])
        assert ",n/a,n/a," in csv_out.splitlines()[1]


def test_evaluate_predictions_end_to_end():
    report = evaluate_predictions("knn", [1, 0, 1, 1], [1, 1, 0, 1])
    assert report.cm == ConfusionMatrix(tp=2, tn=0, fp=1, fn=1)
    assert report.accuracy == Fraction(1, 2)
