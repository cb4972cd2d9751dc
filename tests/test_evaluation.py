from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from rwdetect import cli
from rwdetect.evaluation import (
    EvalReport,
    compare_models_csv,
    compare_models_text,
    evaluate_predictions,
)

counts = st.integers(min_value=0, max_value=1000)


class TestConfusion:
    def test_perfect_predictions(self):
        report = evaluate_predictions("m", [0, 1, 1, 0], [0, 1, 1, 0])
        assert (report.fp, report.fn) == (0, 0)
        assert (report.tp, report.tn) == (2, 2)

    def test_inverted_predictions(self):
        report = evaluate_predictions("m", [0, 1, 1, 0], [1, 0, 0, 1])
        assert (report.tp, report.tn) == (0, 0)
        assert (report.fp, report.fn) == (2, 2)

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(60)
        y_true = rng.integers(0, 2, size=50)
        y_pred = rng.integers(0, 2, size=50)
        report = evaluate_predictions("m", list(y_true), list(y_pred))
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
        tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
        assert report == EvalReport("m", tp, tn, fp, fn)


class TestMetrics:
    def test_reference_xgb_row(self):
        report = EvalReport("m", tp=188, tn=306, fp=7, fn=2)
        assert round(float(report.accuracy) * 100, 2) == 98.21

    def test_reference_dt_row(self):
        report = EvalReport("m", tp=184, tn=297, fp=16, fn=6)
        assert round(float(report.precision), 2) == 0.92
        assert round(float(report.recall), 2) == 0.97

    def test_reference_lr_row(self):
        report = EvalReport("m", tp=187, tn=307, fp=6, fn=3)
        assert round(float(report.precision), 2) == 0.97
        assert round(float(report.recall), 2) == 0.98

    def test_exact_rational_identity(self):
        report = EvalReport("m", tp=3, tn=5, fp=2, fn=1)
        assert report.accuracy * (3 + 5 + 2 + 1) == 3 + 5
        assert report.accuracy == Fraction(8, 11)

    def test_undefined_precision_is_none(self):
        assert EvalReport("m", 0, 5, 0, 2).precision is None

    def test_undefined_recall_is_none(self):
        assert EvalReport("m", 0, 5, 2, 0).recall is None

    @given(tp=counts, tn=counts, fp=st.integers(1, 1000), fn=st.integers(1, 1000))
    def test_precision_recall_monotone_in_tp(self, tp, tn, fp, fn):
        a = EvalReport("m", tp, tn, fp, fn)
        b = EvalReport("m", tp + 1, tn, fp, fn)
        assert b.precision >= (a.precision or 0)
        assert b.recall >= (a.recall or 0)

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
            EvalReport(name, *row)
            for name, row in self.REFERENCE_ROWS.items()
        ]
        text = compare_models_text(reports)
        for name, expected in self.EXPECTED_ACC.items():
            row = next(line for line in text.splitlines() if line.startswith(name))
            assert expected in row

    def test_single_report_table(self):
        table = compare_models_text([EvalReport("m", 1, 1, 0, 0)])
        assert len(table.splitlines()) == 2

    def test_undefined_cells_render_na(self):
        csv_out = compare_models_csv([EvalReport("m", 0, 5, 0, 0)])
        assert ",n/a,n/a," in csv_out.splitlines()[1]


def test_evaluate_predictions_end_to_end():
    report = evaluate_predictions("knn", [1, 0, 1, 1], [1, 1, 0, 1])
    assert report == EvalReport("knn", tp=2, tn=0, fp=1, fn=1)
    assert report.accuracy == Fraction(1, 2)
