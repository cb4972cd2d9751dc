"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS|FAIL`` line (visible with
``pytest -s``). Criterion 1 needs the real 1524-sample dataset and is
skipped unless RWDETECT_DATA points at it (sparse format).
"""

import math
import os
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rwdetect import classifiers, cli, dataset, evaluation, selection
from rwdetect.classifiers import (
    FITTERS,
    MODEL_KINDS,
    GbtParams,
    KnnParams,
    deserialize_model,
    fit_decision_tree,
    fit_gradient_boosting,
    fit_knn,
    fit_logistic_regression,
    serialize_model,
)
from rwdetect.selection import ContingencyTable, mi_score, score_all

from conftest import matrix_from_dense, random_dense
from test_boosting import gain_oracle
from test_knn import knn_oracle
from test_selection import dense_mi_oracle
from test_tree import gini_oracle_root


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {description}")


REFERENCE_ACCURACY = {"dt": 95.63, "rf": 96.02, "knn": 93.64,
                      "svm": 96.42, "gbt": 98.21, "logreg": 98.21}
REFERENCE_PRECISION = {"dt": 0.92, "rf": 0.92, "knn": 0.89,
                       "svm": 0.93, "gbt": 0.96, "logreg": 0.97}
REFERENCE_RECALL = {"dt": 0.97, "rf": 0.98, "knn": 0.95,
                    "svm": 0.97, "gbt": 0.99, "logreg": 0.98}


def test_criterion_1_table_reproduction():
    data_path = os.environ.get("RWDETECT_DATA")
    if not data_path or not os.path.exists(data_path):
        pytest.skip("real dataset not available; set RWDETECT_DATA to run")
    with criterion(1, "published-table reproduction on the real dataset"):
        matrix, _, y = dataset.load_sparse(data_path)
        train_idx, test_idx = dataset.stratified_split(
            matrix, y, 0, cli.RunConfig().test_fraction)
        train_m = dataset.take_rows(matrix, train_idx)
        train_y = y[train_idx]
        test_m = dataset.take_rows(matrix, test_idx)
        test_y = y[test_idx]

        selected = selection.select_k_best(score_all(train_m, train_y), 400)
        train_p = selection.project(train_m, selected)
        test_p = selection.project(test_m, selected)

        for kind in MODEL_KINDS:
            model = FITTERS[kind](train_p, train_y)
            preds = model.predict(test_p)
            report = evaluation.evaluate_predictions(
                kind, test_y, [p.label for p in preds]
            )
            acc = float(report.accuracy) * 100
            assert abs(acc - REFERENCE_ACCURACY[kind]) <= 2.5, (kind, acc)
            assert abs(float(report.precision) - REFERENCE_PRECISION[kind]) <= 0.04
            assert abs(float(report.recall) - REFERENCE_RECALL[kind]) <= 0.04


def test_criterion_2_metrics_exactness():
    reference_counts = {
        "dt": (184, 297, 16, 6),
        "rf": (186, 297, 16, 4),
        "svm": (185, 300, 13, 5),
        "gbt": (188, 306, 7, 2),
        "logreg": (187, 307, 6, 3),
        # knn row omitted: its published counts sum to 512, not 503
    }
    with criterion(2, "metrics recomputed from published confusion counts"):
        for kind, (tp, tn, fp, fn) in reference_counts.items():
            cm = evaluation.ConfusionMatrix(tp, tn, fp, fn)
            assert cm.total == 503
            assert round(float(evaluation.accuracy(cm)) * 100, 2) \
                == REFERENCE_ACCURACY[kind]
            assert round(float(evaluation.precision(cm)), 2) \
                == REFERENCE_PRECISION[kind]
            assert round(float(evaluation.recall(cm)), 2) == REFERENCE_RECALL[kind]


def test_criterion_3_mi_oracle_equivalence():
    with criterion(3, "MI equals independent dense plug-in on 200 random sets"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 51))
            dense = random_dense(rng, n, d, p=float(rng.uniform(0.1, 0.9)))
            labels = rng.integers(0, 2, size=n)
            m, y = matrix_from_dense(dense, labels=labels)
            scores = score_all(m, y)
            for j in range(d):
                expected = dense_mi_oracle(dense[:, j], labels)
                assert abs(scores[j] - max(expected, 0.0)) < 1e-12
        # analytic anchors
        assert mi_score(ContingencyTable(2, 0, 0, 2)) == math.log(2)
        assert mi_score(ContingencyTable(1, 1, 1, 1)) == 0.0


def test_criterion_4_logreg_gradient_check():
    with criterion(4, "logistic gradient vs central differences, 50 instances"):
        rng = np.random.default_rng(4001)
        h = 1e-5
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 20))
            d = int(rng.integers(1, 10))
            X = random_dense(rng, n, d).astype(np.float64)
            y = rng.integers(0, 2, size=n).astype(np.float64)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            _, grad_w, grad_b = classifiers.logistic_loss_and_gradient(w, b, X, y, l2)

            def loss_at(wv, bv):
                return classifiers.logistic_loss_and_gradient(wv, bv, X, y, l2)[0]

            grads = list(grad_w) + [grad_b]
            fds = []
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fds.append((loss_at(w + e, b) - loss_at(w - e, b)) / (2 * h))
            fds.append((loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h))
            for g, fd in zip(grads, fds):
                rel = abs(g - fd) / max(abs(fd), abs(g), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-5, worst


def test_criterion_5_knn_oracle():
    with criterion(5, "KNN equals exhaustive Hamming scan, k in {1,3,5}"):
        rng = np.random.default_rng(5005)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            d = int(rng.integers(2, 25))
            train_X = random_dense(rng, n, d)
            train_y = rng.integers(0, 2, size=n)
            query_X = random_dense(rng, 5, d)
            for k in (1, 3, 5):
                if k > n:
                    continue
                model = fit_knn(train_X, train_y, KnnParams(k_neighbors=k))
                preds = model.predict(query_X)
                for q, p in zip(query_X, preds):
                    label, score = knn_oracle(train_X, train_y, q, k)
                    assert p.label == label and p.score == score


def test_criterion_6_tree_split_oracles():
    with criterion(6, "root splits match exhaustive enumeration on 8x4 fixtures"):
        rng = np.random.default_rng(6006)
        matrices = [random_dense(rng, 8, 4) for _ in range(5)]
        for X in matrices:
            for pattern in range(256):  # every label assignment
                y = np.array([(pattern >> i) & 1 for i in range(8)], dtype=np.int64)

                tree = fit_decision_tree(X, y).tree
                expected = gini_oracle_root(X, y)
                actual = None if tree.is_leaf(0) else tree.feature[0]
                assert actual == expected, (pattern, actual, expected)

                if y.min() == y.max():
                    continue
                gbt = fit_gradient_boosting(
                    X, y, GbtParams(n_rounds=1, max_depth=1)
                )
                best_gain, optimal, results = gain_oracle(X, y, lam=1.0)
                tree = gbt.trees[0]
                if best_gain is None or best_gain <= 0:
                    assert tree.is_leaf(0)
                else:
                    feature = int(tree.feature[0])
                    assert feature in optimal
                    wl, wr = results[feature][1]
                    assert abs(tree.value[tree.left[0]] - wl) < 1e-12
                    assert abs(tree.value[tree.right[0]] - wr) < 1e-12


def test_criterion_7_determinism_and_persistence():
    with criterion(7, "round-trip prediction identity and byte-stable refits"):
        rng = np.random.default_rng(7007)
        train_X = random_dense(rng, 60, 10)
        train_y = np.r_[np.zeros(30, dtype=int), np.ones(30, dtype=int)]
        rng.shuffle(train_y)
        if train_y.min() == train_y.max():
            train_y[0] = 1 - train_y[0]
        test_X = random_dense(rng, 1000, 10)

        for kind in MODEL_KINDS:
            model = FITTERS[kind](train_X, train_y)
            blob = serialize_model(model)
            assert serialize_model(FITTERS[kind](train_X, train_y)) == blob
            restored = deserialize_model(blob)
            assert restored.predict(test_X) == model.predict(test_X)


def test_criterion_8_pipeline_soundness():
    with criterion(8, "end-to-end recovery and accuracy on 5000-noise synthetic"):
        n, noise_d, signal_d = 1500, 5000, 10
        d = noise_d + signal_d
        signal = [(j, 0.05, 0.9) for j in range(signal_d)]
        matrix, y = dataset.synthesize_dataset(n, d, 0.02, signal, seed=88)

        train_idx, test_idx = dataset.stratified_split(matrix, y, 1, 1 / 3)
        train_m = dataset.take_rows(matrix, train_idx)
        train_y = y[train_idx]
        test_m = dataset.take_rows(matrix, test_idx)
        test_y = y[test_idx]

        selected = selection.select_k_best(score_all(train_m, train_y), 50)
        recovered = sum(1 for j in selected if j < signal_d)
        assert recovered >= 9, recovered

        train_p = selection.project(train_m, selected)
        test_p = selection.project(test_m, selected)
        for kind in MODEL_KINDS:
            model = FITTERS[kind](train_p, train_y)
            preds = model.predict(test_p)
            acc = float(
                evaluation.evaluate_predictions(
                    kind, test_y, [p.label for p in preds]
                ).accuracy
            )
            assert acc >= 0.95, (kind, acc)
