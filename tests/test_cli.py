import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect import cli, dataset, reports
from rwdetect.classifiers import MODEL_KINDS, deserialize_model, labels_of
from rwdetect.classifiers.knn import KnnModel
from rwdetect.dataset import FeatureDictionary, load_sparse

from conftest import mutated_lines, run_cli, run_limited
from fixtures import generic_dictionary, synthesize_dataset, write_dense_csv, write_sparse
from report_oracle import reference_report


def make_dataset(tmp_path, fmt="sparse", n=80, d=12, seed=1, category="API"):
    signal = [(0, 0.05, 0.95), (1, 0.9, 0.1)]
    matrix, y = synthesize_dataset(n, d, 0.3, signal, seed=seed)
    dictionary = generic_dictionary(d, category=category)
    path = tmp_path / ("data.sparse" if fmt == "sparse" else "data.csv")
    (write_sparse if fmt == "sparse" else write_dense_csv)(path, matrix, dictionary, y)
    return path


def run(args):
    return cli.main([str(a) for a in args])


class TestMiScores:
    def test_signal_feature_ranks_first(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "out"
        assert run(["mi-scores", "--data", data, "--out", out]) == 0
        lines = (out / "mi_scores.csv").read_text().splitlines()
        assert len(lines) == 13  # header + 12 features
        assert lines[1].split(",")[0] in ("API:f00000", "API:f00001")

    def test_missing_data_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
        assert run(["mi-scores", "--out", tmp_path / "o"]) == cli.EXIT_USAGE

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        data = make_dataset(tmp_path)
        monkeypatch.setenv(cli.DATA_ENV_VAR, str(data))
        assert run(["mi-scores", "--out", tmp_path / "o"]) == 0

    def test_blank_lines_before_dense_header(self, tmp_path, capsys):
        data = make_dataset(tmp_path, fmt="dense")
        padded = tmp_path / "padded.csv"
        padded.write_bytes(b"\n\n" + data.read_bytes())
        for path, out in ((data, "plain"), (padded, "padded")):
            assert run(["mi-scores", "--data", path, "--out", tmp_path / out]) == 0
        assert (tmp_path / "padded" / "mi_scores.csv").read_bytes() == \
            (tmp_path / "plain" / "mi_scores.csv").read_bytes()


class TestTrain:
    def test_dt_separable_reports_perfect_train_accuracy(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "out"
        code = run([
            "train", "--data", data, "--out", out, "--model", "dt",
            "--top-k", 5, "--seed", 3,
        ])
        assert code == 0
        assert "train accuracy: 1.0000" in capsys.readouterr().out
        assert (out / "model_dt.json").exists()
        assert (out / "train.config").exists()

    def test_same_config_byte_identical_models(self, tmp_path):
        data = make_dataset(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["train", "--data", data, "--out", out, "--model", "rf",
                 "--top-k", 5, "--seed", 3])
            blobs.append((out / "model_rf.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_surplus_sample_lines_are_a_data_error(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=80)
        text = data.read_text(encoding="utf-8").replace("#SAMPLES 80\n", "#SAMPLES 78\n")
        data.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "--data", data, "--out", tmp_path / "o", "--model", "dt",
                    "--top-k", 5]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more sample lines than '#SAMPLES 78'" in err

    def test_truncated_sample_section_is_a_data_error(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=80)
        lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
        # The header still gives 80 samples; only the first one's line is kept.
        data.write_text("".join(lines[:lines.index("#SAMPLES 80\n") + 2]), encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "--data", data, "--out", tmp_path / "o", "--model", "dt",
                    "--top-k", 5]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {data}: sample section truncated at row 1\n"

    @pytest.mark.parametrize("kind, hps", [
        ("gbt", ["l2_leaf_penalty=0", "learning_rate=1"]),  # a leaf of 0 hessians: 0/0
        ("logreg", ["learning_rate=1e308", "epochs=3"]),  # the weights overflow
    ])
    def test_non_finite_fit_is_one_line_data_error(self, tmp_path, capsys, kind, hps):
        data = make_dataset(tmp_path)
        out = tmp_path / "o"
        capsys.readouterr()
        code = run(["train", "--data", data, "--out", out, "--model", kind, "--top-k", 5,
                    *(f"--hp={hp}" for hp in hps)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert err.count("\n") == 1 and "non-finite" in err
        assert not (out / f"model_{kind}.json").exists()
        assert not out.exists()  # nor its echo

    def test_unknown_model_kind(self, tmp_path):
        data = make_dataset(tmp_path)
        assert run(["train", "--data", data, "--model", "dt", "--out",
                    tmp_path / "o", "--hp", "badsyntax"]) == cli.EXIT_USAGE


class TestEvaluate:
    def test_round_trip_train_then_evaluate(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "logreg",
             "--top-k", 5, "--seed", 2])
        capsys.readouterr()
        code = run([
            "evaluate", "--data", data, "--out", out, "--seed", 2,
            "--model-file", out / "model_logreg.json",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Logistic Regression" in printed
        assert (out / "evaluation.csv").exists()

    def test_strict_fails_an_undefined_metric(self, tmp_path, capsys):
        # A depth-0 tree predicts goodware for every row: its precision is undefined.
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt", "--top-k", 5,
             "--hp", "max_depth=0"])
        evaluate = ["evaluate", "--data", data, "--model-file", out / "model_dt.json"]
        capsys.readouterr()
        assert run([*evaluate, "--out", tmp_path / "lax"]) == cli.EXIT_OK
        assert "n/a" in capsys.readouterr().out
        assert run([*evaluate, "--out", tmp_path / "strict", "--strict"]) == cli.EXIT_TOLERANCE
        printed = capsys.readouterr()
        assert "n/a" in printed.out and printed.err == "precision or recall is undefined\n"
        assert "strict=True" in (tmp_path / "strict" / "evaluate.config").read_text()

    @pytest.mark.parametrize("model_file", [None, "nope.json"])
    def test_missing_model_file(self, tmp_path, capsys, model_file):
        data = make_dataset(tmp_path)
        flag = [] if model_file is None else ["--model-file", tmp_path / model_file]
        assert run(["evaluate", "--data", data, "--out", tmp_path / "o", *flag]) \
            == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --model-file must point to an existing model\n"

    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_model_file_is_a_directory(self, tmp_path, capsys, command):
        data = make_dataset(tmp_path)
        reports = [tmp_path] if command == "score" else []
        assert run([command, "--data", data, "--out", tmp_path / "o",
                    "--model-file", tmp_path, *reports]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("d, category", [(4, "API"), (12, "STR")])
    def test_other_dictionary_is_data_error(self, tmp_path, capsys, d, category):
        # Narrower file: the model's ordinals would fall outside it.
        # Same width, other names: it would be evaluated silently.
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt", "--top-k", 12])
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        other = make_dataset(other_dir, n=120, d=d, category=category)
        capsys.readouterr()
        code = run(["evaluate", "--data", other, "--out", out,
                    "--model-file", out / "model_dt.json"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "feature dictionary differs" in err

    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_blank_dictionary_hash_is_data_error(self, tmp_path, capsys, command):
        # A model without a dictionary hash would score any same-width dictionary.
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt", "--top-k", 5])
        doc = json.loads((out / "model_dt.json").read_bytes())
        doc["fingerprint"]["dictionary_sha256"] = ""
        blank = tmp_path / "blank.json"
        blank.write_text(json.dumps(doc))
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        other = make_dataset(other_dir, n=120, category="STR")
        batch = tmp_path / "batch.ndjson"
        batch.write_text('{"strings": ["f00000"]}\n')
        reports = [batch] if command == "score" else []
        capsys.readouterr()
        assert run([command, "--data", other, "--out", tmp_path / "o",
                    "--model-file", blank, *reports]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "feature dictionary differs" in err


class TestReproduce:
    @pytest.mark.parametrize("data", [None, "missing.sparse", "."],
                             ids=["no-data", "missing-path", "directory"])
    def test_dataset_absent_is_one_line_usage_error(self, tmp_path, monkeypatch, capsys, data):
        # load_data owns the rule for every command: exit 1, as for mi-scores and train.
        monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        argv = ["reproduce", "--out", "o"] + ([] if data is None else ["--data", data])
        assert run(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dataset" in err and "README" in err
        assert not (tmp_path / "o").exists()

    def test_table_shape_on_synthetic_data(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=100)
        out = tmp_path / "out"
        code = run([
            "reproduce", "--data", data, "--out", out,
            "--top-k", 5, "--test-fraction", "0.3",
            "--hp", "n_trees=10", "--hp", "n_rounds=10", "--hp", "epochs=30",
        ])
        assert code == 0
        lines = (out / "reproduce.csv").read_text().splitlines()
        assert len(lines) == 7  # header + six models
        assert lines[0].startswith("model,acc%")

    def test_seed_sweep_adds_stats_columns(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=100)
        out = tmp_path / "out"
        code = run([
            "reproduce", "--data", data, "--out", out, "--top-k", 5,
            "--test-fraction", "0.3", "--seeds", "0,1,2",
            "--hp", "n_trees=5", "--hp", "n_rounds=5", "--hp", "epochs=20",
        ])
        assert code == 0
        header = (out / "reproduce.csv").read_text().splitlines()[0]
        assert "acc%_mean" in header and "acc%_std" in header

    def test_evaluate_counts_equal_the_reproduce_row_of_each_kind(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120, d=40)
        split = ["--data", data, "--seed", 3]
        settings = [*split, "--top-k", 20, "--hp", "n_trees=25", "--hp", "n_rounds=25"]
        assert run(["reproduce", *settings, "--out", tmp_path / "r"]) == cli.EXIT_OK
        with open(tmp_path / "r" / "reproduce.csv", newline="") as fh:
            reproduced = {row["model"]: row for row in csv.DictReader(fh)}
        counts = ("tp", "tn", "fp", "fn")
        for kind in MODEL_KINDS:
            out = tmp_path / kind
            assert run(["train", *settings, "--model", kind, "--out", out]) == cli.EXIT_OK
            assert run(["evaluate", *split, "--model-file", out / f"model_{kind}.json",
                        "--out", out]) == cli.EXIT_OK
            with open(out / "evaluation.csv", newline="") as fh:
                (evaluated,) = csv.DictReader(fh)
            assert [evaluated[c] for c in counts] == \
                [reproduced[evaluated["model"]][c] for c in counts], kind

    def test_undefined_precision_is_written_n_a(self, tmp_path, capsys):
        # Depth-0 trees predict goodware for every row: dt, rf and gbt have no
        # precision, which is written "n/a" with its delta, as evaluate writes it.
        data = make_dataset(tmp_path, n=100)
        argv = ["reproduce", "--data", data, "--top-k", 5, "--test-fraction", "0.3",
                "--hp", "max_depth=0", "--hp", "n_trees=5", "--hp", "n_rounds=5",
                "--hp", "epochs=20"]
        capsys.readouterr()
        # Their recall of 0 misses the baseline; the undefined precision alone would not.
        assert run([*argv, "--out", tmp_path / "out", "--strict"]) == cli.EXIT_TOLERANCE
        printed = capsys.readouterr().out
        table = (tmp_path / "out" / "reproduce.csv").read_text()
        assert "nan" not in printed and "nan" not in table
        with open(tmp_path / "out" / "reproduce.csv", newline="") as fh:
            rows = {row["model"]: row for row in csv.DictReader(fh)}
        for kind in ("dt", "rf", "gbt"):
            row = rows[cli.BASELINE[kind][0]]
            assert (row["prec"], row["d_prec"]) == ("n/a", "n/a")
            assert (row["rec"], row["d_rec"]) == ("0.00", f"{-cli.BASELINE[kind][3]:+.2f}")
        assert "n/a" not in rows[cli.BASELINE["logreg"][0]].values()

    def test_non_finite_fit_leaves_no_echo(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "o"
        capsys.readouterr()
        code = run(["reproduce", "--data", data, "--out", out, "--top-k", 5,
                    "--hp", "l2_leaf_penalty=0", "--hp", "learning_rate=1",
                    "--hp", "n_trees=3", "--hp", "epochs=3"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert err.count("\n") == 1 and "non-finite" in err
        assert not (out / "reproduce.config").exists()


class TestScore:
    def test_batch_scoring(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "knn",
             "--top-k", 5, "--seed", 2])
        capsys.readouterr()

        reports_dir = tmp_path / "reports"
        reports_dir.mkdir()
        # one ransomware-looking report (signal feature 0 fires), one quiet
        (reports_dir / "hot.json").write_text(json.dumps(
            {"api_calls": ["f00000"]}
        ))
        (reports_dir / "quiet.json").write_text(json.dumps(
            {"api_calls": ["f00001"]}
        ))
        (reports_dir / "broken.json").write_text("{oops")

        code = run([
            "score", "--data", data, "--out", out,
            "--model-file", out / "model_knn.json", reports_dir,
        ])
        assert code == 0
        printed = capsys.readouterr()
        assert "scored 2 reports" in printed.out
        assert "1 malformed" in printed.out
        verdicts = (out / "verdicts.csv").read_text().splitlines()
        assert verdicts[0] == "report_id,label,score,matched,unmatched"
        assert len(verdicts) == 3

    def test_directory_entries_that_are_not_readable_files(self, tmp_path, capsys,
                                                             monkeypatch):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt", "--top-k", 5])
        reports_dir = tmp_path / "reports"
        reports_dir.mkdir()
        (reports_dir / "a.json").write_text(json.dumps({"api_calls": ["f00000"]}))
        (reports_dir / "sub.json").mkdir()  # a directory is not a report
        (reports_dir / "locked.json").write_text("{}")
        read_bytes = Path.read_bytes

        def unreadable(path):
            if path.name == "locked.json":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", unreadable)
        capsys.readouterr()
        code = run(["score", "--data", data, "--out", out,
                    "--model-file", out / "model_dt.json", reports_dir])
        assert code == 0
        printed = capsys.readouterr()
        assert "scored 1 reports: " in printed.out and "1 malformed" in printed.out
        assert printed.err == "locked.json: cannot read report: Permission denied\n"
        verdicts = (out / "verdicts.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in verdicts[1:]] == ["a.json"]

    def test_missing_reports_path_leaves_no_echo(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", tmp_path / "models", "--model", "dt",
             "--top-k", 5])
        capsys.readouterr()
        assert run(["score", "--data", data, "--out", out, "--model-file",
                    tmp_path / "models" / "model_dt.json", tmp_path / "missing.ndjson"]) \
            == cli.EXIT_USAGE
        assert "reports path not found" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_batch(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt",
             "--top-k", 5])
        capsys.readouterr()
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run(["score", "--data", data, "--out", out,
                    "--model-file", out / "model_dt.json", empty])
        assert code == 0
        assert "scored 0 reports" in capsys.readouterr().out

    def test_other_dictionary_fails_the_batch_once(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "knn", "--top-k", 5])
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        other = make_dataset(other_dir, n=120, category="STR")
        batch = tmp_path / "batch.ndjson"
        batch.write_text('{"strings": ["f00000"]}\n{}\n')
        capsys.readouterr()
        code = run(["score", "--data", other, "--out", out,
                    "--model-file", out / "model_knn.json", batch])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "feature dictionary differs" in err
        assert not (out / "verdicts.csv").exists()

    @pytest.mark.parametrize("fmt", ["sparse", "dense"])
    def test_one_predict_one_hash_no_sample_parsing(self, tmp_path, monkeypatch, capsys, fmt):
        data = make_dataset(tmp_path, fmt=fmt, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "knn",
             "--top-k", 5])
        n = 25
        batch = tmp_path / "batch.ndjson"
        batch.write_text("".join(json.dumps({"api_calls": [f"f{i % 12:05d}", "new"]}) + "\n"
                                 for i in range(n)))
        calls = {"predict": 0, "sha256": 0, "load": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(KnnModel, "predict", counted("predict", KnnModel.predict))
        monkeypatch.setattr(FeatureDictionary, "sha256",
                            counted("sha256", FeatureDictionary.sha256))
        monkeypatch.setattr(dataset, "load_sparse", counted("load", dataset.load_sparse))
        monkeypatch.setattr(dataset, "load_dense_csv",
                            counted("load", dataset.load_dense_csv))
        capsys.readouterr()
        code = run(["score", "--data", data, "--out", out,
                    "--model-file", out / "model_knn.json", batch])
        assert code == 0
        assert f"scored {n} reports" in capsys.readouterr().out
        assert calls["predict"] == 1 and calls["sha256"] <= 1 and calls["load"] == 0

    def test_parse_once_per_report_and_vectorize_once_per_parsed_report(
            self, tmp_path, monkeypatch, capsys):
        # The benchmark times and counts the per-report path by wrapping these two names.
        data = make_dataset(tmp_path, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt", "--top-k", 5])
        batch = tmp_path / "batch.ndjson"
        batch.write_bytes(b"\n".join([
            b'{"api_calls": ["f00000", "f00000", "new"], "strings": ["f00000"]}',
            b"{oops", b"", b"[1]", b'{"dir_ops": [3]}', b"\xff", b"{}", b"  ",
            b'{"api_calls": ["f00001"]}',
        ]) + b"\n")
        parse_report, vectorize = reports.parse_report, reports.vectorize
        parsed, vectorized = [], []

        def parse(text):
            parsed.append(text)
            return parse_report(text)

        def count(tokens, dictionary):
            outcome = vectorize(tokens, dictionary)
            vectorized.append((tokens, outcome))
            return outcome

        monkeypatch.setattr(reports, "parse_report", parse)
        monkeypatch.setattr(reports, "vectorize", count)
        capsys.readouterr()
        assert run(["score", "--data", data, "--out", out,
                    "--model-file", out / "model_dt.json", batch]) == 0
        assert capsys.readouterr().out.endswith(", 4 malformed\n")
        assert len(parsed) == 7  # every non-blank line, once
        assert [(sorted(tokens), tuple(outcome)) for tokens, outcome in vectorized] == [
            (["API:f00000", "API:new", "STR:f00000"], (1, 2)), ([], (0, 0)),
            (["API:f00001"], (1, 0))]
        verdicts = (out / "verdicts.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 2)[1:] for row in verdicts] == [["1", "2"], ["0", "0"],
                                                               ["1", "0"]]

    @pytest.mark.parametrize("fmt", ["sparse", "dense"])
    def test_corrupt_sample_section_is_not_read(self, tmp_path, capsys, fmt):
        data = make_dataset(tmp_path, fmt=fmt, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--out", out, "--model", "dt",
             "--top-k", 5])
        with open(data, "ab") as fh:
            fh.write(b"broken\t99\tNOPE:x\xff\n" if fmt == "sparse" else b"s1,x,\xff\n")
        assert run(["train", "--data", data, "--out", tmp_path / "o",
                    "--model", "dt"]) == cli.EXIT_DATA
        batch = tmp_path / "batch.ndjson"
        batch.write_text('{"api_calls": ["f00000"]}\n')
        capsys.readouterr()
        code = run(["score", "--data", data, "--out", out,
                    "--model-file", out / "model_dt.json", batch])
        assert code == 0
        assert "scored 1 reports" in capsys.readouterr().out

    def test_even_k_vote_tie_labels_positive_in_evaluate_and_score(self, tmp_path, capsys):
        # Every sample holds the one feature, so every row is at distance 0
        # from all training rows and its 4 nearest are the first 4 training
        # rows. Labels alternate 1, 0 and the seed-0 split keeps rows 0-3 for
        # training, so each vote ties 2 to 2: score 0.5, label 1.
        data = tmp_path / "tie.sparse"
        data.write_text("#FEATURES 1\nAPI:a\n#SAMPLES 12\n" + "".join(
            f"s{i}\t{(i + 1) % 2}\tAPI:a\n" for i in range(12)), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--data", data, "--out", out, "--model", "knn",
                    "--hp", "k_neighbors=4"]) == 0
        model_file = out / "model_knn.json"
        assert run(["evaluate", "--data", data, "--out", out, "--model-file", model_file]) == 0
        header, row = (out / "evaluation.csv").read_text().splitlines()
        counts = dict(zip(header.split(",")[4:], row.split(",")[4:]))
        assert counts == {"tp": "2", "tn": "0", "fp": "2", "fn": "0"}
        batch = tmp_path / "batch.ndjson"
        batch.write_text('{"api_calls": ["a"]}\n')
        assert run(["score", "--data", data, "--out", out, "--model-file", model_file,
                    batch]) == 0
        verdicts = (out / "verdicts.csv").read_text().splitlines()
        assert verdicts[1:] == ["batch.ndjson:1,1,0.500000,1,0"]
        assert capsys.readouterr().out.endswith("scored 1 reports: 1 ransomware, "
                                                "0 goodware, 0 malformed\n")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A directory holding data.sparse, batch.ndjson and a seed-3 model of each kind."""
    root = tmp_path_factory.mktemp("trained")
    data = make_dataset(root, n=100)
    (root / "batch.ndjson").write_text('{"api_calls": ["f00000"]}\n')
    with contextlib.redirect_stdout(io.StringIO()):
        for kind in MODEL_KINDS:
            assert run(["train", "--data", data, "--out", root, "--model", kind, "--top-k", 5,
                        "--seed", 3, "--hp", "n_trees=3", "--hp", "n_rounds=3"]) == 0
    return root


def first_leaf(tree):
    """The leftmost leaf of a tree in the model file's nested layout."""
    while "f" in tree:
        tree = tree["l"]
    return tree


def no_features(doc):
    doc["fingerprint"].update(n_features=0, selected=[])
    doc["payload"]["weights"] = []


def knn_claiming_10_12_features(doc):
    """A 5-row knn file with no selection that claims 10**12 features: its
    training array would take 4.55 TiB."""
    doc["fingerprint"].update(n_features=10**12, selected=[])
    doc["hyperparameters"].update(k_neighbors=1)
    payload = doc["payload"]
    payload.update(n_features=10**12, rows=payload["rows"][:5], labels=payload["labels"][:5])


def nested_3000_deep(doc):
    """The document's text with its dt root a chain of 3000 splits, written
    as text because json.dumps cannot nest that deep either."""
    doc["payload"]["root"] = "@ROOT@"
    chain = '{"f":0,"l":' * 3000 + '{"s":0.0}' + ',"r":{"s":1.0}}' * 3000
    return json.dumps(doc).replace('"@ROOT@"', chain)


# Defects of a model file, each an edit of the decoded document of one kind
# that changes it in place or returns the file's text.
MODEL_FILE_DEFECTS = {
    "rf n_trees=0": ("rf", lambda doc: doc["hyperparameters"].update(n_trees=0)),
    "rf features_per_split=-1":
        ("rf", lambda doc: doc["hyperparameters"].update(features_per_split=-1)),
    "rf features_per_split=2.0":
        ("rf", lambda doc: doc["hyperparameters"].update(features_per_split=2.0)),
    "svm epochs=0": ("svm", lambda doc: doc["hyperparameters"].update(epochs=0)),
    "svm regularization=0": ("svm", lambda doc: doc["hyperparameters"].update(regularization=0.0)),
    "gbt learning_rate<0": ("gbt", lambda doc: doc["hyperparameters"].update(learning_rate=-0.1)),
    "gbt learning_rate=NaN":
        ("gbt", lambda doc: doc["hyperparameters"].update(learning_rate=math.nan)),
    "logreg weight NaN": ("logreg", lambda doc: doc["payload"]["weights"].__setitem__(0, math.nan)),
    "svm bias Infinity": ("svm", lambda doc: doc["payload"].update(bias=math.inf)),
    "gbt base_score NaN": ("gbt", lambda doc: doc["payload"].update(base_score=math.nan)),
    "dt leaf NaN": ("dt", lambda doc: first_leaf(doc["payload"]["root"]).update(s=math.nan)),
    "rf leaf Infinity":
        ("rf", lambda doc: first_leaf(doc["payload"]["trees"][0]).update(s=math.inf)),
    "gbt leaf -Infinity":
        ("gbt", lambda doc: first_leaf(doc["payload"]["trees"][0]).update(w=-math.inf)),
    "logreg zero features": ("logreg", no_features),
    "rf no trees": ("rf", lambda doc: doc["payload"].update(trees=[])),
    "gbt 1 of 3 trees": ("gbt", lambda doc: doc["payload"].update(
        trees=doc["payload"]["trees"][:1])),
    "dt nested 3000 deep": ("dt", nested_3000_deep),
    "dt selected[0]=10**6":
        ("dt", lambda doc: doc["fingerprint"]["selected"].__setitem__(0, 10**6)),
    "knn row [1, 0]": ("knn", lambda doc: doc["payload"]["rows"].__setitem__(0, [1, 0])),
    "knn 10**12 features, none selected": ("knn", knn_claiming_10_12_features),
}


@pytest.mark.parametrize("command", ["evaluate", "score"])
@pytest.mark.parametrize("defect", [None, *MODEL_FILE_DEFECTS])
def test_model_file_out_of_range_or_non_finite_is_one_line_data_error(trained, tmp_path, capsys,
                                                                     command, defect):
    kind, edit = MODEL_FILE_DEFECTS.get(defect, ("dt", lambda doc: None))
    doc = json.loads((trained / f"model_{kind}.json").read_bytes())
    text = edit(doc)
    model_file = tmp_path / "model.json"
    model_file.write_text(text or json.dumps(doc))  # NaN and Infinity as Python's json writes them
    args = ["--seed", 3] if command == "evaluate" else [trained / "batch.ndjson"]
    capsys.readouterr()
    code = run([command, "--data", trained / "data.sparse", "--out", tmp_path / "o",
                "--model-file", model_file, *args])
    if defect is None:  # the file as trained
        assert code == cli.EXIT_OK
        return
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batch_of_only_malformed_reports_writes_the_header_alone(trained, tmp_path, capsys,
                                                                 kind):
    # The model predicts a 0-row array, and its empty score array labels nothing.
    batch = tmp_path / "bad.ndjson"
    batch.write_bytes(b"{oops\n[1]\n\xff\n")
    capsys.readouterr()
    assert run(["score", "--data", trained / "data.sparse", "--out", tmp_path / "o",
                "--model-file", trained / f"model_{kind}.json", batch]) == cli.EXIT_OK
    assert (tmp_path / "o" / "verdicts.csv").read_text() == \
        "report_id,label,score,matched,unmatched\n"
    assert capsys.readouterr().out.endswith("scored 0 reports: 0 ransomware, "
                                            "0 goodware, 3 malformed\n")


@pytest.mark.parametrize("command", ["evaluate", "score"])
def test_model_file_too_large_for_memory_is_one_line_data_error(trained, tmp_path, command):
    # A consistent knn file, every column selected and 100 000 empty rows,
    # whose 300 MB training array the child may not map.
    doc = json.loads((trained / "model_knn.json").read_bytes())
    d = 3000
    doc["fingerprint"].update(n_features=d, selected=list(range(d)))
    doc["payload"].update(n_features=d, rows=[[]] * 100_000, labels=[0, 1] * 50_000)
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    args = ["--seed", 3] if command == "evaluate" else [trained / "batch.ndjson"]
    code, err, files = run_limited([command, "--data", trained / "data.sparse",
                                    "--out", tmp_path / "o", "--model-file", model_file, *args],
                                   address_space=256 << 20)
    assert (code, err) == (cli.EXIT_DATA,
                           f"data error: {model_file}: out of memory while reading it\n")
    assert files == {}


def test_report_batch_too_large_for_memory_is_one_line_data_error(tmp_path):
    # With every one of 4000 columns selected, the 0/1 array of 50 000 empty
    # reports is 200 MB, which the child may not map beside the interpreter.
    d = 4000
    matrix, y = synthesize_dataset(100, d, 0.01, [(0, 0.05, 0.95)], seed=1)
    data = tmp_path / "data.sparse"
    write_sparse(data, matrix, generic_dictionary(d, category="API"), y)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["train", "--data", data, "--out", tmp_path, "--model", "logreg",
                    "--top-k", d, "--hp", "epochs=5"]) == 0
    batch = tmp_path / "batch.ndjson"
    batch.write_text("{}\n" * 50_000)
    code, err, files = run_limited(["score", "--data", data, "--out", tmp_path / "o",
                                    "--model-file", tmp_path / "model_logreg.json", batch],
                                   address_space=256 << 20)
    assert (code, err) == (cli.EXIT_DATA, f"data error: {batch}: out of memory while reading it\n")
    assert files == {}


@pytest.mark.parametrize("header, message", [
    (["#FEATURES 2147483648", "API:a"], "dictionary section truncated"),
    (["#FEATURES 1", "API:a", "#SAMPLES 2147483648", "s1\t0\tAPI:a"],
     "sample section truncated at row 1"),
])
def test_header_counts_past_memory_are_one_line_data_error(tmp_path, header, message):
    # A loader that sized a buffer from the count would ask for gigabytes.
    data = tmp_path / "data.sparse"
    data.write_text("\n".join(header) + "\n", encoding="utf-8")
    code, err, files = run_limited(["mi-scores", "--data", data, "--out", tmp_path / "o"],
                                   address_space=256 << 20)
    assert (code, err) == (cli.EXIT_DATA, f"data error: {data}: {message}\n")
    assert files == {}


class ScoringSetup:
    """A dataset and three trained models, shared by the property test."""

    def __init__(self, root: Path):
        self.data = make_dataset(root, n=120)
        self.out = root / "out"
        self.dictionary = load_sparse(self.data)[1]
        self.models = {}
        for kind in ("dt", "knn", "logreg"):
            assert run(["train", "--data", self.data, "--out", self.out, "--model", kind,
                        "--top-k", 6, "--hp", "epochs=20"]) == 0
            path = self.out / f"model_{kind}.json"
            self.models[path] = deserialize_model(path.read_bytes())


@pytest.fixture(scope="module")
def scoring_setup(tmp_path_factory):
    with contextlib.redirect_stdout(io.StringIO()):
        return ScoringSetup(tmp_path_factory.mktemp("scoring"))


VALID_BATCH = b"\n".join([
    b'{"api_calls": ["f00000", "f00003"], "strings": ["x"]}',
    b"",
    b'{"api_calls": ["f00001"]}',
    b"{}",
    b'{"api_calls": ["f00002", "f00002", "nope"], "dir_ops": ["f00004"]}',
    b'{"api_calls": ["f00005", "f00006", "f00007", "f00008", "f00009", "f00010"]}',
    b"",
])

REPORT_FRAGMENTS = st.sampled_from([
    b"{}", b"[]", b"null", b'{"api_calls": ["f00000"]}', b'{"api_calls": "f00000"}',
    b'{"strings": [1]}', b'"f00001"', b",", b"]", b"}", b'"', b"\\", b"\\u2028",
    b"\xff", b"\xed\xa0\x80", b"\xe2\x80\xa8", b"\xc2\x85", b"\r", b"\t", b" ", b"\n",
    b"", b"[" * 3000, b"1" * 5000,
])


@settings(max_examples=100, deadline=None)
@given(batch=mutated_lines(VALID_BATCH, REPORT_FRAGMENTS), pick=st.integers(0, 2))
def test_mutated_report_batch_scores_like_one_report_at_a_time(scoring_setup, batch, pick):
    model_file, (model, fingerprint) = list(scoring_setup.models.items())[pick]
    dictionary = scoring_setup.dictionary
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.ndjson"
        path.write_bytes(batch)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(["score", "--data", scoring_setup.data, "--out", Path(tmp) / "out",
                        "--model-file", model_file, path])
        assert code == 0
        assert "Traceback" not in stderr.getvalue()
        rows = (Path(tmp) / "out" / "verdicts.csv").read_text(encoding="utf-8").splitlines()
    malformed = int(re.search(r", (\d+) malformed$", stdout.getvalue().splitlines()[-1])[1])
    lines = batch.split(b"\n")
    assert len(rows) - 1 + malformed == sum(1 for line in lines if line.strip())
    for row in rows[1:]:
        report_id = row.split(",", 1)[0]
        line = lines[int(report_id.rsplit(":", 1)[1]) - 1]
        # The one-report composition, from the reference reading of the line.
        _, matched, unmatched, one_row = reference_report(
            line, dictionary.names, fingerprint.selected)
        score = model.predict(np.array([one_row], dtype=np.uint8))[0]
        assert row == f"{report_id},{labels_of(score)},{score:.6f},{matched},{unmatched}"


class TestConfig:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data}\ntop_k=3\nmodel=dt\nseed=9\n")
        out = tmp_path / "out"
        # flag --top-k overrides the file value
        code = run(["train", "--config", cfg, "--out", out, "--top-k", 5])
        assert code == 0
        echoed = (out / "train.config").read_text()
        assert "top_k=5" in echoed
        assert "seed=9" in echoed

    def test_bad_config_line(self, tmp_path, capsys):
        # Comments and blank lines count: the error names the file's own line number.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nwhat is this\n")
        assert run(["mi-scores", "--config", cfg, "--out", tmp_path / "o"]) \
            == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}:3: expected key=value, got 'what is this'\n"

    @pytest.mark.parametrize("line", ["seed=abc", "top_k=x", "test_fraction=abc"])
    def test_non_numeric_config_value(self, tmp_path, capsys, line):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data}\n{line}\n")
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_USAGE
        assert line.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags", [
        (b"data=@DATA@\nseed=3\xff\n", []),  # not UTF-8
        (b"data=@DATA@\nseed=-1\n", []),
        (b"data=@DATA@\nhp.seed=-1\n", []),
        (b"data=@DATA@\n", ["--seed", "-1"]),
        (b"data=@TMP@\n", []),  # a directory, not a dataset file
        (b"data=@DATA@\nout=@DATA@\n", []),  # output directory is a file
        (b"data=@DATA@\nout=o\x00\n", []),
        (b"data=@DATA@\nmodel_file=@TMP@\n", []),  # model file is a directory
        (b"data=@DATA@\ntest_fraction=0\n", []),
    ])
    def test_unusable_config_is_one_line_usage_error(self, tmp_path, capsys, config, flags):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        config = b"out=@TMP@/o\n" + config  # a later out= line takes precedence
        cfg.write_bytes(config.replace(b"@DATA@", bytes(data)).replace(b"@TMP@", bytes(tmp_path)))
        capsys.readouterr()
        code = run(["train", "--config", cfg, "--top-k", 5, *flags])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["mi-scores", "--config", tmp_path / "none.cfg"]) == cli.EXIT_USAGE
        assert "none.cfg" in capsys.readouterr().err

    def test_negative_seed_in_sweep(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        assert run(["reproduce", "--data", data, "--out", tmp_path / "o",
                    "--seeds", "0,-1"]) == cli.EXIT_USAGE

    def test_threads_not_echoed(self, tmp_path):
        data = make_dataset(tmp_path)
        out = tmp_path / "out"
        assert run(["mi-scores", "--data", data, "--out", out]) == 0
        keys = [line.split("=", 1)[0]
                for line in (out / "mi-scores.config").read_text().splitlines()]
        assert "threads" not in keys

    def test_byte_order_mark_keeps_the_first_setting(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"\ufeffseed=5\ndata={data}\nmodel=dt\ntop_k=5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        assert "seed=5" in (out / "train.config").read_text().splitlines()


# Every bounded hyperparameter of each kind, a value just outside its range
# and one at its bound (just inside it where the bound itself is excluded).
HP_BOUNDS = [
    ("dt", "max_depth", "-1", "0"),
    ("dt", "min_samples_leaf", "0", "1"),
    ("rf", "n_trees", "0", "1"),
    ("rf", "features_per_split", "0", "1"),
    ("rf", "max_depth", "-1", "0"),
    ("rf", "min_samples_leaf", "0", "1"),
    ("rf", "seed", "-1", "0"),
    ("knn", "k_neighbors", "0", "1"),
    ("svm", "regularization", "0.0", "1e-06"),
    ("svm", "epochs", "0", "1"),
    ("svm", "seed", "-1", "0"),
    ("gbt", "n_rounds", "0", "1"),
    ("gbt", "learning_rate", "0.0", "5e-324"),
    ("gbt", "max_depth", "-1", "0"),
    ("gbt", "l2_leaf_penalty", "-5e-324", "0.0"),
    ("gbt", "min_child_weight", "-5e-324", "0.0"),
    ("logreg", "learning_rate", "0.0", "5e-324"),
    ("logreg", "epochs", "0", "1"),
    ("logreg", "tolerance", "-5e-324", "0.0"),
    ("logreg", "l2_penalty", "-5e-324", "0.0"),
]


class TestHyperparameters:
    @pytest.mark.parametrize("hp", [
        "n_trees=abc",  # value does not parse
        "n_tres=5",  # no model kind has this parameter
        "bootstrap=maybe",
        "learning_rate=fast",
    ])
    def test_bad_override_is_usage_error(self, tmp_path, capsys, hp):
        data = make_dataset(tmp_path)
        code = run(["train", "--data", data, "--model", "dt", "--out",
                    tmp_path / "o", "--hp", hp])
        assert code == cli.EXIT_USAGE
        assert hp.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("model, hp", [
        ("knn", "k_neighbors=0"),
        ("svm", "regularization=-1"),
        ("rf", "features_per_split=-1"),
        ("rf", "n_trees=0"),
        ("svm", "epochs=0"),
        ("logreg", "epochs=0"),
        ("gbt", "learning_rate=nan"),
        ("logreg", "learning_rate=nan"),
        ("logreg", "l2_penalty=nan"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_value_is_one_line_usage_error(self, tmp_path, capsys, model, hp,
                                                        source):
        data = make_dataset(tmp_path)
        out = tmp_path / "o"
        args = ["train", "--data", data, "--model", model, "--top-k", 5, "--out", out]
        if source == "flag":
            args += ["--hp", hp]
        else:
            (tmp_path / "run.cfg").write_text(f"hp.{hp}\n")
            args += ["--config", tmp_path / "run.cfg"]
        assert run(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: hyperparameter {hp.split('=')[0]}=")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["hp", "config", "model"])
    @pytest.mark.parametrize("side", ["below", "at"])
    @pytest.mark.parametrize("kind, name, below, at", HP_BOUNDS)
    def test_bound(self, tmp_path, capsys, kind, name, below, at, side, source):
        data = make_dataset(tmp_path)
        value = below if side == "below" and source != "model" else at
        small = [] if name in ("n_trees", "n_rounds") else ["n_trees=3", "n_rounds=3"]
        args = ["train", "--data", data, "--model", kind, "--top-k", 5, "--out",
                tmp_path / "o", *(f"--hp={hp}" for hp in small)]
        if source == "config":
            (tmp_path / "run.cfg").write_text(f"hp.{name}={value}\n")
            args += ["--config", tmp_path / "run.cfg"]
        else:
            args += ["--hp", f"{name}={value}"]
        code = run(args)
        if source == "model":  # the file trained at the bound, and its copy holding `below`
            assert code == cli.EXIT_OK
            model_file = tmp_path / "o" / f"model_{kind}.json"
            if side == "below":
                doc = json.loads(model_file.read_bytes())
                doc["hyperparameters"][name] = json.loads(below)
                model_file.write_text(json.dumps(doc))
            batch = tmp_path / "batch.ndjson"
            batch.write_text('{"api_calls": ["f00000"]}\n')
            capsys.readouterr()
            code = run(["score", "--data", data, "--out", tmp_path / "s",
                        "--model-file", model_file, batch])
        if side == "at":
            assert code == cli.EXIT_OK
            return
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if source == "model":
            assert code == cli.EXIT_DATA
            assert err.startswith(f"data error: hyperparameter {name}={below}")
            assert not (tmp_path / "s").exists()
        else:
            assert code == cli.EXIT_USAGE
            assert err.startswith(f"error: hyperparameter {name}={below}")
            assert not (tmp_path / "o").exists()

    def test_foreign_key_is_shared_across_kinds(self, tmp_path, capsys):
        # n_trees belongs to rf only; a dt run accepts and ignores it.
        data = make_dataset(tmp_path)
        assert run(["train", "--data", data, "--model", "dt", "--out",
                    tmp_path / "o", "--top-k", 5, "--hp", "n_trees=3"]) == 0

    @pytest.mark.parametrize("flags, name", [
        (["--seed", "abc"], "--seed"),
        (["--top-k", "x"], "--top-k"),
        (["--test-fraction", "y"], "--test-fraction"),
        (["--model", "bogus"], "--model"),
        (["--test-fraction", "1.5"], "error: test_fraction 1.5 not in (0,1)"),
        (["--test-fraction", "1"], "error: test_fraction 1.0 not in (0,1)"),
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flags, name):
        data = make_dataset(tmp_path)
        code = run(["train", "--data", data, "--out", tmp_path / "o", *flags])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err

    def test_bad_seed_list(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        assert run(["reproduce", "--data", data, "--out", tmp_path / "o",
                    "--seeds", "0,x"]) == cli.EXIT_USAGE


# Each command's flags besides --data and --out, run in a directory
# prepared by ``prepare_commands``.
COMMAND_FLAGS = {
    "mi-scores": [],
    "train": ["--model", "dt", "--top-k", 5, "--seed", 3],
    "evaluate": ["--model-file", "models/model_dt.json", "--seed", 3],
    "score": ["--model-file", "models/model_dt.json", "batch.ndjson"],
    # Models this small miss the baseline tolerance: exit 3.
    "reproduce": ["--top-k", 5, "--strict", "--seeds", "0,1", "--test-fraction", "0.3",
                  "--hp", "n_trees=5", "--hp", "n_rounds=5", "--hp", "epochs=20"],
}


def prepare_commands(root, monkeypatch):
    """Make ``root`` the working directory, holding data.sparse, a seed-3 dt
    model in models/ and batch.ndjson."""
    monkeypatch.chdir(root)
    make_dataset(root, n=100)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["train", "--data", "data.sparse", "--out", "models", "--model", "dt",
                    "--top-k", 5, "--seed", 3]) == 0
    Path("batch.ndjson").write_text('{"api_calls": ["f00000"]}\n{"strings": ["x"]}\n')


def command_line(command):
    return [command, "--data", "data.sparse", "--out", "out", *COMMAND_FLAGS[command]]


def tree_bytes(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_config_replay_is_byte_identical(tmp_path, monkeypatch, capsys, command):
    prepare_commands(tmp_path, monkeypatch)
    first = run(command_line(command)), capsys.readouterr().out
    assert first[0] == (cli.EXIT_TOLERANCE if command == "reproduce" else cli.EXIT_OK)
    before = tree_bytes(tmp_path)
    reports = ["batch.ndjson"] if command == "score" else []
    again = run([command, "--config", f"out/{command}.config", *reports])
    assert (again, capsys.readouterr().out) == first
    assert tree_bytes(tmp_path) == before  # same outputs, same echo, no stray file


# The settings of each command, as flags; every command also takes --config.
COMMAND_SETTINGS = {
    "mi-scores": "--data --out",
    "train": "--data --seed --test-fraction --top-k --model --model-file --out --hp",
    "evaluate": "--data --seed --test-fraction --model-file --out --strict",
    "reproduce": "--data --seed --seeds --test-fraction --top-k --out --strict --hp",
    "score": "--data --model-file --out",
}


# Keys the echoes held when every command took every setting, in their
# order, and values for those a command does not read.
EARLIER_KEYS = ("data", "format", "seed", "seeds", "test_fraction", "top_k", "model",
                "model_file", "out", "strict")
UNREAD = {"format": "sparse", "seed": "99", "test_fraction": "0.9", "top_k": "1",
          "model": "gbt", "strict": "True"}


def earlier_form(command: str, echo: str) -> str:
    """``echo`` of ``command`` as it was written when every command took every
    setting, for a run given the ``UNREAD`` values and, when the command
    reads no hyperparameter, ``--hp max_depth=1``."""
    values = {**UNREAD, **dict(line.split("=", 1) for line in echo.splitlines())}
    if "--hp" not in COMMAND_SETTINGS[command]:
        values["hp.max_depth"] = "1"
    keys = [*EARLIER_KEYS, *(key for key in values if key.startswith("hp."))]
    return "".join(f"{key}={values[key]}\n" for key in keys if key in values)


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_earlier_form_echo_replays_byte_identically(tmp_path, monkeypatch, capsys, command):
    prepare_commands(tmp_path, monkeypatch)
    first = run(command_line(command)), capsys.readouterr().out
    echo = Path("out", f"{command}.config").read_text()
    Path("earlier.config").write_text(earlier_form(command, echo))
    before = tree_bytes(tmp_path)
    reports = ["batch.ndjson"] if command == "score" else []
    again = run([command, "--config", "earlier.config", *reports])
    assert (again, capsys.readouterr().out) == first
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command", list(COMMAND_SETTINGS))
def test_help_lists_exactly_the_command_settings(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {*COMMAND_SETTINGS[command].split(), "--config", "--help"}


@pytest.mark.parametrize("command, flags", [
    ("score", ["--seed", 1]),
    ("mi-scores", ["--top-k", 5]),
    ("evaluate", ["--hp", "max_depth=3"]),
    ("train", ["--format", "sparse"]),
])
def test_flag_of_an_unread_setting_is_one_line_usage_error(tmp_path, monkeypatch, capsys,
                                                           command, flags):
    prepare_commands(tmp_path, monkeypatch)
    assert run([*command_line(command), *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unrecognized arguments" in err
    assert not Path("out").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "reproduce"])
def test_failed_split_leaves_no_echo(tmp_path, monkeypatch, capsys, command):
    prepare_commands(tmp_path, monkeypatch)
    lines = Path("data.sparse").read_text(encoding="utf-8").splitlines(keepends=True)
    # Every sample goodware: the dictionary is the model's, the split fails.
    one_class = [re.sub(r"\t\d+\t", "\t0\t", line, count=1) for line in lines]
    Path("data.sparse").write_text("".join(one_class), encoding="utf-8")
    capsys.readouterr()
    assert run(command_line(command)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "both classes" in err
    assert not Path("out").exists()


@pytest.mark.parametrize("flags", [["--seed", 0], ["--test-fraction", 0.5]])
def test_evaluate_on_another_split_is_data_error(tmp_path, monkeypatch, capsys, flags):
    # The model was fit on the seed-3 training partition, which would hold
    # most of another split's test rows.
    prepare_commands(tmp_path, monkeypatch)
    assert run([*command_line("evaluate"), *flags]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "selected features differ" in err
    assert not Path("out").exists()


@pytest.mark.parametrize("command, output", [
    ("mi-scores", "mi_scores.csv"), ("train", "model_dt.json"), ("evaluate", "evaluation.csv"),
    ("reproduce", "reproduce.csv"), ("score", "verdicts.csv"),
])
def test_unwritable_output_is_one_line_usage_error(tmp_path, monkeypatch, capsys,
                                                   command, output):
    prepare_commands(tmp_path, monkeypatch)
    Path("out", output).mkdir(parents=True)
    assert run(command_line(command)) == cli.EXIT_USAGE
    printed = capsys.readouterr()
    assert printed.err.count("\n") == 1 and output in printed.err
    # Stdout ("model written to ...", "wrote ... scores", a table) comes after the writes.
    assert printed.out == ""
    assert not Path("out", f"{command}.config").exists()
    assert os.listdir("out") == [output]  # no temporary file is left


def test_failed_score_write_prints_only_its_error(tmp_path, monkeypatch):
    # In a child process the drift warning reaches stderr as it does for a user; the
    # malformed reports and the drifting one are reported only once verdicts.csv is written.
    prepare_commands(tmp_path, monkeypatch)
    Path("batch.ndjson").write_text('{"x":1}\nnot json\n[1]\n{"api_calls": ["no1", "no2"]}\n')
    code, err, files = run_limited(command_line("score"))
    assert code == cli.EXIT_OK and "verdicts.csv" in files
    assert err.splitlines() == [
        "1 of 2 reports matched under 10% of their tokens (first: batch.ndjson:4); "
        "dictionary drift likely",
        "batch.ndjson:2: malformed report document: Expecting value: line 1 column 1 (char 0)",
        "batch.ndjson:3: report document must be a JSON object"]
    shutil.rmtree("out")
    Path("out", "verdicts.csv").mkdir(parents=True)
    code, err, _ = run_limited(command_line("score"))
    assert (code, err) == (cli.EXIT_USAGE, "error: cannot write 'out/verdicts.csv': Is a directory\n")


def test_drifting_batch_prints_one_drift_line(tmp_path, monkeypatch, capsys):
    # Line 1 has 9 of its 10 tokens unknown, exactly nine tenths, so it does
    # not drift; lines 2-51 have 10 of 11 unknown, just above. Line 52 knows
    # every token and line 53 has none.
    prepare_commands(tmp_path, monkeypatch)

    def report(n_unknown):
        return json.dumps({"api_calls": ["f00000"],
                           "strings": [f"zz{i}" for i in range(n_unknown)]})

    lines = [report(9), *[report(10)] * 50, report(0), "{}", "not json"]
    Path("batch.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(command_line("score")) == cli.EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "50 of 53 reports matched under 10% of their tokens (first: batch.ndjson:2); "
        "dictionary drift likely",
        "batch.ndjson:54: malformed report document: Expecting value: line 1 column 1 (char 0)"]
    counts = [row.split(",")[3:] for row in Path("out/verdicts.csv").read_text().splitlines()[1:]]
    assert counts == [["1", "9"], *[["1", "10"]] * 50, ["1", "0"], ["0", "0"]]


def test_large_batch_prints_one_stdout_line(tmp_path, monkeypatch, capsys):
    # The verdicts go to verdicts.csv only; stdout is the summary, however large the batch.
    prepare_commands(tmp_path, monkeypatch)
    Path("batch.ndjson").write_text('{"api_calls": ["f00000"]}\n' * 10_000)
    capsys.readouterr()
    assert run(command_line("score")) == cli.EXIT_OK
    assert re.fullmatch(r"scored 10000 reports: \d+ ransomware, \d+ goodware, 0 malformed\n",
                        capsys.readouterr().out)
    assert len(Path("out/verdicts.csv").read_text().splitlines()) == 10_001


OUTPUT_FILE = {"score": "verdicts.csv", "mi-scores": "mi_scores.csv",
               "reproduce": "reproduce.csv"}


@pytest.mark.parametrize("command, strict", [
    ("score", False), ("mi-scores", False), ("reproduce", False), ("reproduce", True),
])
def test_closed_stdout_keeps_the_exit_code(tmp_path, monkeypatch, command, strict):
    # The read end of the child's stdout pipe is closed before it starts, as
    # under `| head -1` once head has left: every write to stdout fails with EPIPE.
    prepare_commands(tmp_path, monkeypatch)
    argv = [a for a in command_line(command) if strict or a != "--strict"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_cli(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert child.returncode == (cli.EXIT_TOLERANCE if strict else cli.EXIT_OK), child.stderr
    assert "Traceback" not in child.stderr and "Exception ignored" not in child.stderr
    if strict:  # the reason still follows the dropped stdout
        assert child.stderr == "one or more models fell outside the baseline tolerance\n"
    assert sorted(os.listdir("out")) == sorted([OUTPUT_FILE[command], f"{command}.config"])


@pytest.mark.parametrize("closed", ["at start", "after start"])
@pytest.mark.parametrize("model_file", ["models/model_dt.json", "not-json.json"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, monkeypatch, closed, model_file):
    # Closed at start, Python sets sys.stderr to None; closed after start, a
    # write to it fails with EBADF. The batch drifts, so a run that succeeds
    # has a warning line to drop; a model file that is not JSON is a data error.
    prepare_commands(tmp_path, monkeypatch)
    Path("not-json.json").write_text("not json")
    argv = ["score", "--data", "data.sparse", "--out", "out", "--model-file", model_file,
            "batch.ndjson"]
    if closed == "at start":
        child = run_cli(argv, preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE)
    else:
        child = run_cli(argv, "import os; os.close(2)", stdout=subprocess.PIPE)
    if model_file == "not-json.json":
        assert (child.returncode, child.stdout) == (cli.EXIT_DATA, "")
        assert not Path("out").exists()
    else:
        assert child.returncode == cli.EXIT_OK
        assert child.stdout == "scored 2 reports: 1 ransomware, 1 goodware, 0 malformed\n"
        assert sorted(os.listdir("out")) == ["score.config", "verdicts.csv"]


def test_train_without_seed_uses_seed_0(tmp_path, monkeypatch):
    prepare_commands(tmp_path, monkeypatch)
    argv = ["train", "--data", "data.sparse", "--model", "dt", "--top-k", 5]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*argv, "--out", "default"]) == cli.EXIT_OK
        assert run([*argv, "--seed", 0, "--out", "zero"]) == cli.EXIT_OK
    assert "seed=0" in Path("default/train.config").read_text().splitlines()
    assert Path("default/model_dt.json").read_bytes() == Path("zero/model_dt.json").read_bytes()


def test_exit_codes_are_the_documented_numbers():
    # Callers of the process see the numbers, not the names.
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_TOLERANCE) == (0, 1, 2, 3)


def test_top_k_of_one_is_valid(tmp_path, monkeypatch):
    prepare_commands(tmp_path, monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["train", "--data", "data.sparse", "--out", "o", "--top-k", 1]) == cli.EXIT_OK
    assert len(json.loads(Path("o/model_gbt.json").read_bytes())["fingerprint"]["selected"]) == 1


def test_strict_reproduce_passes_at_the_baseline(tmp_path, monkeypatch, capsys):
    # Each baseline set to the metrics this run measures, with no tolerance:
    # every model misses it by exactly 0, which is within.
    prepare_commands(tmp_path, monkeypatch)
    argv = [str(a) for a in command_line("reproduce") if a != "--strict"]
    cfg = cli.build_config(cli.build_parser().parse_args(argv))
    matrix, dictionary, y = cli.load_data(cfg)
    measured = cli._reproduce_once(matrix, dictionary, y, dataclasses.replace(cfg, seed=0))
    monkeypatch.setattr(cli, "BASELINE", {
        kind: (name, float(r.accuracy) * 100, float(r.precision or 0), float(r.recall or 0))
        for kind, r in measured.items() for name in [cli.BASELINE[kind][0]]})
    monkeypatch.setattr(cli, "TOLERANCE", (0.0, 0.0, 0.0))
    assert run([*argv, "--strict"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/mem")
@pytest.mark.parametrize("command, flag", [
    ("mi-scores", "--data"), ("score", "--model-file"), ("score", "reports"),
])
def test_unreadable_input_is_one_line_usage_error(tmp_path, monkeypatch, capsys, command,
                                                  flag):
    # /proc/self/mem is a file that opens, and reading its first byte fails.
    prepare_commands(tmp_path, monkeypatch)
    argv = command_line(command)
    argv[argv.index(flag) + 1 if flag in argv else -1] = "/proc/self/mem"
    capsys.readouterr()
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: cannot read '/proc/self/mem': Input/output error\n"
    assert not Path("out").exists()


CONFIG_TEMPLATE = b"\n".join([
    b"# train settings",
    b"data=@DATA@",
    b"format=sparse",
    b"seed=3",
    b"test_fraction=0.25",
    b"top_k=5",
    b"model=dt",
    b"out=out",
    b"hp.max_depth=4",
    b"hp.n_trees=3",
    b"hp.n_rounds=3",
    b"hp.epochs=5",
    b"",
])

CONFIG_FRAGMENTS = st.sampled_from([
    b"=", b"#", b"# x=1", b"seed=-1", b"seed=abc", b"seed=" + b"9" * 40, b"seed=1e3",
    b"top_k=0", b"top_k=-5", b"top_k=" + b"9" * 30, b"test_fraction=nan",
    b"test_fraction=1e-300", b"test_fraction=0.999999", b"test_fraction=inf",
    b"model=rf", b"model=gbt", b"model=knn", b"model=svm", b"model=logreg", b"model=bogus",
    b"model=", b"format=dense", b"format=xml", b"data=", b"data=missing.sparse",
    b"data=.", b"data=\x00", b"out=\x00", b"out=data.sparse", b"out=.", b"model_file=.",
    b"model_file=\x00", b"hp.seed=-1", b"top_k=1.5", b"hp.n_tres=1", b"hp.bootstrap=maybe", b"hp.max_depth=-1",
    b"hp.n_trees=0", b"hp.k_neighbors=100000", b"hp.k_neighbors=0",
    b"hp.learning_rate=-1", b"hp.learning_rate=nan", b"hp.features_per_split=100",
    b"hp.regularization=0", b"hp.min_samples_leaf=0", b"strict=1",
    b"\xff", b"\xed\xa0\x80", b"\r", b"\t", b" ", b"\\", b"\xe2\x80\xa8", b"",
])


@pytest.fixture(scope="module")
def config_dataset(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("config"), n=60)


@settings(max_examples=100, deadline=None)
@given(text=mutated_lines(CONFIG_TEMPLATE, CONFIG_FRAGMENTS))
def test_mutated_config_file_ends_in_documented_exit(config_dataset, text):
    """A mutated --config file makes ``train`` exit 0, 1 or 2; a failure
    prints one line of message and never a traceback."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "data.sparse").write_bytes(config_dataset.read_bytes())
        Path(tmp, "run.cfg").write_bytes(text.replace(b"@DATA@", b"data.sparse"))
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(["train", "--config", "run.cfg"])
        finally:
            os.chdir(cwd)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA)
    message = stderr.getvalue()
    assert "Traceback" not in message
    if code != cli.EXIT_OK:
        assert message.count("\n") == 1 and message.startswith(("error: ", "data error: "))
