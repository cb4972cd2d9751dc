import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rwdetect import cli, dataset
from rwdetect.classifiers import deserialize_model
from rwdetect.classifiers.knn import KnnModel
from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
    generic_dictionary,
    load_sparse,
    synthesize_dataset,
    write_dense_csv,
    write_sparse,
)
from rwdetect.reports import parse_report, vectorize
from rwdetect.selection import project

from conftest import mutated_lines


def make_dataset(tmp_path, fmt="sparse", n=80, d=12, seed=1, category="API"):
    signal = [(0, 0.05, 0.95), (1, 0.9, 0.1)]
    matrix, _ = synthesize_dataset(n, d, 0.3, signal, seed=seed)
    dictionary = generic_dictionary(d, category=category)
    path = tmp_path / ("data.sparse" if fmt == "sparse" else "data.csv")
    (write_sparse if fmt == "sparse" else write_dense_csv)(path, matrix, dictionary)
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

    def test_gbt_zero_rounds_constant_model(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "out"
        code = run([
            "train", "--data", data, "--out", out, "--model", "gbt",
            "--top-k", 5, "--hp", "n_rounds=0",
        ])
        assert code == 0
        model = deserialize_model((out / "model_gbt.json").read_bytes())
        assert model.trees == ()

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

    def test_missing_model_file(self, tmp_path):
        data = make_dataset(tmp_path)
        assert run(["evaluate", "--data", data, "--out", tmp_path / "o",
                    "--model-file", tmp_path / "nope.json"]) == cli.EXIT_USAGE

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


class TestReproduce:
    def test_dataset_absent_gives_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
        assert run(["reproduce", "--out", tmp_path / "o"]) == cli.EXIT_DATA
        assert "dataset" in capsys.readouterr().err

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
        run(["train", "--data", data, "--format", fmt, "--out", out, "--model", "knn",
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
        code = run(["score", "--data", data, "--format", fmt, "--out", out,
                    "--model-file", out / "model_knn.json", batch])
        assert code == 0
        assert f"scored {n} reports" in capsys.readouterr().out
        assert calls["predict"] == 1 and calls["sha256"] <= 1 and calls["load"] == 0

    @pytest.mark.parametrize("fmt", ["sparse", "dense"])
    def test_corrupt_sample_section_is_not_read(self, tmp_path, capsys, fmt):
        data = make_dataset(tmp_path, fmt=fmt, n=120)
        out = tmp_path / "out"
        run(["train", "--data", data, "--format", fmt, "--out", out, "--model", "dt",
             "--top-k", 5])
        with open(data, "ab") as fh:
            fh.write(b"broken\t99\tNOPE:x\xff\n" if fmt == "sparse" else b"s1,x,\xff\n")
        assert run(["train", "--data", data, "--format", fmt, "--out", tmp_path / "o",
                    "--model", "dt"]) == cli.EXIT_DATA
        batch = tmp_path / "batch.ndjson"
        batch.write_text('{"api_calls": ["f00000"]}\n')
        capsys.readouterr()
        code = run(["score", "--data", data, "--format", fmt, "--out", out,
                    "--model-file", out / "model_dt.json", batch])
        assert code == 0
        assert "scored 1 reports" in capsys.readouterr().out


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
    model_file, model = list(scoring_setup.models.items())[pick]
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
        # The one-report composition: vectorize -> project -> predict.
        outcome = vectorize(parse_report(line), dictionary)
        one_row = DataMatrix.from_rows(len(dictionary), [outcome.row])
        pred = model.predict(project(one_row, model.fingerprint.selected))[0]
        assert row == (f"{report_id},{pred.label},{pred.score:.6f},"
                       f"{outcome.matched},{outcome.unmatched}")


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

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("what is this\n")
        assert run(["mi-scores", "--config", cfg, "--out", tmp_path / "o"]) \
            == cli.EXIT_USAGE

    @pytest.mark.parametrize("line", ["seed=abc", "top_k=x", "test_fraction=abc"])
    def test_non_numeric_config_value(self, tmp_path, capsys, line):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data}\n{line}\n")
        assert run(["mi-scores", "--config", cfg, "--out", tmp_path / "o"]) \
            == cli.EXIT_USAGE
        assert line.split("=")[0] in capsys.readouterr().err

    def test_threads_not_echoed(self, tmp_path):
        data = make_dataset(tmp_path)
        out = tmp_path / "out"
        assert run(["mi-scores", "--data", data, "--out", out]) == 0
        keys = [line.split("=", 1)[0] for line in (out / "mi-scores.config").open()]
        assert "threads" not in keys


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
