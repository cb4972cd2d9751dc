"""Every output, and the echo, is written whole or not at all.

The write-failure tests run the CLI in a child process whose file-size
limit (``RLIMIT_FSIZE``) is below the size of the output it writes, so
writing that output fails part-way.
"""

import contextlib
import io
import stat

import pytest

from rwdetect import cli

from conftest import run_limited
from fixtures import generic_dictionary, synthesize_dataset, write_sparse

NO_LIMIT = 1 << 30


def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 200-feature dataset, a dt model trained on it and a 300-report batch."""
    root = tmp_path_factory.mktemp("inputs")
    matrix, y = synthesize_dataset(80, 200, 0.3, [(0, 0.05, 0.95), (1, 0.9, 0.1)], seed=1)
    write_sparse(root / "data.sparse", matrix, generic_dictionary(200, category="API"), y)
    assert quiet(["train", "--data", root / "data.sparse", "--out", root / "models",
                  "--model", "dt", "--top-k", 5]) == cli.EXIT_OK
    (root / "batch.ndjson").write_text('{"api_calls": ["f00000", "f00001"]}\n' * 300)
    return root


def case(inputs, out, command):
    """The command line of ``command`` writing into ``out``, the output it
    writes there and a file-size limit below that output's size."""
    args, output, fsize = {
        "train": (["--model", "logreg"], "model_logreg.json", 4000),
        "score": (["--model-file", inputs / "models" / "model_dt.json",
                   inputs / "batch.ndjson"], "verdicts.csv", 3000),
        "reproduce": (["--top-k", 5, "--hp", "n_trees=5", "--hp", "n_rounds=5",
                       "--hp", "epochs=20"], "reproduce.csv", 300),
        "mi-scores": ([], "mi_scores.csv", 2000),
    }[command]
    return [command, "--data", inputs / "data.sparse", "--out", out, *args], output, fsize


@pytest.mark.parametrize("command", ["train", "score", "reproduce", "mi-scores"])
def test_output_past_the_limit_is_not_written(inputs, tmp_path, command):
    argv, output, fsize = case(inputs, tmp_path / "out", command)
    code, err, files = run_limited(argv, fsize)
    assert code == cli.EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write ") and output in err
    assert files == {}  # no partial output, no echo, no temporary file


@pytest.mark.parametrize("command", ["train", "score"])
def test_failed_rewrite_keeps_the_earlier_output(inputs, tmp_path, command):
    argv, output, fsize = case(inputs, tmp_path / "out", command)
    code, _, earlier = run_limited(argv, NO_LIMIT)
    assert code == cli.EXIT_OK and len(earlier[output]) > fsize
    code, err, files = run_limited(argv, fsize)
    assert code == cli.EXIT_USAGE and err.count("\n") == 1 and output in err
    assert files == earlier  # the earlier output and echo, and no temporary file


def test_output_modes_are_those_of_a_plain_open(inputs, tmp_path):
    # A temporary file made by tempfile.mkstemp would be readable by its owner only.
    out = tmp_path / "out"
    for argv in (["mi-scores"], ["train", "--model", "dt", "--model-file", tmp_path / "m.json"]):
        assert quiet([*argv, "--data", inputs / "data.sparse", "--out", out]) == cli.EXIT_OK
    with open(tmp_path / "plain", "wb"):
        pass
    written = [*out.iterdir(), tmp_path / "m.json"]
    assert len(written) == 4
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in written}
    plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert modes == dict.fromkeys(modes, plain)
