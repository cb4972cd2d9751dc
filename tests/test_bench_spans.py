"""The benchmark's span tracer still finds every function it wraps.

``bench/spans.py`` times the program by replacing public names from
outside; a name a refactor renames or removes is only recorded as absent,
and its per-layer metric then reads 0. This test reads ``bench/`` and
changes nothing there.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import rwdetect
from rwdetect import cli, dataset  # cli imports every module the tracer wraps
from rwdetect.classifiers import MODEL_KINDS

from fixtures import generic_dictionary, synthesize_dataset, write_sparse

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrap_target_resolves():
    tracer = load_spans().Tracer(rwdetect)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_counts_one_row_per_score(tmp_path, kind):
    # The bench counts a predict's rows as the length of what it returns.
    matrix, y = synthesize_dataset(60, 8, 0.3, [(0, 0.05, 0.95)], seed=4)
    data = tmp_path / "data.sparse"
    write_sparse(data, matrix, generic_dictionary(8), y)
    args = ["--data", str(data), "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", *args, "--model", kind, "--hp", "n_trees=3",
                         "--hp", "n_rounds=3", "--hp", "epochs=3"]) == 0
        tracer = load_spans().Tracer(rwdetect)
        try:
            tracer.install()
            assert cli.main(["evaluate", *args,
                             "--model-file", str(tmp_path / f"model_{kind}.json")]) == 0
        finally:
            tracer.uninstall()
    _, test_idx = dataset.stratified_split(y, 0, cli.RunConfig().test_fraction)
    assert tracer.counts["classifiers.predict_calls"] == 1
    assert tracer.counts["classifiers.rows_predicted"] == len(test_idx)
    assert not any(name.startswith("classifiers.predict.") for name in tracer.uncounted)
