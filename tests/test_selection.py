import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rwdetect import cli, selection
from rwdetect.classifiers import (
    FITTERS,
    Fingerprint,
    LogRegParams,
    deserialize_model,
    serialize_model,
)
from rwdetect.dataset import BLOCK_LINES, DataMatrix, FeatureDictionary, load_sparse
from rwdetect.errors import DataFormatError, FingerprintMismatch, ModelFormatError
from rwdetect.reports import check_fingerprint
from rwdetect.selection import project, rank_features, score_all, select_k_best, write_scores_csv

from conftest import matrix_from_dense, random_dense, xy
from fixtures import (
    ContingencyTable,
    generic_dictionary,
    mi_score,
    row_string_write_scores_csv,
    synthesize_dataset,
    to_dense,
    write_sparse,
)


def dense_mi_oracle(x, y):
    """Independent plug-in MI over a dense binary column, in nats."""
    n = len(y)
    total = 0.0
    for xv in (0, 1):
        for yv in (0, 1):
            pxy = np.sum((x == xv) & (y == yv)) / n
            px = np.sum(x == xv) / n
            py = np.sum(y == yv) / n
            if pxy > 0:
                total += pxy * math.log(pxy / (px * py))
    return total


counts = st.integers(min_value=0, max_value=40)


@st.composite
def tables(draw):
    t = ContingencyTable(draw(counts), draw(counts), draw(counts), draw(counts))
    if t.n == 0:
        t = ContingencyTable(1, 0, 0, 0)
    return t


class TestMiScore:
    def test_perfect_dependence_is_ln2(self):
        assert mi_score(ContingencyTable(2, 0, 0, 2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_independence_is_zero(self):
        assert mi_score(ContingencyTable(1, 1, 1, 1)) == 0.0

    def test_derived_mixed_table(self):
        # n00=2, n01=0, n10=1, n11=3: plug-in sum gives (1/6)ln2 + (1/2)ln(3/2)
        expected = (1 / 6) * math.log(2) + 0.5 * math.log(1.5)
        assert mi_score(ContingencyTable(2, 0, 1, 3)) == pytest.approx(expected, abs=1e-15)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            mi_score(ContingencyTable(0, 0, 0, 0))

    @given(tables())
    def test_non_negative(self, t):
        assert mi_score(t) >= 0.0

    @given(tables())
    def test_symmetry(self, t):
        transposed = ContingencyTable(t.n00, t.n10, t.n01, t.n11)
        assert mi_score(t) == pytest.approx(mi_score(transposed), abs=1e-12)

    @given(tables())
    def test_bounded_by_marginal_entropies(self, t):
        def entropy(a, b):
            n = a + b
            h = 0.0
            for c in (a, b):
                if c > 0:
                    h -= (c / n) * math.log(c / n)
            return h

        hx = entropy(t.n00 + t.n01, t.n10 + t.n11)
        hy = entropy(t.n00 + t.n10, t.n01 + t.n11)
        assert mi_score(t) <= min(hx, hy) + 1e-12

    @given(tables())
    def test_zero_iff_empirically_independent(self, t):
        n = t.n
        nx = (t.n00 + t.n01, t.n10 + t.n11)
        ny = (t.n00 + t.n10, t.n01 + t.n11)
        independent = all(
            nxy * n == nx[x] * ny[y]
            for x, y, nxy in ((0, 0, t.n00), (0, 1, t.n01), (1, 0, t.n10), (1, 1, t.n11))
        )
        score = mi_score(t)
        if independent:
            assert score == pytest.approx(0.0, abs=1e-12)
        else:
            assert score > 0.0


class TestScoreAll:
    def test_constant_column_scores_zero(self):
        m, y = matrix_from_dense(
            [[0, 1], [0, 0], [0, 1], [0, 0]], labels=[0, 1, 0, 1]
        )
        assert score_all(m, y)[0] == 0.0

    def test_column_equal_to_labels_is_ln2(self):
        m, y = matrix_from_dense([[0], [1], [0], [1]], labels=[0, 1, 0, 1])
        assert score_all(m, y)[0] == pytest.approx(math.log(2), abs=1e-15)

    def test_matches_dense_oracle_on_random_matrix(self):
        rng = np.random.default_rng(42)
        dense = random_dense(rng, 10, 50, p=0.4)
        labels = rng.integers(0, 2, size=10)
        m, y = matrix_from_dense(dense, labels=labels)
        scores = score_all(m, y)
        for j in range(50):
            assert scores[j] == pytest.approx(
                dense_mi_oracle(dense[:, j], labels), abs=1e-12
            )

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_change_no_bit(self, monkeypatch, block):
        # The 2x2 tables are scored a block of columns at a time; each column's
        # score is the same elementwise sum, so its bits do not depend on the block.
        rng = np.random.default_rng(43)
        dense = random_dense(rng, 40, 11, p=0.3)
        dense[:, 3] = 0  # a column with empty cells
        labels = rng.integers(0, 2, size=40)
        m, y = matrix_from_dense(dense, labels=labels)
        whole = score_all(m, y)
        monkeypatch.setattr(selection, "BLOCK_LINES", block)
        blocked = score_all(m, y)
        assert blocked.tobytes() == whole.tobytes()
        for j in range(11):
            x = dense[:, j]
            table = ContingencyTable(*(int(np.sum((x == a) & (labels == b)))
                                       for a in (0, 1) for b in (0, 1)))
            assert blocked[j] == pytest.approx(mi_score(table), abs=1e-15)

    def test_memory_is_blocks_not_columns(self):
        # Above its inputs, score_all holds its two per-class counts, the
        # scores and block-sized temporaries: at most 6 arrays of 8 bytes per column.
        d = 150_000
        rng = np.random.default_rng(45)
        m = DataMatrix.from_rows(d, [np.sort(rng.choice(d, 40, replace=False))
                                     for _ in range(200)])
        y = rng.integers(0, 2, size=200)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_all(m, y)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * d

    def test_length_mismatch(self, tmp_path):
        # The rows and labels score_all gets come from one load, and a file
        # whose sample lines are not the count its header gives does not load.
        m, y = synthesize_dataset(6, 3, 0.5, [], seed=4)
        path = tmp_path / "data.sparse"
        write_sparse(path, m, generic_dictionary(3), y)
        text = path.read_text(encoding="utf-8")
        for count, message in ((5, "more sample lines"), (7, "truncated at row 6")):
            path.write_text(text.replace("#SAMPLES 6\n", f"#SAMPLES {count}\n"),
                            encoding="utf-8")
            with pytest.raises(DataFormatError, match=message):
                load_sparse(path)


class TestSelectKBest:
    def test_tie_broken_by_ordinal(self):
        assert select_k_best([0.5, 0.1, 0.5], 2) == (0, 2)

    def test_k_equal_d_returns_all_sorted(self):
        assert select_k_best([0.1, 0.9, 0.5], 3) == (1, 2, 0)

    def test_k1_is_argmax(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        assert select_k_best(scores, 1) == (int(np.argmax(scores)),)

    def test_stable_across_runs(self):
        scores = [0.3, 0.3, 0.7, 0.3]
        assert select_k_best(scores, 3) == select_k_best(scores, 3)

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 1e-300, -1.0, math.nan, math.inf,
                                     -math.inf]) | st.floats(), max_size=300))
    def test_rank_is_the_two_key_sort(self, values):
        # The reference: sort by descending score, then by ascending ordinal.
        scores = np.array(values, dtype=np.float64)
        reference = np.lexsort((np.arange(len(scores)), -scores))
        assert rank_features(values).tolist() == reference.tolist()

    def test_k_out_of_range(self, tmp_path, capsys):
        # The commands ask for min(top_k, d) features, and top_k < 1 is a usage error.
        m, y = synthesize_dataset(40, 6, 0.3, [(0, 0.1, 0.9)], seed=6)
        data = tmp_path / "data.sparse"
        write_sparse(data, m, generic_dictionary(6), y)
        train = ["train", "--data", str(data), "--model", "dt"]
        assert cli.main([*train, "--out", str(tmp_path / "none"), "--top-k", "0"]) \
            == cli.EXIT_USAGE
        assert "top_k must be >= 1, got 0" in capsys.readouterr().err
        out = tmp_path / "all"
        assert cli.main([*train, "--out", str(out), "--top-k", "7"]) == cli.EXIT_OK
        _, fingerprint = deserialize_model((out / "model_dt.json").read_bytes())
        assert sorted(fingerprint.selected) == list(range(6))


class TestProject:
    def test_identity_selection(self):
        rng = np.random.default_rng(1)
        m = matrix_from_dense(random_dense(rng, 5, 6))
        projected = project(m, range(6))
        assert projected.dtype == np.uint8
        assert np.array_equal(projected, to_dense(m))

    def test_perfectly_separating_column(self):
        m, y = synthesize_dataset(50, 8, 0.3, [(4, 0.0, 1.0)], seed=5)
        projected = project(m, [4])
        assert np.array_equal(projected, to_dense(m)[:, [4]])
        assert np.array_equal(projected[:, 0], y)

    def test_matches_dense_slicing(self):
        rng = np.random.default_rng(2)
        dense = random_dense(rng, 8, 12)
        m = matrix_from_dense(dense)
        subset = [9, 2, 5]
        projected = project(m, subset)
        assert np.array_equal(projected, to_dense(m)[:, subset])
        assert np.array_equal(projected, dense[:, subset])

    def test_empty_rows_around_filled_ones(self):
        dense = np.zeros((6, 5), dtype=np.uint8)
        dense[[1, 4]] = [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]]
        m = matrix_from_dense(dense)
        assert np.array_equal(project(m, [4, 2, 0]), to_dense(m)[:, [4, 2, 0]])

    # project's selection is select_k_best's or a model file's; a file's
    # selection is checked where it is read.

    def test_duplicate_ordinal_rejected(self):
        X, y = xy([[0, 1], [1, 0]], [0, 1])
        model = FITTERS["logreg"](X, y, LogRegParams())
        with pytest.raises(ModelFormatError, match="distinct"):
            deserialize_model(serialize_model(model, Fingerprint("ab" * 32, (1, 1))))

    def test_out_of_range_rejected(self):
        dictionary = generic_dictionary(2)
        with pytest.raises(FingerprintMismatch, match="exceed the feature dictionary"):
            check_fingerprint(Fingerprint(dictionary.sha256(), (2,)), dictionary)


def scores_csv_lines(dictionary, scores):
    fh = io.BytesIO()
    write_scores_csv(fh, dictionary, scores, rank_features(scores))
    return fh.getvalue().decode("utf-8").splitlines()


def test_scores_csv_sorted_descending():
    lines = scores_csv_lines(generic_dictionary(3), [0.1, 0.9, 0.5])
    assert lines[0] == "feature_name,mi_score"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "STR:f00001", "STR:f00002", "STR:f00000",
    ]


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 1e-300, 2.0, math.nan, math.inf]),
                min_size=1, max_size=40))
def test_scores_csv_matches_per_row_formatting(values):
    # each run of equal scores is formatted once; the text is that of every row
    d = generic_dictionary(len(values))
    order = np.lexsort((np.arange(len(values)), -np.array(values)))
    expected = ["feature_name,mi_score"] + [f"{d.names[j]},{values[j]:.12g}" for j in order]
    assert scores_csv_lines(d, np.array(values)) == expected


def test_scores_csv_run_longer_than_a_block():
    # the rows of one run are written a block at a time
    d = generic_dictionary(2 * BLOCK_LINES + 5)
    scores = np.zeros(len(d))
    scores[7] = 0.5
    rest = [f"{name},0" for j, name in enumerate(d.names) if j != 7]
    assert scores_csv_lines(d, scores) == ["feature_name,mi_score", f"{d.names[7]},0.5", *rest]


@given(st.lists(st.text(st.sampled_from('ab,"\r'), max_size=6), min_size=1, max_size=30,
                unique=True),
       st.lists(st.sampled_from([0.0, 0.125, 0.5, math.nan]), min_size=30, max_size=30),
       st.sampled_from([1, 2, BLOCK_LINES]))
def test_scores_csv_matches_row_string_writer(names, values, block):
    # Random names, some to quote, with tied scores (runs) in blocks of 1, 2 or the default.
    dictionary = FeatureDictionary(tuple(names))
    scores = np.array(values[:len(names)])
    order = rank_features(scores)
    written, expected = io.BytesIO(), io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "BLOCK_LINES", block)
        write_scores_csv(written, dictionary, scores, order)
    row_string_write_scores_csv(expected, dictionary, scores, order)
    assert written.getvalue() == expected.getvalue()


def test_scores_csv_quotes_names_that_need_it():
    # A name holding a comma, a quote or a line break is quoted; the others stay bare.
    names = ("STR:a,b", 'STR:say "hi"', "FILES:two\nlines", "STR:plain", 'STR:","')
    fh = io.BytesIO()
    scores = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    write_scores_csv(fh, FeatureDictionary(names), scores, rank_features(scores))
    rows = list(csv.reader(io.StringIO(fh.getvalue().decode("utf-8"), newline="")))
    assert rows == [["feature_name", "mi_score"], *([name, f"{v:.12g}"]
                                                    for name, v in zip(names, scores))]
    assert b"\nSTR:plain,0.2\n" in fh.getvalue()
