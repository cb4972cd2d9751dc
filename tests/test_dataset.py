import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwdetect import cli, dataset
from rwdetect.classifiers import (
    KnnParams,
    deserialize_model,
    fit_knn,
    serialize_model,
)
from rwdetect.dataset import (
    CATEGORY_CODES,
    DataMatrix,
    FeatureDictionary,
    file_format,
    load_dense_csv,
    load_dictionary,
    load_sparse,
    stratified_split,
    take_rows,
)
from rwdetect.errors import DataFormatError, ModelFormatError, SplitError

from conftest import matrix_from_dense, mutated_lines
from fixtures import (
    every_column,
    generic_dictionary,
    list_stratified_split,
    matrices_equal,
    row_ordinals,
    synthesize_dataset,
    to_dense,
    write_dense_csv,
    write_sparse,
)


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


NAMES4 = "API:a,DROP:b,REG:c,STR:d"


LOADERS = {"sparse": load_sparse, "dense": load_dense_csv}


def write_dictionary(path, fmt, names):
    """A dataset file of ``fmt`` holding ``names`` and no sample."""
    if fmt == "sparse":
        write_lines(path, f"#FEATURES {len(names)}", *names, "#SAMPLES 0")
    else:
        write_lines(path, ",".join(map(dataset.csv_field, ("sample_id", "family_id", *names))))


class TestFeatureDictionary:
    def test_lookup_bijective(self):
        d = FeatureDictionary(("API:x", "STR:y"))
        assert d.names.index("API:x") == 0
        assert d.names.index("STR:y") == 1
        assert len(d) == 2

    # The dictionary rules are checked by the loaders, where names are read;
    # of several defects the first in file order is named.
    @pytest.mark.parametrize("fmt", LOADERS)
    @pytest.mark.parametrize("names, message", [
        (("API:x", "API:x"), "duplicate feature name 'API:x'"),
        (("NOPE:x",), "feature name 'NOPE:x' lacks a valid category prefix"),
        (("API",), "feature name 'API' lacks a valid category prefix"),
        (("STR:y", "API:x", "STR:y", "NOPE:z"), "duplicate feature name 'STR:y'"),
        (("STR:y", "NOPE:z", "STR:y"), "feature name 'NOPE:z' lacks a valid category prefix"),
        (("STR:y", "STR:y", "API:a\nb"), "duplicate feature name 'STR:y'"),
        ((), "feature dictionary is empty"),
    ])
    def test_rules_checked_by_every_loader(self, tmp_path, fmt, names, message):
        p = tmp_path / "d.data"
        write_dictionary(p, fmt, names)
        for reader in (LOADERS[fmt], dataset.load, load_dictionary):
            with pytest.raises(DataFormatError) as raised:
                reader(p)
            assert str(raised.value) == f"{p}: {message}"

    def test_name_with_a_line_break_is_rejected(self, tmp_path):
        # A sparse file holds one name a line; a quoted dense header cell may hold "\n",
        # and sha256, which joins the names with "\n", would not tell it from two names.
        p = tmp_path / "d.csv"
        write_lines(p, 'sample_id,family_id,"API:a\nAPI:b",STR:c,REG:d', "s0,0,1,0,0",
                    "s1,1,0,1,1")
        for reader in (load_dense_csv, dataset.load, load_dictionary):
            with pytest.raises(DataFormatError) as raised:
                reader(p)
            assert str(raised.value) == f"{p}: feature name 'API:a\\nAPI:b' holds a line break"

    def test_unknown_names_are_those_not_held(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_dictionary(p, "sparse", ("API:x", "STR:y", "DIR:z"))
        d = load_dictionary(p)
        assert d.unknown({"DIR:z", "API:nope", "API:x", "STR:zz", "x"}) == \
            {"API:nope", "STR:zz", "x"}
        assert d.unknown(set()) == set()

    @pytest.mark.parametrize("fmt", LOADERS)
    @pytest.mark.parametrize("loader", ["load", "format", "load_dictionary"])
    def test_loaded_dictionary_holds_its_names_only(self, tmp_path, fmt, loader):
        # No name -> ordinal dict outlives a load; only score's dictionary,
        # from load_dictionary, holds its names as a set too.
        p = tmp_path / "d.data"
        names = tuple(f"{code}:n{j}" for j, code in enumerate(CATEGORY_CODES))
        write_dictionary(p, fmt, names)
        d = {"load": lambda: dataset.load(p)[1], "format": lambda: LOADERS[fmt](p)[1],
             "load_dictionary": lambda: load_dictionary(p)}[loader]()
        held = vars(d)
        assert set(held) <= {"names", "members", "_sha256"}
        assert not any(isinstance(value, dict) for value in held.values())
        assert d.names == names
        if loader == "load_dictionary":
            assert type(d.members) is frozenset and d.members == set(names)
        else:
            assert d.members is None


def reference_index(names):
    """The per-name dictionary check that ``name_table`` replaces."""
    if not names:
        raise DataFormatError("feature dictionary is empty")
    index = {}
    for j, name in enumerate(names):
        prefix = name.split(":", 1)[0]
        if prefix not in CATEGORY_CODES or ":" not in name:
            raise DataFormatError(f"feature name {name!r} lacks a valid category prefix")
        if "\n" in name:
            raise DataFormatError(f"feature name {name!r} holds a line break")
        if name in index:
            raise DataFormatError(f"duplicate feature name {name!r}")
        index[name] = j
    return index


def reference_sha256(names):
    """The per-name streaming hash that ``FeatureDictionary.sha256`` replaces."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


VALID_NAMES = st.builds("{}:{}".format, st.sampled_from(CATEGORY_CODES), st.text(max_size=5))
BAD_NAMES = st.text(max_size=8) | st.sampled_from([
    "API", "STR", "", ":x", "api:x", "FILES_EXTRA:x", "FILES_EX:y", "DIRS:z", "\u00c9TR:x",
    " API:x", "API:a\nAPI:b", "STR:\n", "\nSTR:x",
])


@st.composite
def name_lists(draw):
    """Distinct valid names with up to three defects inserted: a bad name
    or a repeat of an earlier name."""
    names = draw(st.lists(VALID_NAMES, max_size=25, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(names)))
        if names and draw(st.booleans()):
            names.insert(at, draw(st.sampled_from(names)))
        else:
            names.insert(at, draw(BAD_NAMES))
    return tuple(names)


@settings(max_examples=300, deadline=None)
@given(name_lists(), st.integers(1, 4))
def test_name_table_matches_per_name_reference(names, block):
    try:
        expected = reference_index(names)
    except DataFormatError as exc:
        for ordinals in (False, True):
            with pytest.raises(DataFormatError) as raised:
                dataset.name_table(names, ordinals, dense=True)
            assert str(raised.value) == str(exc)
        return
    assert dataset.name_table(names, ordinals=True, dense=True) == expected
    assert dataset.name_table(names, dense=True) == frozenset(expected)
    with mock.patch.object(dataset, "BLOCK_LINES", block):
        assert FeatureDictionary(names).sha256() == reference_sha256(names)
    assert FeatureDictionary(names).sha256() == reference_sha256(names)


class TestDenseLoader:
    def test_all_zero_matrix(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(
            p,
            "sample_id,family_id," + NAMES4,
            "s1,0,0,0,0,0",
            "s2,3,0,0,0,0",
            "s3,0,0,0,0,0",
        )
        m, d, y = load_dense_csv(p)
        assert m.n_samples == 3 and m.n_features == 4
        assert m.indptr.tolist() == [0, 0, 0, 0]
        assert y.tolist() == [0, 1, 0]

    def test_no_sample_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "sample_id,family_id," + NAMES4)
        m, _, y = load_dense_csv(p)
        assert (m.n_samples, m.indptr.tolist(), m.indices.tolist(), y.tolist()) == \
            (0, [0], [], [])

    def test_direct_encoding(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "sample_id,family_id," + NAMES4, "s1,0,1,0,1,0")
        m, _, y = load_dense_csv(p)
        assert m.indptr.tolist() == [0, 2]
        assert row_ordinals(m)[0].tolist() == [0, 2]
        assert y.tolist() == [0]

    def test_non_binary_cell_reports_location(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "sample_id,family_id," + NAMES4, "s1,0,1,2,0,0")
        with pytest.raises(DataFormatError, match="line 2.*DROP:b"):
            load_dense_csv(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "id,family," + NAMES4, "s1,0,0,0,0,0")
        with pytest.raises(DataFormatError, match="header"):
            load_dense_csv(p)

    def test_family_id_out_of_range(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "sample_id,family_id," + NAMES4, "s1,12,0,0,0,0")
        with pytest.raises(DataFormatError, match="family_id"):
            load_dense_csv(p)

    def test_blank_lines_before_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "", "", "sample_id,family_id," + NAMES4, "s1,0,1,0,1,0", "", "s2,3,0,1,0,0")
        m, d, y = load_dense_csv(p)
        assert file_format(p) == "dense"
        assert d.names == tuple(NAMES4.split(","))
        assert [r.tolist() for r in row_ordinals(m)] == [[0, 2], [1]]
        assert y.tolist() == [0, 1]
        assert load_dictionary(p).names == d.names

    @pytest.mark.parametrize("bad_line, message", [
        ("s2,0,1,2,0,0", "line 6: cell for feature 'DROP:b'"),
        ("s2,0,1", "line 6: expected 6 cells, got 3"),
        ("s2,x,0,0,0,0", "line 6: family_id 'x'"),
    ])
    def test_errors_name_the_line_of_the_file(self, tmp_path, bad_line, message):
        # Two blank lines before the header and one inside the body:
        # the bad row is the file's sixth line.
        p = tmp_path / "d.csv"
        write_lines(p, "", "", "sample_id,family_id," + NAMES4, "s1,0,0,0,0,0", "", bad_line)
        with pytest.raises(DataFormatError, match=message):
            load_dense_csv(p)


class TestSparseLoader:
    def test_direct_encoding(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(
            p,
            "#FEATURES 3",
            "API:x",
            "STR:y",
            "REG:z",
            "#SAMPLES 1",
            "s1\t2\tAPI:x STR:y",
        )
        m, _, y = load_sparse(p)
        assert row_ordinals(m)[0].tolist() == [0, 1]
        assert y.tolist() == [1]

    def test_indices_fill_one_buffer_and_are_not_copied(self, tmp_path):
        # 1000 samples of 200 tokens drawn from 300 names.
        rng = np.random.default_rng(9)
        names = [f"API:f{j}" for j in range(300)]
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 300", *names, "#SAMPLES 1000",
                    *(f"s{i}\t0\t" + " ".join(rng.choice(names, 200)) for i in range(1000)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m, _, _ = load_sparse(p)
            returned, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert m.indices.dtype == np.int32 and not isinstance(m.indices.base, np.ndarray)
        # Per-row arrays joined at the end would be held beside their joined
        # copy, at least the bytes of ``indices`` above what the loader returns.
        assert peak - returned < m.indices.nbytes

    def test_empty_feature_list(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 1", "s1\t0\t")
        m, _, _ = load_sparse(p)
        assert row_ordinals(m)[0].tolist() == []

    def test_unknown_feature_name(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 1", "s1\t0\tAPI:zzz")
        with pytest.raises(DataFormatError, match="unknown feature"):
            load_sparse(p)

    def test_missing_dictionary_section(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#SAMPLES 1", "s1\t0\t")
        with pytest.raises(DataFormatError, match="#FEATURES"):
            load_sparse(p)

    @pytest.mark.parametrize("lines", [
        ("#FEATURES x", "API:x", "#SAMPLES 1", "s1\t0\tAPI:x"),
        ("#FEATURES -1", "#SAMPLES 1", "s1\t0\t"),
        ("#FEATURES 99999999999999999999999", "API:x", "#SAMPLES 0"),
        ("#FEATURES 1", "API:x", "#SAMPLES x", "s1\t0\tAPI:x"),
        ("#FEATURES 1 junk", "API:x", "#SAMPLES 1", "s1\t0\tAPI:x"),
        ("#FEATURES 1", "API:x", "#SAMPLES 1 more", "s1\t0\tAPI:x"),
    ])
    def test_bad_section_count(self, tmp_path, lines):
        p = tmp_path / "d.sparse"
        write_lines(p, *lines)
        with pytest.raises(DataFormatError, match="header"):
            load_sparse(p)

    def test_non_integer_family_id(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 1", "s1\tfoo\tAPI:x")
        with pytest.raises(DataFormatError, match="family_id 'foo'"):
            load_sparse(p)

    def test_duplicate_sample_id(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 2", "s1\t0\tAPI:x", "s1\t1\t")
        with pytest.raises(DataFormatError, match="duplicate sample id 's1'"):
            load_sparse(p)

    def test_repeated_token_is_one_active_column(self, tmp_path):
        p = tmp_path / "d.sparse"
        # The second line holds one token only, so every neighbour pair repeats.
        write_lines(p, "#FEATURES 2", "API:x", "STR:y", "#SAMPLES 2",
                    "s1\t0\tSTR:y API:x STR:y", "s2\t1\tAPI:x API:x")
        m, _, _ = load_sparse(p)
        assert [r.tolist() for r in row_ordinals(m)] == [[0, 1], [0]]

    def test_ordinals_load_as_int32(self, tmp_path):
        # A repeated token and the last ordinal, d - 1: the same rows as ever, held as int32.
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 3", "API:x", "STR:y", "REG:z", "#SAMPLES 2",
                    "s1\t0\tREG:z API:x REG:z", "s2\t1\tSTR:y")
        m, d, _ = load_sparse(p)
        assert m.indices.dtype == np.int32
        assert m.indptr.tolist() == [0, 2, 3] and m.indices.tolist() == [0, 2, 1]
        q = tmp_path / "d.csv"
        write_dense_csv(q, m, d, [0, 1])
        dense = load_dense_csv(q)[0]
        assert dense.indices.dtype == np.int32 and matrices_equal(dense, m)

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 1\nAPI:\xff\n#SAMPLES 0\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_sparse(p)

    def test_surplus_sample_lines_rejected(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 1",
                    "s1\t0\tAPI:x", "s2\t1\t", "s3\t0\tAPI:x")
        with pytest.raises(DataFormatError, match="more sample lines than '#SAMPLES 1'"):
            load_sparse(p)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 1\nAPI:x\n#SAMPLES 1\ns1\t0\tAPI:x\n\n\n")
        m, _, _ = load_sparse(p)
        assert m.n_samples == 1

    def test_invalid_utf8_after_the_samples(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 1\nAPI:x\n#SAMPLES 1\ns1\t0\tAPI:x\n\n\xff\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_sparse(p)

    def test_repeated_tokens_among_many(self, tmp_path):
        d = generic_dictionary(40)
        tokens = [d.names[j] for j in (30, 2, 17, 2, 39, 0, 30, 5)]
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 40", *d.names, "#SAMPLES 2",
                    "s1\t0\t" + " ".join(tokens), "s2\t1\t" + " ".join(tokens[:3]))
        m, _, _ = load_sparse(p)
        assert [r.tolist() for r in row_ordinals(m)] == [[0, 2, 5, 17, 30, 39], [2, 17, 30]]


VALID_SPARSE = (
    b"#FEATURES 4\nAPI:a\nDROP:b\nREG:c\nSTR:d\n#SAMPLES 3\n"
    b"s1\t0\tAPI:a REG:c\ns2\t3\t\ns3\t11\tSTR:d DROP:b API:a\n"
)

# Whole lines and fragments that resemble the format, so mutations reach
# past the header checks.
FRAGMENTS = st.sampled_from([
    b"#FEATURES 2", b"#SAMPLES 1", b"#SAMPLES 9", b"API:a", b"API:a API:a", b"NOPE:x",
    b"s1\t0\tAPI:a", b"s9\t12\t", b"s9\t-1\tSTR:d", b"s9\tx\t", b"\t", b" ", b"\n",
    b"\r", b"\xff", b"\xed\xa0\x80", b"99999999999999999999999", b"",
    b"s4\t0\tSTR:d",
])


@settings(max_examples=100, deadline=None)
@given(mutated_lines(VALID_SPARSE, FRAGMENTS))
def test_mutated_sparse_file_raises_only_data_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.sparse"
        p.write_bytes(data)
        try:
            m, d, y = load_sparse(p)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{p}: ")
            return
    assert m.n_features == len(d) and len(y) == m.n_samples
    # Every non-blank line is a header, a name or a sample: none was dropped.
    assert sum(1 for line in data.split(b"\n") if line) == 2 + len(d) + m.n_samples


VALID_DENSE = b"sample_id,family_id,API:a,DROP:b,REG:c,STR:d\ns1,0,1,0,1,0\ns2,3,0,0,0,0\n" \
              b"s3,11,1,1,0,1\n"

DENSE_FRAGMENTS = st.sampled_from([
    b"sample_id,family_id,API:a", b"sample_id,family_id", b"s1,0,1,0,1,0", b"s4,0,0,0,0,1",
    b"s9,12,0,0,0,0", b"s9,-1,0,0,0,1", b"s9,x,0,0,0,0", b"s4,0,1,2,0,0", b"s4,0,1,0",
    b"s4,0,0,0,0,1,1", b"NOPE:x", b"API:a", b",", b",,", b'"', b'"s5",0,0,0,0,0', b"\t", b" ",
    b"\r", b"\xff", b"\xed\xa0\x80", b"",
])


@settings(max_examples=100, deadline=None)
@given(mutated_lines(VALID_DENSE, DENSE_FRAGMENTS))
def test_mutated_dense_file_raises_only_data_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_bytes(data)
        try:
            m, d, y = load_dense_csv(p)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{p}: ")
            return
    assert m.n_features == len(d) and len(y) == m.n_samples


class TestDataMatrix:
    @pytest.mark.parametrize("rows, message", [
        ([(1, 0)], "row 0: active ordinals not strictly sorted"),
        ([(0,), (2, 2)], "row 1: active ordinals not strictly sorted"),
        ([(), (0, 3)], "row 1: ordinal 3 outside"),
        ([(-1,)], "row 0: ordinal -1 outside"),
    ])
    def test_invariants_rejected(self, rows, message):
        # The loaders build every matrix row sorted and in range; the only
        # rows read as they are stored are a knn model file's, checked there.
        model = fit_knn(np.zeros((1, 3), dtype=np.uint8), np.zeros(1, dtype=np.int64),
                        KnnParams(k_neighbors=1))
        doc = json.loads(serialize_model(model, every_column(3)))
        doc["payload"].update(rows=[list(row) for row in rows], labels=[0] * len(rows))
        with pytest.raises(ModelFormatError, match=message):
            deserialize_model(json.dumps(doc).encode())

    def test_take_rows_matches_dense_gather(self):
        rng = np.random.default_rng(8)
        dense = (rng.random((9, 7)) < 0.4).astype(np.uint8)
        dense[5] = 0
        m = matrix_from_dense(dense)
        # A repeated row, as a bootstrap draws, and an all-zero row.
        for order in ([4, 0, 8, 3], [2, 7, 2, 2, 0], [5], [1, 5, 5, 6]):
            sub = take_rows(m, order)
            assert np.array_equal(to_dense(sub), dense[order])
        assert take_rows(m, []).n_samples == 0


# Samples (id, family ID) of which one breaks a sample rule, and the
# message's sample (sparse), line (dense) and problem. Of several repeated
# IDs the first repeat in file order is named.
SAMPLE_RULE_DEFECTS = {
    "family 12": ([("s1", 0), ("s2", 12)], "sample 's2'", "line 3",
                  "family_id 12 outside [0, 11]"),
    "family -1": ([("s1", -1)], "sample 's1'", "line 2", "family_id -1 outside [0, 11]"),
    "repeated id": ([("s1", 0), ("s2", 1), ("s1", 3)], "sample 's1'", "line 4",
                    "duplicate sample id 's1'"),
    "first repeat": ([("s2", 0), ("s1", 1), ("s2", 0), ("s1", 0)], "sample 's2'", "line 4",
                     "duplicate sample id 's2'"),
}


class TestSampleRules:
    """The loaders check the family ID and sample ID rules as each sample is read."""

    @pytest.mark.parametrize("fmt", ["sparse", "dense"])
    @pytest.mark.parametrize("defect", SAMPLE_RULE_DEFECTS)
    def test_broken_rule_names_the_file(self, tmp_path, capsys, defect, fmt):
        samples, sample, line, problem = SAMPLE_RULE_DEFECTS[defect]
        p = tmp_path / f"d.{fmt}"
        if fmt == "sparse":
            write_lines(p, "#FEATURES 1", "API:a", f"#SAMPLES {len(samples)}",
                        *(f"{sid}\t{family}\tAPI:a" for sid, family in samples))
        else:
            write_lines(p, "sample_id,family_id,API:a",
                        *(f"{sid},{family},1" for sid, family in samples))
        where = sample if fmt == "sparse" else line
        with pytest.raises(DataFormatError) as raised:
            dataset.load(p)
        assert str(raised.value) == f"{p}: {where}: {problem}"
        capsys.readouterr()
        assert cli.main(["mi-scores", "--data", str(p), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {p}: {where}: {problem}\n"


class TestCrossFormat:
    def test_dense_and_sparse_agree_on_random_matrix(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = (rng.random((10, 20)) < 0.3).astype(np.uint8)
        fam = rng.integers(0, 12, size=10)
        m = matrix_from_dense(dense)
        d = generic_dictionary(20)

        dense_path = tmp_path / "m.csv"
        sparse_path = tmp_path / "m.sparse"
        write_dense_csv(dense_path, m, d, fam)
        write_sparse(sparse_path, m, d, fam)

        m1, d1, y1 = load_dense_csv(dense_path)
        m2, d2, y2 = load_sparse(sparse_path)
        assert matrices_equal(m1, m2)
        assert d1 == d2
        assert np.array_equal(y1, y2) and np.array_equal(y1, fam != 0)

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_round_trip_identity(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        m = matrix_from_dense((rng.random((6, 9)) < 0.4).astype(np.uint8))
        d = generic_dictionary(9, category="API")
        write = write_dense_csv if fmt == "dense" else write_sparse
        load = load_dense_csv if fmt == "dense" else load_sparse

        labels = rng.integers(0, 2, size=6)
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        write(p1, m, d, labels)
        loaded, d1, y1 = load(p1)
        write(p2, loaded, d1, y1)
        again, d2, y2 = load(p2)
        assert matrices_equal(loaded, again) and matrices_equal(again, m)
        assert y1.tolist() == y2.tolist() == labels.tolist()
        assert d1 == d2 == d


class TestStratifiedSplit:
    def test_reference_shape_gives_503_test(self):
        # 942 negatives + 582 positives, like the real dataset.
        labels = [0] * 942 + [1] * 582
        train, test = stratified_split(np.array(labels), 11, cli.RunConfig().test_fraction)
        assert len(test) == 503 and len(train) == 1021
        test_pos = sum(labels[i] for i in test)
        # class ratio preserved within one sample
        assert abs(test_pos - 582 * 503 / 1524) <= 1

    def test_tiny_symmetric_split(self):
        y = np.array([0, 0, 1, 1])
        train, test = stratified_split(y, 0, 0.5)
        assert sum(y[i] for i in test) == 1
        assert sum(y[i] for i in train) == 1

    def test_deterministic_per_seed(self):
        y = np.array([0] * 30 + [1] * 20)
        a = stratified_split(y, 5, 0.3)
        b = stratified_split(y, 5, 0.3)
        assert a == b
        c = stratified_split(y, 6, 0.3)
        assert a != c

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_disjoint_exhaustive(self, seed):
        labels = [0] * 13 + [1] * 9
        train, test = stratified_split(np.array(labels), seed, 0.3)
        assert sorted(train + test) == list(range(22))

    def test_single_class_stratified_fails(self):
        for y in ([1, 1, 1, 1], [0], []):  # fewer than 2 samples never hold both
            with pytest.raises(SplitError, match="both classes"):
                stratified_split(np.array(y, dtype=np.int64), 0, 0.5)

    def test_degenerate_fraction_fails(self):
        y = np.array([0, 0, 1, 1])
        for fraction in (0.01, 0.0, 1.0, -0.5, 1.5):
            with pytest.raises(SplitError):
                stratified_split(y, 0, fraction)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=4, max_size=400), st.integers(0, 2**32 - 1),
           st.floats(-0.5, 1.5))
    @example([1, 1, 1, 1], 0, 0.5)  # one class
    @example([0, 0, 1, 1, 1], 0, 0.2)  # no test row for class 0
    def test_mask_matches_list_reference(self, labels, seed, fraction):
        y = np.array(labels, dtype=np.int64)
        try:
            expected = list_stratified_split(y, seed, fraction)
        except SplitError as exc:
            with pytest.raises(SplitError) as raised:
                stratified_split(y, seed, fraction)
            assert str(raised.value) == str(exc)
            return
        train, test = stratified_split(y, seed, fraction)
        assert (train, test) == expected
        assert all(type(i) is int for i in train + test)


class TestSynthesize:
    def test_perfect_signal_separates(self):
        m, y = synthesize_dataset(100, 5, 0.2, [(2, 0.0, 1.0)], seed=4)
        dense = to_dense(m)
        assert np.array_equal(dense[:, 2], y)

    def test_same_seed_identical(self):
        a = synthesize_dataset(50, 8, 0.3, [(0, 0.1, 0.9)], seed=9)
        b = synthesize_dataset(50, 8, 0.3, [(0, 0.1, 0.9)], seed=9)
        assert matrices_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_label_rule_total(self, tmp_path):
        # Written with any ransomware family in 1..11, each sample loads with its label.
        m, y = synthesize_dataset(40, 3, 0.5, [], seed=2)
        families = y * np.random.default_rng(2).integers(1, 12, size=40)
        p = tmp_path / "d.sparse"
        write_sparse(p, m, generic_dictionary(3), families)
        assert np.array_equal(load_sparse(p)[2], y)

    def test_out_of_range_signal_ordinal(self):
        with pytest.raises(ValueError, match="out of range"):
            synthesize_dataset(10, 3, 0.1, [(3, 0.0, 1.0)], seed=0)


class TestLoadDictionary:
    """The dictionary-only reader agrees with the full loaders."""

    def test_names_and_hash_match_full_loader(self, tmp_path):
        rng = np.random.default_rng(11)
        m = matrix_from_dense((rng.random((6, 9)) < 0.4).astype(np.uint8))
        d = generic_dictionary(9, category="REG")
        for fmt, write in (("sparse", write_sparse), ("dense", write_dense_csv)):
            p = tmp_path / f"m.{fmt}"
            write(p, m, d, [0] * 6)
            _, full, _ = LOADERS[fmt](p)
            only = load_dictionary(p)
            assert only.names == full.names == d.names
            assert only.sha256() == full.sha256()

    @pytest.mark.parametrize("fmt, content, message", [
        ("sparse", b"#FEATURES x\nAPI:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"#FEATURES -1\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"API:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"#FEATURES 1 junk\nAPI:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        # One column past what int32 ordinals hold.
        ("sparse", b"#FEATURES 2147483649\nAPI:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"#FEATURES 3\nAPI:a\nSTR:b\n", "dictionary section truncated"),
        ("sparse", b"#FEATURES 2\nAPI:a\nNOPE:b\n#SAMPLES 0\n", "category prefix"),
        ("sparse", b"#FEATURES 2\nAPI:a\nAPI:a\n#SAMPLES 0\n", "duplicate feature name"),
        ("sparse", b"#FEATURES 1\nAPI:\xff\n#SAMPLES 0\n", "UTF-8"),
        ("sparse", b"#FEATURES 0\n#SAMPLES 0\n", "empty"),
        ("dense", b"sample_id,family_idx,API:a\ns1,0,1\n", "header must start"),
        ("dense", b"sample_id,family_id,API:a,NOPE:b\n", "category prefix"),
        ("dense", b"sample_id,family_id,API:a,API:a\n", "duplicate feature name"),
        ("dense", b"sample_id,family_id,API:\xff\n", "UTF-8"),
        ("dense", b"sample_id,family_id\n", "empty"),
        ("dense", b"sample_id,family_id,API:a\rs1,0,1\r", "UTF-8 CSV"),  # lines end in LF
    ])
    def test_same_defects_rejected(self, tmp_path, fmt, content, message):
        p = tmp_path / "d.data"
        p.write_bytes(content)
        with pytest.raises(DataFormatError, match=message):
            LOADERS[fmt](p)
        with pytest.raises(DataFormatError, match=message):
            load_dictionary(p)

    @pytest.mark.parametrize("content, names", [
        (b"\n\n#FEATURES 3\n\nAPI:a\n\n\nSTR:b\n\nREG:c\n\n#SAMPLES 0\n",
         ("API:a", "STR:b", "REG:c")),
        (b"#FEATURES 2\nAPI:a\r\nSTR:b\n#SAMPLES 0\n", ("API:a\r", "STR:b")),
    ])
    @pytest.mark.parametrize("block", [1, 2, dataset.BLOCK_LINES])
    def test_sparse_section_layout(self, tmp_path, monkeypatch, content, names, block):
        monkeypatch.setattr(dataset, "BLOCK_LINES", block)
        p = tmp_path / "d.sparse"
        p.write_bytes(content)
        assert load_dictionary(p).names == names
        assert load_sparse(p)[1].names == names

    def test_last_name_without_newline(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 2\nAPI:a\n\nSTR:b")
        assert load_dictionary(p).names == ("API:a", "STR:b")
        with pytest.raises(DataFormatError, match="'#SAMPLES <count>' header"):
            load_sparse(p)

    def test_dictionary_wider_than_a_block(self, tmp_path):
        d = generic_dictionary(2 * dataset.BLOCK_LINES + 5)
        m = DataMatrix.from_rows(len(d), [[0, 8191, 8192, len(d) - 1], []])
        p = tmp_path / "d.sparse"
        write_sparse(p, m, d, [0, 0])
        only = load_dictionary(p)
        full, loaded, _ = load_sparse(p)
        assert only.names == loaded.names == d.names
        assert only.sha256() == reference_sha256(d.names)
        assert matrices_equal(full, m)

    def test_blank_lines_at_block_borders(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK_LINES", 3)
        names = [f"STR:n{j}" for j in range(10)]
        lines = ["#FEATURES 10", *names[:2], "", "", *names[2:5], "", *names[5:], "",
                 "#SAMPLES 1", "s1\t0\tSTR:n9 STR:n3"]
        p = tmp_path / "d.sparse"
        write_lines(p, *lines)
        assert load_dictionary(p).names == tuple(names)
        m, d, _ = load_sparse(p)
        assert d.names == tuple(names) and row_ordinals(m)[0].tolist() == [3, 9]

    def test_undecodable_samples_after_a_multi_block_section(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK_LINES", 2)
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 5\nAPI:a\nAPI:b\nAPI:c\n\nAPI:d\nAPI:e\n"
                      b"#SAMPLES 1\ns1\t0\tAPI:\xff\n")
        assert load_dictionary(p).names == ("API:a", "API:b", "API:c", "API:d", "API:e")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_sparse(p)

    @pytest.mark.parametrize("fmt, content", [
        ("sparse", b"#FEATURES 1\nAPI:a\n#SAMPLES 3\ns1\tx\tAPI:zz\n\xff\xfe\n"),
        ("dense", b"sample_id,family_id,API:a\ns1,0,7\ns1,99\n"),
    ])
    def test_sample_section_is_not_read(self, tmp_path, fmt, content):
        p = tmp_path / "d.data"
        p.write_bytes(content)
        with pytest.raises(DataFormatError):
            LOADERS[fmt](p)
        assert load_dictionary(p).names == ("API:a",)


class TestFileFormat:
    """A file is dense CSV when its first non-blank line starts with
    ``sample_id,family_id``, and sparse otherwise."""

    def test_written_files(self, tmp_path):
        m = matrix_from_dense([[1, 0], [0, 1]])
        d = generic_dictionary(2)
        for fmt, write in (("sparse", write_sparse), ("dense", write_dense_csv)):
            p = tmp_path / f"m.{fmt}"
            write(p, m, d, [0, 1])
            assert file_format(p) == fmt

    @pytest.mark.parametrize("content, fmt", [
        (b"sample_id,family_id,API:a\ns1,0,1\n", "dense"),
        (b"\n\nsample_id,family_id,API:a\n", "dense"),
        (b"sample_id,family_id", "dense"),
        (b"#FEATURES 1\nAPI:a\n#SAMPLES 0\n", "sparse"),
        (b"\n#FEATURES 1\nAPI:a\n", "sparse"),
        (b"id,family,API:a\ns1,0,1\n", "sparse"),
        (b"sample_id,family\nsample_id,family_id,API:a\n", "sparse"),
        (b" sample_id,family_id,API:a\n", "sparse"),
        (b"\xff\xfe\n", "sparse"),
        (b"", "sparse"),
    ])
    def test_first_non_blank_line_decides(self, tmp_path, content, fmt):
        p = tmp_path / "d.data"
        p.write_bytes(content)
        assert file_format(p) == fmt

    def test_sparse_errors_keep_their_message(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_bytes(b"id,family,API:a\ns1,0,1\n")
        with pytest.raises(DataFormatError, match="'#FEATURES <count>' header"):
            load_dictionary(p)
