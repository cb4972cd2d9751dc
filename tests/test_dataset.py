import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
    LabelVector,
    SplitSpec,
    generic_dictionary,
    load_dense_csv,
    load_dictionary,
    load_sparse,
    stratified_split,
    synthesize_dataset,
    take_rows,
    write_dense_csv,
    write_sparse,
)
from rwdetect.errors import DataFormatError, SplitError

from conftest import matrix_from_dense, mutated_lines


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


NAMES4 = "API:a,DROP:b,REG:c,STR:d"


class TestFeatureDictionary:
    def test_lookup_bijective(self):
        d = FeatureDictionary(("API:x", "STR:y"))
        assert d.ordinal("API:x") == 0
        assert d.ordinal("STR:y") == 1
        assert len(d) == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            FeatureDictionary(("API:x", "API:x"))

    def test_bad_prefix_rejected(self):
        with pytest.raises(DataFormatError, match="category prefix"):
            FeatureDictionary(("NOPE:x",))

    def test_missing_colon_rejected(self):
        with pytest.raises(DataFormatError):
            FeatureDictionary(("API",))

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            FeatureDictionary(())

    def test_lookup_splits_known_and_unknown_in_input_order(self):
        d = FeatureDictionary(("API:x", "STR:y", "DIR:z"))
        assert d.lookup(["DIR:z", "API:nope", "API:x", "STR:zz"]) == \
            ([2, 0], ["API:nope", "STR:zz"])


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
        assert y.labels == (0, 1, 0)

    def test_direct_encoding(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, "sample_id,family_id," + NAMES4, "s1,0,1,0,1,0")
        m, _, y = load_dense_csv(p)
        assert m.sample_ids.tolist() == ["s1"]
        assert m.family_ids.tolist() == [0]
        assert m.row_ordinals()[0].tolist() == [0, 2]
        assert y.labels == (0,)

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
        assert m.row_ordinals()[0].tolist() == [0, 1]
        assert y.labels == (1,)

    def test_empty_feature_list(self, tmp_path):
        p = tmp_path / "d.sparse"
        write_lines(p, "#FEATURES 1", "API:x", "#SAMPLES 1", "s1\t0\t")
        m, _, _ = load_sparse(p)
        assert m.row_ordinals()[0].tolist() == []

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
        write_lines(
            p, "#FEATURES 2", "API:x", "STR:y", "#SAMPLES 1", "s1\t0\tSTR:y API:x STR:y"
        )
        m, _, _ = load_sparse(p)
        assert m.row_ordinals()[0].tolist() == [0, 1]

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_bytes(b"#FEATURES 1\nAPI:\xff\n#SAMPLES 0\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_sparse(p)


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
])


@settings(max_examples=100, deadline=None)
@given(mutated_lines(VALID_SPARSE, FRAGMENTS))
def test_mutated_sparse_file_raises_only_data_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.sparse"
        p.write_bytes(data)
        try:
            m, d, y = load_sparse(p)
        except DataFormatError:
            return
    assert m.n_features == len(d) and len(y) == m.n_samples


class TestDataMatrix:
    @pytest.mark.parametrize("rows, families, ids, message", [
        ([(1, 0)], [0], ["a"], "'a': active ordinals not strictly sorted"),
        ([(0,), (2, 2)], [0, 0], ["a", "b"], "'b': active ordinals not strictly sorted"),
        ([(), (0, 3)], [0, 0], ["a", "b"], "'b': ordinal 3 outside"),
        ([(-1,)], [0], ["a"], "ordinal -1 outside"),
        ([()], [12], ["a"], "family_id 12 outside"),
        ([(), ()], [0, 0], ["a", "a"], "duplicate sample id 'a'"),
    ])
    def test_invariants_rejected(self, rows, families, ids, message):
        with pytest.raises(DataFormatError, match=message):
            DataMatrix.from_rows(3, rows, families, ids)

    def test_take_rows_matches_dense_gather(self):
        rng = np.random.default_rng(8)
        dense = (rng.random((9, 7)) < 0.4).astype(np.uint8)
        m = matrix_from_dense(dense, family_ids=rng.integers(0, 12, size=9))
        order = [4, 0, 8, 3]
        sub = take_rows(m, order)
        assert np.array_equal(sub.to_dense(), dense[order])
        assert sub.family_ids.tolist() == m.family_ids[order].tolist()
        assert sub.sample_ids.tolist() == [f"s{i}" for i in order]
        assert take_rows(m, []).n_samples == 0


class TestCrossFormat:
    def test_dense_and_sparse_agree_on_random_matrix(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = (rng.random((10, 20)) < 0.3).astype(np.uint8)
        fam = rng.integers(0, 12, size=10)
        m = matrix_from_dense(dense, family_ids=fam)
        d = generic_dictionary(20)

        dense_path = tmp_path / "m.csv"
        sparse_path = tmp_path / "m.sparse"
        write_dense_csv(dense_path, m, d)
        write_sparse(sparse_path, m, d)

        m1, d1, y1 = load_dense_csv(dense_path)
        m2, d2, y2 = load_sparse(sparse_path)
        assert m1 == m2
        assert d1 == d2
        assert y1 == y2

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_round_trip_identity(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        m = matrix_from_dense((rng.random((6, 9)) < 0.4).astype(np.uint8))
        d = generic_dictionary(9, category="API")
        write = write_dense_csv if fmt == "dense" else write_sparse
        load = load_dense_csv if fmt == "dense" else load_sparse

        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        write(p1, m, d)
        loaded, d1, _ = load(p1)
        write(p2, loaded, d1)
        again, d2, _ = load(p2)
        assert loaded == again == m
        assert d1 == d2 == d


class TestStratifiedSplit:
    def test_reference_shape_gives_503_test(self):
        # 942 negatives + 582 positives, like the real dataset.
        labels = [0] * 942 + [1] * 582
        m = matrix_from_dense(np.zeros((1524, 1), dtype=np.uint8))
        train, test = stratified_split(m, LabelVector(tuple(labels)), SplitSpec(seed=11))
        assert len(test) == 503 and len(train) == 1021
        test_pos = sum(labels[i] for i in test)
        # class ratio preserved within one sample
        assert abs(test_pos - 582 * 503 / 1524) <= 1

    def test_tiny_symmetric_split(self):
        m, y = matrix_from_dense(np.zeros((4, 1), dtype=np.uint8), labels=[0, 0, 1, 1])
        train, test = stratified_split(m, y, SplitSpec(seed=0, test_fraction=0.5))
        assert sum(y.labels[i] for i in test) == 1
        assert sum(y.labels[i] for i in train) == 1

    def test_deterministic_per_seed(self):
        labels = [0] * 30 + [1] * 20
        m = matrix_from_dense(np.zeros((50, 1), dtype=np.uint8))
        y = LabelVector(tuple(labels))
        a = stratified_split(m, y, SplitSpec(seed=5, test_fraction=0.3))
        b = stratified_split(m, y, SplitSpec(seed=5, test_fraction=0.3))
        assert a == b
        c = stratified_split(m, y, SplitSpec(seed=6, test_fraction=0.3))
        assert a != c

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_disjoint_exhaustive(self, seed):
        labels = [0] * 13 + [1] * 9
        m = matrix_from_dense(np.zeros((22, 1), dtype=np.uint8))
        train, test = stratified_split(
            m, LabelVector(tuple(labels)), SplitSpec(seed=seed, test_fraction=0.3)
        )
        assert sorted(train + test) == list(range(22))

    def test_single_class_stratified_fails(self):
        m, y = matrix_from_dense(np.zeros((4, 1), dtype=np.uint8), labels=[1, 1, 1, 1])
        with pytest.raises(SplitError, match="both classes"):
            stratified_split(m, y, SplitSpec(test_fraction=0.5))

    def test_degenerate_fraction_fails(self):
        m, y = matrix_from_dense(np.zeros((4, 1), dtype=np.uint8), labels=[0, 0, 1, 1])
        with pytest.raises(SplitError):
            stratified_split(m, y, SplitSpec(test_fraction=0.01))


class TestSynthesize:
    def test_perfect_signal_separates(self):
        m, y = synthesize_dataset(100, 5, 0.2, [(2, 0.0, 1.0)], seed=4)
        dense = m.to_dense()
        assert np.array_equal(dense[:, 2], y.to_array())

    def test_same_seed_identical(self):
        a = synthesize_dataset(50, 8, 0.3, [(0, 0.1, 0.9)], seed=9)
        b = synthesize_dataset(50, 8, 0.3, [(0, 0.1, 0.9)], seed=9)
        assert a == b

    def test_label_rule_total(self):
        m, y = synthesize_dataset(40, 3, 0.5, [], seed=2)
        for family_id, label in zip(m.family_ids, y.labels):
            assert label == (family_id != 0)

    def test_out_of_range_signal_ordinal(self):
        with pytest.raises(ValueError, match="out of range"):
            synthesize_dataset(10, 3, 0.1, [(3, 0.0, 1.0)], seed=0)


class TestLoadDictionary:
    """The dictionary-only reader agrees with the full loaders."""

    LOADERS = {"sparse": load_sparse, "dense": load_dense_csv}

    def test_names_and_hash_match_full_loader(self, tmp_path):
        rng = np.random.default_rng(11)
        m = matrix_from_dense((rng.random((6, 9)) < 0.4).astype(np.uint8))
        d = generic_dictionary(9, category="REG")
        for fmt, write in (("sparse", write_sparse), ("dense", write_dense_csv)):
            p = tmp_path / f"m.{fmt}"
            write(p, m, d)
            _, full, _ = self.LOADERS[fmt](p)
            only = load_dictionary(p, fmt)
            assert only.names == full.names == d.names
            assert only.sha256() == full.sha256()

    @pytest.mark.parametrize("fmt, content, message", [
        ("sparse", b"#FEATURES x\nAPI:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"#FEATURES -1\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"API:a\n#SAMPLES 0\n", "'#FEATURES <count>' header"),
        ("sparse", b"#FEATURES 3\nAPI:a\nSTR:b\n", "dictionary section truncated"),
        ("sparse", b"#FEATURES 2\nAPI:a\nNOPE:b\n#SAMPLES 0\n", "category prefix"),
        ("sparse", b"#FEATURES 2\nAPI:a\nAPI:a\n#SAMPLES 0\n", "duplicate feature name"),
        ("sparse", b"#FEATURES 1\nAPI:\xff\n#SAMPLES 0\n", "UTF-8"),
        ("sparse", b"#FEATURES 0\n#SAMPLES 0\n", "empty"),
        ("dense", b"id,family,API:a\ns1,0,1\n", "header must start"),
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
            self.LOADERS[fmt](p)
        with pytest.raises(DataFormatError, match=message):
            load_dictionary(p, fmt)

    @pytest.mark.parametrize("fmt, content", [
        ("sparse", b"#FEATURES 1\nAPI:a\n#SAMPLES 3\ns1\tx\tAPI:zz\n\xff\xfe\n"),
        ("dense", b"sample_id,family_id,API:a\ns1,0,7\ns1,99\n"),
    ])
    def test_sample_section_is_not_read(self, tmp_path, fmt, content):
        p = tmp_path / "d.data"
        p.write_bytes(content)
        with pytest.raises(DataFormatError):
            self.LOADERS[fmt](p)
        assert load_dictionary(p, fmt).names == ("API:a",)
