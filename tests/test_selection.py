import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rwdetect.dataset import LabelVector, generic_dictionary, synthesize_dataset
from rwdetect.selection import (
    ContingencyTable,
    mi_score,
    project,
    score_all,
    select_k_best,
    write_scores_csv,
)

from conftest import matrix_from_dense, random_dense


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

    def test_length_mismatch(self):
        m = matrix_from_dense([[0], [1]])
        with pytest.raises(ValueError, match="length"):
            score_all(m, LabelVector((0,)))


class TestSelectKBest:
    def test_tie_broken_by_ordinal(self):
        result = select_k_best([0.5, 0.1, 0.5], 2)
        assert result.selected == (0, 2)

    def test_k_equal_d_returns_all_sorted(self):
        result = select_k_best([0.1, 0.9, 0.5], 3)
        assert result.selected == (1, 2, 0)

    def test_k1_is_argmax(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        result = select_k_best(scores, 1)
        assert result.selected == (int(np.argmax(scores)),)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_k_best([0.1], 2)
        with pytest.raises(ValueError):
            select_k_best([0.1], 0)

    def test_stable_across_runs(self):
        scores = [0.3, 0.3, 0.7, 0.3]
        assert select_k_best(scores, 3) == select_k_best(scores, 3)


class TestProject:
    def test_identity_selection(self):
        rng = np.random.default_rng(1)
        m = matrix_from_dense(random_dense(rng, 5, 6))
        assert project(m, range(6)) == m

    def test_perfectly_separating_column(self):
        m, y = synthesize_dataset(50, 8, 0.3, [(4, 0.0, 1.0)], seed=5)
        projected = project(m, [4])
        assert np.array_equal(projected.to_dense()[:, 0], y.to_array())

    def test_matches_dense_slicing(self):
        rng = np.random.default_rng(2)
        dense = random_dense(rng, 8, 12)
        m = matrix_from_dense(dense)
        subset = [9, 2, 5]
        projected = project(m, subset)
        assert np.array_equal(projected.to_dense(), dense[:, subset])

    def test_duplicate_ordinal_rejected(self):
        m = matrix_from_dense([[0, 1]])
        with pytest.raises(ValueError, match="duplicate"):
            project(m, [1, 1])

    def test_out_of_range_rejected(self):
        m = matrix_from_dense([[0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            project(m, [2])


def test_scores_csv_sorted_descending(tmp_path):
    d = generic_dictionary(3)
    p = tmp_path / "scores.csv"
    write_scores_csv(p, d, [0.1, 0.9, 0.5])
    lines = p.read_text().splitlines()
    assert lines[0] == "feature_name,mi_score"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "STR:f00001", "STR:f00002", "STR:f00000",
    ]
