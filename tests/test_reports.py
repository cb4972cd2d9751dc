import json

import numpy as np
import pytest

from rwdetect.classifiers import FITTERS, Fingerprint, KnnParams
from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
    LabelVector,
)
from rwdetect.errors import DataFormatError, FingerprintMismatch
from rwdetect.reports import (
    BehaviorReport,
    parse_report,
    score_report,
    score_reports,
    vectorize,
)
from rwdetect.selection import SelectionResult, project


@pytest.fixture
def dictionary():
    return FeatureDictionary((
        "API:CreateFileW", "API:RegOpenKeyExA", "DROP:exe", "REG:HKCU\\Run",
        "FILES:write", "FILES_EXT:docx", "DIR:enum", "STR:bitcoin",
        "STR:decrypt", "API:NtTerminateProcess",
    ))


class TestParseReport:
    def test_all_empty(self):
        report = parse_report("{}")
        assert report == BehaviorReport()

    def test_single_field(self):
        report = parse_report('{"api_calls": ["CreateFileW"]}')
        assert report.api_calls == ("CreateFileW",)
        assert report.strings == ()

    def test_malformed_json(self):
        with pytest.raises(DataFormatError, match="malformed"):
            parse_report("{nope")

    def test_wrong_type(self):
        with pytest.raises(DataFormatError, match="array of strings"):
            parse_report('{"api_calls": "CreateFileW"}')

    def test_non_object_document(self):
        with pytest.raises(DataFormatError, match="object"):
            parse_report("[1,2]")

    @pytest.mark.parametrize("doc", [
        b'{"api_calls": ["\xff"]}',  # not UTF-8
        "[" * 100_000,  # nested too deeply for the JSON decoder
        '{"x": ' + "1" * 5000 + "}",  # integer beyond the digit limit
    ])
    def test_undecodable_document(self, doc):
        with pytest.raises(DataFormatError, match="malformed"):
            parse_report(doc)

    def test_bytes_and_text_agree(self):
        text = '{"strings": ["caf\u00e9"], "api_calls": ["CreateFileW"]}'
        assert parse_report(text.encode("utf-8")) == parse_report(text)


class TestVectorize:
    def test_empty_report(self, dictionary):
        outcome = vectorize(BehaviorReport(), dictionary)
        assert outcome.row == () and outcome.matched == 0

    def test_known_and_unknown_tokens(self, dictionary):
        report = BehaviorReport(
            api_calls=("CreateFileW", "TotallyNew"),
            strings=("bitcoin",),
            dropped_exts=("exe", "xyz"),
        )
        outcome = vectorize(report, dictionary)
        assert outcome.matched == 3
        assert outcome.unmatched == 2
        assert outcome.row == (0, 2, 7)
        assert set(outcome.unmatched_samples) == {"API:TotallyNew", "DROP:xyz"}

    def test_duplicates_are_idempotent(self, dictionary):
        once = vectorize(BehaviorReport(api_calls=("CreateFileW",)), dictionary)
        many = vectorize(BehaviorReport(api_calls=("CreateFileW",) * 5), dictionary)
        assert once == many

    def test_fixture_round_trip(self, dictionary):
        # a report built from 10 known tokens matches all 10
        report = BehaviorReport(
            api_calls=("CreateFileW", "RegOpenKeyExA", "NtTerminateProcess"),
            dropped_exts=("exe",),
            registry_ops=("HKCU\\Run",),
            file_ops=("write",),
            file_ext_ops=("docx",),
            dir_ops=("enum",),
            strings=("bitcoin", "decrypt"),
        )
        outcome = vectorize(report, dictionary)
        assert outcome.matched == 10 and outcome.unmatched == 0
        assert outcome.row == tuple(range(10))

    def test_unmatched_tokens_do_not_alter_row(self, dictionary):
        base = BehaviorReport(strings=("bitcoin",))
        noisy = BehaviorReport(strings=("bitcoin", "zz1", "zz2"))
        assert vectorize(base, dictionary).row == vectorize(noisy, dictionary).row


def train_knn_fixture(dictionary):
    # training matrix whose first row is a ransomware sample
    matrix = DataMatrix.from_rows(
        10,
        [(0, 2, 7), (1, 4), (5, 6), (0, 3, 8)],
        family_ids=[2, 0, 0, 5],
        sample_ids=["r1", "g1", "g2", "r2"],
    )
    y = LabelVector.from_families(matrix.family_ids)
    selection = SelectionResult(selected=tuple(range(10)))
    fingerprint = Fingerprint(10, dictionary.sha256(), selection.selected)
    model = FITTERS["knn"](
        project(matrix, selection.selected), y, KnnParams(k_neighbors=1), fingerprint
    )
    return model, selection, matrix, y


class TestScoreReport:
    def test_training_sample_reproduced_as_report(self, dictionary):
        model, selection, _, _ = train_knn_fixture(dictionary)
        report = BehaviorReport(
            api_calls=("CreateFileW",), dropped_exts=("exe",), strings=("bitcoin",)
        )
        pred, outcome = score_report(report, model, dictionary, selection)
        assert pred.label == 1
        assert outcome.matched == 3

    def test_empty_report_through_zero_logreg(self, dictionary):
        matrix = DataMatrix.from_rows(10, [(), ()], [0, 1], ["a", "b"])
        y = LabelVector((0, 1))
        selection = SelectionResult(selected=tuple(range(10)))
        fingerprint = Fingerprint(10, dictionary.sha256(), selection.selected)
        model = FITTERS["logreg"](matrix, y, fingerprint=fingerprint)
        pred, _ = score_report(BehaviorReport(), model, dictionary, selection)
        assert pred.score == pytest.approx(0.5, abs=1e-9)

    def test_fingerprint_mismatch_on_wrong_selection(self, dictionary):
        model, _, _, _ = train_knn_fixture(dictionary)
        wrong = SelectionResult(selected=(0, 1, 2))
        with pytest.raises(FingerprintMismatch):
            score_report(BehaviorReport(), model, dictionary, wrong)

    def test_fingerprint_mismatch_on_wrong_dictionary(self, dictionary):
        model, selection, _, _ = train_knn_fixture(dictionary)
        other = FeatureDictionary(tuple(f"API:x{i}" for i in range(10)))
        with pytest.raises(FingerprintMismatch, match="dictionary"):
            score_report(BehaviorReport(), model, other, selection)

    def test_composition_law_on_random_fixtures(self, dictionary):
        # score_report must equal predict(project(vectorize(...))) exactly
        model, selection, _, _ = train_knn_fixture(dictionary)
        rng = np.random.default_rng(70)
        names = dictionary.names
        for _ in range(20):
            chosen = [names[j] for j in rng.choice(10, size=4, replace=False)]
            report = BehaviorReport(
                api_calls=tuple(c.split(":", 1)[1] for c in chosen if c.startswith("API:")),
                strings=tuple(c.split(":", 1)[1] for c in chosen if c.startswith("STR:")),
            )
            pred, outcome = score_report(report, model, dictionary, selection)

            one_row = DataMatrix.from_rows(10, [outcome.row])
            assert pred == model.predict(project(one_row, selection.selected))[0]


    def test_batch_equals_one_report_at_a_time(self, dictionary):
        model, selection, _, _ = train_knn_fixture(dictionary)
        rng = np.random.default_rng(71)
        names = dictionary.names
        batch = []
        for _ in range(12):
            chosen = [names[j] for j in rng.choice(10, size=rng.integers(0, 6), replace=False)]
            batch.append(BehaviorReport(
                api_calls=tuple(c[4:] for c in chosen if c.startswith("API:")) + ("Unknown",),
                strings=tuple(c[4:] for c in chosen if c.startswith("STR:")),
                dropped_exts=tuple(c[5:] for c in chosen if c.startswith("DROP:")),
            ))
        assert score_reports(batch, model, dictionary, selection) == \
            [score_report(report, model, dictionary, selection) for report in batch]

    def test_empty_batch(self, dictionary):
        model, selection, _, _ = train_knn_fixture(dictionary)
        assert score_reports([], model, dictionary, selection) == []


def test_report_json_round_trip(dictionary):
    doc = {"api_calls": ["CreateFileW"], "strings": ["bitcoin", "decrypt"]}
    report = parse_report(json.dumps(doc))
    outcome = vectorize(report, dictionary)
    assert outcome.matched == 3
