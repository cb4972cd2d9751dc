import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwdetect.classifiers import (
    DEFAULT_PARAMS,
    FITTERS,
    MODEL_KINDS,
    Fingerprint,
    KnnParams,
    deserialize_model,
    labels_of,
    serialize_model,
)
from rwdetect.dataset import DataMatrix
from rwdetect.errors import DataFormatError, FingerprintMismatch, ModelFormatError
from rwdetect.reports import (
    CATEGORY_FIELDS,
    parse_report,
    score_documents,
    score_report,
    vectorize,
)
from rwdetect.selection import project

from fixtures import row_ordinals, scoring_dictionary, synthesize_dataset, to_dense
from report_oracle import FIELDS, BadReport, RecordingModel, reference_report

NAMES = (
    "API:CreateFileW", "API:RegOpenKeyExA", "DROP:exe", "REG:HKCU\\Run",
    "FILES:write", "FILES_EXT:docx", "DIR:enum", "STR:bitcoin",
    "STR:decrypt", "API:NtTerminateProcess",
)


# 64 names, each category in turn.
WIDE_NAMES = tuple(f"{prefix}:w{j:02d}"
                   for j, prefix in zip(range(64), itertools.cycle(CATEGORY_FIELDS.values())))


@pytest.fixture
def dictionary():
    return scoring_dictionary(NAMES)


def report(**fields):
    """The JSON text of a report holding ``fields``."""
    return json.dumps(fields)


def score_texts(texts, model, fingerprint, dictionary):
    """``(scores, counts)`` of ``score_documents`` on the report ``texts``, which all parse."""
    _, scores, counts, failures = score_documents(enumerate(texts), model, fingerprint, dictionary)
    assert failures == []
    return scores, counts


def batch_array(texts, dictionary, selected=tuple(range(10))):
    """The 0/1 array ``score_documents`` builds for the reports ``texts`` on
    the ``selected`` ordinals, and each report's outcome."""
    model = RecordingModel()
    _, outcomes = score_texts(texts, model, Fingerprint(dictionary.sha256(), tuple(selected)),
                              dictionary)
    [X] = model.arrays
    return X, outcomes


class TestParseReport:
    def test_all_empty(self):
        assert parse_report("{}") == set()

    def test_single_field(self):
        assert parse_report('{"api_calls": ["CreateFileW"]}') == {"API:CreateFileW"}

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
        text = '{"strings": ["café"], "api_calls": ["CreateFileW"]}'
        assert parse_report(text.encode("utf-8")) == parse_report(text)


class TestVectorize:
    def test_empty_report(self, dictionary):
        assert vectorize(set(), dictionary) == (0, 0)
        X, _ = batch_array(["{}"], dictionary)
        assert X.tolist() == [[0] * 10]

    def test_known_and_unknown_tokens(self, dictionary):
        text = report(api_calls=["CreateFileW", "TotallyNew"], strings=["bitcoin"],
                      dropped_exts=["exe", "xyz"])
        outcome = vectorize(parse_report(text), dictionary)
        assert outcome.matched == 3
        assert outcome.unmatched == 2
        X, _ = batch_array([text], dictionary)
        assert X.tolist() == [reference_report(text, NAMES, range(10))[3]]
        assert np.flatnonzero(X[0]).tolist() == [0, 2, 7]

    def test_duplicates_are_idempotent(self, dictionary):
        once = parse_report(report(api_calls=["CreateFileW"]))
        many = parse_report(report(api_calls=["CreateFileW"] * 5))
        assert once == many
        assert vectorize(once, dictionary) == vectorize(many, dictionary) == (1, 0)

    def test_fixture_round_trip(self, dictionary):
        # a report built from 10 known tokens matches all 10
        text = report(
            api_calls=["CreateFileW", "RegOpenKeyExA", "NtTerminateProcess"],
            dropped_exts=["exe"],
            registry_ops=["HKCU\\Run"],
            file_ops=["write"],
            file_ext_ops=["docx"],
            dir_ops=["enum"],
            strings=["bitcoin", "decrypt"],
        )
        X, [outcome] = batch_array([text], dictionary)
        assert outcome.matched == 10 and outcome.unmatched == 0
        assert X.tolist() == [[1] * 10]

    def test_unmatched_tokens_do_not_alter_row(self, dictionary):
        base = report(strings=["bitcoin"])
        noisy = report(strings=["bitcoin", "zz1", "zz2"])
        X, _ = batch_array([base, noisy], dictionary)
        assert X[0].tolist() == X[1].tolist() == reference_report(base, NAMES, range(10))[3]

    def test_vectorize_counts_and_logs_nothing(self, dictionary, caplog):
        # Whether a report drifts is for ``score`` to say, once per batch.
        ten = {"API:CreateFileW", *(f"STR:zz{i}" for i in range(10))}
        with caplog.at_level(logging.DEBUG, logger="rwdetect"):
            assert vectorize(ten, dictionary) == (1, 10)
            assert vectorize(set(), dictionary) == (0, 0)
        assert caplog.records == []


def train_knn_fixture(dictionary):
    """A knn model and its fingerprint, fit on every column of ``dictionary``
    to a training matrix whose first row is a ransomware sample."""
    matrix = DataMatrix.from_rows(10, [(0, 2, 7), (1, 4), (5, 6), (0, 3, 8)])
    fingerprint = Fingerprint(dictionary.sha256(), tuple(range(10)))
    return FITTERS["knn"](project(matrix, fingerprint.selected), np.array([1, 0, 0, 1]),
                          KnnParams(k_neighbors=1)), fingerprint


def report_of(names):
    """The JSON text of a report holding the dictionary ``names``."""
    field_of = {prefix: field for field, prefix in CATEGORY_FIELDS.items()}
    fields = {}
    for name in names:
        prefix, token = name.split(":", 1)
        fields.setdefault(field_of[prefix], []).append(token)
    return json.dumps(fields)


class TestScoreReport:
    def test_training_sample_reproduced_as_report(self, dictionary):
        model, fingerprint = train_knn_fixture(dictionary)
        text = report(api_calls=["CreateFileW"], dropped_exts=["exe"], strings=["bitcoin"])
        score, outcome = score_report(text, model, fingerprint, dictionary)
        assert labels_of(score) == 1
        assert outcome.matched == 3

    def test_empty_report_through_zero_logreg(self, dictionary):
        X = np.zeros((2, 10), dtype=np.uint8)
        y = np.array([0, 1])
        fingerprint = Fingerprint(dictionary.sha256(), tuple(range(10)))
        model = FITTERS["logreg"](X, y, DEFAULT_PARAMS["logreg"]())
        score, _ = score_report("{}", model, fingerprint, dictionary)
        assert score == pytest.approx(0.5, abs=1e-9)

    def test_malformed_report_raises_its_error(self, dictionary):
        model, fingerprint = train_knn_fixture(dictionary)
        with pytest.raises(DataFormatError, match="array of strings"):
            score_report('{"strings": [1]}', model, fingerprint, dictionary)

    def test_wrong_selection_length_rejected_when_decoded(self, dictionary):
        # A model's selection is its file's: the decoder checks its length.
        doc = json.loads(serialize_model(*train_knn_fixture(dictionary)))
        doc["fingerprint"]["selected"] = [0, 1, 2]
        with pytest.raises(ModelFormatError, match="selects 3 ordinals for 10 features"):
            deserialize_model(json.dumps(doc).encode())

    def test_fingerprint_mismatch_on_wrong_dictionary(self, dictionary):
        model, fingerprint = train_knn_fixture(dictionary)
        other = scoring_dictionary(f"API:x{i}" for i in range(10))
        with pytest.raises(FingerprintMismatch, match="dictionary"):
            score_report("{}", model, fingerprint, other)

    def test_composition_law_on_random_fixtures(self, dictionary):
        # score_report must equal predict of the reference row exactly
        model, fingerprint = train_knn_fixture(dictionary)
        rng = np.random.default_rng(70)
        for _ in range(20):
            chosen = [NAMES[j] for j in rng.choice(10, size=4, replace=False)]
            text = report_of(chosen + ["API:Unknown"])
            score, counts = score_report(text, model, fingerprint, dictionary)

            _, matched, unmatched, row = reference_report(text, NAMES, fingerprint.selected)
            assert counts == (matched, unmatched)
            assert score.tobytes() == model.predict(np.array([row], dtype=np.uint8)).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_batch_equals_one_report_at_a_time(self, kind):
        # 64 selected columns: a float product may sum a row in one order alone and
        # in another within a batch, which rows of a few columns do not show.
        dictionary = scoring_dictionary(WIDE_NAMES)
        matrix, y = synthesize_dataset(120, 64, 0.3, [(0, 0.1, 0.7), (9, 0.6, 0.2)], seed=73)
        fingerprint = Fingerprint(dictionary.sha256(), tuple(range(64)))
        model = FITTERS[kind](to_dense(matrix), y, DEFAULT_PARAMS[kind]())
        rng = np.random.default_rng(71)
        batch = [report_of([name for name in WIDE_NAMES if rng.random() < 0.3] + ["API:Unknown"])
                 for _ in range(200)]
        scores, counts = score_texts(batch, model, fingerprint, dictionary)
        one_at_a_time = [score_report(text, model, fingerprint, dictionary) for text in batch]
        assert scores.tobytes() == np.array([score for score, _ in one_at_a_time]).tobytes()
        assert counts == [outcome for _, outcome in one_at_a_time]

    @pytest.mark.parametrize("kind", ["knn", "logreg", "dt"])
    def test_batch_projected_while_vectorizing(self, dictionary, kind):
        # a selection that reorders and drops columns: the batch built on the
        # selected columns is the projected full-width batch, and predicts as it does
        rng = np.random.default_rng(72)
        full = DataMatrix.from_rows(
            10, [np.flatnonzero(rng.random(10) < 0.5) for _ in range(30)])
        y = rng.integers(0, 2, 30)
        selected = (7, 2, 9, 0, 4)
        fingerprint = Fingerprint(dictionary.sha256(), selected)
        model = FITTERS[kind](project(full, selected), y, DEFAULT_PARAMS[kind]())
        texts = [report_of([NAMES[j] for j in row]) for row in row_ordinals(full)]
        X, _ = batch_array(texts, dictionary, selected)
        assert np.array_equal(X, to_dense(full)[:, list(selected)])
        assert X.tolist() == [reference_report(t, NAMES, selected)[3] for t in texts]
        expected = model.predict(project(full, selected))
        scores, _ = score_texts(texts, model, fingerprint, dictionary)
        assert scores.tobytes() == expected.tobytes()

    def test_duplicate_or_negative_selection_rejected(self, dictionary):
        # score_documents takes its model from a file, whose decoder owns the rule.
        model, _ = train_knn_fixture(dictionary)
        for selected in ((1, 1, 2), (0, -1, 2)):
            blob = serialize_model(model, Fingerprint(dictionary.sha256(), selected))
            with pytest.raises(ModelFormatError, match="distinct"):
                deserialize_model(blob)

    def test_empty_batch(self, dictionary):
        scores, counts = score_texts([], *train_knn_fixture(dictionary), dictionary)
        assert scores.dtype == np.float64 and scores.shape == (0,) and counts == []


def test_report_json_round_trip(dictionary):
    doc = {"api_calls": ["CreateFileW"], "strings": ["bitcoin", "decrypt"]}
    outcome = vectorize(parse_report(json.dumps(doc)), dictionary)
    assert outcome.matched == 3


# A dictionary where "enum" and "exe" are each known under two categories.
TWIN_NAMES = NAMES[:6] + ("DIR:enum", "API:enum", "STR:exe", "STR:bitcoin")
TWIN_DICTIONARY = scoring_dictionary(TWIN_NAMES)
TOKENS = st.sampled_from([
    "CreateFileW", "RegOpenKeyExA", "exe", "HKCU\\Run", "write", "docx", "enum",
    "bitcoin", "nope", "", "API:CreateFileW", "café", "a\"b",
])
NOT_STRINGS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) \
    | st.just([]) | st.just({"k": "v"})


@st.composite
def field_values(draw):
    """Mostly an array of tokens (with repeats); now and then not an array,
    or an array with one value that is not a string."""
    tokens = draw(st.lists(TOKENS, max_size=6))
    defect = draw(st.integers(0, 11))
    if defect == 0:
        return draw(NOT_STRINGS | st.sampled_from(["exe", "[]"]))
    if defect == 1:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(NOT_STRINGS))
    return tokens


@st.composite
def report_texts(draw):
    """A JSON document: now and then not an object, else an object whose
    report fields are missing, empty or filled, in any key order, among
    keys that are not report fields."""
    if draw(st.integers(0, 19)) == 0:
        doc = draw(st.sampled_from([[], [1], "x", 3, None]))
    else:
        keys = draw(st.lists(st.sampled_from([f for f, _ in FIELDS] + ["comment", "id"]),
                             unique=True))
        doc = {key: draw(field_values()) for key in keys}
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    return text.encode("utf-8") if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(text=report_texts(),
       selected=st.permutations(range(10)).flatmap(
           lambda order: st.integers(1, 10).map(lambda k: tuple(order[:k]))))
def test_parse_vectorize_and_columns_match_reference(text, selected):
    try:
        tokens, matched, unmatched, row = reference_report(text, TWIN_NAMES, selected)
    except BadReport as exc:
        # the same message, naming the first bad field in CATEGORY_FIELDS order
        with pytest.raises(DataFormatError) as raised:
            parse_report(text)
        assert str(raised.value) == str(exc)
        return
    parsed = parse_report(text)
    assert parsed == set(tokens) and len(parsed) == len(tokens)
    assert vectorize(parsed, TWIN_DICTIONARY) == (matched, unmatched)
    X, [outcome] = batch_array([text], TWIN_DICTIONARY, selected)
    assert outcome == (matched, unmatched)
    assert X.dtype == np.uint8 and X.tolist() == [row]
