"""Golden outputs: every command's files, echoes and stdout, pinned by sha256.

A fixed 240 x 60 synthetic dataset, written both sparse and dense, and an
NDJSON batch built from its rows (one line malformed, one token unknown)
go through ``cli.main``: ``mi-scores``, ``train`` for all six kinds,
``evaluate`` and ``score`` with each model, and ``reproduce --seeds 0,1``.
Each format runs in a working directory of its own and every command
writes to its own ``--out``, so the echoes hold relative paths only and
none overwrites another. The sparse run is pinned; the dense run must
write the same bytes, save the ``data=`` line of the echoes. As for
``PINNED_SHA256`` in test_serialization.py, the fits count in integers or
sum only on an exact grid, so the outputs hold on every BLAS kernel.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rwdetect import cli
from rwdetect.classifiers import MODEL_KINDS
from rwdetect.dataset import CATEGORY_CODES, FeatureDictionary
from rwdetect.reports import CATEGORY_FIELDS

from fixtures import row_ordinals, synthesize_dataset, write_dense_csv, write_sparse

N, D = 240, 60
SIGNAL = [(0, 0.1, 0.7), (5, 0.6, 0.2), (11, 0.3, 0.5), (23, 0.2, 0.35)]
DATA_FILE = {"sparse": "data.sparse", "dense": "data.csv"}
INPUTS = set(DATA_FILE.values()) | {"batch.ndjson"}


def write_inputs(root: Path) -> None:
    """Both dataset files and ``batch.ndjson`` (every sixth row as a report)."""
    matrix, y = synthesize_dataset(N, D, 0.25, SIGNAL, seed=77)
    names = tuple(f"{CATEGORY_CODES[j % 7]}:g{j:03d}" for j in range(D))
    dictionary = FeatureDictionary(names)
    write_sparse(root / DATA_FILE["sparse"], matrix, dictionary, y)
    write_dense_csv(root / DATA_FILE["dense"], matrix, dictionary, y)
    field_of = {prefix: name for name, prefix in CATEGORY_FIELDS.items()}
    lines = []
    for row in row_ordinals(matrix)[::6]:
        doc = {}
        for j in row.tolist():
            prefix, token = names[j].split(":", 1)
            doc.setdefault(field_of[prefix], []).append(token)
        lines.append(json.dumps(doc, sort_keys=True))
    lines[3] = json.dumps({**json.loads(lines[3]), "dir_ops": ["never-seen"]}, sort_keys=True)
    lines.insert(5, '{"api_calls": [')
    (root / "batch.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")


def command_lines(fmt: str):
    data, seed = ["--data", DATA_FILE[fmt]], ["--seed", "3"]
    fit = ["--top-k", "20", *seed, "--hp", "n_trees=25", "--hp", "n_rounds=25"]
    yield ["mi-scores", *data, "--out", "mi-scores"]
    for kind in MODEL_KINDS:
        yield ["train", *data, *fit, "--model", kind, "--out", f"train-{kind}"]
    for kind in MODEL_KINDS:
        model = ["--model-file", f"train-{kind}/model_{kind}.json"]
        yield ["evaluate", *data, *seed, *model, "--out", f"evaluate-{kind}"]
        yield ["score", *data, *model, "--out", f"score-{kind}", "batch.ndjson"]
    yield ["reproduce", *data, *fit, "--seeds", "0,1", "--out", "reproduce"]


def run_all(root: Path, fmt: str, monkeypatch) -> dict:
    """Relative path -> bytes of every file the commands wrote in ``root``,
    plus ``<out>/stdout`` of each command and ``<out>/stderr`` where it is
    not empty."""
    monkeypatch.chdir(root)
    produced = {}
    for argv in command_lines(fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == cli.EXIT_OK, err.getvalue()
        out_dir = argv[argv.index("--out") + 1]
        produced[f"{out_dir}/stdout"] = out.getvalue().encode("utf-8")
        if err.getvalue():
            produced[f"{out_dir}/stderr"] = err.getvalue().encode("utf-8")
    for path in root.rglob("*"):
        name = path.relative_to(root).as_posix()
        if path.is_file() and name not in INPUTS:
            produced[name] = path.read_bytes()
    return produced


GOLDEN_SHA256 = {
    "evaluate-dt/evaluate.config": "0a10507c95aba07e149aa943a44b1ad89e5581735ca205d95acd0c61f4dccadc",
    "evaluate-dt/evaluation.csv": "e3c5b358973c9fbe135dd0458fa553b463fa0766a63b70324fa76495fd3eeeb8",
    "evaluate-dt/stdout": "235d27d2a89a564b36eeceb4e3a2cb4242a5c5a1aa88ffc5642ef4d059fd7bdb",
    "evaluate-gbt/evaluate.config": "8f0d90a43287b4f4324d173a4a64e49b4ca9f085889da14c05ef9f2568f47914",
    "evaluate-gbt/evaluation.csv": "e24f094183d0de34c31c3d7dd8da68945ff6acf82388a2ed32d1949b33dd8b52",
    "evaluate-gbt/stdout": "47c5f14a273b01efb0e8a725e8867a546a2ca2a01dac81ff59e80038af7a6329",
    "evaluate-knn/evaluate.config": "d842793f1c5c04f47fbe77c2b5a1789664c478f9ce02e72fc2f9ebc1cd5a5677",
    "evaluate-knn/evaluation.csv": "9659d9b7ee54c351722840a185ffc3c98d65a5fafeba18b8f8d52ee7f1faea7a",
    "evaluate-knn/stdout": "7ec89eb2be27c06600fb73f4616af16572270a9120d340783bdb64ddb14b7807",
    "evaluate-logreg/evaluate.config": "810260b6c8a19b5dce5790548efb173bdaa225de091a0a99ab49384b06c18770",
    "evaluate-logreg/evaluation.csv": "16ff9819e6004e2be9d9c705532ad08d15df3220a5861e755fda24750b9233d3",
    "evaluate-logreg/stdout": "c44d5cb6335c7c775036bd1c093abf318a2cd14a0b6dc3224fa1b12752aad5be",
    "evaluate-rf/evaluate.config": "dbc62ca84ef273d9ceefa2754d5c4e39438d9826c24aade1c1679547fcf199d2",
    "evaluate-rf/evaluation.csv": "b123a179d052cbdb9248cc5ed52c2480c3c804c58abd8e15e000b45fcf238cb6",
    "evaluate-rf/stdout": "bd8e46e68a500fa68bdeb1a8381e72ccfbeef49e0923e9263e5ff8965188f019",
    "evaluate-svm/evaluate.config": "aa3bd6ea9a30e192da6ef45382176137bb9a9490235c0a2f822434ea7265e3b7",
    "evaluate-svm/evaluation.csv": "c787d267814f8cf4ef7fefb98bf4c1851f8b381a04191ea64a1cf3257ce1b0f7",
    "evaluate-svm/stdout": "33e836398c25418327757416b66939af7acaabbf6b153cdf3cb221c5f2710ce5",
    "mi-scores/mi-scores.config": "11a32fe81a4112921e22300142b37f38283138b6569b773d64364b34c6ab104b",
    "mi-scores/mi_scores.csv": "13c5db73471188ee66af22e0da0056b9010462bd04831d1e5af43db9bfe44543",
    "mi-scores/stdout": "57f107791b72d72c2b81ccd554d889f819a9a5b8184543b882e21699e3c2e91f",
    "reproduce/reproduce.config": "c35b557f5f3e8628eb9d6914a5451a5289b6e2dac6d5c8d2739fd43dfd9815fd",
    "reproduce/reproduce.csv": "92f439a6221a8fb2d2c8593a84ca04c68daffd53de2194d78d1ea6957e191c90",
    "reproduce/stdout": "da79e6490bb140405abefddb7328e88073f57be14cfb30919ab7e9355865280d",
    "score-dt/score.config": "615672a7beda9e58e602b8d175aca26766da586a7802770f7f3d47b69e1d63ad",
    "score-dt/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-dt/stdout": "862ec89f0fb5fe6181026d5749e6edf524171284ba3b48f248f0835e7f7d5a5a",
    "score-dt/verdicts.csv": "c190f5cea4012a0892a32e89180a1a1cb14b274594132fce4f8b117177ebedf0",
    "score-gbt/score.config": "f43c852164b2676fdfb1d638a6f6b9bb95a917d5892bb98007ba254b2f5f21e7",
    "score-gbt/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-gbt/stdout": "e234fc93d80a9e0c6925f7188cb01d5b0cba33344c19eb43de5c9e5a89ba94c0",
    "score-gbt/verdicts.csv": "e769065efaf49406dfbc97e52710c4a3c4adbe4f79eda31036afbefa52486104",
    "score-knn/score.config": "00a3023c2fde523f3f5886e81d186a459d8670598f1f8159a27e7852d4206adb",
    "score-knn/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-knn/stdout": "874f57a039ccb1ebbe81eb5dc73ae698694f4474f3f17429ab309f800842a5ef",
    "score-knn/verdicts.csv": "74324014dbf48f96233dc8669fc31cc2846572509e159f87c3673a063e3b0749",
    "score-logreg/score.config": "92a4faad154a3939654dc7be75abb4851c0a40e83d458c23baf91559d3f209e1",
    "score-logreg/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-logreg/stdout": "89686c0dd8ab3c97c91a7e29ca2ce7da8aca65aca2feb6a90d22bd65084a74a5",
    "score-logreg/verdicts.csv": "0c6802ca6d8c4697dd2e3d476fa41776a326d9b1471e8b3efa734b86592d300c",
    "score-rf/score.config": "1136c88ea73feb308bc0740ace51a146f1e2dbb6e01f707bd42554e0e5594e2b",
    "score-rf/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-rf/stdout": "e234fc93d80a9e0c6925f7188cb01d5b0cba33344c19eb43de5c9e5a89ba94c0",
    "score-rf/verdicts.csv": "99f0f0dbf6558d0e289d815e36ad8fad129c91f8a323bd9d29d79a9c584efec7",
    "score-svm/score.config": "6735c797058e44eca288a6c1a1af10be123b70f00838cc3bf13cfa0ec907a5a7",
    "score-svm/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-svm/stdout": "89686c0dd8ab3c97c91a7e29ca2ce7da8aca65aca2feb6a90d22bd65084a74a5",
    "score-svm/verdicts.csv": "7f7de638b44a9fccb582f51013cd07a6bce41246632fee55656385d21a345d2f",
    "train-dt/model_dt.json": "107ed9719146a3e186cf4285b00eb24b246cf2bcaff1f10c923df1ab9020a407",
    "train-dt/stdout": "11746272c20bbdac192bdb73c81c30e54641b86b4f051c987215015b05f3d30a",
    "train-dt/train.config": "d48ae7fc1239964ce4f8bc1374e7f523087b989bcce9ada90845e9406829eef9",
    "train-gbt/model_gbt.json": "76ad8dc4ce58c39166c008ef3846f9d138d551ed2de22e07bbc5ce63c4720c45",
    "train-gbt/stdout": "134d6dc75d312ee15d8e0d43237fb3eafe54b89a9606b98c26844075b4589460",
    "train-gbt/train.config": "fa78db75e73507a355da1f922ddde85464700e41ad829894e266ef34a06eae84",
    "train-knn/model_knn.json": "e3ec0f5b53dc0cf4f2a745b3300bd356b565f45daf61838033d83c1f47bddf14",
    "train-knn/stdout": "5b0895f63c0acfadb148e59944aefafd526403454615adb690d16b47eaf150fa",
    "train-knn/train.config": "1bb592eb6942b07966bc76cb3a02b9efaa749551cbd5ba8c23e00e5cf63b45e4",
    "train-logreg/model_logreg.json": "5be77af9ef9cf8d0fafdb38f6c99c2d3c69220b69e2e285c7b76a14c4f331f98",
    "train-logreg/stdout": "5fba314c845f3300567d558cf43d0219e7c480ab004aee89acd981d42d87d631",
    "train-logreg/train.config": "945ac2fa68b595638c0844eacc3264b62d61522c749158b9cd006b98a72df842",
    "train-rf/model_rf.json": "de167c0eebd9d9764e0e0ac49420ddd10a92d120ba642e9c4e3092fd98aaf1c8",
    "train-rf/stdout": "a3445acb1dcbd47fac79f71c7346576574bf56bb7606e270b5c357b9f1694b76",
    "train-rf/train.config": "ea789c3793440e3ac4608d5d207f01c32bf5dbfcac14df1f22bfcd681871bf04",
    "train-svm/model_svm.json": "6dc6758c82b64d0c049b2037dc463d5a946a0a4865860198935af83d3af78da5",
    "train-svm/stdout": "40f7705eb0ee79a615aef39b723ea25a1e6b3613324013c551c55b01b95acfed",
    "train-svm/train.config": "911c82648912a60f26c76fefac4387c38389f535d13f5a9fa12d05fa1e5552ce",
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    runs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for fmt in DATA_FILE:
            work = root / fmt
            work.mkdir()
            for name in INPUTS:
                (work / name).symlink_to(root / name)
            runs[fmt] = run_all(work, fmt, monkeypatch)
    return runs


def test_sparse_outputs_match_golden_hashes(golden_runs):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in sorted(golden_runs["sparse"].items())}
    assert digests == GOLDEN_SHA256


def test_dense_input_writes_the_same_bytes(golden_runs):
    sparse, dense = golden_runs["sparse"], golden_runs["dense"]
    assert sorted(dense) == sorted(sparse)
    for name, data in sparse.items():
        if name.endswith(".config"):
            data = data.replace(b"data=data.sparse\n", b"data=data.csv\n")
        assert dense[name] == data, name
