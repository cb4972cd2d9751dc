"""Golden outputs: every command's files, echoes and stdout, pinned by sha256.

A fixed 240 x 60 synthetic dataset, written both sparse and dense, and an
NDJSON batch built from its rows (one line malformed, one token unknown)
go through ``cli.main``: ``mi-scores``, ``train`` for all six kinds,
``evaluate`` and ``score`` with each model, and ``reproduce --seeds 0,1``.
Each format runs in a working directory of its own and every command
writes to its own ``--out``, so the echoes hold relative paths only and
none overwrites another. The sparse run is pinned; the dense run must
write the same bytes, save the ``data=`` line of the echoes. Like ``PINNED_SHA256`` in test_serialization.py, the float-valued
outputs were recorded with numpy's OpenBLAS on x86-64.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rwdetect import cli
from rwdetect.classifiers import MODEL_KINDS
from rwdetect.dataset import (
    CATEGORY_CODES,
    FeatureDictionary,
    synthesize_dataset,
    write_dense_csv,
    write_sparse,
)
from rwdetect.reports import CATEGORY_FIELDS

N, D = 240, 60
SIGNAL = [(0, 0.1, 0.7), (5, 0.6, 0.2), (11, 0.3, 0.5), (23, 0.2, 0.35)]
DATA_FILE = {"sparse": "data.sparse", "dense": "data.csv"}
INPUTS = set(DATA_FILE.values()) | {"batch.ndjson"}


def write_inputs(root: Path) -> None:
    """Both dataset files and ``batch.ndjson`` (every sixth row as a report)."""
    matrix, _ = synthesize_dataset(N, D, 0.25, SIGNAL, seed=77)
    names = tuple(f"{CATEGORY_CODES[j % 7]}:g{j:03d}" for j in range(D))
    dictionary = FeatureDictionary(names)
    write_sparse(root / DATA_FILE["sparse"], matrix, dictionary)
    write_dense_csv(root / DATA_FILE["dense"], matrix, dictionary)
    field_of = {prefix: name for name, prefix in CATEGORY_FIELDS.items()}
    lines = []
    for row in matrix.row_ordinals()[::6]:
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
    "evaluate-svm/evaluation.csv": "fbe056f78a8da2acdee92f4ea0bf46d963b50c886e1924651d6d33e8dddc14c1",
    "evaluate-svm/stdout": "17a62b80bb1d7bc36e749d5a76a8d8c27cb1036b010f5ad97b9e4fb467d8f8c4",
    "mi-scores/mi-scores.config": "11a32fe81a4112921e22300142b37f38283138b6569b773d64364b34c6ab104b",
    "mi-scores/mi_scores.csv": "13c5db73471188ee66af22e0da0056b9010462bd04831d1e5af43db9bfe44543",
    "mi-scores/stdout": "57f107791b72d72c2b81ccd554d889f819a9a5b8184543b882e21699e3c2e91f",
    "reproduce/reproduce.config": "c35b557f5f3e8628eb9d6914a5451a5289b6e2dac6d5c8d2739fd43dfd9815fd",
    "reproduce/reproduce.csv": "b671cb8b0b69dfa6f4634932ded3b5965e5f15aa9a67697ab74f90dcc2f57eb3",
    "reproduce/stdout": "9dc243ddc55eeb1fd5184ea1cfa8508bdd6ab22383b8e51fb3d05bcba14b4256",
    "score-dt/score.config": "615672a7beda9e58e602b8d175aca26766da586a7802770f7f3d47b69e1d63ad",
    "score-dt/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-dt/stdout": "af8882c16bf971a3267d8c2c7bdfc5c03a75c5c987c7ed0d0b161e500b584e48",
    "score-dt/verdicts.csv": "c190f5cea4012a0892a32e89180a1a1cb14b274594132fce4f8b117177ebedf0",
    "score-gbt/score.config": "f43c852164b2676fdfb1d638a6f6b9bb95a917d5892bb98007ba254b2f5f21e7",
    "score-gbt/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-gbt/stdout": "7b8ed863878bb76c912ff5e3c8ccf79656941552f5f8b6aec3e1493000ea2f6c",
    "score-gbt/verdicts.csv": "3df7830c55120444a86875d1a9ccc13ea1c31148b546dae07dbbfec288204df3",
    "score-knn/score.config": "00a3023c2fde523f3f5886e81d186a459d8670598f1f8159a27e7852d4206adb",
    "score-knn/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-knn/stdout": "e9e2a5e8ef20889c0d21a897e840ac2977821ce10172ee39d51952bad05c8cd1",
    "score-knn/verdicts.csv": "74324014dbf48f96233dc8669fc31cc2846572509e159f87c3673a063e3b0749",
    "score-logreg/score.config": "92a4faad154a3939654dc7be75abb4851c0a40e83d458c23baf91559d3f209e1",
    "score-logreg/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-logreg/stdout": "17ce0ee5e2df1c4ec3851bd4ffba39f32e6dabadd40e95bc4f54732a36e1c08f",
    "score-logreg/verdicts.csv": "0c6802ca6d8c4697dd2e3d476fa41776a326d9b1471e8b3efa734b86592d300c",
    "score-rf/score.config": "1136c88ea73feb308bc0740ace51a146f1e2dbb6e01f707bd42554e0e5594e2b",
    "score-rf/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-rf/stdout": "5ee2399491c12a8456c1b12f181803674bdf40d867856d0d1f49ee8304f72ef2",
    "score-rf/verdicts.csv": "99f0f0dbf6558d0e289d815e36ad8fad129c91f8a323bd9d29d79a9c584efec7",
    "score-svm/score.config": "6735c797058e44eca288a6c1a1af10be123b70f00838cc3bf13cfa0ec907a5a7",
    "score-svm/stderr": "03335e68ff7b505d9297e0a0401ba74b65bf593e7466f4b3c9d7ada8d49b17f9",
    "score-svm/stdout": "afab93464c9694c180bb738355aba2a6bf96b673e4849e94f4364d1c6771724e",
    "score-svm/verdicts.csv": "d61410c076f62c5f9f05e8daa8d117dbc3193801f57912f19ab8f9ce91a67532",
    "train-dt/model_dt.json": "107ed9719146a3e186cf4285b00eb24b246cf2bcaff1f10c923df1ab9020a407",
    "train-dt/stdout": "11746272c20bbdac192bdb73c81c30e54641b86b4f051c987215015b05f3d30a",
    "train-dt/train.config": "d48ae7fc1239964ce4f8bc1374e7f523087b989bcce9ada90845e9406829eef9",
    "train-gbt/model_gbt.json": "708da3fb53ce06276e5c14205648df2a08b045e4d90940f58caafda92e541462",
    "train-gbt/stdout": "ddf848630cd0b1d1eacf078b6ad06263d321451b2d4cfd147e622129de7edbc8",
    "train-gbt/train.config": "fa78db75e73507a355da1f922ddde85464700e41ad829894e266ef34a06eae84",
    "train-knn/model_knn.json": "e3ec0f5b53dc0cf4f2a745b3300bd356b565f45daf61838033d83c1f47bddf14",
    "train-knn/stdout": "5b0895f63c0acfadb148e59944aefafd526403454615adb690d16b47eaf150fa",
    "train-knn/train.config": "1bb592eb6942b07966bc76cb3a02b9efaa749551cbd5ba8c23e00e5cf63b45e4",
    "train-logreg/model_logreg.json": "430db9428d3045c194655a75a5933961cb94c069ac8da0cf3649e913e3dc18f5",
    "train-logreg/stdout": "8ebed50c44a2c10356f28e1149ea6c7fe3cf661b84dcd5ffefb5390212f9a43d",
    "train-logreg/train.config": "945ac2fa68b595638c0844eacc3264b62d61522c749158b9cd006b98a72df842",
    "train-rf/model_rf.json": "de167c0eebd9d9764e0e0ac49420ddd10a92d120ba642e9c4e3092fd98aaf1c8",
    "train-rf/stdout": "a3445acb1dcbd47fac79f71c7346576574bf56bb7606e270b5c357b9f1694b76",
    "train-rf/train.config": "ea789c3793440e3ac4608d5d207f01c32bf5dbfcac14df1f22bfcd681871bf04",
    "train-svm/model_svm.json": "a5e68ee937ed8816d8f87463dd2b88f420dc0dd882d0c433c8b10d72bbd9d6d7",
    "train-svm/stdout": "733bee40a5c9ce761c04829433b5192204fe047ae1725ca1b5b2b6f3674a6ea7",
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
