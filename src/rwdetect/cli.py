"""Command-line pipeline driver.

Subcommands:
    mi-scores   score every feature's MI against the label, dump CSV
    train       split, select top-k features, fit one model, save it
    evaluate    score a saved model on the held-out split
    reproduce   train and evaluate all six models, compare to the
                published baseline numbers with per-cell deltas
    score       batch-score sandbox behavioral reports with a saved model;
                only the feature dictionary of --data is read

Exit codes: 0 success, 1 usage/config error (argument errors included),
2 data error (a model whose fingerprint does not match the dataset's
dictionary included), 3 baseline-tolerance failure (reproduce --strict).

Flag > config file > default; the effective configuration is echoed next
to every output so any run can be repeated bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
from pathlib import Path

from . import classifiers, dataset, evaluation, reports, selection
from .errors import DataFormatError, RwdetectError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOLERANCE = 3

DATA_ENV_VAR = "RWDETECT_DATA"

# Baseline results this pipeline is compared against (accuracy in percent).
REFERENCE_ACCURACY = {
    "dt": 95.63, "rf": 96.02, "knn": 93.64,
    "svm": 96.42, "gbt": 98.21, "logreg": 98.21,
}
REFERENCE_PRECISION = {
    "dt": 0.92, "rf": 0.92, "knn": 0.89, "svm": 0.93, "gbt": 0.96, "logreg": 0.97,
}
REFERENCE_RECALL = {
    "dt": 0.97, "rf": 0.98, "knn": 0.95, "svm": 0.97, "gbt": 0.99, "logreg": 0.98,
}
ACCURACY_TOLERANCE_PP = 2.5
PR_TOLERANCE = 0.04

MODEL_DISPLAY = {
    "dt": "Decision Tree", "rf": "Random Forest", "knn": "KNN",
    "svm": "SVM", "gbt": "XGBoost-style GBT", "logreg": "Logistic Regression",
}


class UsageError(RwdetectError):
    pass


def read_config_file(path) -> dict:
    """Plain key=value config, '#' comments allowed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def boolean(text: str) -> bool:
    """``1/true/yes`` or ``0/false/no``, any case."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return word in ("1", "true", "yes")


def seed(text: str) -> int:
    """A random seed: an integer >= 0, as numpy's generators require."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def parse_value(cast, text: str, what: str):
    """``cast(text)``, or a usage error naming ``what``."""
    try:
        return cast(text)
    except ValueError:
        raise UsageError(f"{what}={text!r} is not a valid {cast.__name__}") from None


@dataclasses.dataclass
class RunConfig:
    data: str | None = None
    format: str = "sparse"
    seed: int = 0
    test_fraction: float = 503 / 1524
    top_k: int = 400
    model: str = "gbt"
    model_file: str | None = None
    out: str = "out"
    strict: bool = False
    hp: dict = dataclasses.field(default_factory=dict)

    def echo(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "hp":
                for k, v in sorted(value.items()):
                    lines.append(f"hp.{k}={v}")
            else:
                lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_name, file_key, cast, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if file_key in file_values:
            return parse_value(cast, file_values[file_key], f"config {file_key}")
        return default

    cfg.data = pick("data", "data", str, os.environ.get(DATA_ENV_VAR))
    cfg.format = pick("format", "format", str, cfg.format)
    cfg.seed = pick("seed", "seed", seed, cfg.seed)
    cfg.test_fraction = pick("test_fraction", "test_fraction", float, cfg.test_fraction)
    cfg.top_k = pick("top_k", "top_k", int, cfg.top_k)
    cfg.model = pick("model", "model", str, cfg.model)
    cfg.model_file = pick("model_file", "model_file", str, None)
    cfg.out = pick("out", "out", str, cfg.out)
    cfg.strict = bool(getattr(args, "strict", False))

    for key, value in file_values.items():
        if key.startswith("hp."):
            cfg.hp[key[3:]] = value
    for item in getattr(args, "hp", None) or []:
        if "=" not in item:
            raise UsageError(f"--hp expects name=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg.hp[key] = value
    # Overrides are shared across kinds: each must belong to at least one.
    known = {f.name for c in classifiers.DEFAULT_PARAMS.values() for f in dataclasses.fields(c)}
    if set(cfg.hp) - known:
        raise UsageError(f"unknown hyperparameter(s) {sorted(set(cfg.hp) - known)}")
    for kind in classifiers.MODEL_KINDS:
        make_params(kind, cfg.hp)  # reject values that do not parse

    if cfg.format not in ("dense", "sparse"):
        raise UsageError(f"unknown format {cfg.format!r}, expected dense or sparse")
    if not 0.0 < cfg.test_fraction < 1.0:
        raise UsageError(f"test_fraction {cfg.test_fraction} not in (0,1)")
    if cfg.top_k < 1:
        raise UsageError(f"top_k must be >= 1, got {cfg.top_k}")
    return cfg


def data_path(cfg: RunConfig) -> str:
    if not cfg.data:
        raise UsageError(
            f"no dataset given: pass --data or set {DATA_ENV_VAR}"
        )
    if not Path(cfg.data).is_file():
        raise UsageError(f"dataset file not found: {cfg.data!r}")
    return cfg.data


def load_dataset(cfg: RunConfig):
    loader = dataset.load_dense_csv if cfg.format == "dense" else dataset.load_sparse
    return loader(data_path(cfg))


def make_params(kind: str, overrides: dict):
    cls = classifiers.DEFAULT_PARAMS[kind]
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, raw in overrides.items():
        if key not in fields:
            continue  # overrides are shared across kinds; ignore foreign keys
        target = str(fields[key].type)
        cast = boolean if "bool" in target else seed if key == "seed" \
            else int if "int" in target else float
        kwargs[key] = parse_value(cast, raw, f"hyperparameter {key}")
    return cls(**kwargs)


def write_output(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``; a path that cannot be written is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from None


def ensure_out(cfg: RunConfig, command: str) -> Path:
    out_dir = Path(cfg.out)
    write_output(out_dir / f"{command}.config", cfg.echo().encode("utf-8"))
    return out_dir


def split_and_select(matrix, dictionary, y, cfg: RunConfig):
    """Projected train and test partitions, their labels and the models' fingerprint."""
    spec = dataset.SplitSpec(seed=cfg.seed, test_fraction=cfg.test_fraction)
    train_idx, test_idx = dataset.stratified_split(matrix, y, spec)
    train_m = dataset.take_rows(matrix, train_idx)
    train_y = dataset.take_labels(y, train_idx)
    test_m = dataset.take_rows(matrix, test_idx)
    test_y = dataset.take_labels(y, test_idx)
    # Selection is fit on the training partition only.
    scores = selection.score_all(train_m, train_y)
    k = min(cfg.top_k, matrix.n_features)
    sel = selection.select_k_best(scores, k)
    fingerprint = classifiers.Fingerprint(k, dictionary.sha256(), sel.selected)
    train_p = selection.project(train_m, sel.selected)
    test_p = selection.project(test_m, sel.selected)
    return train_p, train_y, test_p, test_y, fingerprint


def cmd_mi_scores(args) -> int:
    cfg = build_config(args)
    matrix, dictionary, y = load_dataset(cfg)
    out_dir = ensure_out(cfg, "mi-scores")
    scores = selection.score_all(matrix, y)
    out_path = out_dir / "mi_scores.csv"
    selection.write_scores_csv(out_path, dictionary, scores)
    print(f"wrote {len(scores)} feature scores to {out_path}")
    print("top 20 features by MI (nats):")
    for j in selection.rank_features(scores)[:20].tolist():
        print(f"  {dictionary.names[j]}  {scores[j]:.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(args)
    if cfg.model not in classifiers.MODEL_KINDS:
        raise UsageError(
            f"unknown model {cfg.model!r}, expected one of {classifiers.MODEL_KINDS}"
        )
    matrix, dictionary, y = load_dataset(cfg)
    out_dir = ensure_out(cfg, "train")
    train_p, train_y, _, _, fingerprint = split_and_select(matrix, dictionary, y, cfg)
    params = make_params(cfg.model, cfg.hp)
    model = classifiers.FITTERS[cfg.model](train_p, train_y, params, fingerprint)

    blob = classifiers.serialize_model(model)
    model_path = Path(cfg.model_file or out_dir / f"model_{cfg.model}.json")
    write_output(model_path, blob)

    preds = model.predict(train_p)
    report = evaluation.evaluate_predictions(cfg.model, train_y, [p.label for p in preds])
    print(f"model written to {model_path} ({len(blob)} bytes)")
    print(f"train accuracy: {float(report.accuracy):.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = build_config(args)
    if not cfg.model_file or not Path(cfg.model_file).exists():
        raise UsageError("--model-file must point to an existing model")
    model = classifiers.deserialize_model(Path(cfg.model_file).read_bytes())
    matrix, dictionary, y = load_dataset(cfg)
    reports.check_fingerprint(model.fingerprint, dictionary, model.fingerprint.selected)
    out_dir = ensure_out(cfg, "evaluate")

    spec = dataset.SplitSpec(seed=cfg.seed, test_fraction=cfg.test_fraction)
    _, test_idx = dataset.stratified_split(matrix, y, spec)
    test_m = dataset.take_rows(matrix, test_idx)
    test_y = dataset.take_labels(y, test_idx)
    projected = selection.project(test_m, model.fingerprint.selected)

    preds = model.predict(projected)
    report = evaluation.evaluate_predictions(
        MODEL_DISPLAY.get(model.kind, model.kind), test_y, [p.label for p in preds]
    )
    table = evaluation.compare_models_text([report])
    print(table)
    (out_dir / "evaluation.csv").write_text(
        evaluation.compare_models_csv([report]), encoding="utf-8"
    )
    return EXIT_TOLERANCE if cfg.strict and report.has_undefined() else EXIT_OK


def _reproduce_once(matrix, dictionary, y, cfg: RunConfig, seed: int):
    run_cfg = dataclasses.replace(cfg, seed=seed)
    train_p, train_y, test_p, test_y, fingerprint = split_and_select(
        matrix, dictionary, y, run_cfg
    )
    results = {}
    for kind in classifiers.MODEL_KINDS:
        model = classifiers.FITTERS[kind](train_p, train_y, make_params(kind, cfg.hp), fingerprint)
        preds = model.predict(test_p)
        results[kind] = evaluation.evaluate_predictions(
            MODEL_DISPLAY[kind], test_y, [p.label for p in preds]
        )
    return results


def cmd_reproduce(args) -> int:
    cfg = build_config(args)
    if not cfg.data or not Path(cfg.data).exists():
        print(
            "reproduce needs the 1524-sample behavioral dataset.\n"
            f"Point --data (or {DATA_ENV_VAR}) at it in dense CSV or sparse "
            "format; see README for the file layouts.",
            file=sys.stderr,
        )
        return EXIT_DATA
    seeds = [parse_value(seed, s, "--seeds entry") for s in args.seeds.split(",")] \
        if args.seeds else [cfg.seed]
    matrix, dictionary, y = load_dataset(cfg)
    out_dir = ensure_out(cfg, "reproduce")

    per_seed = [_reproduce_once(matrix, dictionary, y, cfg, s) for s in seeds]

    header = ["model", "acc%", "ref_acc%", "d_acc", "prec", "ref_prec", "d_prec",
              "rec", "ref_rec", "d_rec", "tp", "tn", "fp", "fn"]
    if len(seeds) > 1:
        header += ["acc%_mean", "acc%_std"]
    rows = [header]
    within_tolerance = True
    for kind in classifiers.MODEL_KINDS:
        accs = [float(r[kind].accuracy) * 100 for r in per_seed]
        first = per_seed[0][kind]
        acc = accs[0]
        prec = float(first.precision) if first.precision is not None else float("nan")
        rec = float(first.recall) if first.recall is not None else float("nan")
        d_acc = acc - REFERENCE_ACCURACY[kind]
        d_prec = prec - REFERENCE_PRECISION[kind]
        d_rec = rec - REFERENCE_RECALL[kind]
        if abs(d_acc) > ACCURACY_TOLERANCE_PP or abs(d_prec) > PR_TOLERANCE \
                or abs(d_rec) > PR_TOLERANCE:
            within_tolerance = False
        row = [MODEL_DISPLAY[kind], f"{acc:.2f}", f"{REFERENCE_ACCURACY[kind]:.2f}",
               f"{d_acc:+.2f}", f"{prec:.2f}", f"{REFERENCE_PRECISION[kind]:.2f}",
               f"{d_prec:+.2f}", f"{rec:.2f}", f"{REFERENCE_RECALL[kind]:.2f}",
               f"{d_rec:+.2f}", str(first.cm.tp), str(first.cm.tn),
               str(first.cm.fp), str(first.cm.fn)]
        if len(seeds) > 1:
            mean = statistics.mean(accs)
            std = statistics.stdev(accs) if len(accs) > 1 else 0.0
            row += [f"{mean:.2f}", f"{std:.2f}"]
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    (out_dir / "reproduce.csv").write_text(
        "\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8"
    )
    if cfg.strict and not within_tolerance:
        print("one or more models fell outside the baseline tolerance", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _iter_report_files(path: Path):
    """(report_id, bytes) of every report; each is decoded when it is parsed.

    In a directory only regular files are reports; one that cannot be read
    comes as a ``DataFormatError``, so it is counted as malformed."""
    if path.is_dir():
        for p in sorted(path.glob("*.json")):
            if not p.is_file():
                continue
            try:
                yield p.name, p.read_bytes()
            except OSError as exc:
                yield p.name, DataFormatError(f"cannot read report: {exc.strerror or exc}")
    else:
        # newline-delimited batch stream; a line of ASCII whitespace is blank
        with path.open("rb") as fh:
            for i, line in enumerate(fh):
                if line.strip():
                    yield f"{path.name}:{i + 1}", line


def cmd_score(args) -> int:
    cfg = build_config(args)
    if not cfg.model_file or not Path(cfg.model_file).exists():
        raise UsageError("--model-file must point to an existing model")
    model = classifiers.deserialize_model(Path(cfg.model_file).read_bytes())
    # Token lookup needs the training dictionary only, not its samples.
    dictionary = dataset.load_dictionary(data_path(cfg), cfg.format)
    out_dir = ensure_out(cfg, "score")

    sel = selection.SelectionResult(model.fingerprint.selected)
    reports_path = Path(args.reports)
    if not reports_path.exists():
        raise UsageError(f"reports path not found: {args.reports}")

    verdicts, failures = reports.score_documents(
        _iter_report_files(reports_path), model, dictionary, sel
    )
    for report_id, exc in failures:
        print(f"{report_id}: {exc}", file=sys.stderr)
    lines = ["report_id,label,score,matched,unmatched"]
    lines += [
        f"{report_id},{pred.label},{pred.score:.6f},{outcome.matched},{outcome.unmatched}"
        for report_id, pred, outcome in verdicts
    ]
    (out_dir / "verdicts.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ransomware = sum(pred.label for _, pred, _ in verdicts)
    print("\n".join(lines))
    print(
        f"scored {len(verdicts)} reports: {ransomware} ransomware, "
        f"{len(verdicts) - ransomware} goodware, {len(failures)} malformed"
    )
    return EXIT_OK


class ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ``UsageError`` (exit 1); argparse
    itself would exit 2, which is the data-error code."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="rwdetect",
        description="Behavioral ransomware detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", help=f"dataset path (fallback: ${DATA_ENV_VAR})")
        p.add_argument("--format", choices=("dense", "sparse"))
        p.add_argument("--seed", type=seed)
        p.add_argument("--test-fraction", dest="test_fraction", type=float)
        p.add_argument("--top-k", dest="top_k", type=int)
        p.add_argument("--out")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--hp", action="append", metavar="NAME=VALUE",
                       help="hyperparameter override, repeatable")

    p = sub.add_parser("mi-scores", help="dump per-feature MI scores")
    add_common(p)
    p.set_defaults(func=cmd_mi_scores)

    p = sub.add_parser("train", help="train one model on the train split")
    add_common(p)
    p.add_argument("--model", choices=classifiers.MODEL_KINDS)
    p.add_argument("--model-file", dest="model_file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on the test split")
    add_common(p)
    p.add_argument("--model-file", dest="model_file", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="run all six models and compare to baseline")
    add_common(p)
    p.add_argument("--seeds", help="comma-separated seed sweep")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any model misses the baseline tolerance")
    p.set_defaults(func=cmd_reproduce, seeds=None)

    p = sub.add_parser("score", help="batch-score sandbox behavioral reports")
    add_common(p)
    p.add_argument("--model-file", dest="model_file", required=True)
    p.add_argument("reports", help="report file (NDJSON) or directory of *.json")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RwdetectError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
