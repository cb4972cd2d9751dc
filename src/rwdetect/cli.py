"""Command-line interface of the pipeline; ``COMMANDS`` lists the subcommands.

Exit codes: 0 success, 1 usage/config error (argument errors included),
2 data error (a model whose fingerprint does not match the dataset's
dictionary included), 3 baseline-tolerance failure (reproduce --strict).

Every setting is a ``RunConfig`` field, which is its flag, its config-file
key and its line in the echo; each command takes only the settings it
reads. Flag > config file > default; ``main`` echoes the effective
configuration next to the outputs once the command has written them, so
any run can be repeated bit-identically and a failed run leaves no echo.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import statistics
import sys
from pathlib import Path

from . import classifiers, dataset, evaluation, reports, selection
from .errors import DataFormatError, FingerprintMismatch, FitError, RwdetectError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOLERANCE = 3

DATA_ENV_VAR = "RWDETECT_DATA"

# Baseline results this pipeline is compared against, per kind: display
# name, accuracy in percent, precision, recall.
BASELINE = {
    "dt": ("Decision Tree", 95.63, 0.92, 0.97),
    "rf": ("Random Forest", 96.02, 0.92, 0.98),
    "knn": ("KNN", 93.64, 0.89, 0.95),
    "svm": ("SVM", 96.42, 0.93, 0.97),
    "gbt": ("XGBoost-style GBT", 98.21, 0.96, 0.99),
    "logreg": ("Logistic Regression", 98.21, 0.97, 0.98),
}
# How far accuracy (in points), precision and recall may each miss it.
TOLERANCE = (2.5, 0.04, 0.04)


class UsageError(RwdetectError):
    pass


def read_config_file(path) -> dict:
    """Plain key=value config, '#' comments allowed; a leading byte-order mark is skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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


def seed_list(text: str) -> str:
    """Comma-separated seeds, each as ``seed`` takes it, in the text the echo repeats."""
    return ",".join(str(seed(s)) for s in text.split(","))


def cast_of(field: dataclasses.Field):
    """The parser of a dataclass field's text value: its ``cast`` metadata, else
    the one its annotation names."""
    kind = str(field.type)
    return field.metadata.get("cast") or (boolean if "bool" in kind else int if "int" in kind
                                          else float if "float" in kind else str)


def parse_value(cast, text: str, what: str):
    """``cast(text)``, or a usage error naming ``what``."""
    try:
        return cast(text)
    except ValueError:
        raise UsageError(f"{what}={text!r} is not a valid {cast.__name__}") from None


@dataclasses.dataclass
class RunConfig:
    """Every setting of a run. Each field but ``hp`` is the ``--flag-name``
    of the commands that take it, a config-file key and an echo line."""

    data: str | None = dataclasses.field(
        default=None, metadata={"help": f"dataset path (fallback: ${DATA_ENV_VAR})"})
    seed: int = dataclasses.field(default=0, metadata={"cast": seed})
    seeds: str | None = dataclasses.field(
        default=None, metadata={"help": "comma-separated seed sweep", "cast": seed_list})
    # The test fraction that gives 503 test samples of the 1524 in the reference dataset.
    test_fraction: float = 503 / 1524
    top_k: int = 400
    model: str = "gbt"
    model_file: str | None = None
    out: str = "out"
    strict: bool = dataclasses.field(default=False, metadata={
        "help": "exit 3 if any model misses the baseline tolerance (reproduce) "
                "or a metric is undefined (evaluate)"})
    hp: dict = dataclasses.field(default_factory=dict)

    def echo(self, names) -> str:
        """The config file that repeats a run of a command taking the settings
        ``names``; unset settings are left out."""
        lines = [f"{name}={getattr(self, name)}" for name in names
                 if name != "hp" and getattr(self, name) is not None]
        lines += [f"hp.{k}={v}" for k, v in sorted(self.hp.items())]
        return "\n".join(lines) + "\n"


FIELDS = {f.name: f for f in dataclasses.fields(RunConfig) if f.name != "hp"}


def build_config(args) -> RunConfig:
    """Each setting the command takes from its flag, else from the ``--config``
    file, else its default. File keys the command does not take are ignored."""
    names = COMMANDS[args.command][2]
    file_values = read_config_file(args.config) if args.config else {}
    cfg = RunConfig(data=os.environ.get(DATA_ENV_VAR))
    for f in (FIELDS[name] for name in names if name != "hp"):
        value = getattr(args, f.name)
        if value is None and f.name in file_values:
            value = parse_value(cast_of(f), file_values[f.name], f"config {f.name}")
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.model not in classifiers.MODEL_KINDS:
        raise UsageError(f"unknown model {cfg.model!r}, expected one of {classifiers.MODEL_KINDS}")

    if "hp" in names:
        cfg.hp = {key[3:]: value for key, value in file_values.items() if key.startswith("hp.")}
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

    if not 0.0 < cfg.test_fraction < 1.0:
        raise UsageError(f"test_fraction {cfg.test_fraction} not in (0,1)")
    if cfg.top_k < 1:
        raise UsageError(f"top_k must be >= 1, got {cfg.top_k}")
    return cfg


def data_path(cfg: RunConfig) -> str:
    if not cfg.data:
        raise UsageError(f"no dataset given: pass --data or set {DATA_ENV_VAR}")
    if not Path(cfg.data).is_file():
        raise UsageError(f"dataset file not found: {cfg.data!r}")
    return cfg.data


def make_params(kind: str, overrides: dict):
    """``kind``'s hyperparameters with those of ``overrides`` that are its
    fields; overrides are shared across kinds, so other keys are ignored."""
    cls = classifiers.DEFAULT_PARAMS[kind]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    try:
        return cls(**{key: parse_value(cast_of(fields[key]), raw, f"hyperparameter {key}")
                      for key, raw in overrides.items() if key in fields})
    except FitError as exc:  # a value out of its range
        raise UsageError(f"hyperparameter {exc}") from None


def load_model(cfg: RunConfig):
    """The model in ``cfg.model_file``; no such file is a usage error."""
    if not cfg.model_file or not Path(cfg.model_file).is_file():
        raise UsageError("--model-file must point to an existing model")
    return classifiers.deserialize_model(Path(cfg.model_file).read_bytes())


def write_output(path: Path, data) -> None:
    """Write ``data`` to ``path``, or call ``data(path)`` when it is a function
    that writes the file itself; a path that cannot be written is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        data(path) if callable(data) else path.write_bytes(data)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from None


def predict_and_evaluate(model, X, y):
    """``model``'s metrics on the rows of ``X``, under its kind's display name."""
    labels = [p.label for p in model.predict(X)]
    return evaluation.evaluate_predictions(BASELINE[model.kind][0], y, labels)


def split_and_select(matrix, dictionary, y, cfg: RunConfig):
    """Projected train and test partitions, their labels and the models' fingerprint."""
    train_idx, test_idx = dataset.stratified_split(matrix, y, cfg.seed, cfg.test_fraction)
    train_y = y[train_idx]
    # Selection is fit on the training partition only.
    scores = selection.score_all(dataset.take_rows(matrix, train_idx), train_y)
    k = min(cfg.top_k, matrix.n_features)
    selected = selection.select_k_best(scores, k)
    fingerprint = classifiers.Fingerprint(k, dictionary.sha256(), selected)
    X = selection.project(matrix, selected)
    return X[train_idx], train_y, X[test_idx], y[test_idx], fingerprint


def cmd_mi_scores(cfg: RunConfig, args) -> int:
    matrix, dictionary, y = dataset.load(data_path(cfg))
    scores = selection.score_all(matrix, y)
    out_path = Path(cfg.out) / "mi_scores.csv"
    write_output(out_path, lambda path: selection.write_scores_csv(path, dictionary, scores))
    print(f"wrote {len(scores)} feature scores to {out_path}")
    print("top 20 features by MI (nats):")
    for j in selection.rank_features(scores)[:20].tolist():
        print(f"  {dictionary.names[j]}  {scores[j]:.6f}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    matrix, dictionary, y = dataset.load(data_path(cfg))
    train_p, train_y, _, _, fingerprint = split_and_select(matrix, dictionary, y, cfg)
    params = make_params(cfg.model, cfg.hp)
    model = classifiers.FITTERS[cfg.model](train_p, train_y, params, fingerprint)

    blob = classifiers.serialize_model(model)
    model_path = Path(cfg.model_file or Path(cfg.out) / f"model_{cfg.model}.json")
    write_output(model_path, blob)

    report = predict_and_evaluate(model, train_p, train_y)
    print(f"model written to {model_path} ({len(blob)} bytes)")
    print(f"train accuracy: {float(report.accuracy):.4f}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, args) -> int:
    model = load_model(cfg)
    matrix, dictionary, y = dataset.load(data_path(cfg))
    reports.check_fingerprint(model.fingerprint, dictionary)
    # The test partition is the model's only when this split selects its features.
    _, _, test_p, test_y, fingerprint = split_and_select(
        matrix, dictionary, y, dataclasses.replace(cfg, top_k=model.fingerprint.n_features))
    if fingerprint != model.fingerprint:
        raise FingerprintMismatch(
            f"the model was not trained on the split of seed {cfg.seed} and test_fraction "
            f"{cfg.test_fraction}: its selected features differ")
    report = predict_and_evaluate(model, test_p, test_y)
    print(evaluation.compare_models_text([report]))
    write_output(Path(cfg.out) / "evaluation.csv",
                 evaluation.compare_models_csv([report]).encode("utf-8"))
    return EXIT_TOLERANCE if cfg.strict and report.has_undefined() else EXIT_OK


def _reproduce_once(matrix, dictionary, y, cfg: RunConfig):
    """Each kind's test metrics on the split and selection of ``cfg.seed``."""
    train_p, train_y, test_p, test_y, fingerprint = split_and_select(matrix, dictionary, y, cfg)
    results = {}
    for kind in classifiers.MODEL_KINDS:
        model = classifiers.FITTERS[kind](train_p, train_y, make_params(kind, cfg.hp),
                                          fingerprint)
        results[kind] = predict_and_evaluate(model, test_p, test_y)
    return results


def cmd_reproduce(cfg: RunConfig, args) -> int:
    if not cfg.data or not Path(cfg.data).exists():
        raise RwdetectError(f"reproduce needs the 1524-sample behavioral dataset: pass --data "
                            f"or set {DATA_ENV_VAR} (README gives the file layouts)")
    seeds = [int(s) for s in cfg.seeds.split(",")] if cfg.seeds else [cfg.seed]
    matrix, dictionary, y = dataset.load(data_path(cfg))
    per_seed = [_reproduce_once(matrix, dictionary, y, dataclasses.replace(cfg, seed=s))
                for s in seeds]

    header = ["model", "acc%", "ref_acc%", "d_acc", "prec", "ref_prec", "d_prec",
              "rec", "ref_rec", "d_rec", "tp", "tn", "fp", "fn"]
    if len(seeds) > 1:
        header += ["acc%_mean", "acc%_std"]
    rows = [header]
    within_tolerance = True
    for kind in classifiers.MODEL_KINDS:
        display, *reference = BASELINE[kind]
        accs = [float(r[kind].accuracy) * 100 for r in per_seed]
        first = per_seed[0][kind]
        measured = [accs[0], *(float("nan") if v is None else float(v)
                               for v in (first.precision, first.recall))]
        row = [display]
        for value, ref, tolerance in zip(measured, reference, TOLERANCE):
            # An undefined metric is NaN, which compares False: within tolerance.
            if abs(value - ref) > tolerance:
                within_tolerance = False
            row += [f"{value:.2f}", f"{ref:.2f}", f"{value - ref:+.2f}"]
        row += [str(first.cm.tp), str(first.cm.tn), str(first.cm.fp), str(first.cm.fn)]
        if len(seeds) > 1:
            row += [f"{statistics.mean(accs):.2f}", f"{statistics.stdev(accs):.2f}"]
        rows.append(row)

    print(evaluation.aligned(rows))
    write_output(Path(cfg.out) / "reproduce.csv",
                 ("\n".join(",".join(r) for r in rows) + "\n").encode("utf-8"))
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


def cmd_score(cfg: RunConfig, args) -> int:
    reports_path = Path(args.reports)
    if not reports_path.exists():
        raise UsageError(f"reports path not found: {args.reports}")
    model = load_model(cfg)
    # Token lookup needs the training dictionary only, not its samples.
    dictionary = dataset.load_dictionary(data_path(cfg))

    verdicts, failures = reports.score_documents(
        _iter_report_files(reports_path), model, dictionary
    )
    for report_id, exc in failures:
        print(f"{report_id}: {exc}", file=sys.stderr)
    lines = ["report_id,label,score,matched,unmatched"]
    lines += [
        f"{report_id},{pred.label},{pred.score:.6f},{outcome.matched},{outcome.unmatched}"
        for report_id, pred, outcome in verdicts
    ]
    write_output(Path(cfg.out) / "verdicts.csv", ("\n".join(lines) + "\n").encode("utf-8"))
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


# Each command's handler, help and the settings it reads, in echo order;
# "hp" is the repeatable ``--hp`` and the ``hp.*`` config keys.
COMMANDS = {
    "mi-scores": (cmd_mi_scores, "dump per-feature MI scores", ("data", "out")),
    "train": (cmd_train, "train one model on the train split",
              ("data", "seed", "test_fraction", "top_k", "model", "model_file", "out", "hp")),
    "evaluate": (cmd_evaluate, "evaluate a saved model on the test split",
                 ("data", "seed", "test_fraction", "model_file", "out", "strict")),
    "reproduce": (cmd_reproduce, "run all six models and compare to baseline",
                  ("data", "seed", "seeds", "test_fraction", "top_k", "out", "strict", "hp")),
    "score": (cmd_score, "batch-score sandbox behavioral reports",
              ("data", "model_file", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once: each command takes its settings as
    ``--flag-name`` options, plus ``--config``."""
    parser = ArgumentParser(
        prog="rwdetect",
        description="Behavioral ransomware detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, names) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        for key in names:
            if key == "hp":
                p.add_argument("--hp", action="append", metavar="NAME=VALUE",
                               help="hyperparameter override, repeatable")
                continue
            f = FIELDS[key]
            flag = "--" + key.replace("_", "-")
            if cast_of(f) is boolean:  # None when absent, so a config value applies
                p.add_argument(flag, action="store_true", default=None,
                               help=f.metadata.get("help"))
            else:
                choices = classifiers.MODEL_KINDS if key == "model" else None
                p.add_argument(flag, type=cast_of(f), choices=choices,
                               help=f.metadata.get("help"))
        p.add_argument("--config", help="key=value config file")
    sub.choices["score"].add_argument(
        "reports", help="report file (NDJSON) or directory of *.json")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        code = args.func(cfg, args)
        # The echo is written last, so a run that fails at any step leaves none.
        write_output(Path(cfg.out) / f"{args.command}.config",
                     cfg.echo(COMMANDS[args.command][2]).encode("utf-8"))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RwdetectError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
