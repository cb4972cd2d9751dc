"""Command-line interface of the pipeline; ``COMMANDS`` lists the subcommands.

Exit codes: 0 success, 1 usage/config error (argument errors included), 2 data
error (a model whose fingerprint does not match the dataset's dictionary included),
3 --strict failure (reproduce: a model out of baseline tolerance; evaluate: an
undefined precision or recall). A closed stdout or stderr leaves the code as it is.

Every setting is a ``RunConfig`` field, which is its flag, its config-file key and its
line in the echo; each command takes only the settings it reads. Flag > config file >
default. A command returns ``(outputs, text, failure)``. ``main`` writes the outputs,
then the echo of the effective configuration, each whole or not at all, so any run can
be repeated bit-identically and a failed run leaves no echo. Only then does it print
what the package logged, the stdout text and the --strict failure, so a run that says
it wrote a file has written it, and a failed run prints one line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import io
import logging
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

# The package's logger, also when this module runs as __main__.
logger = logging.getLogger(__package__)

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
# A scored report drifts when more than this share of its tokens are unknown.
DRIFT_RATIO = 0.9


class UsageError(RwdetectError):
    pass


@contextlib.contextmanager
def usage_error(action: str, path):
    """An input or output ``path`` that cannot be read or written is a usage error."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte, or text not UTF-8
        reason = getattr(exc, "strerror", None) or exc  # names no temporary file
        raise UsageError(f"cannot {action} {str(path)!r}: {reason}") from None


@contextlib.contextmanager
def out_of_memory(path):
    """Running out of memory while the input ``path`` is read or decoded is a data error."""
    try:
        yield
    except MemoryError:
        raise DataFormatError(f"{path}: out of memory while reading it") from None


def read_config_file(path) -> dict:
    """Plain key=value config, '#' comments allowed; a leading byte-order mark is skipped."""
    with usage_error("read", path):
        text = Path(path).read_text(encoding="utf-8-sig")
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


def load_data(cfg: RunConfig, load=dataset.load):
    """``load`` of the dataset file; no such file is a usage error."""
    if not cfg.data:
        raise UsageError(f"no dataset given: pass --data or set {DATA_ENV_VAR} "
                         "(README gives the file layouts)")
    if not Path(cfg.data).is_file():
        raise UsageError(f"dataset file not found: {cfg.data!r} (README gives the file layouts)")
    with usage_error("read", cfg.data), out_of_memory(cfg.data):
        return load(cfg.data)


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
    """``(model, fingerprint)`` of ``cfg.model_file``; no such file is a usage error."""
    if not cfg.model_file or not Path(cfg.model_file).is_file():
        raise UsageError("--model-file must point to an existing model")
    with out_of_memory(cfg.model_file):
        with usage_error("read", cfg.model_file):
            blob = Path(cfg.model_file).read_bytes()
        return classifiers.deserialize_model(blob)


def write_whole(path: Path, write) -> None:
    """``write(fh)`` into a temporary ``.<name>.<pid>`` file next to ``path`` that
    then replaces it, so ``path`` holds the whole output or what it held before."""
    tmp = path.parent / f".{path.name}.{os.getpid()}"
    with usage_error("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # already gone once it has replaced ``path``


def predict_and_evaluate(model, X, y):
    """``model``'s metrics on the rows of ``X``, under its kind's display name."""
    labels = classifiers.labels_of(model.predict(X))
    return evaluation.evaluate_predictions(BASELINE[model.kind][0], y, labels)


def split_and_select(matrix, dictionary, y, cfg: RunConfig):
    """Projected train and test partitions, their labels and the fingerprint of the selection."""
    train_idx, test_idx = dataset.stratified_split(y, cfg.seed, cfg.test_fraction)
    train_y = y[train_idx]
    # Selection is fit on the training partition only.
    scores = selection.score_all(dataset.take_rows(matrix, train_idx), train_y)
    k = min(cfg.top_k, matrix.n_features)
    selected = selection.select_k_best(scores, k)
    fingerprint = classifiers.Fingerprint(dictionary.sha256(), selected)
    X = selection.project(matrix, selected)
    return X[train_idx], train_y, X[test_idx], y[test_idx], fingerprint


def cmd_mi_scores(cfg: RunConfig, args) -> tuple[dict, str, str | None]:
    matrix, dictionary, y = load_data(cfg)
    scores = selection.score_all(matrix, y)
    order = selection.rank_features(scores)
    path = Path(cfg.out) / "mi_scores.csv"
    lines = [f"wrote {len(scores)} feature scores to {path}", "top 20 features by MI (nats):"]
    lines += [f"  {dictionary.names[j]}  {scores[j]:.6f}" for j in order[:20].tolist()]
    return ({path: lambda fh: selection.write_scores_csv(fh, dictionary, scores, order)},
            "\n".join(lines), None)


def cmd_train(cfg: RunConfig, args) -> tuple[dict, str, str | None]:
    matrix, dictionary, y = load_data(cfg)
    train_p, train_y, _, _, fingerprint = split_and_select(matrix, dictionary, y, cfg)
    params = make_params(cfg.model, cfg.hp)
    model = classifiers.FITTERS[cfg.model](train_p, train_y, params)

    blob = classifiers.serialize_model(model, fingerprint)
    model_path = Path(cfg.model_file or Path(cfg.out) / f"model_{cfg.model}.json")

    report = predict_and_evaluate(model, train_p, train_y)
    return {model_path: lambda fh: fh.write(blob)}, (
        f"model written to {model_path} ({len(blob)} bytes)\n"
        f"train accuracy: {float(report.accuracy):.4f}"), None


def cmd_evaluate(cfg: RunConfig, args) -> tuple[dict, str, str | None]:
    model, fingerprint = load_model(cfg)
    matrix, dictionary, y = load_data(cfg)
    reports.check_fingerprint(fingerprint, dictionary)
    # The test partition is the model's only when this split selects its features.
    _, _, test_p, test_y, split_fingerprint = split_and_select(
        matrix, dictionary, y, dataclasses.replace(cfg, top_k=len(fingerprint.selected)))
    if split_fingerprint != fingerprint:
        raise FingerprintMismatch(
            f"the model was not trained on the split of seed {cfg.seed} and test_fraction "
            f"{cfg.test_fraction}: its selected features differ")
    report = predict_and_evaluate(model, test_p, test_y)
    table = evaluation.compare_models_csv([report]).encode("utf-8")
    failure = "precision or recall is undefined" if cfg.strict and report.has_undefined() else None
    return ({Path(cfg.out) / "evaluation.csv": lambda fh: fh.write(table)},
            evaluation.compare_models_text([report]), failure)


def _reproduce_once(matrix, dictionary, y, cfg: RunConfig):
    """Each kind's test metrics on the split and selection of ``cfg.seed``."""
    train_p, train_y, test_p, test_y, _ = split_and_select(matrix, dictionary, y, cfg)
    results = {}
    for kind in classifiers.MODEL_KINDS:
        model = classifiers.FITTERS[kind](train_p, train_y, make_params(kind, cfg.hp))
        results[kind] = predict_and_evaluate(model, test_p, test_y)
    return results


def cmd_reproduce(cfg: RunConfig, args) -> tuple[dict, str, str | None]:
    seeds = [int(s) for s in cfg.seeds.split(",")] if cfg.seeds else [cfg.seed]
    matrix, dictionary, y = load_data(cfg)
    per_seed = [_reproduce_once(matrix, dictionary, y, dataclasses.replace(cfg, seed=s))
                for s in seeds]

    header = ["model", "acc%", "ref_acc%", "d_acc", "prec", "ref_prec", "d_prec",
              "rec", "ref_rec", "d_rec", "tp", "tn", "fp", "fn"]
    if len(seeds) > 1:
        header += ["acc%_mean", "acc%_std"]
    rows = [header]
    failure = None
    for kind in classifiers.MODEL_KINDS:
        display, *reference = BASELINE[kind]
        accs = [float(r[kind].accuracy) * 100 for r in per_seed]
        first = per_seed[0][kind]
        row = [display]
        for value, ref, tolerance in zip((accs[0], first.precision, first.recall),
                                         reference, TOLERANCE):
            if value is None:  # undefined, as in evaluate: n/a, within tolerance on its own
                row += ["n/a", f"{ref:.2f}", "n/a"]
                continue
            value = float(value)
            if cfg.strict and abs(value - ref) > tolerance:
                failure = "one or more models fell outside the baseline tolerance"
            row += [f"{value:.2f}", f"{ref:.2f}", f"{value - ref:+.2f}"]
        row += [str(first.tp), str(first.tn), str(first.fp), str(first.fn)]
        if len(seeds) > 1:
            row += [f"{statistics.mean(accs):.2f}", f"{statistics.stdev(accs):.2f}"]
        rows.append(row)

    table = ("\n".join(",".join(r) for r in rows) + "\n").encode("utf-8")
    return ({Path(cfg.out) / "reproduce.csv": lambda fh: fh.write(table)},
            evaluation.aligned(rows), failure)


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
        with usage_error("read", path), path.open("rb") as fh:
            for i, line in enumerate(fh):
                if line.strip():
                    yield f"{path.name}:{i + 1}", line


def cmd_score(cfg: RunConfig, args) -> tuple[dict, str, str | None]:
    reports_path = Path(args.reports)
    if not reports_path.exists():
        raise UsageError(f"reports path not found: {args.reports}")
    model, fingerprint = load_model(cfg)
    # Token lookup needs the training dictionary only, not its samples.
    dictionary = load_data(cfg, dataset.load_dictionary)

    with out_of_memory(args.reports):
        report_ids, scores, counts, failures = reports.score_documents(
            _iter_report_files(reports_path), model, fingerprint, dictionary
        )
        labels = classifiers.labels_of(scores).tolist()
        table = ("report_id,label,score,matched,unmatched\n" + "".join(
            f"{report_id},{label},{score:.6f},{matched},{unmatched}\n"
            for report_id, label, score, (matched, unmatched)
            in zip(report_ids, labels, scores.tolist(), counts)
        )).encode("utf-8")
        drifting = [report_id for report_id, (matched, unmatched) in zip(report_ids, counts)
                    if unmatched and unmatched / (matched + unmatched) > DRIFT_RATIO]
    if drifting:
        logger.warning("%d of %d reports matched under 10%% of their tokens (first: %s); "
                       "dictionary drift likely", len(drifting), len(report_ids), drifting[0])
    for report_id, exc in failures:
        logger.warning("%s: %s", report_id, exc)
    ransomware = sum(labels)
    return ({Path(cfg.out) / "verdicts.csv": lambda fh: fh.write(table)},
            f"scored {len(labels)} reports: {ransomware} ransomware, "
            f"{len(labels) - ransomware} goodware, {len(failures)} malformed", None)


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


def say(name: str, text: str) -> None:
    """Write ``text`` to ``sys.<name>`` and flush it. A closed stream (no reader, a shut
    descriptor, or None) drops it and points at os.devnull, so the exit flush is silent."""
    try:
        print(text, end="", file=getattr(sys, name) or io.StringIO(), flush=True)
    except OSError as exc:
        if exc.errno not in (errno.EPIPE, errno.EBADF):
            raise
        # Left open: a shut descriptor is the lowest free one, so os.open may return it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), getattr(sys, name).fileno())


def main(argv=None) -> int:
    diagnostics = logging.StreamHandler(io.StringIO())
    logger.addHandler(diagnostics)
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        outputs, text, failure = args.func(cfg, args)
        # The echo is written last, so a run that fails at any step leaves none.
        echo = cfg.echo(COMMANDS[args.command][2]).encode("utf-8")
        outputs[Path(cfg.out) / f"{args.command}.config"] = lambda fh: fh.write(echo)
        for path, write in outputs.items():
            write_whole(path, write)
    except UsageError as exc:
        say("stderr", f"error: {exc}\n")
        return EXIT_USAGE
    except RwdetectError as exc:
        say("stderr", f"data error: {exc}\n")
        return EXIT_DATA
    finally:
        logger.removeHandler(diagnostics)
    say("stderr", diagnostics.stream.getvalue())
    say("stdout", text + "\n")
    say("stderr", f"{failure}\n" if failure else "")
    return EXIT_TOLERANCE if failure else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
