"""rwdetect benchmark: three workloads through the real CLI, in-process.

    python3 bench/run.py --workload reproduce-elderan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``. Inputs are made by ``gen.py`` in a child process, from the seed
alone, and cached under ``.bench_work/`` outside any timed region; the
score-batch model files depend on the program too, so a child process
fits them afresh in every run, also untimed. Every command goes through
``rwdetect.cli.main``; its outputs are checked against ``oracles.py``
after timing ends.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see ``spans.py``) instead. README.md explains the workloads,
metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from oracles import check_mi_csv, check_reproduce_csv, check_verdicts
from spans import MODEL_KINDS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REPRODUCE_SEEDS = "0,1"  # two seeds: the table then has the across-seed columns checked
GEN_TIMEOUT_S = 600
COMMAND_FIGURES = {"cli.reproduce_s": "s", "cli.mi_scores_s": "s",
                   **{f"cli.reports_per_s.{kind}": "reports/s" for kind in MODEL_KINDS}}


def cap_blas_threads():
    """One thread of control; BLAS pools capped at the usable core count."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cores:
            os.environ[var] = str(cores)


def import_program():
    """Import rwdetect from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "rwdetect" / "cli.py").is_file():
        sys.exit(f"bench: no program sources at {src}/rwdetect")
    sys.path.insert(0, str(src))
    import rwdetect
    import rwdetect.cli

    if Path(rwdetect.__file__).resolve().parent != (src / "rwdetect").resolve():
        sys.exit(f"bench: rwdetect imported from {rwdetect.__file__}, not {src}")
    return rwdetect


def run_gen(*args):
    """Run ``gen.py`` in a child process and wait for it; exit on failure."""
    done = subprocess.run([sys.executable, str(BENCH / "gen.py"), *map(str, args)],
                          stdout=sys.stderr, timeout=GEN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"bench: gen.py {' '.join(map(str, args))} exited {done.returncode}")


def inputs_for(workload, seed):
    """Directory with the workload's generated inputs, made once per seed."""
    path = WORK / "inputs" / f"{workload}-seed{seed}"
    if not path.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
        run_gen("--workload", workload, "--seed", seed, "--out", path)
    return path


class Round(NamedTuple):
    """One pass over a workload's commands.

    ``parts`` maps each command of the round to its wall seconds, and
    ``units`` is the work all of them did together. ``setup`` holds the
    set-up samples taken inside the round (none in traced rounds)."""

    parts: dict
    setup: list
    units: int
    attempted: int
    failed: int
    outputs: dict  # output file name -> bytes


class Workload:
    """One workload: a repeatable round with set-up samples, and output checks."""

    setup_per_round = 1

    def __init__(self, program, inputs, out, seed):
        import numpy as np

        self.program = program
        self.inputs = inputs
        self.out = out
        self.seed = seed
        self.data = str(inputs / "data.sparse")
        truth = np.load(inputs / "truth.npz")
        self.n10, self.n11 = truth["n10"], truth["n11"]
        self.n_pos = int((truth["family"] != 0).sum())
        self.n_neg = len(truth["family"]) - self.n_pos

    def cli(self, argv):
        """Run ``rwdetect.cli.main`` in-process; (exit code, wall seconds).

        A command that raises counts as failed, like one that exits non-zero."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.program.cli.main(argv)
            except Exception:  # noqa: BLE001 - reported below, the run goes on
                code = -1
                traceback.print_exc()
            seconds = time.perf_counter() - start
        if code != 0:
            print(f"bench: rwdetect {' '.join(argv)} exited {code}: {err.getvalue()[-800:]}",
                  file=sys.stderr)
        return code, seconds

    def prepare(self):
        """Untimed work a run needs before its first round."""

    def load_seconds(self):
        start = time.perf_counter()
        self.program.dataset.load_sparse(self.data)
        return time.perf_counter() - start

    def setup_samples(self, setup):
        return [self.load_seconds() for _ in range(self.setup_per_round if setup else 0)]


class ReproduceElderan(Workload):
    setup_per_round = 3  # a load is a tenth of a round; three spread set-up over the run

    def round(self, setup=True):
        samples = self.setup_samples(setup)
        argv = ["reproduce", "--data", self.data, "--out", str(self.out),
                "--seeds", REPRODUCE_SEEDS]
        code, seconds = self.cli(argv)
        produced = (self.out / "reproduce.csv").read_bytes() if code == 0 else b""
        return Round({"reproduce": seconds}, samples, len(REPRODUCE_SEEDS.split(",")), 1,
                     int(code != 0), {"reproduce.csv": produced})

    def figures(self, rounds):
        seconds = statistics.median(r.parts["reproduce"] for r in rounds)
        return {"cli.reproduce_s": seconds / rounds[0].units}

    def check(self, outputs):
        return [p for data in outputs.values()
                for p in check_reproduce_csv(data.decode("utf-8"), self.n_neg, self.n_pos)]


class MiWide(Workload):
    def round(self, setup=True):
        samples = self.setup_samples(setup)
        argv = ["mi-scores", "--data", self.data, "--out", str(self.out)]
        code, seconds = self.cli(argv)
        produced = (self.out / "mi_scores.csv").read_bytes() if code == 0 else b""
        return Round({"mi-scores": seconds}, samples, 1, 1, int(code != 0),
                     {"mi_scores.csv": produced})

    def figures(self, rounds):
        return {"cli.mi_scores_s": statistics.median(r.parts["mi-scores"] for r in rounds)}

    def feature_names(self):
        """Dictionary section of the generated file, read without rwdetect."""
        with open(self.data, encoding="utf-8") as fh:
            d = int(fh.readline().split()[1])
            return [fh.readline().rstrip("\n") for _ in range(d)]

    def check(self, outputs):
        return [p for data in outputs.values()
                for p in check_mi_csv(data.decode("utf-8"), self.feature_names(),
                                      self.n10, self.n11, self.n_neg, self.n_pos)]


class ScoreBatch(Workload):
    def __init__(self, program, inputs, out, seed):
        super().__init__(program, inputs, out, seed)
        self.models = out / "models"
        self.expected = json.loads((inputs / "batch_expected.json").read_text(encoding="utf-8"))

    def prepare(self):
        run_gen("--workload", "score-batch", "--seed", self.seed, "--out", self.inputs,
                "--train", self.models)

    def _score(self, kind, batch, out):
        """Score ``batch`` against one model: (verdicts.csv bytes or b"", seconds)."""
        argv = ["score", "--data", self.data,
                "--model-file", str(self.models / f"model_{kind}.json"),
                "--out", str(out), str(self.inputs / batch)]
        code, seconds = self.cli(argv)
        return (out / "verdicts.csv").read_bytes() if code == 0 else b"", seconds

    def round(self, setup=True):
        """Per model: set-up (a one-report batch), then the whole batch.

        An operation is one report; a report without a verdict row failed."""
        parts, setup_seconds, produced, attempted, failed = {}, 0.0, {}, 0, 0
        batches = [("one.ndjson", 1)] * setup + [("batch.ndjson", len(self.expected))]
        for kind in MODEL_KINDS:
            for batch, n in batches:
                name = kind if n > 1 else f"one/{kind}"
                produced[name], seconds = self._score(kind, batch, self.out / name)
                attempted += n
                failed += n - max(0, produced[name].count(b"\n") - 1)  # rows after the header
                if n > 1:
                    parts[kind] = seconds
                else:
                    setup_seconds += seconds
        units = len(self.expected) * len(MODEL_KINDS)
        return Round(parts, [setup_seconds] * setup, units, attempted, failed, produced)

    def figures(self, rounds):
        n = len(self.expected)
        return {f"cli.reports_per_s.{kind}": n / statistics.median(r.parts[kind] for r in rounds)
                for kind in MODEL_KINDS}

    def check(self, outputs):
        problems = []
        for name, data in outputs.items():
            kind = name.rpartition("/")[2]
            doc = json.loads((self.models / f"model_{kind}.json").read_bytes())
            if name == kind:
                problems += [f"{kind}: {p}" for p in
                             check_verdicts(data.decode("utf-8"), self.expected, doc)]
            else:
                problems += [f"{name}: {p}" for p in
                             check_verdicts(data.decode("utf-8"), self.expected[:1], doc,
                                            "one.ndjson")]
        return problems


WORKLOAD_CLASSES = {"reproduce-elderan": ReproduceElderan, "score-batch": ScoreBatch,
                    "mi-wide": MiWide}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds):
    """Untraced run: whole rounds, each with its set-up samples, until time is up.

    One untimed load comes first, so every set-up sample sees the same
    warm heap and page cache. Set-up samples are spread over the run,
    between the commands of every round, so ``setup_s`` and ``unit_s``
    sample the same stretch of time; ``setup_s`` is the median sample.
    ``unit_s`` sums, over the round's commands, the median of each
    command's seconds, and divides by the round's units. Peak RSS is read
    after the first round: later rounds repeat the same commands, and
    allocator fragmentation would otherwise make it grow with the number
    of rounds that fit in the run.
    """
    workload.load_seconds()
    deadline = time.perf_counter() + seconds
    rounds = [workload.round()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        rounds.append(workload.round())
    setup = [s for r in rounds for s in r.setup]
    unit_s = sum(statistics.median(r.parts[p] for r in rounds)
                 for p in rounds[0].parts) / rounds[0].units
    metrics = {"setup_s": metric(statistics.median(setup), "s"),
               "unit_s": metric(unit_s, "s"),
               "peak_rss_mb": metric(peak_rss_mb, "MB")}
    print(f"bench: {len(rounds)} rounds of {sorted(rounds[0].parts)}; round seconds "
          f"{[round(sum(r.parts.values()), 3) for r in rounds]}; set-up samples "
          f"{[round(s, 3) for s in setup]}", file=sys.stderr)
    for name, value in workload.figures(rounds).items():
        print(f"bench: {name} {value:.6g} {COMMAND_FIGURES[name]}", file=sys.stderr)
    return metrics, rounds


def measure_traced(workload, seconds, program, trace_path):
    """Traced run: untraced and traced rounds alternate, so the per-layer
    figures come with the tracing overhead measured on the same inputs.
    The command-level figures (``COMMAND_FIGURES``) come from the
    untraced rounds and read 0 on workloads that do not run the command."""
    tracer = Tracer(program)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        tracing = len(traced) <= len(plain)
        if tracing:
            tracer.install()
        try:
            (traced if tracing else plain).append(workload.round(setup=False))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(len(traced))
    overhead = (statistics.median(sum(r.parts.values()) for r in traced)
                / statistics.median(sum(r.parts.values()) for r in plain) - 1)
    metrics["trace.overhead_pct"] = metric(100 * overhead, "%")
    figures = dict.fromkeys(COMMAND_FIGURES, 0.0) | workload.figures(plain)
    metrics |= {name: metric(value, COMMAND_FIGURES[name]) for name, value in figures.items()}
    tracer.dump(trace_path)
    if tracer.absent or tracer.uncounted:
        print(f"absent: {' '.join(tracer.absent + sorted(tracer.uncounted))}")
    print(f"bench: {len(traced)} traced and {len(plain)} untraced rounds; spans in {trace_path}",
          file=sys.stderr)
    return metrics, traced + plain


def check_outputs(workload, rounds):
    """Oracle checks on the first copy of each output; every other copy
    must match it byte for byte. Outputs of failed commands are empty and
    skipped: those operations are already counted as failed."""
    reference = {}
    for r in rounds:
        for name, data in r.outputs.items():
            if data:
                reference.setdefault(name, data)
    problems = workload.check(reference)
    for i, r in enumerate(rounds):
        for name, data in r.outputs.items():
            if data and data != reference[name]:
                problems.append(f"round {i}: {name} differs from its first copy")
    return problems


def run_one(args):
    program = import_program()
    inputs = inputs_for(args.workload, args.seed)
    out = WORK / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOAD_CLASSES[args.workload](program, inputs, out, args.seed)
    workload.prepare()
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, rounds = measure_traced(workload, args.seconds, program, trace_path)
    else:
        metrics, rounds = measure(workload, args.seconds)
    problems = check_outputs(workload, rounds)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds), "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process; prints every metric by name."""
    status = 0
    for name in WORKLOAD_CLASSES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().split("\n")
        if done.returncode != 0 or not lines[-1].startswith("{"):
            print(f"{name}: failed (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key} {m['value']:.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description="rwdetect benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_CLASSES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    cap_blas_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
