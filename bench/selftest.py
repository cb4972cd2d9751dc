"""Self-test of the benchmark's output checks.

Runs one round of each workload on seed 0, requires ``oracles.py`` to
accept the program's real outputs, then corrupts each output in one
place and requires the matching check to reject it:

* a flipped verdict label (score-batch),
* an unmatched-token count off by one (score-batch),
* a perturbed MI value (mi-wide),
* two tied features swapped out of ordinal order (mi-wide),
* a confusion count off by one (reproduce-elderan),
* a model that calls every sample goodware, with all its columns
  consistent (reproduce-elderan),
* a second seed's accuracy that no count of correct predictions gives
  (reproduce-elderan).

    python3 bench/selftest.py      # exit 0 when every case behaves
"""

from __future__ import annotations

import shutil
import sys

import run

SEED = 0


def flip_label(text):
    lines = text.split("\n")
    for i, line in enumerate(lines[1:-1], 1):
        cells = line.split(",")
        if abs(float(cells[2]) - 0.5) > 0.01:
            cells[1] = str(1 - int(cells[1]))
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError("no verdict far from the threshold")


def bump_unmatched(text):
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[4] = str(int(cells[4]) + 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def perturb_mi(text):
    lines = text.split("\n")
    name, _, value = lines[1].rpartition(",")
    lines[1] = f"{name},{float(value) * (1 + 1e-6):.12g}"
    return "\n".join(lines)


def swap_tie(text, names, n10, n11):
    ordinal = {name: j for j, name in enumerate(names)}
    lines = text.split("\n")
    table = [None] * len(lines)
    for i in range(1, len(lines) - 1):
        j = ordinal[lines[i].rpartition(",")[0]]
        table[i] = (int(n10[j]), int(n11[j]))
        if i > 1 and table[i] == table[i - 1]:
            lines[i - 1], lines[i] = lines[i], lines[i - 1]
            return "\n".join(lines)
    raise AssertionError("no adjacent tie to swap")


def bump_confusion(text):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    tp = header.index("tp")
    cells[tp] = str(int(cells[tp]) + 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def all_goodware(text):
    """Rewrite the first model's row as a fit that predicts goodware only:
    every column agrees with the counts, only the accuracy is too low."""
    lines = text.split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    pos = int(row["tp"]) + int(row["fn"])
    neg = int(row["tn"]) + int(row["fp"])
    acc = 100 * neg / (pos + neg)
    row.update(tp="0", fn=str(pos), tn=str(neg), fp="0", prec="nan", rec="0.00")
    row["acc%"] = f"{acc:.2f}"
    row["d_acc"] = f"{acc - float(row['ref_acc%']):+.2f}"
    if "acc%_mean" in row:
        row["acc%_mean"], row["acc%_std"] = f"{acc:.2f}", "0.00"
    lines[1] = ",".join(row[c] for c in header)
    return "\n".join(lines)


def shift_mean(text):
    """Move the first model's ``acc%_mean`` so the second seed's accuracy
    it implies lies half a test sample off any count."""
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    i = header.index("acc%_mean")
    cells[i] = f"{float(cells[i]) + 25 / 503:.2f}"
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def main():
    run.cap_blas_threads()
    program = run.import_program()
    outcomes = []

    def expect(case, problems, want_problems):
        ok = bool(problems) == want_problems
        outcomes.append(ok)
        verdict = "ok" if ok else "FAILED"
        detail = problems[0] if problems else "no problem found"
        print(f"{verdict}: {case}: {detail}")

    for name, cls in run.WORKLOAD_CLASSES.items():
        out = run.WORK / "selftest" / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workload = cls(program, run.inputs_for(name, SEED), out, SEED)
        workload.prepare()
        produced = {k: v.decode("utf-8") for k, v in workload.round().outputs.items()}
        expect(f"{name} real output accepted", workload.check(_encode(produced)), False)

        if name == "score-batch":
            expect("flipped verdict label rejected",
                   workload.check(_encode({**produced, "logreg": flip_label(produced["logreg"])})),
                   True)
            expect("unmatched count off by one rejected",
                   workload.check(_encode({**produced, "knn": bump_unmatched(produced["knn"])})),
                   True)
        elif name == "mi-wide":
            text = produced["mi_scores.csv"]
            expect("perturbed MI value rejected",
                   workload.check(_encode({"mi_scores.csv": perturb_mi(text)})), True)
            expect("swapped tie order rejected",
                   workload.check(_encode({"mi_scores.csv": swap_tie(
                       text, workload.feature_names(), workload.n10, workload.n11)})), True)
        else:
            text = produced["reproduce.csv"]
            for case, corrupt in (("confusion count off by one", bump_confusion),
                                  ("all-goodware model", all_goodware),
                                  ("second-seed accuracy off the count grid", shift_mean)):
                expect(f"{case} rejected",
                       workload.check(_encode({"reproduce.csv": corrupt(text)})), True)

    print(f"{sum(outcomes)} of {len(outcomes)} self-test cases ok")
    return 0 if all(outcomes) else 1


def _encode(outputs):
    return {k: v.encode("utf-8") for k, v in outputs.items()}


if __name__ == "__main__":
    sys.exit(main())
