"""Seeded input generator for the rwdetect benchmark.

Writes the benchmark's inputs straight to disk in the documented sparse
format and as an NDJSON report batch. It does not call
``dataset.synthesize_dataset`` or ``dataset.write_sparse``, so a change to
those functions cannot change a workload.

Shapes (see README.md for the reasoning):

* ``elderan``: n=1524 (942 goodware, 582 ransomware in families 1..11),
  d=30 967, about 1 % mean density with log-normal (skewed) per-feature
  rates, names spread over the seven report categories, and a planted
  class signal: each family fires its own signature features more often,
  and a set of shared features fires more often in every family.
* ``wide``: the same n, labels and expected active tokens per sample,
  but d=150 000, so the mean density drops to about 0.2 %.

Usage (also run by ``run.py`` as a separate process, outside timing):

    python3 bench/gen.py --workload score-batch --seed 3 --out DIR
    python3 bench/gen.py --workload score-batch --seed 3 --out DIR --train MODELS

The second form writes nothing under DIR: it fits the six score-batch
models on DIR's dataset with ``rwdetect train`` into MODELS. Those files
depend on the program as well as on the seed, so ``run.py`` makes them
afresh in every run rather than caching them with the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from spans import MODEL_KINDS

N_GOOD = 942
FAMILY_SIZES = (107, 89, 75, 64, 55, 47, 40, 34, 28, 23, 20)  # 582 ransomware
N_SAMPLES = N_GOOD + sum(FAMILY_SIZES)  # 1524
D_ELDERAN = 30967
D_WIDE = 150000
MEAN_DENSITY = 0.01  # at d=30 967; the wide set keeps the same tokens per row
RATE_SIGMA = 1.5  # log-normal spread of per-feature base rates
MAX_RATE = 0.6

# Planted signal.
FAMILY_SIGNATURE_FEATURES = 40  # per ransomware family
FAMILY_SIGNATURE_RATE = 0.50  # added to the base rate inside the family
SHARED_SIGNAL_FEATURES = 120  # fire more often in every ransomware family
SHARED_SIGNAL_RATE = 0.08
GOODWARE_SIGNAL_FEATURES = 60  # fire more often in goodware
GOODWARE_SIGNAL_RATE = 0.35
STEALTH_SHARE = 0.04  # ransomware rows that fire at goodware rates

# Category code -> share of the dictionary, and its report field.
CATEGORIES = (
    ("API", 0.01, "api_calls"),
    ("DROP", 0.01, "dropped_exts"),
    ("REG", 0.35, "registry_ops"),
    ("FILES", 0.30, "file_ops"),
    ("FILES_EXT", 0.03, "file_ext_ops"),
    ("DIR", 0.10, "dir_ops"),
    ("STR", 0.20, "strings"),
)
TOKEN_STEMS = {
    "API": "Nt{:06d}Ex",
    "DROP": "x{:06d}",
    "REG": "HKLM\\Software\\Vendor{:06d}\\Run",
    "FILES": "C:\\Users\\u\\AppData\\f{:06d}.dat",
    "FILES_EXT": "e{:06d}",
    "DIR": "C:\\ProgramData\\d{:06d}",
    "STR": "str_{:06d}_key",
}

# score-batch report make-up.
BATCH_REPORTS = 200
DUPLICATE_TOKENS = 3  # extra copies of tokens the report already holds
UNKNOWN_TOKENS = (1, 4)  # inclusive range of tokens the dictionary lacks
TOP_K = 400

CHUNK_CELLS = 4_000_000  # random cells drawn at once while sampling


def feature_names(rng, d):
    """d distinct category-prefixed names; categories in seeded order."""
    shares = np.array([share for _, share, _ in CATEGORIES])
    counts = np.floor(shares / shares.sum() * d).astype(int)
    counts[np.argmax(counts)] += d - counts.sum()
    cats = np.repeat(np.arange(len(CATEGORIES)), counts)
    rng.shuffle(cats)
    names = []
    for j, c in enumerate(cats):
        code = CATEGORIES[c][0]
        names.append(f"{code}:" + TOKEN_STEMS[code].format(j))
    return names


def feature_rates(rng, d, tokens_per_row, families):
    """(12, d) firing rates: row g is family g (0 = goodware)."""
    base = rng.lognormal(0.0, RATE_SIGMA, size=d)
    base *= tokens_per_row / base.sum()
    base = np.minimum(base, MAX_RATE)
    rates = np.tile(base, (len(families) + 1, 1))
    n_planted = (GOODWARE_SIGNAL_FEATURES + SHARED_SIGNAL_FEATURES
                 + FAMILY_SIGNATURE_FEATURES * len(families))
    picks = rng.choice(d, size=n_planted, replace=False)
    goodware, picks = np.split(picks, [GOODWARE_SIGNAL_FEATURES])
    shared, signatures = np.split(picks, [SHARED_SIGNAL_FEATURES])
    rates[0, goodware] += GOODWARE_SIGNAL_RATE
    rates[1:, shared] += SHARED_SIGNAL_RATE
    for f in range(len(families)):
        cols = signatures[f * FAMILY_SIGNATURE_FEATURES:(f + 1) * FAMILY_SIGNATURE_FEATURES]
        rates[f + 1, cols] += FAMILY_SIGNATURE_RATE
    return np.minimum(rates, MAX_RATE)


def sample_rows(rng, d, tokens_per_row):
    """Family id per row and the sorted active ordinals of each row."""
    family = np.repeat(np.arange(len(FAMILY_SIZES) + 1), (N_GOOD, *FAMILY_SIZES))
    rng.shuffle(family)
    group = family.copy()
    stealth = rng.choice(np.flatnonzero(family), round(STEALTH_SHARE * sum(FAMILY_SIZES)),
                         replace=False)
    group[stealth] = 0
    rates = feature_rates(rng, d, tokens_per_row, FAMILY_SIZES)
    row_parts, col_parts = [], []
    step = max(1, CHUNK_CELLS // N_SAMPLES)
    for c0 in range(0, d, step):
        c1 = min(d, c0 + step)
        hits = rng.random((N_SAMPLES, c1 - c0)) < rates[group, c0:c1]
        r, c = np.nonzero(hits)
        row_parts.append(r)
        col_parts.append(c + c0)
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    bounds = np.searchsorted(rows, np.arange(N_SAMPLES + 1))
    active = [cols[bounds[i]:bounds[i + 1]] for i in range(N_SAMPLES)]
    return family, active


def write_dataset(path, names, family, active):
    names_arr = np.asarray(names, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#FEATURES {len(names)}\n")
        fh.write("\n".join(names))
        fh.write(f"\n#SAMPLES {len(family)}\n")
        for i, fam in enumerate(family):
            fh.write(f"s{i:05d}\t{fam}\t{' '.join(names_arr[active[i]])}\n")


def class_counts(family, active, d):
    """Per-feature active counts among goodware (n10) and ransomware (n11)."""
    n10 = np.zeros(d, dtype=np.int64)
    n11 = np.zeros(d, dtype=np.int64)
    for fam, cols in zip(family, active):
        (n11 if fam else n10)[cols] += 1
    return n10, n11


def write_batch(rng, path, names, active):
    """NDJSON reports built from sampled rows; returns the expectations."""
    field_of = {code: fld for code, _, fld in CATEGORIES}
    picks = rng.choice(N_SAMPLES, size=BATCH_REPORTS, replace=False)
    expected = []
    with open(path, "w", encoding="utf-8") as fh:
        for n, i in enumerate(picks):
            doc = {fld: [] for _, _, fld in CATEGORIES}
            for j in active[i]:
                code, token = names[j].split(":", 1)
                doc[field_of[code]].append(token)
            filled = [fld for fld in doc if doc[fld]]
            for _ in range(DUPLICATE_TOKENS):
                fld = filled[int(rng.integers(len(filled)))]
                doc[fld].append(doc[fld][int(rng.integers(len(doc[fld])))])
            n_unknown = int(rng.integers(UNKNOWN_TOKENS[0], UNKNOWN_TOKENS[1] + 1))
            for k in range(n_unknown):
                fld = CATEGORIES[int(rng.integers(len(CATEGORIES)))][2]
                doc[fld].append(f"unseen_{n:04d}_{k}")
            for fld in doc:
                rng.shuffle(doc[fld])
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            expected.append({
                "line": n + 1,
                "ordinals": [int(j) for j in active[i]],
                "matched": len(active[i]),
                "unmatched": n_unknown,
            })
    return expected


def generate(workload, seed, out):
    """Write every input of ``workload`` for ``seed`` into directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1 if workload == "mi-wide" else 0])
    d = D_WIDE if workload == "mi-wide" else D_ELDERAN
    tokens_per_row = MEAN_DENSITY * D_ELDERAN
    names = feature_names(rng, d)
    family, active = sample_rows(rng, d, tokens_per_row)
    write_dataset(out / "data.sparse", names, family, active)
    n10, n11 = class_counts(family, active, d)
    np.savez(out / "truth.npz", family=family, n10=n10, n11=n11)
    if workload == "score-batch":
        expected = write_batch(rng, out / "batch.ndjson", names, active)
        (out / "batch_expected.json").write_text(json.dumps(expected), encoding="utf-8")
        first = (out / "batch.ndjson").read_text(encoding="utf-8").split("\n", 1)[0]
        (out / "one.ndjson").write_text(first + "\n", encoding="utf-8")


def train_models(data, seed, models):
    """Fit the six models on ``data`` with ``rwdetect train`` into ``models``."""
    from rwdetect import cli

    for kind in MODEL_KINDS:
        argv = ["train", "--data", str(data), "--model", kind,
                "--top-k", str(TOP_K), "--seed", str(seed), "--out", str(models)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"rwdetect train --model {kind} exited {code}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train", metavar="MODELS",
                   help="fit the six models on OUT's dataset into MODELS instead")
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    if args.train:
        train_models(Path(args.out) / "data.sparse", args.seed, args.train)
        return
    tmp = Path(args.out + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    generate(args.workload, args.seed, tmp)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
