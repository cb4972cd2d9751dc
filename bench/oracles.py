"""Output checks computed apart from the program.

Each check takes an output file's text plus what the generator knows
about the inputs, and returns a list of problems (empty when the output
is right). None of them calls into ``rwdetect``: MI comes from per-class
counts of the generated rows, verdicts from walking the model JSON, and
confusion counts from the generated labels and the split fraction, and
a floor on accuracy from the planted class signal.
"""

from __future__ import annotations

import math

TEST_FRACTION = 503 / 1524
MI_REL_TOL = 1e-9
MI_ABS_TOL = 1e-12
SCORE_TOL = 1.5e-6  # verdict scores are printed with 6 decimals
RATE_TOL = 0.005 + 1e-9  # rate columns are printed with 2 decimals
MAX_PROBLEMS = 5


def _entropy(counts, n):
    return -sum(c / n * math.log(c / n) for c in counts if c > 0)


def plug_in_mi(n10, n11, n_neg, n_pos):
    """I(X;Y) = H(X) + H(Y) - H(X,Y) of the 2x2 table, in nats."""
    n = n_neg + n_pos
    n00, n01 = n_neg - n10, n_pos - n11
    h_x = _entropy((n00 + n01, n10 + n11), n)
    h_y = _entropy((n_neg, n_pos), n)
    h_xy = _entropy((n00, n01, n10, n11), n)
    return max(h_x + h_y - h_xy, 0.0)


def check_mi_csv(text, names, n10, n11, n_neg, n_pos):
    """``feature_name,mi_score`` rows: every feature once, plug-in MI values,
    descending order, identical tables in ascending ordinal order."""
    lines = text.split("\n")
    if lines[0] != "feature_name,mi_score" or lines[-1] != "":
        return ["mi csv: bad header or missing final newline"]
    rows = lines[1:-1]
    if len(rows) != len(names):
        return [f"mi csv: {len(rows)} rows for {len(names)} features"]
    ordinal = {name: j for j, name in enumerate(names)}
    problems, seen = [], set()
    last_of_table, mi_of_table = {}, {}
    prev = None
    for pos, row in enumerate(rows):
        name, _, value = row.rpartition(",")
        j = ordinal.get(name)
        if j is None or j in seen:
            problems.append(f"mi csv row {pos}: unknown or repeated feature {name!r}")
            break
        seen.add(j)
        table = (int(n10[j]), int(n11[j]))
        expected = mi_of_table.get(table)
        if expected is None:
            expected = mi_of_table[table] = plug_in_mi(*table, n_neg, n_pos)
        if not math.isclose(float(value), expected, rel_tol=MI_REL_TOL, abs_tol=MI_ABS_TOL):
            problems.append(f"mi csv row {pos}: {name} scored {value}, expected {expected:.12g}")
        if prev is not None and expected > prev + MI_ABS_TOL + MI_REL_TOL * expected:
            problems.append(f"mi csv row {pos}: {name} ranks below a lower score")
        if last_of_table.get(table, -1) > j:
            problems.append(f"mi csv row {pos}: tie {name} after a higher ordinal")
        last_of_table[table] = j
        prev = expected
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, z))))


def _walk(node, x, leaf_key):
    while "f" in node:
        node = node["r"] if node["f"] in x else node["l"]
    return node[leaf_key]


def model_verdict(doc, ordinals):
    """(label, score, margin) of one report from the model document alone.

    ``margin`` is the quantity the label thresholds, so a caller can
    accept either label when it sits on the threshold."""
    kind = doc["model_kind"]
    payload = doc["payload"]
    hp = doc["hyperparameters"]
    column = {o: i for i, o in enumerate(doc["fingerprint"]["selected"])}
    x = {column[o] for o in ordinals if o in column}
    if kind in ("logreg", "svm"):
        margin = math.fsum(payload["weights"][i] for i in x) + payload["bias"]
        score = _sigmoid(margin)
        if kind == "svm":
            return int(margin >= 0.0), score, margin
        return int(score >= 0.5), score, score - 0.5
    if kind == "knn":
        dist = [len(x) + len(r) - 2 * len(x.intersection(r)) for r in payload["rows"]]
        nearest = sorted(range(len(dist)), key=lambda i: (dist[i], i))[:hp["k_neighbors"]]
        ones = sum(payload["labels"][i] for i in nearest)
        k = hp["k_neighbors"]
        return int(2 * ones > k), ones / k, 2 * ones - k - 0.5
    if kind == "dt":
        score = _walk(payload["root"], x, "s")
        return int(score >= 0.5), score, score - 0.5
    if kind == "rf":
        votes = sum(_walk(t, x, "s") >= 0.5 for t in payload["trees"])
        score = votes / len(payload["trees"])
        return int(score >= 0.5), score, score - 0.5
    if kind == "gbt":
        margin = payload["base_score"]
        for tree in payload["trees"]:
            margin += hp["learning_rate"] * _walk(tree, x, "w")
        score = _sigmoid(margin)
        return int(score >= 0.5), score, score - 0.5
    raise ValueError(f"unknown model kind {kind!r}")


def check_verdicts(text, expected, doc, batch_name="batch.ndjson"):
    """``report_id,label,score,matched,unmatched`` rows of one score run.

    Rows must follow batch order; a report without a row failed to score
    and is counted as failed by the caller, not here."""
    lines = text.split("\n")
    if lines[0] != "report_id,label,score,matched,unmatched" or lines[-1] != "":
        return ["verdicts: bad header or missing final newline"]
    by_id = {f"{batch_name}:{exp['line']}": (pos, exp) for pos, exp in enumerate(expected)}
    problems, last = [], -1
    for row in lines[1:-1]:
        cells = row.split(",")
        pos, exp = by_id.get(cells[0], (None, None))
        if len(cells) != 5 or pos is None or pos <= last:
            problems.append(f"verdicts: malformed, unknown or misordered row {row!r}")
        else:
            last = pos
            label, score, matched, unmatched = int(cells[1]), float(cells[2]), *map(int, cells[3:])
            want_label, want_score, margin = model_verdict(doc, exp["ordinals"])
            if (matched, unmatched) != (exp["matched"], exp["unmatched"]):
                problems.append(f"verdicts {cells[0]}: matched/unmatched {matched}/{unmatched}, "
                                f"expected {exp['matched']}/{exp['unmatched']}")
            if abs(score - want_score) > SCORE_TOL:
                problems.append(f"verdicts {cells[0]}: score {score}, expected {want_score:.6f}")
            if label != want_label and abs(margin) > 1e-9:
                problems.append(f"verdicts {cells[0]}: label {label}, expected {want_label}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def _rate_ok(cell, num, den):
    if den == 0:
        return cell == "nan"
    return cell != "nan" and abs(float(cell) - num / den) <= RATE_TOL


def accuracy_floor(n_neg, n_pos):
    """Least test accuracy, in %, a fitted model must reach.

    The generator plants 40 signature features per family that fire 50
    points more often inside it, so every method the paper compares can
    separate the classes; the floor sits halfway between the majority-class
    rate (61.8 % of the test split) and 100 %. A fit that predicts one
    class, or labels at random, lands below it."""
    want_pos, want_neg = round(n_pos * TEST_FRACTION), round(n_neg * TEST_FRACTION)
    majority = 100 * max(want_pos, want_neg) / (want_pos + want_neg)
    return (majority + 100) / 2


def _second_accuracy(r, acc0, total):
    """The second seed's accuracy, rebuilt from the first seed's accuracy
    ``acc0`` and the ``acc%_mean``/``acc%_std`` columns; None when those
    columns are missing or fit no whole count of correct predictions.

    ``acc%_mean`` has 2 decimals, so the second seed's count of correct
    predictions is known to within 2 × 0.005 % of ``total``, well under
    one, and ``acc%_std`` to within 0.005 plus that error over √2."""
    if "acc%_mean" not in r or "acc%_std" not in r:
        return None
    acc1 = 2 * float(r["acc%_mean"]) - acc0
    hits = acc1 * total / 100  # correct test predictions of the second seed
    std = abs(acc0 - acc1) / math.sqrt(2)
    if abs(hits - round(hits)) > 2 * RATE_TOL * total / 100 \
            or abs(float(r["acc%_std"]) - std) > RATE_TOL * (1 + math.sqrt(2)):
        return None
    return 100 * round(hits) / total


def check_reproduce_csv(text, n_neg, n_pos, n_models=6):
    """A two-seed ``reproduce`` table: test partition sizes follow the
    stratified split of the generated labels, every rate column agrees
    with the confusion counts, the across-seed mean and deviation agree
    with them too, and both seeds' accuracies reach ``accuracy_floor``."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["reproduce csv: missing final newline"]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    if len(rows) != n_models:
        return [f"reproduce csv: {len(rows)} model rows, expected {n_models}"]
    want_pos = round(n_pos * TEST_FRACTION)
    want_neg = round(n_neg * TEST_FRACTION)
    floor = accuracy_floor(n_neg, n_pos)
    problems = []
    for r in rows:
        tp, tn, fp, fn = (int(r[c]) for c in ("tp", "tn", "fp", "fn"))
        name = r["model"]
        if tp + fn != want_pos or tn + fp != want_neg:
            problems.append(f"reproduce {name}: tp+fn={tp + fn}, tn+fp={tn + fp}; "
                            f"expected {want_pos} and {want_neg}")
        total = tp + tn + fp + fn
        if not _rate_ok(r["acc%"], 100 * (tp + tn), total):
            problems.append(f"reproduce {name}: acc% {r['acc%']} disagrees with counts")
        if not _rate_ok(r["prec"], tp, tp + fp):
            problems.append(f"reproduce {name}: prec {r['prec']} disagrees with counts")
        if not _rate_ok(r["rec"], tp, tp + fn):
            problems.append(f"reproduce {name}: rec {r['rec']} disagrees with counts")
        d_acc = 100 * (tp + tn) / total - float(r["ref_acc%"])
        if abs(float(r["d_acc"]) - d_acc) > RATE_TOL:
            problems.append(f"reproduce {name}: d_acc {r['d_acc']} disagrees with counts")
        accs = [100 * (tp + tn) / total]
        accs.append(_second_accuracy(r, accs[0], total))
        if accs[1] is None:
            problems.append(f"reproduce {name}: acc%_mean/acc%_std missing or not the "
                            f"mean and deviation of two whole counts")
        elif min(accs) < floor:
            problems.append(f"reproduce {name}: accuracy {min(accs):.2f} % is below "
                            f"{floor:.2f} %, halfway from the majority rate to 100 %")
    return problems
