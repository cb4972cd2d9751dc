"""Test fixtures and reference oracles, kept apart from ``rwdetect``.

No command runs these: they synthesize and write the datasets the tests
load, and they are the plain-Python references that ``score_all`` (MI),
``stratified_split`` (the index-list split its test mask replaced),
``fit_linear_svm`` (objective, and the one-row-a-time fit it replaced),
``fit_logistic_regression`` (its loss, and dense products), ``grow_tree``
(trees grown by numpy counts over each node's rows) and
``fit_gradient_boosting`` (trees grown by gathering every node) and
``write_scores_csv`` (one string per row, quoting found by a regex) are
checked against.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from rwdetect.classifiers.base import GbtParams, LogRegParams, SvmParams, TreeParams, sigmoid, \
    to_grid
from rwdetect.classifiers.io import Fingerprint
from rwdetect.classifiers.linear import logistic_gradient
from rwdetect.classifiers.tree import FlatTree, build_tree
from rwdetect.dataset import BLOCK_LINES, DataMatrix, FeatureDictionary, csv_field
from rwdetect.errors import SplitError


def row_ordinals(matrix: DataMatrix) -> list[np.ndarray]:
    """Active ordinals of every row, as views into ``indices``."""
    bounds = matrix.indptr.tolist()
    return [matrix.indices[a:b] for a, b in zip(bounds, bounds[1:])]


def entry_rows(matrix: DataMatrix) -> np.ndarray:
    """Row number of every entry of ``matrix.indices``."""
    return np.repeat(np.arange(matrix.n_samples), np.diff(matrix.indptr))


def to_dense(matrix: DataMatrix) -> np.ndarray:
    """``matrix`` as a (n_samples, n_features) 0/1 uint8 array."""
    out = np.zeros((matrix.n_samples, matrix.n_features), dtype=np.uint8)
    out[entry_rows(matrix), matrix.indices] = 1
    return out


def every_column(d: int) -> Fingerprint:
    """The fingerprint a model file gives a model fit on all ``d`` columns:
    it selects each of them."""
    return Fingerprint("", tuple(range(d)))


def matrices_equal(a: DataMatrix, b: DataMatrix) -> bool:
    """Same width and the same rows."""
    return a.n_features == b.n_features and np.array_equal(a.indptr, b.indptr) \
        and np.array_equal(a.indices, b.indices)


# The writers name row i sample "s<i>" and give it family ID ``families[i]``;
# 0/1 labels are family IDs too (0 goodware, 1 a ransomware family).

def write_dense_csv(path, matrix: DataMatrix, dictionary: FeatureDictionary, families) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv.writer leaves a lone "\r" bare when the line ends in "\n"; csv_field quotes it.
        fh.write(",".join(map(csv_field, ("sample_id", "family_id", *dictionary.names))) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for i, (family, row) in enumerate(zip(families, to_dense(matrix))):
            writer.writerow([f"s{i}", str(family), *map(str, row.tolist())])


def write_sparse(path, matrix: DataMatrix, dictionary: FeatureDictionary, families) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#FEATURES {matrix.n_features}\n")
        fh.writelines(name + "\n" for name in dictionary.names)
        fh.write(f"#SAMPLES {matrix.n_samples}\n")
        for i, (family, active) in enumerate(zip(families, row_ordinals(matrix))):
            feats = " ".join(dictionary.names[j] for j in active.tolist())
            fh.write(f"s{i}\t{family}\t{feats}\n")


def synthesize_dataset(
    n: int,
    d: int,
    sparsity: float,
    class_signal: list[tuple[int, float, float]],
    seed: int,
    positive_rate: float = 0.5,
) -> tuple[DataMatrix, np.ndarray]:
    """Generate a reproducible synthetic binary dataset and its labels.

    ``class_signal`` entries are (ordinal, P(x=1 | y=0), P(x=1 | y=1));
    every other feature is class-independent Bernoulli(sparsity).
    The labels are read-only int64, 1 for a positive sample.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    signal = {}
    for ordinal, p0, p1 in class_signal:
        if not 0 <= ordinal < d:
            raise ValueError(f"signal ordinal {ordinal} out of range [0, {d})")
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
            raise ValueError("class-conditional probabilities must be in [0,1]")
        signal[ordinal] = (p0, p1)

    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    cells = rng.random((n, d))

    thresholds = np.full((n, d), sparsity)
    for ordinal, (p0, p1) in signal.items():
        thresholds[:, ordinal] = np.where(labels == 1, p1, p0)
    dense = cells < thresholds

    labels.setflags(write=False)
    return DataMatrix.from_rows(d, [np.flatnonzero(row) for row in dense]), labels


def scoring_dictionary(names) -> FeatureDictionary:
    """``names`` as ``load_dictionary`` returns them, with their membership set."""
    names = tuple(names)
    return FeatureDictionary(names, frozenset(names))


def generic_dictionary(d: int, category: str = "STR") -> FeatureDictionary:
    """Placeholder dictionary for synthetic matrices."""
    return FeatureDictionary(tuple(f"{category}:f{j:05d}" for j in range(d)))


def row_string_write_scores_csv(fh, dictionary: FeatureDictionary, scores, order) -> None:
    """The ``write_scores_csv`` that joined runs replaced: a regex search of the
    joined names for a character to quote, and one ``name + tail`` string a row."""
    ranked = np.asarray(scores, dtype=np.float64)[order]
    bits = ranked.view(np.int64)
    change = np.ones(len(bits), dtype=bool)
    change[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(change).tolist()
    names = dictionary.names
    if re.search('[,"\r\n]', "".join(names)):
        names = [csv_field(name) for name in names]
    fh.write(b"feature_name,mi_score\n")
    for a, b in zip(starts, starts[1:] + [len(bits)]):
        tail = f",{ranked[a]:.12g}\n"
        rows = order[a:b].tolist()
        for c in range(0, len(rows), BLOCK_LINES):
            fh.write("".join([names[j] + tail for j in rows[c:c + BLOCK_LINES]]).encode("utf-8"))


def list_stratified_split(y: np.ndarray, seed: int, test_fraction: float):
    """The index-list ``stratified_split`` that one boolean test mask replaced:
    the same draws, collected in a list and a set, the rows scanned and sorted."""
    rng = np.random.default_rng(seed)
    classes = np.unique(y)
    if len(classes) < 2:
        raise SplitError("stratified split requires both classes present")
    test_idx: list[int] = []
    for c in classes:
        members = np.flatnonzero(y == c)
        k = round(len(members) * test_fraction)
        if not 0 < k < len(members):
            raise SplitError(f"test_fraction {test_fraction} empties a partition for class {c}")
        perm = rng.permutation(members)
        test_idx.extend(int(i) for i in perm[:k])
    test_set = set(test_idx)
    return [i for i in range(len(y)) if i not in test_set], sorted(test_idx)


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of (feature value, label): n_xy = #{feature=x, label=y}."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        if min(self.n00, self.n01, self.n10, self.n11) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def n(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


def mi_score(t: ContingencyTable) -> float:
    """Exact plug-in mutual information of a 2x2 table, in nats."""
    n = t.n
    if n == 0:
        raise ValueError("empty contingency table")
    nx1 = t.n10 + t.n11
    nx0 = t.n00 + t.n01
    ny1 = t.n01 + t.n11
    ny0 = t.n00 + t.n10
    total = 0.0
    for nxy, nx, ny in (
        (t.n00, nx0, ny0),
        (t.n01, nx0, ny1),
        (t.n10, nx1, ny0),
        (t.n11, nx1, ny1),
    ):
        if nxy > 0:
            total += (nxy / n) * math.log(nxy * n / (nx * ny))
    # Plug-in MI is non-negative; clamp float noise on independent tables.
    return max(total, 0.0)


def svm_objective(w, b, X, y_pm, lam: float) -> float:
    """lam/2 ||w||^2 + mean hinge loss, the objective ``fit_linear_svm`` descends."""
    margins = y_pm * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(hinge.mean())


def sequential_svm_fit(X, y, params: SvmParams):
    """The weights and bias of the svm fit that steps on one row at a time, in a
    seeded permutation per epoch, with float64 dot products in BLAS order and the
    averaged weights rounded once onto the grid for their own |w|_1 + |b|."""
    Xf = np.concatenate([X, np.ones((len(X), 1), X.dtype)], axis=1, dtype=np.float64)
    y_pm = np.where(y == 1, 1.0, -1.0)
    n, d = Xf.shape
    lam = params.regularization
    radius = 1.0 / math.sqrt(lam)
    rng = np.random.default_rng(params.seed)
    w, w_sum, t = np.zeros(d), np.zeros(d), 0
    for _ in range(params.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t + 1.0)
            margin = y_pm[i] * Xf[i].dot(w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y_pm[i] * Xf[i]
            norm = math.sqrt(w.dot(w))
            if norm > radius:
                w *= radius / norm
            w_sum += w
    w_avg = to_grid(w_sum / t, math.ceil(np.abs(w_sum / t).sum()))
    return w_avg[:-1], float(w_avg[-1])


def logistic_loss(w, b, X, y, l2: float) -> float:
    """Mean cross-entropy + (l2/2)||w||^2 (bias unpenalized), the objective whose
    gradient ``logistic_gradient`` computes, in the softplus form log(1 + e^z) - y z."""
    z = X @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)


def dense_logreg_fit(X, y, params: LogRegParams):
    """The weights and bias of ``fit_logistic_regression``'s descent, taken with
    dense float64 products ``X @ w`` and ``X.T @ residual``, and the loss before
    each epoch's step."""
    Xf = X.astype(np.float64)
    yf = y.astype(np.float64)
    wb = np.zeros(Xf.shape[1] + 1)  # the weights, then the bias
    w = wb[:-1]
    history = []
    for _ in range(params.epochs):
        history.append(logistic_loss(w, wb[-1], Xf, yf, params.l2_penalty))
        grad_w, grad_b = logistic_gradient(w, wb[-1], Xf, yf, params.l2_penalty)
        grad_norm = float(np.sqrt(np.sum(grad_w * grad_w) + grad_b * grad_b))
        if grad_norm < params.tolerance:
            break
        w -= params.learning_rate * grad_w
        wb[-1] -= params.learning_rate * grad_b
        assert np.abs(to_grid(wb, 2**20)).sum() < 2**20
    return w, float(wb[-1]), history


def split_gain(gl, hl, gr, hr, lam) -> float:
    return 0.5 * (
        gl * gl / (hl + lam)
        + gr * gr / (hr + lam)
        - (gl + gr) ** 2 / (hl + hr + lam)
    )


def gathered_gbt_trees(X, y, params: GbtParams) -> list[FlatTree]:
    """The trees ``fit_gradient_boosting`` grows, grown instead by gathering
    every node's rows afresh and summing g, h and the counts column by column,
    with no BLAS product and no subtraction of a sibling. The split is the
    lowest-ordinal feature of greatest gain."""
    yf = y.astype(np.float64)
    mean = float(np.clip(yf.mean(), 1e-12, 1 - 1e-12))
    margin = np.full(len(yf), float(np.log(mean / (1.0 - mean))))
    lam = params.l2_leaf_penalty
    trees = []
    for _ in range(params.n_rounds):
        p = sigmoid(margin)
        g, h = to_grid(p - yf, len(yf)), to_grid(p * (1.0 - p), len(yf))
        outputs = np.empty(len(yf))

        def expand(idx, depth):
            cols = X[idx] != 0
            gr, hr = (np.where(cols, v[idx, None], 0.0).sum(axis=0) for v in (g, h))
            n1 = cols.sum(axis=0)
            gl, hl, n0 = g[idx].sum() - gr, h[idx].sum() - hr, len(idx) - n1
            valid = (n0 > 0) & (n1 > 0) & (np.minimum(hl, hr) >= params.min_child_weight)
            gains = np.where(valid, split_gain(gl, hl, gr, hr, lam), -np.inf)
            if depth < params.max_depth and gains.max() > 0.0:
                best = int(np.flatnonzero(gains == gains.max())[0])
                return best, idx[~cols[:, best]], idx[cols[:, best]]
            outputs[idx] = float(-g[idx].sum() / (h[idx].sum() + lam))
            return outputs[idx[0]]

        trees.append(build_tree(expand, np.arange(len(yf))))
        margin = margin + params.learning_rate * outputs
    return trees


def numpy_gini_split(XT, y_sub, pos, idx, candidates, min_samples_leaf):
    """Best binary split of rows ``idx`` among ``candidates`` (sorted, or
    None for all features) of the features x samples matrix ``XT``, given
    their labels ``y_sub`` and its sum ``pos``, by numpy counts over the rows.
    Returns (feature, left_idx, right_idx), or None when no candidate
    strictly decreases impurity."""
    m = len(idx)
    cols = (XT if candidates is None else XT[candidates])[:, idx]
    n1 = cols.sum(axis=1, dtype=np.int64)
    pos1 = cols @ y_sub
    n0 = m - n1
    pos0 = pos - pos1
    neg1 = n1 - pos1
    neg0 = n0 - pos0
    valid = np.minimum(n0, n1) >= max(1, min_samples_leaf)
    if not valid.any():
        return None
    s_num = (pos0**2 + neg0**2) * n1 + (pos1**2 + neg1**2) * n0
    s_den = n0 * n1
    score = np.divide(s_num, s_den, out=np.full(len(n1), -np.inf), where=valid)
    best = int(np.argmax(score))
    neg = m - pos
    if int(s_num[best]) * m <= (pos**2 + neg**2) * int(s_den[best]):
        return None
    mask = cols[best] != 0
    feature = best if candidates is None else int(candidates[best])
    return feature, idx[~mask], idx[mask]


def numpy_grow_tree(XT, y, idx, params: TreeParams, candidate_picker=None) -> FlatTree:
    """The tree ``grow_tree`` grows on the rows ``idx`` (sorted, a row once per
    draw), grown instead by ``numpy_gini_split`` on each node's gathered rows."""

    def expand(idx, depth):
        m = len(idx)
        y_sub = y[idx]
        pos = int(y_sub.sum())
        if depth >= params.max_depth or pos in (0, m) or m < 2 * params.min_samples_leaf:
            return pos / m
        candidates = None if candidate_picker is None else candidate_picker()
        split = numpy_gini_split(XT, y_sub, pos, idx, candidates, params.min_samples_leaf)
        return pos / m if split is None else split

    return build_tree(expand, idx)
