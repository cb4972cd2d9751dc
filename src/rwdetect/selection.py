"""Mutual-information feature scoring and top-k selection.

Features and labels are both binary, so MI is computed exactly from the
2x2 contingency table with the plug-in estimator, in nats:

    I = sum_{x,y} (n_xy/n) * ln( (n_xy/n) / ((n_x./n)(n_.y/n)) )

Empty cells contribute zero. Selection keeps the k highest-scoring
features, ties broken by ascending column ordinal, so results are
deterministic across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .dataset import BLOCK_LINES, DataMatrix, FeatureDictionary, csv_field, needs_quotes


def score_all(matrix: DataMatrix, y: np.ndarray) -> np.ndarray:
    """MI score of every column against the label, vectorized over a block
    of ``BLOCK_LINES`` columns at a time, so no temporary is d long."""
    n = matrix.n_samples
    d = matrix.n_features
    n_pos = int(y.sum())
    n_neg = n - n_pos

    # Per-column active counts split by class.
    positive = np.repeat(y == 1, np.diff(matrix.indptr))
    n11_all = np.bincount(matrix.indices[positive], minlength=d)
    n10_all = np.bincount(matrix.indices[~positive], minlength=d)
    scores = np.zeros(d, dtype=np.float64)
    for start in range(0, d, BLOCK_LINES):
        n11, n10, out = (a[start:start + BLOCK_LINES] for a in (n11_all, n10_all, scores))
        n01, n00 = n_pos - n11, n_neg - n10
        nx1, nx0 = n10 + n11, n00 + n01
        for nxy, nx, ny in ((n00, nx0, n_neg), (n01, nx0, n_pos),
                            (n10, nx1, n_neg), (n11, nx1, n_pos)):
            mask = nxy > 0
            if np.any(mask):
                out[mask] += (nxy[mask] / n) * np.log(nxy[mask] * n / (nx[mask] * ny))
    np.maximum(scores, 0.0, out=scores)
    return scores


def rank_features(scores) -> np.ndarray:
    """Ordinals by score descending, ties by ascending ordinal (the sort is stable)."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def select_k_best(scores, k: int) -> tuple[int, ...]:
    """Top-k ordinals by score descending, ties by ascending ordinal."""
    return tuple(rank_features(scores)[:k].tolist())


def project(matrix: DataMatrix, selected) -> np.ndarray:
    """The ``selected`` columns of ``matrix``, in that order, as a dense 0/1 uint8 array."""
    new_ordinal = np.full(matrix.n_features, -1, dtype=np.int64)
    new_ordinal[list(selected)] = np.arange(len(selected))
    remapped = new_ordinal[matrix.indices]
    kept = np.flatnonzero(remapped >= 0)
    # The row of each kept entry is looked up in ``indptr``: a row number for
    # every entry would be one more int64 array as long as ``indices``.
    out = np.zeros((matrix.n_samples, len(selected)), dtype=np.uint8)
    out[np.searchsorted(matrix.indptr, kept, side="right") - 1, remapped[kept]] = 1
    return out


def write_scores_csv(fh, dictionary: FeatureDictionary, scores, order) -> None:
    """Write ``feature_name,mi_score`` rows in ``order``, ``rank_features(scores)``, into
    the binary ``fh``; a name is quoted as ``csv_field`` says."""
    ranked = np.asarray(scores, dtype=np.float64)[order]
    # Equal scores are adjacent and repeat a lot: each run of one bit
    # pattern is formatted once.
    bits = ranked.view(np.int64)
    change = np.ones(len(bits), dtype=bool)
    change[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(change).tolist()
    names = np.array(dictionary.names, dtype=object)[order].tolist()
    if needs_quotes("".join(names)):
        names = [csv_field(name) for name in names]
    fh.write(b"feature_name,mi_score\n")
    for a, b in zip(starts, starts[1:] + [len(bits)]):
        tail = f",{ranked[a]:.12g}\n"
        for c in range(a, b, BLOCK_LINES):
            fh.write((tail.join(names[c:min(c + BLOCK_LINES, b)]) + tail).encode("utf-8"))
