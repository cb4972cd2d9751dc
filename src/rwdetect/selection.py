"""Mutual-information feature scoring and top-k selection.

Features and labels are both binary, so MI is computed exactly from the
2x2 contingency table with the plug-in estimator, in nats:

    I = sum_{x,y} (n_xy/n) * ln( (n_xy/n) / ((n_x./n)(n_.y/n)) )

Empty cells contribute zero. Selection keeps the k highest-scoring
features, ties broken by ascending column ordinal, so results are
deterministic across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, FeatureDictionary


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


def score_all(matrix: DataMatrix, y: np.ndarray) -> np.ndarray:
    """MI score of every column against the label, vectorized over columns."""
    if len(y) != matrix.n_samples:
        raise ValueError(
            f"labels length {len(y)} != n_samples {matrix.n_samples}"
        )
    n = matrix.n_samples
    d = matrix.n_features
    n_pos = int(y.sum())
    n_neg = n - n_pos

    # Per-column active counts split by class.
    positive = (y == 1)[matrix.entry_rows()]
    n11 = np.bincount(matrix.indices[positive], minlength=d)
    n10 = np.bincount(matrix.indices[~positive], minlength=d)
    n01 = n_pos - n11
    n00 = n_neg - n10

    nx1 = n10 + n11
    nx0 = n00 + n01
    scores = np.zeros(d, dtype=np.float64)
    for nxy, nx, ny in ((n00, nx0, n_neg), (n01, nx0, n_pos),
                        (n10, nx1, n_neg), (n11, nx1, n_pos)):
        mask = nxy > 0
        if np.any(mask):
            scores[mask] += (nxy[mask] / n) * np.log(
                nxy[mask] * n / (nx[mask] * ny)
            )
    np.maximum(scores, 0.0, out=scores)
    return scores


def rank_features(scores) -> np.ndarray:
    """Ordinals by score descending, ties by ascending ordinal."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(len(scores)), -scores))


def select_k_best(scores, k: int) -> tuple[int, ...]:
    """Top-k ordinals by score descending, ties by ascending ordinal."""
    scores = np.asarray(scores, dtype=np.float64)
    d = len(scores)
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range [1, {d}]")
    return tuple(rank_features(scores)[:k].tolist())


def project(matrix: DataMatrix, selected) -> np.ndarray:
    """The ``selected`` columns of ``matrix``, in that order, as a dense 0/1 uint8 array."""
    selected = np.asarray(list(selected), dtype=np.int64)
    if len(np.unique(selected)) != len(selected):
        raise ValueError("duplicate ordinal in selection")
    outside = selected[(selected < 0) | (selected >= matrix.n_features)]
    if len(outside):
        raise ValueError(
            f"ordinal {outside[0]} out of range [0, {matrix.n_features})"
        )
    new_ordinal = np.full(matrix.n_features, -1, dtype=np.int64)
    new_ordinal[selected] = np.arange(len(selected))
    remapped = new_ordinal[matrix.indices]
    kept = np.flatnonzero(remapped >= 0)
    # The row of each kept entry is looked up in ``indptr``: a row number for
    # every entry would be one more int64 array as long as ``indices``.
    out = np.zeros((matrix.n_samples, len(selected)), dtype=np.uint8)
    out[np.searchsorted(matrix.indptr, kept, side="right") - 1, remapped[kept]] = 1
    return out


def write_scores_csv(path, dictionary: FeatureDictionary, scores) -> None:
    """Dump ``feature_name,mi_score`` rows sorted by score descending."""
    order = rank_features(scores)
    ranked = np.asarray(scores, dtype=np.float64)[order]
    # Equal scores are adjacent and repeat a lot: each run of one bit
    # pattern is formatted once.
    bits = ranked.view(np.int64)
    change = np.ones(len(bits), dtype=bool)
    change[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(change).tolist()
    names = dictionary.names
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature_name,mi_score\n")
        for a, b in zip(starts, starts[1:] + [len(bits)]):
            tail = f",{ranked[a]:.12g}\n"
            fh.writelines(names[j] + tail for j in order[a:b].tolist())
