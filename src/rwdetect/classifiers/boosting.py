"""Gradient-boosted trees with logistic loss and second-order leaf weights.

Per round, with current probability p_i = sigmoid(F_i):
    g_i = p_i - y_i          h_i = p_i (1 - p_i)
Trees are grown greedily on the split gain
    1/2 [ G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - (G_L+G_R)^2/(H_L+H_R+lam) ]
and each leaf outputs -G/(H+lam). The ensemble score is
sigmoid(base_score + lr * sum of tree outputs) with
base_score = logit(mean y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Fingerprint, GbtParams, Prediction, check_xy, scores_to_predictions, sigmoid
from .tree import FlatTree, build_tree, leaf_values


def split_gain(gl, hl, gr, hr, lam) -> float:
    return 0.5 * (
        gl * gl / (hl + lam)
        + gr * gr / (hr + lam)
        - (gl + gr) ** 2 / (hl + hr + lam)
    )


def find_gain_split(X, g, h, idx, params: GbtParams):
    """Best-gain binary split, ties broken by lowest feature ordinal.

    The node's rows are gathered once, as float64; G and H of the right
    side are one matrix-vector product each, and the per-column counts a
    third, exact because every partial sum is a small integer.
    """
    cols = X[idx].astype(np.float64)
    g_sub = g[idx]
    h_sub = h[idx]
    gr = g_sub @ cols
    hr = h_sub @ cols
    gl = g_sub.sum() - gr
    hl = h_sub.sum() - hr
    n1 = np.ones(len(idx)) @ cols
    n0 = len(idx) - n1

    lam = params.l2_leaf_penalty
    gains = split_gain(gl, hl, gr, hr, lam)
    valid = (n0 > 0) & (n1 > 0) & (np.minimum(hl, hr) >= params.min_child_weight)
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    mask = cols[:, best] != 0
    return best, idx[~mask], idx[mask]


def grow_gbt_tree(X, g, h, params: GbtParams, out) -> FlatTree:
    """One round's tree; each leaf also writes its weight to ``out`` at its rows."""

    def expand(idx, depth):
        split = find_gain_split(X, g, h, idx, params) if depth < params.max_depth else None
        if split is not None:
            return split
        weight = -float(g[idx].sum()) / (float(h[idx].sum()) + params.l2_leaf_penalty)
        out[idx] = weight
        return weight

    return build_tree(expand, np.arange(len(g)))


@dataclass(frozen=True)
class GbtModel:
    kind = "gbt"
    trees: tuple[FlatTree, ...]
    base_score: float
    params: GbtParams
    fingerprint: Fingerprint

    def predict(self, X: np.ndarray) -> list[Prediction]:
        self.fingerprint.check_matrix(X)
        margin = np.full(len(X), self.base_score, dtype=np.float64)
        # One tree at a time, in round order, as the fit added them.
        for outputs in leaf_values(self.trees, X).T:
            margin += self.params.learning_rate * outputs
        return scores_to_predictions(sigmoid(margin))


def fit_gradient_boosting(
    X: np.ndarray,
    y: np.ndarray,
    params: GbtParams = GbtParams(),
    fingerprint: Fingerprint | None = None,
) -> GbtModel:
    check_xy(X, y)
    yf = y.astype(np.float64)

    mean = float(np.clip(yf.mean(), 1e-12, 1 - 1e-12))
    base_score = float(np.log(mean / (1.0 - mean)))
    margin = np.full(len(yf), base_score)

    trees = []
    for _ in range(params.n_rounds):
        p = sigmoid(margin)
        g = p - yf
        h = p * (1.0 - p)
        outputs = np.empty(len(yf))
        trees.append(grow_gbt_tree(X, g, h, params, outputs))
        margin = margin + params.learning_rate * outputs
    return GbtModel(
        trees=tuple(trees),
        base_score=base_score,
        params=params,
        fingerprint=fingerprint or Fingerprint(X.shape[1]),
    )
