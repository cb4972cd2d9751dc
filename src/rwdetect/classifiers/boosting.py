"""Gradient-boosted trees with logistic loss and second-order leaf weights.

Per round, with current probability p_i = sigmoid(F_i):
    g_i = p_i - y_i          h_i = p_i (1 - p_i)
Trees are grown greedily on the split gain
    1/2 [ G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - (G_L+G_R)^2/(H_L+H_R+lam) ]
and each leaf outputs -G/(H+lam). The ensemble score is
sigmoid(base_score + lr * sum of tree outputs) with
base_score = logit(mean y).

g and h are rounded to ``to_grid``'s grid for n rows (fixed-point gradients,
Shi et al., NeurIPS 2022), so every sum is exact in any order and the model
bytes do not depend on the BLAS kernel. A split gathers only its smaller
child; the larger one's sums are the parent's minus it (Ke et al., NeurIPS 2017).
Each node carries its totals G and H, so a leaf gathers no rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import GbtParams, check_finite, sigmoid, to_grid
from .tree import FlatTree, build_tree, leaf_values


def find_gain_split(n, totals, sums, params: GbtParams):
    """Best-gain feature of a node of ``n`` rows (lowest ordinal on ties), or None.
    ``totals`` is the node's [G, H] and ``sums`` its (3, k) array [G; H; n1] over
    its rows where each feature is 1. The parent term is one scalar, as the
    children's sums add up to the totals exactly."""
    G, H = totals
    gr, hr, n1 = sums
    gl, hl = totals[:, None] - sums[:2]
    lam = params.l2_leaf_penalty
    # 0/0 at lam = 0 is masked below.
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam))
    valid = (n1 > 0) & (n1 < n) & (np.minimum(hl, hr) >= params.min_child_weight)
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    return None if gains[best] <= 0.0 else best


def grow_gbt_tree(Xf, ghn, params: GbtParams, out) -> FlatTree:
    """One round's tree; each leaf also writes its weight to ``out`` at its rows.
    A node is its rows ``idx``, its totals and its sums (see ``find_gain_split``),
    which are ``ghn[:, idx] @ Xf[idx]``; a node at max_depth gets no sums."""

    def expand(node, depth):
        idx, totals, sums = node
        best = None if sums is None else find_gain_split(len(idx), totals, sums, params)
        if best is None:
            out[idx] = -totals[0] / (totals[1] + params.l2_leaf_penalty)
            return float(out[idx[0]])
        mask = Xf[idx, best] != 0
        sides, side_sums = (idx[~mask], idx[mask]), [None, None]
        if depth + 1 < params.max_depth:
            small = int(2 * len(sides[1]) < len(idx))
            side_sums[small] = ghn[:, sides[small]] @ Xf[sides[small]]
            side_sums[1 - small] = sums - side_sums[small]
        right = sums[:2, best]
        return best, *zip(sides, (totals - right, right), side_sums)

    root = np.arange(ghn.shape[1]), ghn[:2].sum(axis=1), ghn @ Xf if params.max_depth else None
    return build_tree(expand, root)


@dataclass(frozen=True)
class GbtModel:
    kind = "gbt"
    trees: tuple[FlatTree, ...]
    base_score: float
    params: GbtParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(len(X), self.base_score, dtype=np.float64)
        # One tree at a time, in round order, as the fit added them.
        for outputs in leaf_values(self.trees, X).T:
            margin += self.params.learning_rate * outputs
        return sigmoid(margin)


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, params: GbtParams) -> GbtModel:
    yf = y.astype(np.float64)
    Xf = X.astype(np.float64)
    ghn = np.ones((3, len(yf)))  # g, h and 1 per row

    mean = float(np.clip(yf.mean(), 1e-12, 1 - 1e-12))
    base_score = float(np.log(mean / (1.0 - mean)))
    margin = np.full(len(yf), base_score)

    trees = []
    # At lam = 0 a leaf whose hessians are all 0 divides by 0, and a large
    # learning rate overflows the margin: either ends in check_finite.
    with np.errstate(all="ignore"):
        for _ in range(params.n_rounds):
            p = sigmoid(margin)
            ghn[:2] = p - yf, p * (1.0 - p)
            to_grid(ghn[:2], len(yf))
            outputs = np.empty(len(yf))
            trees.append(grow_gbt_tree(Xf, ghn, params, outputs))
            margin = margin + params.learning_rate * outputs
    check_finite(np.concatenate([t.value for t in trees]))
    return GbtModel(tuple(trees), base_score, params)
