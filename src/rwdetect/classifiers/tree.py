"""CART decision tree for binary features, and the flat tree dt, rf and gbt share.

Every feature is 0/1, so a split needs no threshold search: the left
branch takes value 0 and the right branch value 1. Split quality is
weighted Gini impurity, compared exactly via integer cross-multiplication
so tie-breaking (lowest feature ordinal wins) is platform-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TreeParams


@dataclass(frozen=True, eq=False)
class FlatTree:
    """A binary tree as four parallel arrays, nodes in depth-first pre-order.

    Node 0 is the root. Internal node i sends rows whose ``feature[i]``
    is 0 to ``left[i]`` and rows where it is 1 to ``right[i]``. A leaf has
    feature -1, both children pointing at itself, and its output in
    ``value`` (internal nodes hold 0 there).
    """

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] < 0


def build_tree(expand, root) -> FlatTree:
    """The tree ``expand`` describes, node by node in depth-first pre-order.

    ``expand(state, depth)`` gets the state of one node, ``root`` for
    node 0, and returns either ``(feature, left_state, right_state)`` to
    split it or a float, the value of a leaf.
    """
    feature, left, right, value = [], [], [], []

    def grow(state, depth):
        node = len(feature)
        split = expand(state, depth)
        is_split = isinstance(split, tuple)
        feature.append(split[0] if is_split else -1)
        left.append(node)
        right.append(node)
        value.append(0.0 if is_split else split)
        if is_split:
            left[node] = grow(split[1], depth + 1)
            right[node] = grow(split[2], depth + 1)
        return node

    grow(root, 0)
    return FlatTree(*(np.array(a, dtype=np.int32) for a in (feature, left, right)),
                    np.array(value, dtype=np.float64))


def leaf_values(trees, X) -> np.ndarray:
    """Output of the leaf each row of ``X`` reaches in each tree, (rows, trees).

    The trees are joined into one node array and every (row, tree) pair
    moves down one depth level per step. Leaves point at themselves, so a
    pair that has reached one stays there, whatever column it reads.
    """
    roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]], dtype=np.int32)
    feature = np.concatenate([t.feature for t in trees])
    left = np.concatenate([t.left + root for t, root in zip(trees, roots)])
    right = np.concatenate([t.right + root for t, root in zip(trees, roots)])
    value = np.concatenate([t.value for t in trees])
    node = np.broadcast_to(roots, (len(X), len(trees)))
    rows = np.arange(len(X))[:, None]
    f = feature[node]
    while (f >= 0).any():
        node = np.where(X[rows, f], right[node], left[node])
        f = feature[node]
    return value[node]


def find_gini_split(XT, y_sub, pos, idx, candidates, min_samples_leaf):
    """Best binary split of rows ``idx`` among ``candidates`` (sorted, or
    None for all features) of the features x samples matrix ``XT``, given
    their labels ``y_sub`` and its sum ``pos``. Returns (feature, left_idx,
    right_idx), or None when no candidate strictly decreases impurity.

    Weighted Gini of a candidate j is (m - s_j)/m with
    s_j = (pos0^2+neg0^2)/n0 + (pos1^2+neg1^2)/n1, so minimizing impurity
    means maximizing s_j; both sides fit in int64 for any realistic n.
    """
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
    # Exact-quotient floats: equal rationals divide to identical doubles,
    # so argmax picks the lowest-ordinal candidate on true ties.
    score = np.divide(s_num, s_den, out=np.full(len(n1), -np.inf), where=valid)
    best = int(np.argmax(score))

    # Strict gain test, exact in integers: s > (pos^2 + neg^2)/m.
    neg = m - pos
    if int(s_num[best]) * m <= (pos**2 + neg**2) * int(s_den[best]):
        return None

    mask = cols[best] != 0
    feature = best if candidates is None else int(candidates[best])
    return feature, idx[~mask], idx[mask]


def grow_tree(XT, y, idx, params: TreeParams, candidate_picker=None) -> FlatTree:
    """CART growth over rows ``idx``; leaf value is the positive-class fraction."""

    def expand(idx, depth):
        m = len(idx)
        y_sub = y[idx]
        pos = int(y_sub.sum())
        if depth >= params.max_depth or pos in (0, m) or m < 2 * params.min_samples_leaf:
            return pos / m
        candidates = None if candidate_picker is None else candidate_picker()
        split = find_gini_split(XT, y_sub, pos, idx, candidates, params.min_samples_leaf)
        return pos / m if split is None else split

    return build_tree(expand, idx)


@dataclass(frozen=True)
class DecisionTreeModel:
    kind = "dt"
    tree: FlatTree
    params: TreeParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The positive fraction of the training rows in the leaf each row reaches."""
        return leaf_values((self.tree,), X)[:, 0]


def fit_decision_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> DecisionTreeModel:
    tree = grow_tree(np.ascontiguousarray(X.T), y, np.arange(len(y)), params)
    return DecisionTreeModel(tree, params)
