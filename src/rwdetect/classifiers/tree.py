"""CART decision tree for binary features, and the flat tree dt, rf and gbt share.

Every feature is 0/1, so a split needs no threshold search: the left
branch takes value 0 and the right branch value 1. Split quality is
weighted Gini impurity (m - s)/m, with s = (pos0^2+neg0^2)/n0 +
(pos1^2+neg1^2)/n1 from integer counts on row bitsets. Equal rationals
divide to identical doubles, so the lowest feature ordinal wins a true tie
on any platform, and the gain test is exact in integers.
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


def bitsets(M: np.ndarray) -> list[int]:
    """Each row of the 0/1 array ``M`` as an int whose bit i is the row's entry i."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(M, axis=1, bitorder="little")]


def grow_tree(columns, labels: int, counts, params: TreeParams, candidate_picker=None) -> FlatTree:
    """CART growth on training rows drawn ``counts[i]`` times each, given the
    ``bitsets`` of each feature's rows with a 1 and of the positive rows; a
    leaf's value is the positive fraction of its draws.

    A node is (its distinct rows as an int, its draws m, its positive draws pos).
    ``digits[b]`` holds the rows whose count has bit b set, so a row set S holds
    sum_b popcount(S & digits[b]) << b draws: counting a candidate's n1 and pos1
    takes no array. The candidates go in ascending order.
    """
    bits = (counts >> np.arange(int(counts.max()).bit_length())[:, None]) & 1
    drawn, *digits = bitsets(np.vstack([counts > 0, bits]))
    least = max(1, params.min_samples_leaf)

    def expand(node, depth):
        rows, m, pos = node
        if depth >= params.max_depth or pos in (0, m) or m < 2 * params.min_samples_leaf:
            return pos / m
        planes = [(rows & digit, rows & digit & labels, b) for b, digit in enumerate(digits)
                  if rows & digit]
        best, best_score = None, -1.0  # below every score
        for j in range(len(columns)) if candidate_picker is None else candidate_picker().tolist():
            col = columns[j]
            if not col & rows:
                continue
            n1 = pos1 = 0
            for plane, positives, b in planes:
                n1 += (col & plane).bit_count() << b
                pos1 += (col & positives).bit_count() << b
            n0, pos0 = m - n1, pos - pos1
            if n0 < least or n1 < least:
                continue
            s_num = (pos0 * pos0 + (n0 - pos0) ** 2) * n1 + (pos1 * pos1 + (n1 - pos1) ** 2) * n0
            s_den = n0 * n1
            score = float(s_num) / float(s_den)
            if score > best_score:
                best, best_score = (j, s_num, s_den, n1, pos1), score
        # Strict gain test, exact in integers: s > (pos^2 + neg^2)/m.
        if best is None or best[1] * m <= (pos * pos + (m - pos) ** 2) * best[2]:
            return pos / m
        j, _, _, n1, pos1 = best
        right = rows & columns[j]
        return j, (rows ^ right, m - n1, pos - pos1), (right, n1, pos1)

    pos = sum((digit & labels).bit_count() << b for b, digit in enumerate(digits))
    return build_tree(expand, (drawn, int(counts.sum()), pos))


@dataclass(frozen=True)
class DecisionTreeModel:
    kind = "dt"
    tree: FlatTree
    params: TreeParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The positive fraction of the training rows in the leaf each row reaches."""
        return leaf_values((self.tree,), X)[:, 0]


def fit_decision_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> DecisionTreeModel:
    tree = grow_tree(bitsets(X.T), bitsets(y[None])[0], np.ones(len(y), np.int64), params)
    return DecisionTreeModel(tree, params)
