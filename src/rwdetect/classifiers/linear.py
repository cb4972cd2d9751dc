"""Linear models: Pegasos-style hinge-loss SVM and logistic regression.

Both keep their weights and bias on a ``to_grid`` grid, so ``X @ w + b`` is exact
in any order, and both predict by summing the weights over the 1-entries of X
alone. The svm rounds each iterate onto one grid, and its averaged weights onto
the grid for their own |w|_1 + |b|. Logistic regression rounds each residual to
the grid for n rows and its weights and bias to the 2^-32 grid for
|w|_1 + |b| < 2^20, so its fit sums ``X @ w + b`` and ``X.T @ residual`` over
the 1-entries too; a fit whose |w|_1 + |b| reaches 2^20 is a FitError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .base import LogRegParams, SvmParams, sigmoid, to_grid

BATCH = 64  # rows per svm step


@dataclass(frozen=True)
class LinearModel:
    """Weights and a bias over the model's columns: the svm and logreg predict alike."""

    weights: tuple[float, ...]
    bias: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The sigmoid of each row's margin ``x.w + b``, summed exactly over the
        row's 1-entries, so a score reaches 0.5 where the margin is >= 0, and also
        where it lies in the band [-3.33e-16, 0) in which the sigmoid rounds to 0.5."""
        return sigmoid(OneEntries(X, transpose=False) @ np.asarray(self.weights) + self.bias)


@dataclass(frozen=True)
class LinearSvmModel(LinearModel):
    kind = "svm"
    params: SvmParams


def fit_linear_svm(X: np.ndarray, y: np.ndarray, params: SvmParams) -> LinearSvmModel:
    """Seeded mini-batch Pegasos: each step takes the hinge subgradient over the
    next ``BATCH`` rows of a permutation, with step 1/(lam*t + 1), projects onto
    the ball of radius 1/sqrt(lam) and rounds onto one grid; returns
    iterate-averaged weights. A step adds at most d to |w|_1 (eta <= 1), so the
    grid for steps * (d + 1) leaves room for the rounding at any lam, and each
    ``x.w`` is exact in any order. The unit offset in the step keeps early
    iterates bounded when lam is small; the bias rides along as a constant-1
    feature so the projection keeps it bounded too."""
    Xf = np.concatenate([X, np.ones((len(X), 1), X.dtype)], axis=1, dtype=np.float64)
    y_pm = np.where(y == 1, 1.0, -1.0)
    n, d = Xf.shape
    lam = params.regularization
    radius = 1.0 / math.sqrt(lam)
    bound = params.epochs * math.ceil(n / BATCH) * (d + 1)

    rng = np.random.default_rng(params.seed)
    w = np.zeros(d)
    w_sum = np.zeros(d)
    t = 0
    for _ in range(params.epochs):
        for batch in np.split(rng.permutation(n), range(BATCH, n, BATCH)):
            t += 1
            eta = 1.0 / (lam * t + 1.0)
            Xb, yb = Xf[batch], y_pm[batch]
            hinge = yb * (Xb @ w) < 1.0
            w *= 1.0 - eta * lam
            w += (eta / len(batch)) * (yb[hinge] @ Xb[hinge])
            norm = math.sqrt(np.sum(w * w))
            if norm > radius:
                w *= radius / norm
            w_sum += to_grid(w, bound)
    w_avg = w_sum / t
    # The grid of their own |w|_1 + |b|: the ball's bound sqrt(d/lam) is so large at a
    # tiny lam that its grid would round every weight to 0.
    to_grid(w_avg, math.ceil(np.abs(w_avg).sum()))
    return LinearSvmModel(tuple(float(v) for v in w_avg[:-1]), float(w_avg[-1]), params)


@dataclass(frozen=True)
class LogRegModel(LinearModel):
    kind = "logreg"
    params: LogRegParams


class OneEntries:
    """A 0/1 matrix as segments of its 1-entries: segment i holds the column of each
    1 in row i and begins at ``starts[i]``; ``T`` holds the transpose the same way,
    unless ``transpose`` is false. ``@ v`` sums ``v`` over each segment, exactly on
    the grids above, so it equals the dense product bit for bit."""

    def __init__(self, X: np.ndarray, transpose: bool = True):
        rows, self.cols = np.nonzero(X)
        self.starts = np.searchsorted(rows, np.arange(len(X)))
        self.empty = np.diff(self.starts, append=len(rows)) == 0
        self.T = OneEntries(X.T, transpose=False) if transpose else None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        # reduceat reads the appended 0 for a start past the last entry, and gives an
        # empty segment the next one's first entry. A zero sum is +0.0, as a dense one is.
        sums = np.add.reduceat(np.append(v[self.cols], 0.0), self.starts)
        sums[self.empty] = 0.0
        return sums + 0.0


def logistic_gradient(w, b, X, y, l2: float):
    """The gradient in w and in b of mean cross-entropy + (l2/2)||w||^2 (bias
    unpenalized), with each residual rounded to the grid for ``len(y)`` rows."""
    residual = to_grid(sigmoid(X @ w + b) - y, len(y))
    return X.T @ residual / len(y) + l2 * w, float(residual.mean())


def fit_logistic_regression(X: np.ndarray, y: np.ndarray, params: LogRegParams) -> LogRegModel:
    """Full-batch gradient descent from zero initialization."""
    X1 = OneEntries(X)
    yf = y.astype(np.float64)

    wb = np.zeros(X.shape[1] + 1)  # the weights, then the bias
    w = wb[:-1]
    with np.errstate(all="ignore"):  # a step that overflows fails the bound
        for _ in range(params.epochs):
            grad_w, grad_b = logistic_gradient(w, wb[-1], X1, yf, params.l2_penalty)
            grad_norm = float(np.sqrt(np.sum(grad_w * grad_w) + grad_b * grad_b))
            if grad_norm < params.tolerance:
                break
            w -= params.learning_rate * grad_w
            wb[-1] -= params.learning_rate * grad_b
            if not np.abs(to_grid(wb, 2**20)).sum() < 2**20:
                raise FitError("the fit produced a non-finite number or |w|_1 + |b| >= 2^20; "
                               "a smaller learning_rate or a larger penalty avoids it")
    return LogRegModel(tuple(float(v) for v in w), float(wb[-1]), params)
