"""Linear models: Pegasos-style hinge-loss SVM and logistic regression.

Logistic regression rounds each residual to ``to_grid``'s grid for n rows
and its weights and bias to the 2^-32 grid for |w|_1 + |b| < 2^20, so
``X @ w + b`` and ``X.T @ residual`` are exact and its bytes do not depend
on the BLAS kernel; a fit whose |w|_1 + |b| reaches 2^20 is a FitError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from .base import (
    Fingerprint,
    LogRegParams,
    Prediction,
    SvmParams,
    scores_to_predictions,
    sigmoid,
    to_grid,
)


@dataclass(frozen=True)
class LinearSvmModel:
    kind = "svm"
    weights: tuple[float, ...]
    bias: float
    params: SvmParams
    fingerprint: Fingerprint

    def predict(self, X: np.ndarray) -> list[Prediction]:
        """Label is the margin sign; the score maps the margin through a
        fixed logistic link so thresholding at 0.5 agrees with the sign."""
        margins = X.astype(np.float64) @ np.asarray(self.weights) + self.bias
        return [
            Prediction(int(m >= 0.0), float(sigmoid(m))) for m in margins
        ]


def fit_linear_svm(
    X: np.ndarray, y: np.ndarray, params: SvmParams, fingerprint: Fingerprint
) -> LinearSvmModel:
    """Seeded stochastic subgradient descent with step 1/(lam*t + 1) and
    projection onto the ball of radius 1/sqrt(lam), returning
    iterate-averaged weights. The unit offset in the step keeps early
    iterates bounded when lam is small; the bias rides along as a
    constant-1 feature so the projection keeps it bounded too."""
    Xf = np.concatenate([X, np.ones((len(X), 1), X.dtype)], axis=1, dtype=np.float64)
    y_pm = np.where(y == 1, 1.0, -1.0)
    n, d = Xf.shape
    lam = params.regularization
    radius = 1.0 / np.sqrt(lam)

    rng = np.random.default_rng(params.seed)
    w = np.zeros(d)
    w_sum = np.zeros(d)
    t = 0
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t + 1.0)
            margin = y_pm[i] * (Xf[i] @ w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y_pm[i] * Xf[i]
            norm = float(np.sqrt(w @ w))
            if norm > radius:
                w *= radius / norm
            w_sum += w
    w_avg = w_sum / t
    return LinearSvmModel(
        weights=tuple(float(v) for v in w_avg[:-1]),
        bias=float(w_avg[-1]),
        params=params,
        fingerprint=fingerprint,
    )


@dataclass(frozen=True)
class LogRegModel:
    kind = "logreg"
    weights: tuple[float, ...]
    bias: float
    params: LogRegParams
    fingerprint: Fingerprint
    loss_history: tuple[float, ...] = field(default=(), compare=False)

    def predict(self, X: np.ndarray) -> list[Prediction]:
        margins = X.astype(np.float64) @ np.asarray(self.weights) + self.bias
        return scores_to_predictions(sigmoid(margins))


def logistic_loss_and_gradient(w, b, X, y, l2: float):
    """Mean cross-entropy + (l2/2)||w||^2 (bias unpenalized), with its
    analytic gradient. Uses the softplus form for numerical stability."""
    z = X @ w + b
    # log(1 + e^z) - y z, elementwise
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    residual = to_grid(sigmoid(z) - y, len(y))
    grad_w = X.T @ residual / len(y) + l2 * w
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def fit_logistic_regression(
    X: np.ndarray, y: np.ndarray, params: LogRegParams, fingerprint: Fingerprint
) -> LogRegModel:
    """Full-batch gradient descent from zero initialization."""
    Xf = X.astype(np.float64)
    yf = y.astype(np.float64)

    wb = np.zeros(Xf.shape[1] + 1)  # the weights, then the bias
    w = wb[:-1]
    history = []
    with np.errstate(all="ignore"):  # a step that overflows fails the bound
        for _ in range(params.epochs):
            loss, grad_w, grad_b = logistic_loss_and_gradient(w, wb[-1], Xf, yf, params.l2_penalty)
            history.append(loss)
            grad_norm = float(np.sqrt(np.sum(grad_w * grad_w) + grad_b * grad_b))
            if grad_norm < params.tolerance:
                break
            w -= params.learning_rate * grad_w
            wb[-1] -= params.learning_rate * grad_b
            if not np.abs(to_grid(wb, 2**20)).sum() < 2**20:
                raise FitError("the fit produced a non-finite number or |w|_1 + |b| >= 2^20; "
                               "a smaller learning_rate or a larger penalty avoids it")
    return LogRegModel(
        weights=tuple(float(v) for v in w),
        bias=float(wb[-1]),
        params=params,
        fingerprint=fingerprint,
        loss_history=tuple(history),
    )
