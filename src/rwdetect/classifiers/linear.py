"""Linear models: Pegasos-style hinge-loss SVM and logistic regression."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from .base import (
    Fingerprint,
    LogRegParams,
    Prediction,
    SvmParams,
    check_xy,
    scores_to_predictions,
    sigmoid,
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
        self.fingerprint.check_matrix(X)
        margins = X.astype(np.float64) @ np.asarray(self.weights) + self.bias
        return [
            Prediction(int(m >= 0.0), float(sigmoid(m))) for m in margins
        ]


def svm_objective(w, b, X, y_pm, lam: float) -> float:
    """lam/2 ||w||^2 + mean hinge loss; used by fit and by tests."""
    margins = y_pm * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(hinge.mean())


def fit_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    params: SvmParams = SvmParams(),
    fingerprint: Fingerprint | None = None,
) -> LinearSvmModel:
    """Seeded stochastic subgradient descent with step 1/(lam*t + 1) and
    projection onto the ball of radius 1/sqrt(lam), returning
    iterate-averaged weights. The unit offset in the step keeps early
    iterates bounded when lam is small; the bias rides along as a
    constant-1 feature so the projection keeps it bounded too."""
    check_xy(X, y)
    if y.min() == y.max():
        raise FitError("SVM requires both classes in the training set")
    Xf = np.hstack([X.astype(np.float64), np.ones((X.shape[0], 1))])
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
        fingerprint=fingerprint or Fingerprint(X.shape[1]),
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
        self.fingerprint.check_matrix(X)
        margins = X.astype(np.float64) @ np.asarray(self.weights) + self.bias
        return scores_to_predictions(sigmoid(margins))


def logistic_loss_and_gradient(w, b, X, y, l2: float):
    """Mean cross-entropy + (l2/2)||w||^2 (bias unpenalized), with its
    analytic gradient. Uses the softplus form for numerical stability."""
    z = X @ w + b
    # log(1 + e^z) - y z, elementwise
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    residual = sigmoid(z) - y
    grad_w = X.T @ residual / len(y) + l2 * w
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def fit_logistic_regression(
    X: np.ndarray,
    y: np.ndarray,
    params: LogRegParams = LogRegParams(),
    fingerprint: Fingerprint | None = None,
) -> LogRegModel:
    """Full-batch gradient descent from zero initialization."""
    check_xy(X, y)
    Xf = X.astype(np.float64)
    yf = y.astype(np.float64)
    d = Xf.shape[1]

    w = np.zeros(d)
    b = 0.0
    history = []
    for _ in range(params.epochs):
        loss, grad_w, grad_b = logistic_loss_and_gradient(w, b, Xf, yf, params.l2_penalty)
        history.append(loss)
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm < params.tolerance:
            break
        w = w - params.learning_rate * grad_w
        b = b - params.learning_rate * grad_b
    return LogRegModel(
        weights=tuple(float(v) for v in w),
        bias=float(b),
        params=params,
        fingerprint=fingerprint or Fingerprint(d),
        loss_history=tuple(history),
    )
