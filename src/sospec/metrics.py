"""Evaluation metrics: held-out error, invariance error, recovery quality."""

import numpy as np

from . import model
from .lie import matrix_exp


def test_mse(params, x, y):
    """Mean squared error over samples and output dimensions."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty evaluation set")
    pred = model.predict(params, x)
    return float(np.mean((pred - y) ** 2))


def accuracy(params, x, y):
    """Fraction of correct labels for a logistic head (threshold at logit 0)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty evaluation set")
    logits = model.predict(params, x)
    return float(np.mean((logits > 0.0).astype(np.float64) == y))


def invariance_error(predict, xs, true_generator, t_samples):
    """Monte-Carlo estimate of E_{x,t} |f(x) - f(exp(t B) x)|^2.

    `predict` maps a batch of inputs to outputs; for trained parameters it
    is `partial(model.predict, params)`. Deterministic given xs and
    t_samples.
    """
    xs = np.asarray(xs, dtype=np.float64)
    t_samples = np.asarray(t_samples, dtype=np.float64)
    base = np.asarray(predict(xs), dtype=np.float64).reshape(xs.shape[0], -1)
    total = 0.0
    for t in t_samples:
        rot = matrix_exp(true_generator, float(t))
        moved = np.asarray(predict(xs @ rot.T), dtype=np.float64).reshape(xs.shape[0], -1)
        total += float(np.mean(np.sum((base - moved) ** 2, axis=1)))
    return total / t_samples.size
