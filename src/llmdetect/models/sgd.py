"""Logistic-loss linear classifier trained by per-sample gradient descent.

Per-sample objective for (x, y), with y~ = 2y - 1 in {-1, +1}:

    loss(theta) = ln(1 + exp(-y~ * (w.x + b))) + (l2 / 2) * ||w||^2

The bias is excluded from regularization.  Visit order is reshuffled every
epoch from the seed's "sgd_shuffle" sub-stream, and the learning rate
decays as eta0 / (1 + eta0 * l2 * t) over global step count t.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ModelError
from ..seeds import stream_rng
from ..sparse import SparseMatrix
from .common import check_binary_labels, check_feature_count, sigmoid

# Each epoch visits every row however little it changes the weights: about
# 0.08 s at CLI defaults on 1,600 documents, so about 80 s at this bound,
# 100 times the default.
MAX_EPOCHS = 1_000


@dataclass(frozen=True)
class SgdConfig:
    eta0: float = 0.5
    l2: float = 1e-4
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eta0 < math.inf:
            raise ModelError(f"eta0 must be positive and finite, got {self.eta0}")
        if not 0.0 <= self.l2 < math.inf:
            raise ModelError(f"l2 must be non-negative and finite, got {self.l2}")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ModelError(f"epochs must be in [1, {MAX_EPOCHS}], "
                             f"got {self.epochs}")


@dataclass
class SgdLinearModel:
    KIND = "sgd_linear"

    theta: np.ndarray  # weights followed by the bias, length n_features + 1
    config: SgdConfig

    @property
    def n_features(self) -> int:
        return len(self.theta) - 1

    def predict_proba(self, X: SparseMatrix) -> np.ndarray:
        check_feature_count(self.n_features, X)
        margin = X.dot(self.theta[:-1]) + self.theta[-1]
        return sigmoid(margin)

    def to_dict(self) -> dict:
        return {"theta": self.theta.tolist(), "config": asdict(self.config)}

    @classmethod
    def from_dict(cls, d: dict) -> "SgdLinearModel":
        theta = np.array(d["theta"], dtype=np.float64)
        if theta.ndim != 1 or len(theta) == 0 or not np.isfinite(theta).all():
            raise ModelError("theta must be a non-empty list of finite numbers")
        return cls(theta=theta, config=SgdConfig(**d["config"]))


def objective(theta: np.ndarray, X: SparseMatrix, y, l2: float) -> float:
    """Mean logistic loss over the corpus plus the L2 penalty."""
    y_signed = 2 * np.asarray(y, dtype=np.float64) - 1
    margin = X.dot(theta[:-1]) + theta[-1]
    losses = np.logaddexp(0.0, -y_signed * margin)
    weights = theta[:-1]
    return float(losses.mean()) + 0.5 * l2 * float(np.dot(weights, weights))


def train_sgd(X: SparseMatrix, y, config: SgdConfig = SgdConfig()) -> SgdLinearModel:
    """Per-sample descent in place: theta and one gradient buffer g are the
    only dense arrays, and each step repeats the dense update's float
    operations in the same order, so the weights are bit-identical to
    building theta - alpha * gradient afresh every step."""
    signs = (2 * check_binary_labels(y, X.n_rows) - 1).tolist()
    eta0, l2 = config.eta0, config.l2
    theta = np.zeros(X.n_cols + 1)
    g = np.empty_like(theta)
    weights, g_weights = theta[:-1], g[:-1]
    indptr = X.indptr.tolist()
    rng = stream_rng(config.seed, "sgd_shuffle")
    order = list(range(X.n_rows))
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            alpha = eta0 / (1.0 + eta0 * l2 * step)
            if alpha <= 0.0:  # eta0 * l2 * step overflowed to inf
                raise ModelError(f"alpha must be positive, got {alpha}")
            cols = X.cols[indptr[i]:indptr[i + 1]]
            vals = X.vals[indptr[i]:indptr[i + 1]]
            sign = signs[i]
            margin = float(np.dot(vals, theta[cols]) + theta[-1])
            residual = -sign * sigmoid(-sign * margin)
            if l2 != 0.0:
                np.multiply(weights, l2, out=g_weights)
            else:
                g_weights.fill(0.0)  # not 0.0 * theta: -0.0 where theta < 0
            # CSR columns within a row are distinct, so += adds each once
            g[cols] += residual * vals
            g[-1] = 0.0 + residual  # keeps a residual of -0.0 as +0.0
            np.multiply(g, alpha, out=g)
            np.subtract(theta, g, out=theta)
            step += 1
    return SgdLinearModel(theta=theta, config=config)
