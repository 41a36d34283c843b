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
from ..files import pack, unpack
from ..schema import Rule, build, check_fields, declared
from ..seeds import stream_rng
from ..sparse import SparseMatrix
from .common import check_binary_labels, check_feature_count, sigmoid

# Each epoch visits every row however little it changes the weights: about
# 0.01 s at CLI defaults on 1,600 documents, so about 10 s at this bound,
# 100 times the default.
MAX_EPOCHS = 1_000
# train_sgd holds the weights as scale * v and, when |scale| leaves this
# window, folds scale into v with one dense pass.  The learning-rate
# schedule brings scale to about 1 / (1 + eta0 * l2 * t) after t steps, so
# ordinary training stays inside it; only a step whose 1 - alpha * l2 is 0
# or far from 1 leaves it.  Inside it, v = theta / scale and each step's
# change to v stay within 64 binades of the weights' own size, far from
# overflow and from subnormals.
_SCALE_LOW, _SCALE_HIGH = 2.0 ** -64, 2.0 ** 64


@dataclass(frozen=True)
class SgdConfig:
    eta0: float = declared(0.5, Rule(float, 0, low_open=True))
    l2: float = declared(1e-4, Rule(float, 0))
    epochs: int = declared(10, Rule(int, 1, MAX_EPOCHS))
    seed: int = declared(0, Rule(int))

    def __post_init__(self):
        check_fields(self, ModelError)
        # The rate's denominator, 1 + eta0 * l2 * step, must not overflow
        # at the second step; in floats, as two ints' product may not fit
        # one.
        if not math.isfinite(float(self.eta0) * self.l2):
            raise ModelError(f"eta0 * l2 must be finite, got eta0 = "
                             f"{self.eta0} and l2 = {self.l2}")


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
        return {"theta": pack(self.theta, "<f8"), "config": asdict(self.config)}

    @classmethod
    def from_dict(cls, d: dict) -> "SgdLinearModel":
        theta = unpack(d["theta"], "<f8", "theta", ModelError)
        if len(theta) == 0 or not np.isfinite(theta).all():
            raise ModelError("theta must be a non-empty array of finite "
                             "numbers")
        return cls(theta=theta, config=build(
            SgdConfig, d["config"], "field parameters.config", ModelError))


def objective(theta: np.ndarray, X: SparseMatrix, y, l2: float) -> float:
    """Mean logistic loss over the corpus plus the L2 penalty."""
    y_signed = 2 * np.asarray(y, dtype=np.float64) - 1
    margin = X.dot(theta[:-1]) + theta[-1]
    losses = np.logaddexp(0.0, -y_signed * margin)
    weights = theta[:-1]
    return float(losses.mean()) + 0.5 * l2 * float(np.dot(weights, weights))


def train_sgd(X: SparseMatrix, y, config: SgdConfig = SgdConfig()) -> SgdLinearModel:
    """Per-sample descent with lazy L2 (Bottou, "Stochastic Gradient Descent
    Tricks", 2012): the weights are held as scale * v, so a step shrinks
    every weight by multiplying the scalar scale by 1 - alpha * l2 and
    updates only the row's entries of v.  With l2 = 0 the scale stays
    exactly 1.0 and each weight sees the dense update's float operations,
    so theta is bit-identical to building theta - alpha * gradient afresh
    every step; with l2 > 0 it differs from that only by rounding."""
    signs = (2 * check_binary_labels(y, X.n_rows) - 1).tolist()
    eta0, l2 = config.eta0, config.l2
    theta = np.zeros(X.n_cols + 1)
    v = theta[:-1]
    scale, bias = 1.0, 0.0
    indptr = X.indptr.tolist()
    rng = stream_rng(config.seed, "sgd_shuffle")
    order = list(range(X.n_rows))
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            alpha = eta0 / (1.0 + eta0 * l2 * step)
            if alpha <= 0.0:
                raise ModelError(f"eta0 * l2 * step overflows at step {step}, "
                                 f"so the learning rate is {alpha}")
            cols = X.cols[indptr[i]:indptr[i + 1]]
            vals = X.vals[indptr[i]:indptr[i + 1]]
            sign = signs[i]
            margin = float(scale * np.dot(vals, v[cols]) + bias)
            residual = -sign * sigmoid(-sign * margin)
            bias -= alpha * residual
            scale *= 1.0 - alpha * l2
            if not _SCALE_LOW <= abs(scale) <= _SCALE_HIGH:  # 0 and NaN too
                v *= scale
                scale = 1.0
            # CSR columns within a row are distinct, so each is updated once
            v[cols] -= residual * vals * (alpha / scale)
            step += 1
    v *= scale
    v += 0.0  # a negative scale leaves -0.0 where v is 0.0
    theta[-1] = bias
    return SgdLinearModel(theta=theta, config=config)
