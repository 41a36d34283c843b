"""Shared numerics and validation for the classifier implementations."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..schema import binary_labels
from ..sparse import SparseMatrix


def sigmoid(x):
    """Numerically stable logistic function, scalar or array.

    A float takes the same two branches as the array path, one ``np.exp``
    each, so both give the same bits without building an array.
    """
    if isinstance(x, float):
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def check_binary_labels(y, n_rows: int) -> np.ndarray:
    y = binary_labels(y, ModelError)
    if len(y) != n_rows:
        raise ModelError(f"{n_rows} rows but {len(y)} labels")
    if n_rows == 0:
        raise ModelError("cannot train on an empty matrix")
    if y.min() == y.max():
        raise ModelError("training data contains a single class")
    return y


def check_feature_count(model_features: int, X: SparseMatrix) -> None:
    if X.n_cols != model_features:
        raise ModelError(f"model expects {model_features} features, "
                         f"matrix has {X.n_cols} columns")
