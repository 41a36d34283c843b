"""Multinomial naive Bayes over TF-IDF weights.

Real-valued weights are treated as fractional counts, the standard
multinomial-on-TF-IDF practice.  Likelihoods are Laplace-smoothed with
alpha, and the posterior for class 1 is the softmax of the two per-class
log scores (the evidence term enters as the normalizer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..files import pack, unpack
from ..schema import Rule
from ..sparse import SparseMatrix
from .common import check_binary_labels, check_feature_count

DEFAULT_ALPHA = 1.0
ALPHA = Rule(float, 0, low_open=True)


@dataclass
class NaiveBayesModel:
    KIND = "naive_bayes"

    log_prior: np.ndarray       # shape (2,)
    log_likelihood: np.ndarray  # shape (2, n_features), stored row-major
    alpha: float

    @property
    def n_features(self) -> int:
        return self.log_likelihood.shape[1]

    def predict_proba(self, X: SparseMatrix) -> np.ndarray:
        """P(class 1 | x) per row, via softmax of per-class log scores."""
        check_feature_count(self.n_features, X)
        score0 = self.log_prior[0] + X.dot(self.log_likelihood[0])
        score1 = self.log_prior[1] + X.dot(self.log_likelihood[1])
        high = np.maximum(score0, score1)
        e0 = np.exp(score0 - high)
        e1 = np.exp(score1 - high)
        return e1 / (e0 + e1)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "log_prior": self.log_prior.tolist(),
                "log_likelihood": pack(self.log_likelihood, "<f8")}

    @classmethod
    def from_dict(cls, d: dict) -> "NaiveBayesModel":
        ALPHA.check("alpha", d["alpha"], ModelError)
        Rule(float).check_each("log_prior", d["log_prior"], ModelError)
        log_likelihood = unpack(d["log_likelihood"], "<f8",
                                "naive Bayes log_likelihood", ModelError)
        if (len(d["log_prior"]) != 2 or len(log_likelihood) % 2
                or not np.isfinite(log_likelihood).all()):
            raise ModelError("naive Bayes needs 2 finite priors and 2 finite "
                             "likelihood rows")
        return cls(log_prior=np.array(d["log_prior"], dtype=np.float64),
                   log_likelihood=log_likelihood.reshape(2, -1),
                   alpha=d["alpha"])


def train_nb(X: SparseMatrix, y, alpha: float = DEFAULT_ALPHA) -> NaiveBayesModel:
    """Fit priors and smoothed per-class feature likelihoods.  One bincount
    keyed by class * n_features + column sums both classes' weights, each
    sum in CSR order, as a gather of the class's rows would."""
    ALPHA.check("alpha", alpha, ModelError)
    y = check_binary_labels(y, X.n_rows)

    n_features = X.n_cols
    keys = np.repeat(y * n_features, X.row_lengths()) + X.cols
    feature_sums = np.bincount(keys, weights=X.vals,
                               minlength=2 * n_features).reshape(2, n_features)
    log_prior = np.log(np.bincount(y, minlength=2) / X.n_rows)
    log_likelihood = np.log(
        (alpha + feature_sums)
        / (alpha * n_features + feature_sums.sum(axis=1, keepdims=True)))
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood,
                           alpha=alpha)
