import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llmdetect.errors import ModelError
from llmdetect.models import train_nb
from conftest import random_sparse
from oracles import sparse_from_dense, train_nb_oracle


@st.composite
def _training_sets(draw):
    """(X, y, alpha) with empty rows, one-column matrices and, at times, a
    class whose rows hold no nonzeros."""
    n_rows = draw(st.integers(2, 30))
    n_cols = draw(st.integers(1, 6))
    y = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)
             .filter(lambda labels: 0 < sum(labels) < n_rows))
    value = st.one_of(st.just(0.0), st.floats(1e-6, 1e6),
                      st.sampled_from([0.1, 1 / 3, 1e-300]))
    dense = np.array(draw(st.lists(
        st.lists(value, min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)))
    silent = draw(st.sampled_from([None, 0, 1]))
    if silent is not None:
        dense[np.array(y) == silent] = 0.0
    alpha = draw(st.sampled_from([1.0, 0.5, 1e-3, 7.0]))
    return sparse_from_dense(dense), y, alpha


class TestTraining:
    def test_symmetric_likelihoods_give_half(self):
        # balanced classes with identical class-conditional counts
        X = sparse_from_dense([[2.0, 1.0], [2.0, 1.0]])
        model = train_nb(X, [0, 1], alpha=1.0)
        np.testing.assert_allclose(model.predict_proba(X), 0.5, atol=1e-12)

    def test_hand_computed_posterior_is_one_third(self):
        # class 0 counts (3,1), class 1 counts (1,3), alpha 1, balanced
        # priors; doc with counts (1,0): smoothed likelihoods are
        # (4/6, 2/6) vs (2/6, 4/6), so P(1) = (2/6) / (4/6 + 2/6) = 1/3
        X = sparse_from_dense([[3.0, 1.0], [1.0, 3.0]])
        model = train_nb(X, [0, 1], alpha=1.0)
        test = sparse_from_dense([[1.0, 0.0]])
        assert model.predict_proba(test)[0] == pytest.approx(1.0 / 3.0,
                                                             abs=1e-12)

    def test_prior_reflects_class_frequencies(self):
        X = sparse_from_dense([[1.0], [1.0], [1.0], [1.0]])
        model = train_nb(X, [0, 0, 0, 1], alpha=1.0)
        np.testing.assert_allclose(np.exp(model.log_prior), [0.75, 0.25],
                                   atol=1e-12)

    def test_likelihoods_normalize_per_class(self, rng):
        X, _ = random_sparse(rng, 30, 12)
        y = (rng.random(30) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        model = train_nb(X, y, alpha=0.7)
        sums = np.exp(model.log_likelihood).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_single_class_rejected(self):
        X = sparse_from_dense([[1.0], [2.0]])
        with pytest.raises(ModelError):
            train_nb(X, [1, 1])

    def test_nonpositive_alpha_rejected(self):
        X = sparse_from_dense([[1.0], [2.0]])
        with pytest.raises(ModelError):
            train_nb(X, [0, 1], alpha=0.0)


class TestOracle:
    @given(_training_sets())
    @settings(max_examples=300, deadline=None)
    @example((sparse_from_dense([[0.0], [2.0], [0.0]]), [0, 1, 1], 1.0))
    @example((sparse_from_dense([[0.0, 0.0], [0.0, 0.0]]), [1, 0], 0.5))
    def test_matches_class_by_class_oracle(self, inputs):
        # one bincount over both classes gives the bytes of a class-by-class
        # gather: each sum adds its terms in the same CSR order
        X, y, alpha = inputs
        model = train_nb(X, y, alpha)
        expected = train_nb_oracle(X, y, alpha)
        for got, want in ((model.log_prior, expected.log_prior),
                          (model.log_likelihood, expected.log_likelihood)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestScoring:
    def test_posteriors_sum_to_one(self, rng):
        X, _ = random_sparse(rng, 50, 10)
        y = (rng.random(50) < 0.4).astype(int)
        y[0], y[1] = 0, 1
        model = train_nb(X, y)
        probe, _ = random_sparse(rng, 200, 10)
        p1 = model.predict_proba(probe)
        # complement class probability from the same softmax
        score0 = model.log_prior[0] + probe.dot(model.log_likelihood[0])
        score1 = model.log_prior[1] + probe.dot(model.log_likelihood[1])
        high = np.maximum(score0, score1)
        p0 = np.exp(score0 - high) / (np.exp(score0 - high) + np.exp(score1 - high))
        np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-9)
        assert np.all((p1 >= 0) & (p1 <= 1))

    def test_feature_count_mismatch_rejected(self, rng):
        X, _ = random_sparse(rng, 10, 4)
        model = train_nb(X, [0, 1] * 5)
        wrong, _ = random_sparse(rng, 3, 5)
        with pytest.raises(ModelError):
            model.predict_proba(wrong)

    def test_deterministic(self, rng):
        X, _ = random_sparse(rng, 20, 6)
        y = [0, 1] * 10
        a = train_nb(X, y).predict_proba(X)
        b = train_nb(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)
