import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llmdetect.errors import ModelError
from llmdetect.models import SgdConfig, objective, sigmoid, train_sgd
from llmdetect.seeds import stream_rng
from llmdetect.sparse import SparseMatrix
from conftest import random_sparse, traced_peak
from oracles import (csr_row, sample_gradient, sample_loss, sgd_step,
                     sparse_from_dense, sparse_from_rows, train_sgd_oracle)


class TestStep:
    def test_zero_gradient_is_fixed_point(self):
        theta = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(sgd_step(theta, np.zeros(3), 0.1), theta)

    def test_elementwise_arithmetic(self):
        out = sgd_step(np.array([1.0, 1.0]), np.array([2.0, -2.0]), 0.5)
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_two_steps_equal_summed_gradient(self):
        # exactly representable values keep float linearity exact
        theta = np.array([4.0, -2.0])
        g1 = np.array([1.0, 2.0])
        g2 = np.array([3.0, -4.0])
        two = sgd_step(sgd_step(theta, g1, 0.5), g2, 0.5)
        one = sgd_step(theta, g1 + g2, 0.5)
        np.testing.assert_array_equal(two, one)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            sgd_step(np.zeros(3), np.zeros(4), 0.1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ModelError):
            sgd_step(np.zeros(2), np.zeros(2), 0.0)


class TestGradient:
    @pytest.mark.parametrize("l2", [0.0, 0.1, 0.5])
    def test_matches_central_finite_differences(self, l2):
        from oracles import finite_difference_gradient
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            n_features = rng.integers(3, 9)
            nnz = rng.integers(1, n_features + 1)
            cols = np.sort(rng.choice(n_features, size=nnz, replace=False))
            vals = rng.normal(size=nnz)
            label = int(rng.integers(0, 2))
            theta = rng.normal(size=n_features + 1)
            analytic = sample_gradient(theta, cols, vals, label, l2)
            numeric = finite_difference_gradient(
                lambda t: sample_loss(t, cols, vals, label, l2), theta)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(analytic), 1e-12))
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_regularizer_excludes_bias(self):
        theta = np.array([1.0, 2.0, 5.0])  # last entry is the bias
        g_reg = sample_gradient(theta, np.array([0]), np.array([0.0]), 1, 1.0)
        g_no = sample_gradient(theta, np.array([0]), np.array([0.0]), 1, 0.0)
        # bias gradient must not change with l2
        assert g_reg[-1] == g_no[-1]
        np.testing.assert_allclose(g_reg[:-1] - g_no[:-1], theta[:-1],
                                   atol=1e-15)


class TestTraining:
    def separable(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.6, 1.0, size=(10, 2))
        neg = rng.uniform(0.0, 0.4, size=(10, 2))
        dense = np.vstack([pos, neg])
        labels = [1] * 10 + [0] * 10
        return sparse_from_dense(dense), labels

    def test_separable_data_fits_perfectly(self):
        X, y = self.separable()
        model = train_sgd(X, y, SgdConfig(eta0=0.5, l2=0.0, epochs=100, seed=4))
        predictions = (model.predict_proba(X) >= 0.5).astype(int)
        assert list(predictions) == y

    def test_zero_features_only_bias_moves(self):
        X = sparse_from_rows([], n_cols=3)
        X = SparseMatrix(indptr=np.zeros(5, dtype=np.int64),
                         cols=np.empty(0, dtype=np.int64),
                         vals=np.empty(0), n_rows=4, n_cols=3)
        model = train_sgd(X, [0, 1, 0, 1],
                          SgdConfig(eta0=0.1, l2=0.0, epochs=3, seed=1))
        np.testing.assert_array_equal(model.theta[:-1], np.zeros(3))
        assert model.theta[-1] != 0.0

    def test_single_class_rejected(self):
        X = sparse_from_dense([[1.0], [2.0]])
        with pytest.raises(ModelError):
            train_sgd(X, [0, 0])

    def test_deterministic_in_seed(self, rng):
        X, _ = random_sparse(rng, 30, 8)
        y = [0, 1] * 15
        cfg = SgdConfig(eta0=0.3, l2=1e-3, epochs=5, seed=9)
        np.testing.assert_array_equal(train_sgd(X, y, cfg).theta,
                                      train_sgd(X, y, cfg).theta)
        other = train_sgd(X, y, SgdConfig(eta0=0.3, l2=1e-3, epochs=5, seed=10))
        assert not np.array_equal(train_sgd(X, y, cfg).theta, other.theta)

    def test_zero_theta_scores_half(self, rng):
        from llmdetect.models import SgdLinearModel
        X, _ = random_sparse(rng, 6, 4)
        model = SgdLinearModel(theta=np.zeros(5), config=SgdConfig())
        np.testing.assert_array_equal(model.predict_proba(X), np.full(6, 0.5))

    def test_loss_nonincreasing_on_average(self, rng):
        X, _ = random_sparse(rng, 40, 10)
        labels = (rng.random(40) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        early_epochs, late_epochs = 5, 15
        gaps = []
        for seed in range(5):
            cfg = dict(eta0=0.2, l2=1e-3, seed=seed)
            early = train_sgd(X, labels, SgdConfig(epochs=early_epochs, **cfg))
            late = train_sgd(X, labels, SgdConfig(epochs=late_epochs, **cfg))
            gaps.append(objective(late.theta, X, labels, 1e-3)
                        - objective(early.theta, X, labels, 1e-3))
        assert np.mean(gaps) <= 1e-6


@st.composite
def _sgd_inputs(draw, l2s):
    """Signed CSR matrices with empty rows, sometimes no nonzeros at all,
    and values large enough that the sigmoid underflows to 0."""
    n_rows = draw(st.integers(2, 12))
    n_cols = draw(st.integers(1, 10))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    scale = draw(st.sampled_from([1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.normal(scale=scale, size=(n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) >= density] = 0.0
    labels = rng.integers(0, 2, size=n_rows)
    labels[0], labels[1] = 0, 1
    config = SgdConfig(eta0=draw(st.sampled_from([1e-3, 0.5, 1e6])),
                       l2=draw(st.sampled_from(l2s)),
                       epochs=draw(st.integers(1, 4)),
                       seed=draw(st.integers(0, 1000)))
    return sparse_from_dense(dense), labels, config


# With l2 > 0 the lazy weights scale * v round differently from the dense
# oracle's, and a step can magnify an earlier gap: a weight of 9e-4 formed
# from terms near 82 carries their rounding, the next margin multiplies it
# by x and the update by x again.  So the bound follows the dense run step
# by step.  A step at rate alpha on row x~ = (x, 1), whose margin m gives
# the residual r = sigma(m) - y, maps theta to c * theta - alpha * r * x~,
# with c = 1 - alpha * l2 on the weights and 1 on the bias.  If the runs'
# thetas differ by e (2-norm), their margins differ by at most
# |x~| e + rho_m, rho_m = 2 (nnz + 2) u sum|x_j theta_j| the two dot
# products' rounding (u = 2**-53), and their residuals by
# sigma'(xi) (|x~| e + rho_m) + 8 u |r| (each run's residual within
# 4 u |r| of its exact value), where
# sigma'(xi) <= min(1/4, sigma'(m) exp(|x~| e + rho_m)) since
# |sigma''| <= sigma'.  So the next gap is at most
#
#     (max(|c|, 1) + alpha sigma'(xi) |x~|^2) e
#         + alpha |x~| (sigma'(xi) rho_m + 8 u |r|) + 13 u |M|
#
# where M_j = |theta_j| (1 + |c| + alpha l2) + alpha |r x~_j| + |theta'_j|
# bounds every value a weight's roundings are taken of: five in the dense
# update (l2 * theta, r * x, the sum, * alpha, the subtraction), seven in
# the lazy one (three in the shared factor scale * (1 - alpha * l2), four
# in the row: alpha / scale, r * x, the product, the subtraction) and one
# where a fold multiplies v by scale.  The final scale * v adds u |theta|.
U = 2.0 ** -53


def lazy_gap_bound(X, y, config) -> float:
    """The bound above on |theta_lazy - theta_dense|, from the dense
    oracle's own steps."""
    n = X.n_cols + 1
    theta = np.zeros(n)
    rng = stream_rng(config.seed, "sgd_shuffle")
    order = list(range(X.n_rows))
    step, gap = 0, 0.0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            alpha = config.eta0 / (1.0 + config.eta0 * config.l2 * step)
            cols, vals = csr_row(X, i)
            x = np.zeros(n)
            x[cols] = vals
            x[-1] = 1.0
            norm = math.sqrt(float((x * x).sum()))
            sign = 2 * int(y[i]) - 1
            q = sigmoid(-sign * float(np.dot(vals, theta[cols])
                                      + theta[-1]))
            residual = -sign * q  # sigma(m) - y, as both runs form it
            rho_m = 2 * (len(cols) + 2) * U * float(
                np.abs(vals * theta[cols]).sum() + abs(theta[-1]))
            margin_gap = norm * gap + rho_m
            slope = (0.25 if margin_gap > 700.0
                     else min(0.25, q * (1.0 - q) * math.exp(margin_gap)))
            new = sgd_step(theta, sample_gradient(theta, cols, vals,
                                                  y[i], config.l2), alpha)
            c = 1.0 - alpha * config.l2
            sizes = (np.abs(theta) * (1.0 + abs(c) + alpha * config.l2)
                     + alpha * np.abs(residual * x) + np.abs(new))
            gap = ((max(abs(c), 1.0) + alpha * slope * norm * norm) * gap
                   + alpha * norm * (slope * rho_m + 8 * U * abs(residual))
                   + 13 * U * math.sqrt(float((sizes * sizes).sum())))
            theta = new
            step += 1
    return gap + U * math.sqrt(float((theta * theta).sum()))


def assert_within_gap_bound(X, y, config, got, want):
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= lazy_gap_bound(X, y, config)


# Drawn at random once: |theta_lazy - theta_dense| is 1.69e-10, more than
# 2**-40 max|theta| (6.9e-11), a bound that assumed both runs see the same
# residuals; the bound above is 7.9e-9.
_MAGNIFIED_GAP = (sparse_from_dense([[-246.00315748], [-164.00330688]]),
                  np.array([0, 1]),
                  SgdConfig(eta0=0.5, l2=1e-4, epochs=2, seed=1))


class TestOracleEquivalence:
    @given(_sgd_inputs([0.0]))
    @settings(max_examples=300, deadline=None)
    def test_theta_bytes_match_dense_oracle(self, inputs):
        # with l2 = 0 the scale stays exactly 1.0
        X, y, config = inputs
        got = train_sgd(X, y, config).theta
        assert got.tobytes() == train_sgd_oracle(X, y, config).theta.tobytes()

    @given(_sgd_inputs([1e-4, 0.5]))
    @settings(max_examples=300, deadline=None)
    @example(_MAGNIFIED_GAP)
    def test_theta_within_tol_of_dense_oracle(self, inputs):
        X, y, config = inputs
        assert_within_gap_bound(X, y, config, train_sgd(X, y, config).theta,
                                train_sgd_oracle(X, y, config).theta)

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_underflow_and_negative_weights(self, l2):
        # one step at eta0 = 1e6 drives |margin| past 1e9, so later
        # residuals are -0.0 or 0.0, and some weights go negative.  Signed
        # zeros in an update cannot reach theta (it starts at +0.0, and
        # x - y is -0.0 only for x = -0.0), so at l2 = 0 this pins the
        # path, not the sign of any zero.
        X = sparse_from_dense([[1e3, 0.0, -2.0], [0.0, -1e3, 0.0],
                               [0.0, 0.0, 0.0], [5.0, 1e3, 0.0]])
        y = [1, 0, 0, 1]
        config = SgdConfig(eta0=1e6, l2=l2, epochs=3, seed=3)
        got = train_sgd(X, y, config).theta
        want = train_sgd_oracle(X, y, config).theta
        assert (got[:-1] < 0).any()
        if l2 == 0.0:
            assert got.tobytes() == want.tobytes()
        else:
            assert_within_gap_bound(X, y, config, got, want)

    @pytest.mark.parametrize("eta0, epochs", [
        (2.0, 3),            # 1 - alpha * l2 is exactly 0 at step 0
        (1e30, 3),           # |scale| = 5e29 at step 0, then exactly 0 at
                             # step 1 with v nonzero
        (2 - 2**-52, 520),   # scale = 2**-53 after step 0, below 2**-64
                             # at step 2,048 with v nonzero
    ])
    def test_scale_folds_into_weights(self, eta0, epochs):
        # the last column is empty: a fold at a negative scale makes its
        # v -0.0, and the final theta must still hold +0.0 there
        X = sparse_from_dense([[1.0, 0.0, -2.0, 0.0], [0.0, -1.5, 0.5, 0.0],
                               [0.5, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0]])
        y = [1, 0, 0, 1]
        config = SgdConfig(eta0=eta0, l2=0.5, epochs=epochs, seed=3)
        got = train_sgd(X, y, config).theta
        assert_within_gap_bound(X, y, config, got,
                                train_sgd_oracle(X, y, config).theta)
        assert got[3] == 0.0 and not np.signbit(got[3])

    def test_alpha_underflow_rejected(self):
        # eta0 * l2 is 1e308, so eta0 * l2 * step overflows at step 2 and
        # that step's rate is 0.0
        X = sparse_from_dense([[1.0], [2.0]])
        config = SgdConfig(eta0=1e200, l2=1e108, epochs=2)
        with pytest.raises(ModelError, match=r"eta0 \* l2 \* step overflows "
                                             r"at step 2"):
            train_sgd(X, [0, 1], config)
        with pytest.raises(ModelError, match="alpha must be positive"):
            train_sgd_oracle(X, [0, 1], config)

    def test_overflowing_rate_product_refused(self):
        # once accepted, and training failed at its second step
        with pytest.raises(ModelError, match=r"eta0 \* l2 must be finite, "
                                             r"got eta0 = 1e\+300 and l2 = "
                                             r"1e\+300"):
            SgdConfig(eta0=1e300, l2=1e300)
        # two ints whose product no float holds are refused the same way
        with pytest.raises(ModelError, match=r"eta0 \* l2 must be finite"):
            SgdConfig(eta0=10 ** 300, l2=10 ** 300)


class TestScalarSigmoid:
    def test_scalar_path_matches_array_path(self):
        values = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 36.0, -36.0, 709.0,
                  -709.0, 745.2, -745.2, 1e300, -1e300, np.inf, -np.inf]
        values += list(np.random.default_rng(5).normal(scale=50, size=500))
        for x in values:
            scalar = sigmoid(float(x))
            assert type(scalar) is float
            array = sigmoid(np.array([x]))[0]
            assert np.float64(scalar).tobytes() == array.tobytes(), x
        assert np.isnan(sigmoid(np.nan))


def test_training_allocates_no_dense_array_per_step(rng):
    # the dense loop holds a gradient, l2 * theta, alpha * gradient and the
    # new theta beside the old one; the lazy loop only theta
    X, _ = random_sparse(rng, 40, 30_000, density=0.001)
    y = [0, 1] * 20
    config = SgdConfig(epochs=2, seed=1)
    dense_bytes = (X.n_cols + 1) * 8
    peak = traced_peak(lambda: train_sgd(X, y, config))
    assert peak < traced_peak(lambda: train_sgd_oracle(X, y, config))
    assert peak < 1.5 * dense_bytes
