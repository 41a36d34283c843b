import math

import numpy as np
import pytest

from llmdetect.errors import ModelError
from llmdetect.models import GbdtConfig, find_best_split, train_gbdt
from llmdetect.models.common import sigmoid
from llmdetect.models.gbdt import LEAF_WISE, SYMMETRIC, _BinnedMatrix
from llmdetect.sparse import SparseMatrix
from llmdetect.metrics import roc_auc
from conftest import random_sparse
from gbdt_compare import (assert_leafwise_equal, assert_symmetric_equal,
                          replay_boosting)


def node_histograms(X, rows, g, h, n_bins):
    """The training path's histograms at the node holding ``rows``."""
    binned = _BinnedMatrix(X, n_bins)
    return binned.node_histograms(rows, g, h, float(g[rows].sum()),
                                  float(h[rows].sum()))


class TestHistograms:
    def test_single_bin_totals(self):
        # one distinct nonzero value, present in every row: all of the
        # node's mass lands in bin 1 and none in the zero bin
        g = np.array([0.5, -0.25, 1.0])
        h = np.array([0.2, 0.3, 0.1])
        X = SparseMatrix.from_dense([[0.7], [0.7], [0.7]])
        occupied, grad, hess, count = node_histograms(X, np.arange(3), g, h, 4)
        assert occupied.tolist() == [0]
        assert grad[0, 1] == pytest.approx(g.sum(), abs=1e-12)
        assert hess[0, 1] == pytest.approx(h.sum(), abs=1e-12)
        assert count[0].tolist() == [0, 3, 0, 0]

    def test_all_zero_column_mass_in_zero_bin(self):
        X = SparseMatrix.from_dense([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0],
                                     [0.0, 3.0], [0.0, 0.0]])
        ones = np.ones(5)
        occupied, _, _, count = node_histograms(X, np.arange(5), ones, ones, 8)
        assert occupied.tolist() == [0, 1]
        assert count[:, 0].tolist() == [3, 4]  # zero rows per column
        # column 1 is all zero at this node: it cannot split and is omitted
        occupied, grad, _, count = node_histograms(X, np.array([0, 1, 2]),
                                                   ones, ones, 8)
        assert occupied.tolist() == [0]
        assert count[0, 0] == 1 and grad[0, 0] == 1.0

    def test_bin_statistics_sum_to_column_totals(self, rng):
        X, _ = random_sparse(rng, 40, 6, max_distinct=10)
        g = rng.normal(size=40)
        h = rng.random(40)
        rows = np.sort(rng.choice(40, size=25, replace=False))
        occupied, grad, hess, count = node_histograms(X, rows, g, h, 6)
        assert len(occupied) > 0
        np.testing.assert_allclose(grad.sum(axis=1), g[rows].sum(), atol=1e-12)
        np.testing.assert_allclose(hess.sum(axis=1), h[rows].sum(), atol=1e-12)
        assert (count.sum(axis=1) == len(rows)).all()

    def test_histogram_gain_matches_exhaustive(self, rng):
        # with one bin per distinct value, the best histogram split must
        # equal the best exhaustive all-thresholds split
        from oracles import _oracle_best_split, _column_thresholds
        X, dense = random_sparse(rng, 50, 3, max_distinct=8)
        g = rng.normal(size=50)
        h = rng.random(50) + 0.1
        rows = np.arange(50)
        occupied, grad, hess, count = node_histograms(X, rows, g, h, 32)
        found = find_best_split(grad, hess, count, lambda_l2=1.0,
                                min_data_in_leaf=2,
                                totals=(float(g.sum()), float(h.sum()), 50))
        expected = _oracle_best_split(dense, _column_thresholds(dense), rows,
                                      g, h, 1.0, 2)
        assert found is not None and expected is not None
        assert occupied[found[0]] == expected[1]  # same column
        assert found[2] == pytest.approx(expected[0], rel=1e-9)


class TestFindBestSplit:
    @staticmethod
    def totals(grad, hess, count):
        return float(grad[0].sum()), float(hess[0].sum()), int(count[0].sum())

    def test_pure_leaf_returns_none(self):
        count = np.array([[3, 2, 4, 1]])
        grad = 0.5 * count  # per-bin sums
        hess = 0.25 * count
        assert find_best_split(grad, hess, count, 1.0, 1,
                               self.totals(grad, hess, count)) is None

    def test_two_group_boundary(self):
        # bin 0: strongly negative gradients; bin 1: strongly positive
        grad = np.array([[-5.0, 5.0]])
        hess = np.array([[2.0, 2.0]])
        count = np.array([[10, 10]])
        col, bin_threshold, gain = find_best_split(
            grad, hess, count, 1.0, 1, self.totals(grad, hess, count))
        assert (col, bin_threshold) == (0, 0) and gain > 0

    def test_tie_prefers_lowest_column(self):
        grad = np.array([[-5.0, 5.0], [-5.0, 5.0]])
        hess = np.array([[2.0, 2.0], [2.0, 2.0]])
        count = np.array([[10, 10], [10, 10]])
        col, _, _ = find_best_split(grad, hess, count, 1.0, 1,
                                    self.totals(grad, hess, count))
        assert col == 0

    def test_min_data_blocks_split(self):
        grad = np.array([[-5.0, 5.0]])
        hess = np.array([[2.0, 2.0]])
        count = np.array([[1, 19]])
        assert find_best_split(grad, hess, count, 1.0, 2,
                               self.totals(grad, hess, count)) is None


class TestTraining:
    def threshold_dataset(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = (x > 0.5).astype(int)
        return SparseMatrix.from_dense(x[:, None]), y

    def test_single_class_rejected(self):
        X = SparseMatrix.from_dense([[1.0], [2.0]])
        with pytest.raises(ModelError):
            train_gbdt(X, [1, 1])

    def test_negative_features_rejected(self):
        X = SparseMatrix.from_dense([[-1.0], [2.0]])
        with pytest.raises(ModelError, match="negative"):
            train_gbdt(X, [0, 1])

    def test_zero_learning_rate_keeps_base_score(self):
        X, y = self.threshold_dataset(60)
        cfg = GbdtConfig(n_trees=10, learning_rate=0.0, max_leaves=4,
                         n_bins=16, min_data_in_leaf=2)
        model = train_gbdt(X, y, cfg)
        expected = sigmoid(model.base_score)
        np.testing.assert_allclose(model.predict_proba(X), expected, atol=1e-12)

    def test_zero_trees_scores_sigmoid_base(self):
        X, y = self.threshold_dataset(40)
        model = train_gbdt(X, y, GbdtConfig(n_trees=0))
        mean = np.mean(y)
        assert model.base_score == pytest.approx(math.log(mean / (1 - mean)))
        np.testing.assert_allclose(model.predict_proba(X),
                                   sigmoid(model.base_score), atol=1e-12)

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_threshold_dataset_perfect_auc_within_5_trees(self, variant):
        X, y = self.threshold_dataset()
        cfg = GbdtConfig(variant=variant, n_trees=5, learning_rate=0.3,
                         max_leaves=8, depth=3, n_bins=255,
                         min_data_in_leaf=5)
        model = train_gbdt(X, y, cfg)
        assert roc_auc(model.predict_proba(X), y) == 1.0

    def test_leafwise_respects_max_leaves(self, rng):
        X, _ = random_sparse(rng, 80, 4, max_distinct=10)
        y = (rng.random(80) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        cfg = GbdtConfig(n_trees=3, max_leaves=5, n_bins=16,
                         min_data_in_leaf=2, learning_rate=0.2)
        model = train_gbdt(X, y, cfg)
        for tree in model.trees:
            assert tree.n_leaves <= 5
            for col in tree.columns:
                assert col < X.n_cols

    def test_symmetric_trees_are_perfect_depth(self, rng):
        X, _ = random_sparse(rng, 60, 4, max_distinct=10)
        y = (rng.random(60) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        cfg = GbdtConfig(variant=SYMMETRIC, n_trees=3, depth=4, n_bins=16,
                         min_data_in_leaf=2, learning_rate=0.2)
        model = train_gbdt(X, y, cfg)
        for tree in model.trees:
            assert tree.depth == 4
            assert len(tree.leaf_values) == 2 ** 4

    def test_symmetric_pads_with_noop_when_unsplittable(self):
        # min_data_in_leaf so large no split is ever valid
        X = SparseMatrix.from_dense([[0.1], [0.9], [0.4], [0.7]])
        cfg = GbdtConfig(variant=SYMMETRIC, n_trees=1, depth=3, n_bins=8,
                         min_data_in_leaf=4)
        model = train_gbdt(X, [0, 1, 0, 1], cfg)
        tree = model.trees[0]
        assert tree.thresholds == [None, None, None]
        assert len(tree.leaf_values) == 8
        # every document routes to leaf 0; the rest are zero padding
        assert tree.leaf_values[1:] == [0.0] * 7


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_leafwise_node_for_node(self, seed):
        rng = np.random.default_rng(seed)
        X, dense = random_sparse(rng, 100, 5, max_distinct=9)
        y = ((dense[:, 0] + dense[:, 1] + 0.3 * rng.random(100)) > 0.7)
        y = y.astype(np.float64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = GbdtConfig(n_trees=3, learning_rate=0.3, max_leaves=8,
                         n_bins=64, min_data_in_leaf=3)
        model = train_gbdt(X, y.astype(int), cfg)
        base, rounds = replay_boosting(dense, y, cfg, LEAF_WISE)
        assert model.base_score == pytest.approx(base, abs=1e-12)
        assert len(model.trees) == len(rounds) == 3
        for tree, (oracle_root, _) in zip(model.trees, rounds):
            assert_leafwise_equal(tree, oracle_root, X, 100)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_symmetric_node_for_node(self, seed):
        rng = np.random.default_rng(seed)
        X, dense = random_sparse(rng, 90, 5, max_distinct=9)
        y = ((dense[:, 2] + 0.4 * rng.random(90)) > 0.45).astype(np.float64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = GbdtConfig(variant=SYMMETRIC, n_trees=3, learning_rate=0.3,
                         depth=3, n_bins=64, min_data_in_leaf=3)
        model = train_gbdt(X, y.astype(int), cfg)
        base, rounds = replay_boosting(dense, y, cfg, SYMMETRIC)
        for tree, oracle_round in zip(model.trees, rounds):
            assert_symmetric_equal(tree, oracle_round, X, 90)
