import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmdetect.errors import ModelError
from llmdetect.models import GbdtConfig, train_gbdt
from llmdetect.models.common import sigmoid
from llmdetect.models.gbdt import (LEAF_WISE, SYMMETRIC, _BinnedMatrix, _node,
                                   _widths, split_threshold)
from llmdetect.metrics import roc_auc
from llmdetect.sparse import SparseMatrix
from conftest import random_sparse, traced_peak
from gbdt_compare import (assert_leafwise_equal, assert_symmetric_equal,
                          replay_boosting)
from oracles import (_oracle_gain, bin_matrix, binned_matrix_oracle,
                     compute_bin_edges, find_best_split, histograms_oracle,
                     sparse_from_dense, split_gains_oracle, to_dense)


def column_gains(binned, splits):
    """The per-class results of ``split_gains`` laid out as one (occupied,
    gains) pair in column order, gains[k, b] for every threshold b in
    0..n_bins-2 and -inf past a class's width.  Each class's last gain
    column, whose threshold sends every row left, must be -inf."""
    gains = np.full((0, binned.n_bins - 1), -np.inf)
    occupied = np.empty(0, dtype=np.int64)
    for cols, block in splits:
        assert block.shape == (len(cols), block.shape[1])
        assert (block[:, -1] == -np.inf).all()
        wide = np.full((len(cols), binned.n_bins - 1), -np.inf)
        wide[:, :block.shape[1] - 1] = block[:, :-1]
        occupied = np.append(occupied, cols)
        gains = np.vstack([gains, wide])
    order = np.argsort(occupied, kind="stable")
    return occupied[order], gains[order]


def node_split_gains(X, rows, g, h, n_bins, min_data_in_leaf=1, lambda_l2=1.0):
    """The training path's (binned matrix, occupied, gains) at the node
    holding ``rows``, in ``column_gains``'s layout."""
    binned = _BinnedMatrix(X, GbdtConfig(n_bins=n_bins,
                                         min_data_in_leaf=min_data_in_leaf,
                                         lambda_l2=lambda_l2))
    splits = binned.split_gains(_node(rows, g, h), g, h)
    return (binned, *column_gains(binned, splits))


def csr_bins(X, binned):
    """The bin per stored nonzero of X, the matrix ``binned`` was built
    from, in X's storage order; 0 for the nonzeros of columns it does not
    bin."""
    bins = np.zeros(X.nnz, dtype=np.int64)
    bins[np.isin(X.cols, binned.splittable)] = binned.bins
    return bins


def explicit_gains(X, binned, occupied, rows, g, h, min_data_in_leaf=1,
                   lambda_l2=1.0):
    """Gains from the explicit left/right rows of every threshold, -inf
    where a side holds fewer than min_data_in_leaf rows."""
    out = np.full((len(occupied), binned.n_bins - 1), -np.inf)
    for k, col in enumerate(occupied):
        values = X.column_values(col, rows)
        for b in range(binned.n_bins - 1):
            # bins past the last cut are empty: their threshold is that cut
            last = min(b, len(binned.cuts[col]))
            goes_left = values <= split_threshold(binned.cuts, col, last)
            left, right = rows[goes_left], rows[~goes_left]
            if min(len(left), len(right)) >= min_data_in_leaf:
                out[k, b] = _oracle_gain(g[left].sum(), h[left].sum(),
                                         g[right].sum(), h[right].sum(),
                                         lambda_l2)
    return out


def assert_gains_explicit(X, binned, occupied, gains, rows, g, h, **kw):
    expected = explicit_gains(X, binned, occupied, rows, g, h, **kw)
    assert gains.shape == expected.shape
    np.testing.assert_array_equal(np.isinf(gains), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(gains[finite], expected[finite], rtol=1e-9,
                               atol=1e-12)


def leafwise_choice(occupied, gains):
    """Leaf-wise growth's pick at a node: (column, bin, gain) of the first
    largest gain if it is positive, else None."""
    if gains.size == 0 or gains.max() <= 0.0:
        return None
    k, b = divmod(int(np.argmax(gains)), gains.shape[1])
    return int(occupied[k]), b, float(gains[k, b])


class TestHistograms:
    def test_single_bin_totals(self):
        # one distinct nonzero value, present in every row: all of the
        # node's mass lands in bin 1 and none in the zero bin, so no
        # threshold leaves rows on both sides
        g = np.array([0.5, -0.25, 1.0])
        h = np.array([0.2, 0.3, 0.1])
        X = sparse_from_dense([[0.7], [0.7], [0.7]])
        binned, occupied, gains = node_split_gains(X, np.arange(3), g, h, 4)
        assert occupied.tolist() == [0]
        assert binned.bins.tolist() == [1, 1, 1]
        assert gains.tolist() == [[-np.inf] * 3]
        assert _node(np.arange(3), g, h)[1:] == pytest.approx(
            (g.sum(), h.sum()), abs=1e-12)

    def test_all_zero_column_mass_in_zero_bin(self):
        X = sparse_from_dense([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0],
                                     [0.0, 3.0], [0.0, 0.0]])
        ones = np.ones(5)
        rows = np.arange(5)
        binned, occupied, gains = node_split_gains(X, rows, ones, ones, 8)
        assert occupied.tolist() == [0, 1]
        # threshold 0 sends each column's zero rows (3 and 4) left
        assert gains[0, 0] == pytest.approx(_oracle_gain(3, 3, 2, 2, 1.0))
        assert gains[1, 0] == pytest.approx(_oracle_gain(4, 4, 1, 1, 1.0))
        assert_gains_explicit(X, binned, occupied, gains, rows, ones, ones)
        # column 1 is all zero at this node: it cannot split and is omitted
        rows = np.array([0, 1, 2])
        binned, occupied, gains = node_split_gains(X, rows, ones, ones, 8)
        assert occupied.tolist() == [0]
        assert gains[0, 0] == pytest.approx(_oracle_gain(1, 1, 2, 2, 1.0))
        assert_gains_explicit(X, binned, occupied, gains, rows, ones, ones)

    def test_bin_statistics_sum_to_column_totals(self, rng):
        # the right side of every threshold is the node minus its left side
        X, _ = random_sparse(rng, 40, 6, max_distinct=10)
        g = rng.normal(size=40)
        h = rng.random(40)
        rows = np.sort(rng.choice(40, size=25, replace=False))
        binned, occupied, gains = node_split_gains(X, rows, g, h, 6)
        assert len(occupied) > 0
        assert_gains_explicit(X, binned, occupied, gains, rows, g, h)

    def test_histogram_gain_matches_exhaustive(self, rng):
        # with one bin per distinct value, the best histogram split must
        # equal the best exhaustive all-thresholds split
        from oracles import _oracle_best_split, _column_thresholds
        X, dense = random_sparse(rng, 50, 3, max_distinct=8)
        g = rng.normal(size=50)
        h = rng.random(50) + 0.1
        rows = np.arange(50)
        _, occupied, gains = node_split_gains(X, rows, g, h, 32,
                                              min_data_in_leaf=2)
        found = leafwise_choice(occupied, gains)
        expected = _oracle_best_split(dense, _column_thresholds(dense), rows,
                                      g, h, 1.0, 2)
        assert found is not None and expected is not None
        assert found[0] == expected[1]  # same column
        assert found[2] == pytest.approx(expected[0], rel=1e-9)


class TestFindBestSplit:
    @staticmethod
    def choice(dense, g, h, n_bins, min_data_in_leaf):
        X = sparse_from_dense(dense)
        _, occupied, gains = node_split_gains(
            X, np.arange(len(g)), np.asarray(g, float), np.asarray(h, float),
            n_bins, min_data_in_leaf)
        return leafwise_choice(occupied, gains)

    def test_pure_leaf_returns_none(self):
        # count [3, 2, 4, 1] over four bins, every row with g 0.5, h 0.25
        column = [0.0] * 3 + [1.0] * 2 + [2.0] * 4 + [3.0]
        assert self.choice([[v] for v in column], [0.5] * 10, [0.25] * 10,
                           4, 1) is None

    def test_two_group_boundary(self):
        # bin 0: strongly negative gradients; bin 1: strongly positive
        column = [0.0] * 10 + [1.0] * 10
        col, bin_threshold, gain = self.choice(
            [[v] for v in column], [-0.5] * 10 + [0.5] * 10, [0.2] * 20, 2, 1)
        assert (col, bin_threshold) == (0, 0) and gain > 0

    def test_tie_prefers_lowest_column(self):
        column = [0.0] * 10 + [1.0] * 10
        col, _, _ = self.choice([[v, v] for v in column],
                                [-0.5] * 10 + [0.5] * 10, [0.2] * 20, 2, 1)
        assert col == 0

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_tie_prefers_lowest_column_in_training(self, variant):
        column = [0.0] * 10 + [1.0] * 10
        X = sparse_from_dense([[v, v] for v in column])
        model = train_gbdt(X, [0] * 10 + [1] * 10, GbdtConfig(
            variant=variant, n_trees=1, max_leaves=2, depth=1, n_bins=2,
            min_data_in_leaf=1))
        assert model.trees[0].columns[0] == 0

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_tie_across_width_classes_prefers_lowest_column(self, variant):
        # both columns split zeros from nonzeros alike; column 0, of 200
        # distinct values, is in the widest class at 255 bins and column 1,
        # of one value, in the narrowest, whose gains come first
        nonzero = np.arange(400) % 2 == 1
        dense = np.zeros((400, 2))
        dense[nonzero, 0] = np.arange(200) + 1.0
        dense[nonzero, 1] = 1.0
        X = sparse_from_dense(dense)
        binned = _BinnedMatrix(X, GbdtConfig())
        assert [w for _, _, w in binned.classes] == [17, 255]
        model = train_gbdt(X, nonzero.astype(int), GbdtConfig(
            variant=variant, n_trees=1, max_leaves=2, depth=1))
        tree = model.trees[0]
        assert (tree.columns[0], tree.bins[0]) == (0, 0)

    def test_min_data_blocks_split(self):
        column = [0.0] + [1.0] * 19
        assert self.choice([[v] for v in column], [-5.0] + [5 / 19] * 19,
                           [2.0] + [2 / 19] * 19, 2, 2) is None


@st.composite
def _binning_inputs(draw, n_bins=st.integers(2, 9), max_columns=6):
    """Matrices whose columns are empty, hold few distinct nonzeros, or
    more than n_bins - 1 of them (the quantile branch).  Values are steps
    of a grid of at most 3 * n_bins + 1 points, with up to 3 * n_bins rows
    (at least 30), so equal values straddle quantile positions."""
    n_bins = draw(n_bins)
    n_rows = draw(st.integers(1, max(30, 3 * n_bins)))
    columns = []
    for _ in range(draw(st.integers(1, max_columns))):
        kind = draw(st.sampled_from(["empty", "few", "many"]))
        if kind == "empty":
            columns.append(np.zeros(n_rows))
            continue
        grid = draw(st.integers(1, 3 * n_bins))
        values = draw(st.lists(st.integers(0, grid), min_size=n_rows,
                               max_size=n_rows))
        scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e-300, 1e300]))
        columns.append(np.array(values, dtype=float) * scale)
    return sparse_from_dense(np.column_stack(columns)), n_bins


def assert_column_binned_like_oracle(binned, X, col, expected_cuts,
                                     expected_bins):
    """Column ``col`` has the two-pass oracle's cuts and bins, byte for
    byte, except for the n_bins = 2 quantile case."""
    n_bins = binned.n_bins
    col_indptr, _, csc_vals = X.to_csc()
    values = csc_vals[col_indptr[col]:col_indptr[col + 1]]
    entries = X.cols == col
    got, bins = binned.cuts[col], csr_bins(X, binned)
    if n_bins == 2 and len(np.unique(values)) > 1:
        # the two-pass cut sat at the minimum and put larger values in
        # bin 2, past the last bin; one bin holds them all now
        assert got.tolist() == [values.max()]
        assert (bins[entries] == 1).all()
        return
    assert got.dtype == expected_cuts.dtype
    assert got.tobytes() == expected_cuts.tobytes()
    assert bins[entries].tobytes() == expected_bins[entries].tobytes()


def assert_binned_like_per_column_oracle(binned, expected):
    """splittable, cuts (dtype and bytes), bins and X_split byte for byte
    those of the per-column binning loop."""
    assert binned.splittable.dtype == expected.splittable.dtype
    assert binned.splittable.tobytes() == expected.splittable.tobytes()
    assert len(binned.cuts) == len(expected.cuts)
    for got, want in zip(binned.cuts, expected.cuts):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert binned.bins.dtype == expected.bins.dtype
    assert binned.bins.tobytes() == expected.bins.tobytes()
    got, want = binned.X_split, expected.X_split
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    for name in ("indptr", "cols", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestBinning:
    @given(st.one_of(_binning_inputs(),
                     _binning_inputs(st.sampled_from([16, 255]), 3)),
           st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_oracle(self, inputs, min_data):
        X, n_bins = inputs
        config = GbdtConfig(n_bins=n_bins, min_data_in_leaf=min_data)
        assert_binned_like_per_column_oracle(_BinnedMatrix(X, config),
                                             binned_matrix_oracle(X, config))

    @pytest.mark.parametrize("n_bins", [2, 3, 16, 255])
    @pytest.mark.parametrize("min_data", [1, 20])
    def test_wide_matrix_matches_per_column_oracle(self, rng, n_bins,
                                                   min_data):
        # about 360 nonzeros per column: every column has more than 254
        # distinct values, so all take the quantile branch; snapped to
        # multiples of 1/1000, each column also holds runs of ties
        for max_distinct in (0, 1000):
            X, _ = random_sparse(rng, 600, 40, density=0.6,
                                 max_distinct=max_distinct)
            col_indptr, _, vals = X.to_csc()
            assert all(len(np.unique(vals[lo:hi])) > 254 for lo, hi
                       in zip(col_indptr[:-1], col_indptr[1:]))
            config = GbdtConfig(n_bins=n_bins, min_data_in_leaf=min_data)
            assert_binned_like_per_column_oracle(
                _BinnedMatrix(X, config), binned_matrix_oracle(X, config))

    @given(_binning_inputs())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_two_pass_oracle(self, inputs):
        X, n_bins = inputs
        binned = _BinnedMatrix(X, GbdtConfig(n_bins=n_bins, min_data_in_leaf=1))
        cuts = compute_bin_edges(X, n_bins)
        expected_bins = bin_matrix(X, cuts)
        assert len(binned.cuts) == len(cuts) == X.n_cols
        assert binned.bins.dtype == expected_bins.dtype
        assert ((1 <= binned.bins) & (binned.bins <= n_bins - 1)).all()
        # at min_data_in_leaf = 1 every nonzero is binned
        assert len(binned.bins) == X.nnz
        for col, expected in enumerate(cuts):
            assert_column_binned_like_oracle(binned, X, col, expected,
                                             expected_bins)

    @given(_binning_inputs(), st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_columns_below_min_data_are_not_binned(self, inputs, min_data):
        X, n_bins = inputs
        binned = _BinnedMatrix(X, GbdtConfig(n_bins=n_bins,
                                             min_data_in_leaf=min_data))
        cuts = compute_bin_edges(X, n_bins)
        expected_bins = bin_matrix(X, cuts)
        nnz = np.bincount(X.cols, minlength=X.n_cols)
        assert binned.splittable.tolist() == np.flatnonzero(
            nnz >= min_data).tolist()
        assert len(binned.cuts) == X.n_cols
        assert ((1 <= binned.bins) & (binned.bins <= n_bins - 1)).all()
        for col, expected in enumerate(cuts):
            if nnz[col] >= min_data:
                assert_column_binned_like_oracle(binned, X, col, expected,
                                                 expected_bins)
            else:
                assert len(binned.cuts[col]) == 0
        # X_split is X restricted to the binned columns, in X's row order
        dense = to_dense(X)[:, binned.splittable]
        np.testing.assert_array_equal(to_dense(binned.X_split), dense)
        assert len(binned.bins) == binned.X_split.nnz

    def test_quantile_branch_and_empty_column(self):
        X = sparse_from_dense(np.column_stack(
            [np.arange(20.0), np.zeros(20), np.arange(20.0) % 3]))
        binned = _BinnedMatrix(X, GbdtConfig(n_bins=3, min_data_in_leaf=1))
        cuts = compute_bin_edges(X, 3)
        assert [len(c) for c in cuts] == [2, 0, 2]
        for got, expected in zip(binned.cuts, cuts):
            assert got.tobytes() == expected.tobytes()
        assert binned.bins.tobytes() == bin_matrix(X, cuts).tobytes()

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_two_bins_split_zero_from_nonzero(self, variant):
        # once a ValueError: the only nonzero bin could not hold the values
        # above the column's minimum
        column = [0.0] * 6 + [0.25, 0.5, 0.75, 1.0, 0.5, 0.25]
        X = sparse_from_dense([[v] for v in column])
        model = train_gbdt(X, [0] * 6 + [1] * 6, GbdtConfig(
            variant=variant, n_trees=1, max_leaves=2, depth=1, n_bins=2,
            min_data_in_leaf=1))
        tree = model.trees[0]
        assert (tree.columns[0], tree.bins[0], tree.thresholds[0]) == (0, 0, 0.0)
        assert roc_auc(model.predict_proba(X), [0] * 6 + [1] * 6) == 1.0


@st.composite
def _node_inputs(draw):
    rows = draw(st.integers(2, 24))
    cols = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X, _ = random_sparse(rng, rows, cols, density=draw(st.sampled_from(
        [0.1, 0.4, 0.9])), max_distinct=draw(st.integers(0, 12)))
    # dyadic gradients and hessians: every sum is exact in any order
    g = rng.integers(-16, 17, size=rows) / 8
    h = rng.integers(0, 17, size=rows) / 16
    node_rows = np.sort(rng.choice(rows, size=draw(st.integers(1, rows)),
                                   replace=False))
    return (X, g, h, node_rows, draw(st.integers(2, 20)),
            draw(st.integers(1, 4)), draw(st.sampled_from([0.5, 1.0, 3.0])))


class TestSplitGains:
    @given(_node_inputs())
    @settings(max_examples=200, deadline=None)
    def test_every_gain_is_the_explicit_split_gain(self, inputs):
        X, g, h, rows, n_bins, min_data, lam = inputs
        binned, occupied, gains = node_split_gains(X, rows, g, h, n_bins,
                                                   min_data, lam)
        nonzeros = Counter(int(c) for r in rows
                           for c in X.cols[X.indptr[r]:X.indptr[r + 1]])
        if len(rows) >= 2 * min_data:
            assert occupied.tolist() == sorted(
                c for c, k in nonzeros.items() if k >= min_data)
        assert_gains_explicit(X, binned, occupied, gains, rows, g, h,
                              min_data_in_leaf=min_data, lambda_l2=lam)
        # a column with a nonzero at the node that is left out cannot split
        # it: every value threshold leaves a side short
        for col in set(nonzeros) - set(occupied.tolist()):
            values = X.column_values(col, rows)
            for threshold in np.unique(np.append(values, 0.0)):
                goes_left = values <= threshold
                assert min(goes_left.sum(), (~goes_left).sum()) < min_data

    @given(_node_inputs())
    @settings(max_examples=200, deadline=None)
    def test_leafwise_choice_matches_histogram_oracle(self, inputs):
        X, g, h, rows, n_bins, min_data, lam = inputs
        binned, occupied, gains = node_split_gains(X, rows, g, h, n_bins,
                                                   min_data, lam)
        # a column left unbinned has all of its rows in the zero bin here;
        # it has too few nonzeros to split, as it would with its true bins
        grad, hess, count = histograms_oracle(X, csr_bins(X, binned), rows,
                                              g, h, n_bins)
        expected = find_best_split(grad, hess, count, lam, min_data,
                                   (float(g[rows].sum()),
                                    float(h[rows].sum()), len(rows)))
        assert leafwise_choice(occupied, gains) == expected


@st.composite
def _width_class_inputs(draw):
    """A matrix whose columns hold from one to about 200 distinct nonzero
    values, so that at the larger bin counts they fall into several width
    classes.  A column may take an earlier one's nonzero rows, so that
    splits of columns in different classes tie."""
    n_bins = draw(st.sampled_from([2, 3, 16, 64, 255, 1024]))
    n_rows = draw(st.integers(8, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        distinct = draw(st.integers(1, n_rows))
        values = rng.integers(1, distinct + 1, size=n_rows) / distinct
        if columns and draw(st.booleans()):
            values[columns[draw(st.integers(0, len(columns) - 1))] == 0] = 0
        else:
            values[rng.random(n_rows) > draw(st.sampled_from([0.3, 0.7,
                                                              1.0]))] = 0
        columns.append(values)
    X = sparse_from_dense(np.column_stack(columns))
    y = rng.integers(0, 2, size=n_rows)
    y[:2] = 0, 1
    config = GbdtConfig(
        n_trees=2, learning_rate=0.3, max_leaves=draw(st.integers(2, 8)),
        depth=draw(st.integers(1, 4)), n_bins=n_bins,
        min_data_in_leaf=draw(st.integers(1, 6)),
        lambda_l2=draw(st.sampled_from([0.5, 1.0, 3.0])))
    return X, y, config


def oracle_as_one_class(binned, node, g, h):
    """The oracle's search in ``split_gains``'s return shape: one class of
    width n_bins, its last gain column -inf."""
    occupied, gains = split_gains_oracle(binned, node, g, h)
    if len(occupied) == 0:
        return []
    return [(occupied, np.hstack([gains, np.full((len(occupied), 1),
                                                 -np.inf)]))]


class TestWidthClasses:
    def test_narrow_zero_bin_sums_are_full_width_ones(self):
        # the zero bin is the node total minus a row's sum over bins 1..;
        # each admitted width must give that sum bit for bit as the full
        # width does, the bins past it being empty.  Trees would drift
        # silently if numpy changed its summation order
        rng = np.random.default_rng(0)
        for n_bins in range(2, 1025):
            widths = _widths(n_bins)
            assert widths == sorted(set(widths)) and widths[-1] == n_bins
            assert all((w - 1) % 8 == 0 for w in widths[:-1])
            for width in widths:
                full = rng.normal(size=(16, n_bins)) * 10.0 ** rng.integers(
                    -6, 7, size=(16, 1))
                full[:, width:] = 0.0
                narrow = np.ascontiguousarray(full[:, :width])
                totals = rng.normal(size=16)
                got = totals - narrow[:, 1:].sum(axis=1)
                want = totals - full[:, 1:].sum(axis=1)
                assert got.tobytes() == want.tobytes(), (n_bins, width)

    def test_an_unadmitted_width_changes_the_sums(self):
        # the check above can fail: a width of 40 at 255 bins sums a row's
        # 39 bins in another order than the full width does
        rng = np.random.default_rng(0)
        full = rng.normal(size=(40, 255))
        full[:, 40:] = 0.0
        narrow = np.ascontiguousarray(full[:, :40])
        assert 40 not in _widths(255)
        assert not np.array_equal(narrow[:, 1:].sum(axis=1),
                                  full[:, 1:].sum(axis=1))

    def test_widths_of_common_bin_counts(self):
        assert _widths(255) == [17, 33, 65, 121, 255]
        assert _widths(1024) == [17, 33, 65, 121, 1024]
        assert _widths(16) == [16]

    @given(_width_class_inputs())
    @settings(max_examples=60, deadline=None)
    def test_growers_match_the_full_width_oracle(self, inputs):
        # every node either grower scores: bit-identical gains on every
        # valid cell and -inf on the same cells; and trees identical to
        # those grown on the oracle's search
        X, y, config = inputs
        search = _BinnedMatrix.split_gains

        def checked(binned, node, g, h):
            splits = search(binned, node, g, h)
            occupied, gains = column_gains(binned, splits)
            want_occupied, want = split_gains_oracle(binned, node, g, h)
            assert occupied.tobytes() == want_occupied.tobytes()
            valid = np.isfinite(want)
            assert (np.isinf(gains) == ~valid).all()
            assert gains[valid].tobytes() == want[valid].tobytes()
            return splits

        for variant in (LEAF_WISE, SYMMETRIC):
            config = replace(config, variant=variant)
            with mock.patch.object(_BinnedMatrix, "split_gains", checked):
                model = train_gbdt(X, y, config)
            with mock.patch.object(_BinnedMatrix, "split_gains",
                                   oracle_as_one_class):
                expected = train_gbdt(X, y, config)
            assert model.to_dict() == expected.to_dict()

    def test_matrix_of_several_classes(self):
        # at 255 bins columns of 1 and 16 distinct values take 17 bins and
        # one column each the wider classes: split_gains returns the
        # classes in width order, each with its columns in column order
        distinct = [1, 16, 17, 40, 100, 200]
        dense = np.column_stack([np.arange(1, 201) % d + 1 for d in distinct])
        binned = _BinnedMatrix(sparse_from_dense(dense.astype(float)),
                               GbdtConfig(min_data_in_leaf=1))
        assert [w for _, _, w in binned.classes] == [17, 33, 65, 121, 255]
        rows = np.arange(200)
        g = np.random.default_rng(0).normal(size=200)
        splits = binned.split_gains(_node(rows, g, np.ones(200)), g,
                                    np.ones(200))
        assert [gains.shape[1] for _, gains in splits] == [17, 33, 65, 121,
                                                           255]
        assert [cols.tolist() for cols, _ in splits] == [[0, 1], [2], [3],
                                                         [4], [5]]


class TestTraining:
    def threshold_dataset(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = (x > 0.5).astype(int)
        return sparse_from_dense(x[:, None]), y

    def test_single_class_rejected(self):
        X = sparse_from_dense([[1.0], [2.0]])
        with pytest.raises(ModelError):
            train_gbdt(X, [1, 1])

    def test_negative_features_rejected(self):
        X = sparse_from_dense([[-1.0], [2.0]])
        with pytest.raises(ModelError, match="negative"):
            train_gbdt(X, [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_rejected(self, bad):
        X = sparse_from_dense([[bad], [2.0]])
        with pytest.raises(ModelError, match="finite"):
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

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_predict_sorts_only_split_columns(self, rng, variant):
        # decision_scores reads a copy of the split columns' entries: the
        # scores are each tree's routing on the whole matrix, bit for bit,
        # and the caller's matrix builds no CSC copy of every column
        X, _ = random_sparse(rng, 80, 40, density=0.3, max_distinct=10)
        y = (rng.random(80) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        model = train_gbdt(X, y, GbdtConfig(
            variant=variant, n_trees=4, max_leaves=4, depth=2, n_bins=16,
            min_data_in_leaf=2, learning_rate=0.3))
        fresh = SparseMatrix(X.indptr, X.cols, X.vals, X.n_rows, X.n_cols)
        scores = model.decision_scores(fresh)
        assert fresh._csc_cache is None
        expected = np.full(X.n_rows, model.base_score)
        for tree in model.trees:
            expected += tree.predict(X)
        np.testing.assert_array_equal(scores, expected)
        used = {c for tree in model.trees for c in tree.split_columns()}
        assert 0 < len(used) < X.n_cols

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_training_leaves_the_matrix_as_given(self, rng, variant):
        # training once sorted every entry of the caller's matrix into a
        # column view and left it cached there; it reads only its binned
        # copy of the splittable columns now
        X, _ = random_sparse(rng, 80, 40, density=0.3, max_distinct=10)
        y = (rng.random(80) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        arrays = [a.copy() for a in (X.indptr, X.cols, X.vals)]
        model = train_gbdt(X, y, GbdtConfig(
            variant=variant, n_trees=4, max_leaves=4, depth=2, n_bins=16,
            min_data_in_leaf=2, learning_rate=0.3))
        assert sum(len(tree.split_columns()) for tree in model.trees) > 0
        assert X._csc_cache is None
        for before, after in zip(arrays, (X.indptr, X.cols, X.vals)):
            assert after.dtype == before.dtype
            assert after.tobytes() == before.tobytes()

    @pytest.mark.parametrize("variant", [LEAF_WISE, SYMMETRIC])
    def test_no_columns_gives_constant_trees(self, variant):
        # a TF-IDF model whose min_df drops every n-gram has no columns;
        # the symmetric grower once failed on an empty argmax
        X = sparse_from_dense(np.zeros((4, 0)))
        model = train_gbdt(X, [0, 1, 0, 1], GbdtConfig(
            variant=variant, n_trees=2, depth=2, min_data_in_leaf=1))
        np.testing.assert_array_equal(model.predict_proba(X), [0.5] * 4)

    def test_symmetric_pads_with_noop_when_unsplittable(self):
        # min_data_in_leaf so large no split is ever valid
        X = sparse_from_dense([[0.1], [0.9], [0.4], [0.7]])
        cfg = GbdtConfig(variant=SYMMETRIC, n_trees=1, depth=3, n_bins=8,
                         min_data_in_leaf=4)
        model = train_gbdt(X, [0, 1, 0, 1], cfg)
        tree = model.trees[0]
        assert tree.thresholds == [None, None, None]
        assert len(tree.leaf_values) == 8
        # every document routes to leaf 0; the rest are zero padding
        assert tree.leaf_values[1:] == [0.0] * 7


def traced_peak_mb(fn) -> float:
    """Peak traced allocation, in MB, while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_unsplittable_columns_cost_no_level_arrays(self, rng):
        # 20,000 columns of one nonzero each can split no node at
        # min_data_in_leaf 5; a dense per-level gain array over every
        # column once cost 20,004 x 254 floats, about 40 MB, and the
        # per-node histograms of the columns with a nonzero several times
        # that
        _, dense = random_sparse(rng, 60, 4, max_distinct=10)
        y = (dense[:, 0] > 0.3).astype(int)
        y[0], y[1] = 0, 1
        extra = np.zeros((60, 20_000))
        extra[np.arange(20_000) % 60, np.arange(20_000)] = 0.5
        narrow = sparse_from_dense(dense)
        wide = sparse_from_dense(np.hstack([dense, extra]))
        config = GbdtConfig(variant=SYMMETRIC, n_trees=1, depth=3,
                            min_data_in_leaf=5)
        peaks = [traced_peak_mb(lambda: train_gbdt(X, y, config))
                 for X in (narrow, wide)]
        assert peaks[1] - peaks[0] < 4.0

    def test_root_histograms_as_wide_as_the_bins(self):
        # 3,000 columns of 40 nonzeros and at most 8 distinct values each:
        # at 1,024 bins a full-width search builds three histograms of
        # 3,000 x 1,024 cells, 74 MB, 64 times those at 16 bins; the
        # columns' width class holds 17 bins at 1,024 as at 16
        rng = np.random.default_rng(0)
        n_rows, n_cols = 400, 3000
        dense = np.zeros((n_rows, n_cols))
        for col in range(n_cols):
            dense[rng.choice(n_rows, 40, replace=False), col] = (
                rng.integers(1, 9, 40) / 8)
        X = sparse_from_dense(dense)
        rows = np.arange(n_rows)
        g, h = rng.normal(size=n_rows), rng.random(n_rows)
        peaks = {}
        for n_bins in (16, 1024):
            binned = _BinnedMatrix(X, GbdtConfig(n_bins=n_bins))
            node = _node(rows, g, h)
            peaks[n_bins] = traced_peak(
                lambda: binned.split_gains(node, g, h))
        assert peaks[1024] < 1.5 * peaks[16], peaks

    def test_binning_memory_is_linear_in_nonzeros(self):
        # one column nonzero in all 4,000 rows and 200 columns of 20
        # entries each: nnz 8,000, so nnz * 8 bytes is 64 KB.  The one-sort
        # pass peaks at about 12.6 times that, its outputs (X_split and
        # bins) included; the bound leaves a margin of 1.6 times.  Padding
        # every column to the longest would take 201 * 4,000 * 8 bytes,
        # 100 times nnz * 8.
        n_rows = 4000
        rows = np.arange(n_rows)
        X = SparseMatrix(
            indptr=2 * np.arange(n_rows + 1),
            cols=np.column_stack([np.zeros(n_rows, dtype=np.int64),
                                  1 + rows // 20]).ravel(),
            vals=np.random.default_rng(0).random(2 * n_rows) + 0.5,
            n_rows=n_rows, n_cols=1 + n_rows // 20)
        for n_bins in (2, 16, 255):
            peak = traced_peak(lambda: _BinnedMatrix(X, GbdtConfig(
                n_bins=n_bins)))
            assert peak < 20 * X.nnz * 8, (n_bins, peak)


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

    @staticmethod
    def wide_sparse(seed):
        """A TF-IDF-shaped training set: 120 rows and 80 columns whose
        densities fall like n-gram frequencies, from 0.4 to 0.012, so that
        most columns hold fewer than 5 nonzeros at the root."""
        rng = np.random.default_rng(seed)
        density = 0.4 * np.arange(1, 81) ** -0.8
        dense = np.round(rng.random((120, 80)) * 9) / 9
        dense[rng.random((120, 80)) > density] = 0.0
        signal = dense[:, :20].sum(axis=1) + 0.2 * rng.random(120)
        y = (signal > np.median(signal)).astype(np.float64)
        return sparse_from_dense(dense), dense, y

    @staticmethod
    def pruning_spy(monkeypatch, X):
        """(rows, dropped) for every node split_gains scores while training
        on X: its row count and how many columns with a nonzero there it
        leaves out."""
        seen = []
        split_gains = _BinnedMatrix.split_gains

        def spy(self, node, g, h):
            splits = split_gains(self, node, g, h)
            rows = node[0]
            if len(rows) >= 2 * self.config.min_data_in_leaf:
                pos, _ = X.gather_positions(rows)
                present = len(np.unique(X.cols[pos]))
                occupied = sum(len(cols) for cols, _ in splits)
                seen.append((len(rows), present - occupied))
            return splits

        monkeypatch.setattr(_BinnedMatrix, "split_gains", spy)
        return seen

    @staticmethod
    def assert_pruned_at_root_and_below(seen, n_rows):
        # most of the 80 columns at the root, and some at every tree's
        # deeper nodes
        assert all(dropped > 40 for rows, dropped in seen if rows == n_rows)
        assert any(dropped for rows, dropped in seen if rows < n_rows)

    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_leafwise_node_for_node_wide_sparse(self, seed, monkeypatch):
        X, dense, y = self.wide_sparse(seed)
        seen = self.pruning_spy(monkeypatch, X)
        cfg = GbdtConfig(n_trees=3, learning_rate=0.3, max_leaves=8,
                         n_bins=64, min_data_in_leaf=5)
        model = train_gbdt(X, y.astype(int), cfg)
        self.assert_pruned_at_root_and_below(seen, 120)
        base, rounds = replay_boosting(dense, y, cfg, LEAF_WISE)
        assert model.base_score == pytest.approx(base, abs=1e-12)
        for tree, (oracle_root, _) in zip(model.trees, rounds):
            assert_leafwise_equal(tree, oracle_root, X, 120)

    @pytest.mark.parametrize("max_leaves", [2, 3, 8])
    def test_leafwise_searches_no_child_of_the_last_split(self, monkeypatch,
                                                          max_leaves):
        # the split that makes the last leaf leaves its two children
        # unsplit, so their searches were waste: 2 * max_leaves - 1 calls
        # once, with the root's
        X, _, y = self.wide_sparse(20)
        calls = []
        split_gains = _BinnedMatrix.split_gains
        monkeypatch.setattr(_BinnedMatrix, "split_gains",
                            lambda self, node, g, h: calls.append(node) or
                            split_gains(self, node, g, h))
        model = train_gbdt(X, y.astype(int), GbdtConfig(
            n_trees=1, max_leaves=max_leaves, n_bins=64, min_data_in_leaf=3))
        assert model.trees[0].columns.count(-1) == max_leaves
        assert len(calls) == 2 * max_leaves - 3

    @pytest.mark.parametrize("seed", [30, 31, 32, 33])
    def test_symmetric_node_for_node_wide_sparse(self, seed, monkeypatch):
        X, dense, y = self.wide_sparse(seed)
        seen = self.pruning_spy(monkeypatch, X)
        cfg = GbdtConfig(variant=SYMMETRIC, n_trees=3, learning_rate=0.3,
                         depth=3, n_bins=64, min_data_in_leaf=5)
        model = train_gbdt(X, y.astype(int), cfg)
        self.assert_pruned_at_root_and_below(seen, 120)
        base, rounds = replay_boosting(dense, y, cfg, SYMMETRIC)
        for tree, oracle_round in zip(model.trees, rounds):
            assert_symmetric_equal(tree, oracle_round, X, 120)
