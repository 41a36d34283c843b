"""Histogram-based gradient-boosted trees for binary classification.

Boosting fits each tree to the gradients/hessians of the logistic loss at
the current scores (g = p - y, h = p(1 - p)); leaves take the Newton value
-G/(H + lambda) scaled by the learning rate.  Split quality is the
second-order gain

    1/2 * [ G_L^2/(H_L+l) + G_R^2/(H_R+l) - (G_L+G_R)^2/(H_L+H_R+l) ]

searched over per-column histograms whose bin edges come from quantiles of
the nonzero training values; bin 0 is reserved for the exact zeros of
sparse columns, which requires nonnegative features (TF-IDF weights are).

Two growth strategies share the machinery: leaf_wise repeatedly splits the
leaf with the globally best gain until max_leaves; symmetric picks one
(column, bin) per depth level, applied to every node of that level, and
always produces a perfect tree of the configured depth (levels with no
positive-gain split become no-op splits and missing leaves get value 0).
Ties anywhere go to the lowest column, then the lowest bin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ModelError
from ..sparse import SparseMatrix
from .common import check_binary_labels, check_feature_count, sigmoid

LEAF_WISE = "leaf_wise"
SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class GbdtConfig:
    variant: str = LEAF_WISE
    n_trees: int = 200
    learning_rate: float = 0.1
    max_leaves: int = 31        # leaf_wise only
    depth: int = 6              # symmetric only
    n_bins: int = 255
    min_data_in_leaf: int = 20
    lambda_l2: float = 1.0

    def __post_init__(self):
        if self.variant not in (LEAF_WISE, SYMMETRIC):
            raise ModelError(f"variant must be {LEAF_WISE} or {SYMMETRIC}, "
                             f"got {self.variant!r}")
        if self.n_trees < 0:
            raise ModelError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.learning_rate < 0.0:
            raise ModelError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.max_leaves < 2:
            raise ModelError(f"max_leaves must be >= 2, got {self.max_leaves}")
        if self.depth < 1:
            raise ModelError(f"depth must be >= 1, got {self.depth}")
        if self.n_bins < 2:
            raise ModelError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.min_data_in_leaf < 1:
            raise ModelError(f"min_data_in_leaf must be >= 1, "
                             f"got {self.min_data_in_leaf}")
        if self.lambda_l2 < 0.0:
            raise ModelError(f"lambda_l2 must be >= 0, got {self.lambda_l2}")


@dataclass
class LeafwiseTree:
    """Parallel node arrays; node 0 is the root, leaves have column -1.

    Internal nodes route left iff value <= threshold.
    """

    columns: list[int]
    bins: list[int]
    thresholds: list[float]
    left: list[int]
    right: list[int]
    values: list[float]

    @property
    def n_leaves(self) -> int:
        return sum(1 for c in self.columns if c < 0)

    def check(self, n_features: int) -> None:
        """Reject node arrays that predict could not walk to a leaf."""
        n = len(self.columns)
        if n == 0 or any(len(a) != n for a in (self.bins, self.thresholds,
                                               self.left, self.right,
                                               self.values)):
            raise ModelError("leaf-wise tree: node arrays differ in length")
        _check_reals(self.thresholds, "threshold")
        _check_reals(self.values, "leaf value")
        for node, col in enumerate(self.columns):
            if col != -1:
                # children after their parent: every walk ends at a leaf
                _check_index(col, 0, n_features, "column")
                _check_index(self.left[node], node + 1, n, "left child")
                _check_index(self.right[node], node + 1, n, "right child")

    def predict(self, X: SparseMatrix, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            rows = np.arange(X.n_rows)
        out = np.empty(len(rows))
        stack = [(0, np.arange(len(rows)))]
        while stack:
            node, member = stack.pop()
            if len(member) == 0:
                continue
            if self.columns[node] < 0:
                out[member] = self.values[node]
                continue
            vals = X.column_values(self.columns[node], rows[member])
            goes_left = vals <= self.thresholds[node]
            stack.append((self.left[node], member[goes_left]))
            stack.append((self.right[node], member[~goes_left]))
        return out


@dataclass
class SymmetricTree:
    """One (column, threshold) per level; 2^depth leaf values.

    A level with threshold None is a no-op that routes every row left.
    """

    columns: list[int]
    bins: list[int]
    thresholds: list[float | None]
    leaf_values: list[float]

    @property
    def depth(self) -> int:
        return len(self.columns)

    def check(self, n_features: int) -> None:
        """Reject level arrays that predict could not apply."""
        if len(self.bins) != self.depth or len(self.thresholds) != self.depth:
            raise ModelError("symmetric tree: level arrays differ in length")
        if len(self.leaf_values) != 2 ** self.depth:
            raise ModelError(f"symmetric tree of depth {self.depth} needs "
                             f"{2 ** self.depth} leaf values, got "
                             f"{len(self.leaf_values)}")
        _check_reals(self.leaf_values, "leaf value")
        for col, thr in zip(self.columns, self.thresholds):
            if thr is not None:  # a no-op level never reads its column
                _check_reals([thr], "threshold")
                _check_index(col, 0, n_features, "column")

    def predict(self, X: SparseMatrix, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            rows = np.arange(X.n_rows)
        index = np.zeros(len(rows), dtype=np.int64)
        for col, thr in zip(self.columns, self.thresholds):
            if thr is None:
                goes_right = np.zeros(len(rows), dtype=bool)
            else:
                goes_right = X.column_values(col, rows) > thr
            index = index * 2 + goes_right
        return np.asarray(self.leaf_values)[index]


@dataclass
class GbdtModel:
    KIND = "gbdt"

    base_score: float
    config: GbdtConfig
    n_features: int
    trees: list

    def decision_scores(self, X: SparseMatrix) -> np.ndarray:
        check_feature_count(self.n_features, X)
        scores = np.full(X.n_rows, self.base_score)
        for tree in self.trees:
            scores += tree.predict(X)
        return scores

    def predict_proba(self, X: SparseMatrix) -> np.ndarray:
        return sigmoid(self.decision_scores(X))

    def to_dict(self) -> dict:
        return {"base_score": self.base_score, "n_features": self.n_features,
                "config": asdict(self.config),
                "trees": [asdict(tree) for tree in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "GbdtModel":
        config = GbdtConfig(**d["config"])
        tree_cls = SymmetricTree if config.variant == SYMMETRIC else LeafwiseTree
        model = cls(base_score=float(d["base_score"]), config=config,
                    n_features=int(d["n_features"]),
                    trees=[tree_cls(**entry) for entry in d["trees"]])
        for tree in model.trees:
            tree.check(model.n_features)
        return model


def _check_index(value, lo: int, hi: int, what: str) -> None:
    if not isinstance(value, int) or not lo <= value < hi:
        raise ModelError(f"{what} {value!r} outside [{lo}, {hi})")


def _check_reals(values, what: str) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ModelError(f"{what} {v!r} is not a finite number")


# -- binning ---------------------------------------------------------------

def compute_bin_edges(X: SparseMatrix, n_bins: int) -> list[np.ndarray]:
    """Per-column cut values for the nonzero entries.

    If a column has at most n_bins - 1 distinct nonzero values, every
    distinct value gets its own bin (cuts are the values themselves), which
    makes histogram splits coincide with exhaustive value splits.
    """
    col_indptr, _, vals, _ = X.to_csc()
    cuts: list[np.ndarray] = []
    for col in range(X.n_cols):
        v = vals[col_indptr[col]:col_indptr[col + 1]]
        if len(v) == 0:
            cuts.append(np.empty(0))
            continue
        unique = np.unique(v)
        if len(unique) <= n_bins - 1:
            cuts.append(unique)
        else:
            quantiles = np.quantile(v, np.linspace(0.0, 1.0, n_bins - 1))
            cuts.append(np.unique(quantiles))
    return cuts


def bin_matrix(X: SparseMatrix, cuts: list[np.ndarray]) -> np.ndarray:
    """Bin index per stored nonzero, parallel to X.vals (always >= 1)."""
    col_indptr, _, vals, csr_pos = X.to_csc()
    bins = np.zeros(X.nnz, dtype=np.int64)
    for col in range(X.n_cols):
        lo, hi = col_indptr[col], col_indptr[col + 1]
        if hi > lo:
            bins[csr_pos[lo:hi]] = 1 + np.searchsorted(
                cuts[col], vals[lo:hi], side="left")
    return bins


def split_threshold(cuts: list[np.ndarray], col: int, bin_threshold: int) -> float:
    """Raw-value threshold equivalent to ``bin <= bin_threshold``."""
    if bin_threshold == 0:
        return 0.0
    return float(cuts[col][bin_threshold - 1])


# -- histograms and split search -------------------------------------------

def find_best_split(grad_hist: np.ndarray, hess_hist: np.ndarray,
                    count_hist: np.ndarray, lambda_l2: float,
                    min_data_in_leaf: int, totals: tuple[float, float, int],
                    ) -> tuple[int, int, float] | None:
    """Best (column, bin, gain) over (n_cols, n_bins) histograms.

    ``totals`` is the node's (grad_sum, hess_sum, row_count).  Returns None
    when no split has positive gain while leaving min_data_in_leaf rows on
    both sides.  Ties go to the lowest column, then the lowest bin.
    """
    gains, valid = _split_gains(grad_hist, hess_hist, count_hist,
                                lambda_l2, min_data_in_leaf, *totals)
    if not valid.any():
        return None
    flat = np.where(valid, gains, -np.inf).ravel()
    best = int(np.argmax(flat))
    if flat[best] <= 0.0:
        return None
    col, bin_threshold = divmod(best, gains.shape[1])
    return col, bin_threshold, float(flat[best])


def _split_gains(grad_hist, hess_hist, count_hist, lambda_l2, min_data_in_leaf,
                 g_tot, h_tot, c_tot):
    """Gain and validity per (column, threshold bin); thresholds 0..B-2."""
    g_left = np.cumsum(grad_hist, axis=1)[:, :-1]
    h_left = np.cumsum(hess_hist, axis=1)[:, :-1]
    c_left = np.cumsum(count_hist, axis=1)[:, :-1]
    g_right = g_tot - g_left
    h_right = h_tot - h_left
    c_right = c_tot - c_left
    valid = (c_left >= min_data_in_leaf) & (c_right >= min_data_in_leaf)
    parent = g_tot * g_tot / (h_tot + lambda_l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (g_left * g_left / (h_left + lambda_l2)
                       + g_right * g_right / (h_right + lambda_l2)
                       - parent)
    return gains, valid


class _BinnedMatrix:
    """Training matrix pre-binned for histogram work."""

    def __init__(self, X: SparseMatrix, n_bins: int):
        if X.nnz and X.vals.min() < 0.0:
            raise ModelError("negative feature values are unsupported: bin 0 "
                             "is reserved for zeros, which must sort lowest")
        self.X = X
        self.n_bins = n_bins
        self.cuts = compute_bin_edges(X, n_bins)
        self.bins = bin_matrix(X, self.cuts)

    def node_histograms(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray,
                        g_tot: float, h_tot: float):
        """Histograms over the columns occupied at this node.

        Returns (occupied_cols, grad_hist, hess_hist, count_hist); the
        zero bin holds node totals minus the column's nonzero sums.
        Columns with no nonzero entry at the node cannot split and are
        omitted.
        """
        pos, lengths = self.X.gather_positions(rows)
        cols_k = self.X.cols[pos]
        bins_k = self.bins[pos]
        if len(cols_k) == 0:
            return (np.empty(0, dtype=np.int64), np.empty((0, self.n_bins)),
                    np.empty((0, self.n_bins)), np.empty((0, self.n_bins),
                                                         dtype=np.int64))
        g_k = np.repeat(g[rows], lengths)
        h_k = np.repeat(h[rows], lengths)
        occupied = np.unique(cols_k)
        keys = np.searchsorted(occupied, cols_k) * self.n_bins + bins_k
        size = len(occupied) * self.n_bins
        grad_hist = np.bincount(keys, weights=g_k, minlength=size)
        hess_hist = np.bincount(keys, weights=h_k, minlength=size)
        count_hist = np.bincount(keys, minlength=size).astype(np.int64)
        grad_hist = grad_hist.reshape(len(occupied), self.n_bins)
        hess_hist = hess_hist.reshape(len(occupied), self.n_bins)
        count_hist = count_hist.reshape(len(occupied), self.n_bins)
        grad_hist[:, 0] = g_tot - grad_hist[:, 1:].sum(axis=1)
        hess_hist[:, 0] = h_tot - hess_hist[:, 1:].sum(axis=1)
        count_hist[:, 0] = len(rows) - count_hist[:, 1:].sum(axis=1)
        return occupied, grad_hist, hess_hist, count_hist


def _leaf_value(g_sum: float, h_sum: float, config: GbdtConfig) -> float:
    return -g_sum / (h_sum + config.lambda_l2) * config.learning_rate


def _best_for_node(binned: _BinnedMatrix, rows, g, h, g_tot, h_tot,
                   config: GbdtConfig):
    """(gain, column, bin, threshold) for the node, or None."""
    occupied, grad_hist, hess_hist, count_hist = binned.node_histograms(
        rows, g, h, g_tot, h_tot)
    if len(occupied) == 0:
        return None
    found = find_best_split(grad_hist, hess_hist, count_hist,
                            config.lambda_l2, config.min_data_in_leaf,
                            totals=(g_tot, h_tot, len(rows)))
    if found is None:
        return None
    occ_index, bin_threshold, gain = found
    col = int(occupied[occ_index])
    return gain, col, bin_threshold, split_threshold(binned.cuts, col,
                                                     bin_threshold)


def _grow_leafwise(binned: _BinnedMatrix, g: np.ndarray, h: np.ndarray,
                   config: GbdtConfig) -> tuple[LeafwiseTree, np.ndarray]:
    """Grow one tree; returns it plus its per-row training predictions."""
    n = len(g)
    tree = LeafwiseTree(columns=[-1], bins=[-1], thresholds=[0.0],
                        left=[-1], right=[-1], values=[0.0])
    all_rows = np.arange(n)
    root_g, root_h = float(g.sum()), float(h.sum())
    stats = {0: (all_rows, root_g, root_h)}
    best = {0: _best_for_node(binned, all_rows, g, h, root_g, root_h, config)}
    leaves = [0]

    while len(leaves) < config.max_leaves:
        chosen = None
        for node in leaves:
            candidate = best[node]
            if candidate is None:
                continue
            if chosen is None or candidate[0] > best[chosen][0]:
                chosen = node
        if chosen is None:
            break
        _, col, bin_threshold, threshold = best[chosen]
        rows, g_sum, h_sum = stats[chosen]
        goes_left = binned.X.column_values(col, rows) <= threshold
        left_rows, right_rows = rows[goes_left], rows[~goes_left]

        left_id, right_id = len(tree.columns), len(tree.columns) + 1
        tree.columns[chosen] = col
        tree.bins[chosen] = bin_threshold
        tree.thresholds[chosen] = threshold
        tree.left[chosen] = left_id
        tree.right[chosen] = right_id
        for child_rows in (left_rows, right_rows):
            tree.columns.append(-1)
            tree.bins.append(-1)
            tree.thresholds.append(0.0)
            tree.left.append(-1)
            tree.right.append(-1)
            tree.values.append(0.0)
            child_g = float(g[child_rows].sum())
            child_h = float(h[child_rows].sum())
            child_id = len(tree.columns) - 1
            stats[child_id] = (child_rows, child_g, child_h)
            best[child_id] = _best_for_node(binned, child_rows, g, h,
                                            child_g, child_h, config)
        leaves.remove(chosen)
        leaves.extend([left_id, right_id])
        del stats[chosen], best[chosen]

    predictions = np.empty(n)
    for node in leaves:
        rows, g_sum, h_sum = stats[node]
        value = _leaf_value(g_sum, h_sum, config)
        tree.values[node] = value
        predictions[rows] = value
    return tree, predictions


def _grow_symmetric(binned: _BinnedMatrix, g: np.ndarray, h: np.ndarray,
                    config: GbdtConfig) -> tuple[SymmetricTree, np.ndarray]:
    n = len(g)
    n_bins = binned.n_bins
    groups: list[np.ndarray] = [np.arange(n)]
    tree = SymmetricTree(columns=[], bins=[], thresholds=[], leaf_values=[])

    for _ in range(config.depth):
        total_gain = np.zeros((binned.X.n_cols, n_bins - 1))
        for rows in groups:
            if len(rows) < 2 * config.min_data_in_leaf:
                continue
            g_tot = float(g[rows].sum())
            h_tot = float(h[rows].sum())
            occupied, grad_hist, hess_hist, count_hist = binned.node_histograms(
                rows, g, h, g_tot, h_tot)
            if len(occupied) == 0:
                continue
            gains, valid = _split_gains(grad_hist, hess_hist, count_hist,
                                        config.lambda_l2, config.min_data_in_leaf,
                                        g_tot, h_tot, len(rows))
            total_gain[occupied] += np.where(valid & (gains > 0.0), gains, 0.0)

        best = int(np.argmax(total_gain.ravel()))
        if total_gain.ravel()[best] <= 0.0:
            # no level split improves: pad with a no-op routing all rows left
            tree.columns.append(0)
            tree.bins.append(n_bins - 1)
            tree.thresholds.append(None)
            padded: list[np.ndarray] = []
            for rows in groups:
                padded.extend([rows, np.empty(0, dtype=np.int64)])
            groups = padded
            continue
        col, bin_threshold = divmod(best, n_bins - 1)
        threshold = split_threshold(binned.cuts, col, bin_threshold)
        tree.columns.append(col)
        tree.bins.append(bin_threshold)
        tree.thresholds.append(threshold)
        next_groups: list[np.ndarray] = []
        for rows in groups:
            if len(rows) == 0:
                next_groups.extend([rows, rows])
                continue
            goes_left = binned.X.column_values(col, rows) <= threshold
            next_groups.extend([rows[goes_left], rows[~goes_left]])
        groups = next_groups

    predictions = np.empty(n)
    for rows in groups:
        if len(rows) == 0:
            tree.leaf_values.append(0.0)
            continue
        value = _leaf_value(float(g[rows].sum()), float(h[rows].sum()), config)
        tree.leaf_values.append(value)
        predictions[rows] = value
    return tree, predictions


def train_gbdt(X: SparseMatrix, y, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    y = check_binary_labels(y, X.n_rows)
    y_float = y.astype(np.float64)
    positive_rate = float(y_float.mean())
    base_score = math.log(positive_rate / (1.0 - positive_rate))

    binned = _BinnedMatrix(X, config.n_bins)
    grow = _grow_leafwise if config.variant == LEAF_WISE else _grow_symmetric
    scores = np.full(X.n_rows, base_score)
    trees = []
    for _ in range(config.n_trees):
        p = sigmoid(scores)
        g = p - y_float
        h = p * (1.0 - p)
        tree, predictions = grow(binned, g, h, config)
        scores += predictions
        trees.append(tree)
    return GbdtModel(base_score=base_score, config=config,
                     n_features=X.n_cols, trees=trees)
