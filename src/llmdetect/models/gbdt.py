"""Histogram-based gradient-boosted trees for binary classification.

Boosting fits each tree to the gradients/hessians of the logistic loss at
the current scores (g = p - y, h = p(1 - p)); leaves take the Newton value
-G/(H + lambda) scaled by the learning rate.  Split quality is the
second-order gain

    1/2 * [ G_L^2/(H_L+l) + G_R^2/(H_R+l) - (G_L+G_R)^2/(H_L+H_R+l) ]

searched over per-column histograms whose bin edges come from quantiles of
the nonzero training values; bin 0 is reserved for the exact zeros of
sparse columns, which requires nonnegative features (TF-IDF weights are).
The matrix is binned once, before boosting, in one sort: integer keys
order the nonzeros of every binned column by (column, value), numpy's
"linear" quantile rule then runs on all columns at once, and one
searchsorted bins every nonzero.  Cuts and bins are byte for byte those
of one np.unique, np.quantile and np.searchsorted call per column.

Two growth strategies share one split search, ``_BinnedMatrix.split_gains``,
which scores every (column, bin) split of one node: leaf_wise repeatedly
splits the leaf with the globally best gain until max_leaves; symmetric
sums each split's positive gains over the nodes of a depth level, applies
the best (column, bin) to every node of that level, and always produces a
perfect tree of the configured depth (levels with no positive-gain split
become no-op splits and missing leaves get value 0).  Ties anywhere go to
the lowest column, then the lowest bin.

A column's histogram is only as wide as its width class, the narrowest of
a few widths (``_widths``) that holds all of its bins, as LightGBM keeps
each feature's histogram at that feature's own bin count (Ke et al., 2017).
A node's histograms lie end to end in one flat array per channel, class by
class, so one bincount fills each channel, and the zero bin and prefix sums
run once per class.  The widths are those at which numpy's pairwise sum
adds a row's bins in the same order as a full-width row, so every gain is
bit for bit the full-width search's and no tree changes.

A column with fewer than min_data_in_leaf nonzeros at a node leaves fewer
rows than that on the nonzero side of every threshold, so it cannot split
the node.  Such columns are skipped twice, without changing any tree:
columns with too few nonzeros in the whole matrix are never binned, and
the split search drops the rest per node before building histograms
(TF-IDF matrices are wide and sparse, so most columns go).  The symmetric
grower sums a level's gains over only the columns its nodes keep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..errors import ModelError
from ..schema import Rule, build, check_fields, declared
from ..sparse import SparseMatrix
from .common import check_binary_labels, check_feature_count, sigmoid

LEAF_WISE = "leaf_wise"
SYMMETRIC = "symmetric"
# CatBoost's own limit; the symmetric grower keeps 2**depth row groups
MAX_DEPTH = 16
# A node's histograms take 3 * 8 bytes per bin of each occupied column's
# width class, at most 3 * occupied columns * n_bins * 8: 9.7 MB here, not
# that bound's 52 MB, for the 2,104 columns occupied at the root under CLI
# defaults on synth_corpus(800, 1, 0.0004) (4.3 MB at 255 bins).
# LightGBM's max_bin defaults to 255.
MAX_BINS = 1024
# Each tree costs the same however little it changes the model: 0.07-0.10 s
# at CLI defaults on 1,600 documents (200 trees took 19.5 s leaf-wise and
# 13.7 s symmetric), so at most about 17 minutes at this bound, 50 times
# the default.
MAX_TREES = 10_000


@dataclass(frozen=True)
class GbdtConfig:
    variant: str = declared(LEAF_WISE, Rule((LEAF_WISE, SYMMETRIC)))
    n_trees: int = declared(200, Rule(int, 0, MAX_TREES))
    learning_rate: float = declared(0.1, Rule(float, 0))
    max_leaves: int = declared(31, Rule(int, 2))   # leaf_wise only
    depth: int = declared(6, Rule(int, 1, MAX_DEPTH))  # symmetric only
    n_bins: int = declared(255, Rule(int, 2, MAX_BINS))
    min_data_in_leaf: int = declared(20, Rule(int, 1))
    # h >= 0, so every H + lambda_l2 a leaf or a gain divides by is > 0
    lambda_l2: float = declared(1.0, Rule(float, 0, low_open=True))

    def __post_init__(self):
        check_fields(self, ModelError)


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

    def check(self, n_features: int, bins: Rule, where: str) -> None:
        """Reject node arrays that predict could not walk to a leaf.  A
        leaf has column -1."""
        _check_arrays(self, where, columns=Rule(int, -1, n_features - 1),
                      bins=bins, thresholds=Rule(float), left=Rule(int),
                      right=Rule(int), values=Rule(float))
        n = len(self.columns)
        if n == 0 or any(len(a) != n for a in (self.bins, self.thresholds,
                                               self.left, self.right,
                                               self.values)):
            raise ModelError("leaf-wise tree: node arrays differ in length")
        for node, (col, left, right) in enumerate(zip(self.columns, self.left,
                                                      self.right)):
            if col != -1 and not (node < left < n and node < right < n):
                # children after their parent: every walk ends at a leaf
                child = Rule(int, node + 1, n - 1)
                child.check(f"{where}left[{node}]", left, ModelError)
                child.check(f"{where}right[{node}]", right, ModelError)

    def split_columns(self) -> list[int]:
        return [col for col in self.columns if col >= 0]

    def largest_leaf(self) -> float:
        return float(max(abs(v) for c, v in zip(self.columns, self.values)
                         if c < 0))

    def predict(self, X: SparseMatrix) -> np.ndarray:
        out = np.empty(X.n_rows)
        stack = [(0, np.arange(X.n_rows))]
        while stack:
            node, member = stack.pop()
            if len(member) == 0:
                continue
            if self.columns[node] < 0:
                out[member] = self.values[node]
                continue
            vals = X.column_values(self.columns[node], member)
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

    def check(self, n_features: int, bins: Rule, where: str) -> None:
        """Reject level arrays that predict could not apply.  A no-op level
        has threshold None and column 0."""
        _check_arrays(self, where, columns=Rule(int, 0, n_features - 1),
                      bins=bins, thresholds=Rule(float, null=True),
                      leaf_values=Rule(float))
        if len(self.bins) != self.depth or len(self.thresholds) != self.depth:
            raise ModelError("symmetric tree: level arrays differ in length")
        if len(self.leaf_values) != 2 ** self.depth:
            raise ModelError(f"symmetric tree of depth {self.depth} needs "
                             f"{2 ** self.depth} leaf values, got "
                             f"{len(self.leaf_values)}")

    def split_columns(self) -> list[int]:
        return [col for col, thr in zip(self.columns, self.thresholds)
                if thr is not None]

    def largest_leaf(self) -> float:
        return float(max(map(abs, self.leaf_values)))

    def predict(self, X: SparseMatrix) -> np.ndarray:
        rows = np.arange(X.n_rows)
        index = np.zeros(X.n_rows, dtype=np.int64)
        for col, thr in zip(self.columns, self.thresholds):
            if thr is None:
                goes_right = np.zeros(X.n_rows, dtype=bool)
            else:
                goes_right = X.column_values(col, rows) > thr
            index = index * 2 + goes_right
        return np.asarray(self.leaf_values, dtype=np.float64)[index]


@dataclass
class GbdtModel:
    KIND = "gbdt"

    base_score: float
    config: GbdtConfig
    n_features: int
    trees: list

    def decision_scores(self, X: SparseMatrix) -> np.ndarray:
        check_feature_count(self.n_features, X)
        # the trees read only their split columns: sort just those entries
        used = np.zeros(X.n_cols, dtype=bool)
        for tree in self.trees:
            used[tree.split_columns()] = True
        X = X.select_columns(used)
        # a bundle's base score and leaf values may be ints, kept as given
        scores = np.full(X.n_rows, self.base_score, dtype=np.float64)
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
        config = build(GbdtConfig, d["config"], "field parameters.config",
                       ModelError)
        Rule(float).check("base_score", d["base_score"], ModelError)
        Rule(int, 0).check("n_features", d["n_features"], ModelError)
        Rule(dict).check_each("trees", d["trees"], ModelError)
        tree_cls = SymmetricTree if config.variant == SYMMETRIC else LeafwiseTree
        trees = [build(tree_cls, entry, f"trees[{i}]", ModelError)
                 for i, entry in enumerate(d["trees"])]
        # a leaf's bin is -1, and a symmetric no-op level's n_bins - 1
        bins = Rule(int, -1, config.n_bins - 1)
        for i, tree in enumerate(trees):
            tree.check(d["n_features"], bins, f"trees[{i}].")
        # Rounding is monotone, so no partial sum of decision_scores
        # overflows while this one does not.
        bound = float(abs(d["base_score"]))
        for tree in trees:
            bound += tree.largest_leaf()
        if math.isinf(bound):
            raise ModelError("|base_score| plus each tree's largest |leaf "
                             "value| must sum to a finite number")
        return cls(base_score=d["base_score"], config=config,
                   n_features=d["n_features"], trees=trees)


def _check_arrays(tree, where: str, **rules: Rule) -> None:
    """Check that each named array of a tree is a list that its rule admits
    item by item."""
    for name, rule in rules.items():
        rule.check_each(f"{where}{name}", getattr(tree, name), ModelError)


# -- binning and split search ----------------------------------------------

def split_threshold(cuts: list[np.ndarray], col: int, bin_threshold: int) -> float:
    """Raw-value threshold equivalent to ``bin <= bin_threshold``."""
    if bin_threshold == 0:
        return 0.0
    return float(cuts[col][bin_threshold - 1])


def _widths(n_bins: int) -> list[int]:
    """Histogram widths for columns binned into n_bins: W - 1 doubles from
    16 while under L0, then L0 itself and n_bins.  numpy sums n values
    pairwise, in blocks of at most 128 split off by halving n to a
    multiple of 8, so L0, the first block of the n_bins - 1 nonzero bins,
    holds all of a narrower column's bins; where W - 1 is also a multiple
    of 8, its zero-bin sum adds them in the same order as a full-width one,
    bit for bit."""
    first = n_bins - 1
    while first > 128:
        first = first // 2 - first // 2 % 8
    widths, w = [], 16
    while w < first:
        widths.append(w + 1)
        w *= 2
    if first % 8 == 0 and first + 1 < n_bins:
        widths.append(first + 1)
    return widths + [n_bins]


class _BinnedMatrix:
    """Training matrix pre-binned for histogram work.

    Only the ``splittable`` columns, those with at least min_data_in_leaf
    nonzeros, are binned: any other column leaves fewer rows than that on
    the nonzero side of every threshold at every node, so it can split
    none.  ``X_split`` is X restricted to them (column k is
    splittable[k]), and ``bins`` a bin index per stored nonzero of
    X_split, parallel to its vals (always >= 1).  ``cuts[col]`` holds a
    column's cut values, empty if it is not splittable.  A column with at
    most n_bins - 1 distinct nonzero values gives every distinct value its
    own bin (the cuts are the values themselves), which makes histogram
    splits coincide with exhaustive value splits; a column with more is
    cut at n_bins - 1 evenly spaced quantiles of its nonzero values (at its
    maximum alone when n_bins is 2), duplicates dropped.  ``_bin_columns``
    bins all columns together, in a fixed number of array passes over
    X_split's nonzeros: one sort, no loop over columns, and memory linear
    in the nonzeros.  Splits route rows on X_split's copy of a column, so
    training sorts only the binned columns' entries into a column view,
    X_split's own, and leaves X as it was given.

    Each binned column gets the narrowest of ``_widths(n_bins)`` that holds
    its len(cuts) + 1 bins.  Slots number the binned columns by width,
    then column: ``widths[s]`` is slot s's width, ``slot_columns[s]`` its
    column of X, and ``slots`` the slot of each stored nonzero of X_split.
    ``classes`` lists each width present as (first slot, end slot, width).
    """

    def __init__(self, X: SparseMatrix, config: GbdtConfig):
        if X.nnz and X.vals.min() < 0.0:
            raise ModelError("negative feature values are unsupported: bin 0 "
                             "is reserved for zeros, which must sort lowest")
        if not np.isfinite(X.vals).all():
            raise ModelError("feature values must be finite numbers")
        self.config = config
        self.n_bins = config.n_bins
        keep = np.bincount(X.cols, minlength=X.n_cols) >= config.min_data_in_leaf
        self.splittable = np.flatnonzero(keep)
        X_split = X.select_columns(keep)
        self.X_split = replace(X_split, n_cols=len(self.splittable),
                               cols=(np.cumsum(keep) - 1)[X_split.cols])
        cuts, bounds, self.bins = _bin_columns(self.X_split, self.n_bins)
        # slots: the binned columns ordered by width class, then column
        widths = np.array(_widths(self.n_bins))
        col_widths = widths[np.searchsorted(widths, np.diff(bounds) + 1)]
        order = np.argsort(col_widths, kind="stable")
        self.widths = col_widths[order]
        self.slot_columns = self.splittable[order]
        slot_of = np.empty_like(order)
        slot_of[order] = np.arange(len(order))
        self.slots = slot_of[self.X_split.cols]
        present, lo = np.unique(self.widths, return_index=True)
        hi = np.searchsorted(self.widths, present, side="right")
        self.classes = list(zip(lo.tolist(), hi.tolist(), present.tolist()))
        self.class_last = hi - 1
        bounds = bounds.tolist()
        self.cuts: list[np.ndarray] = [np.empty(0)] * X.n_cols
        for k, col in enumerate(self.splittable.tolist()):
            self.cuts[col] = cuts[bounds[k]:bounds[k + 1]]

    def split_gains(self, node: tuple, g: np.ndarray,
                    h: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gain of every split of ``node``, a (rows, g_sum, h_sum) record.

        Returns one (occupied, gains) pair per width class with a column
        occupied at the node, in class order.  ``occupied`` lists, in
        column order, the class's columns with at least min_data_in_leaf
        nonzeros at the node; every threshold of any other column leaves
        fewer than min_data_in_leaf rows on its right side, so it cannot
        split the node and is dropped before its histograms are built.
        ``gains[k, b]`` is the gain of sending bins 0..b of column
        occupied[k] left, for b below the class width W, and -inf where a
        side would hold fewer than min_data_in_leaf rows: always at
        b = W - 1, which sends every row left.  The zero bin holds the
        node totals minus the column's nonzero sums.
        """
        rows, g_sum, h_sum = node
        n = len(rows)
        min_data, lam = self.config.min_data_in_leaf, self.config.lambda_l2
        if n < 2 * min_data:
            return []
        pos, lengths = self.X_split.gather_positions(rows)
        slots = self.slots[pos]
        keep = np.bincount(slots, minlength=len(self.widths)) >= min_data
        if not keep.any():
            return []
        kept = keep[slots]
        # each occupied column's histogram starts where the last one ends
        widths = keep * self.widths
        ends = np.cumsum(widths)
        keys = (ends - widths)[slots[kept]] + self.bins[pos[kept]]
        entry_rows = np.repeat(rows, lengths)[kept]
        size = int(ends[-1])
        grad = np.bincount(keys, weights=g[entry_rows], minlength=size)
        hess = np.bincount(keys, weights=h[entry_rows], minlength=size)
        count = np.bincount(keys, minlength=size)
        blocks, start = [], 0
        for (lo, hi, width), end in zip(self.classes,
                                        ends[self.class_last].tolist()):
            if end == start:
                continue
            shape = ((end - start) // width, width)
            for hist, total in ((grad, g_sum), (hess, h_sum), (count, n)):
                block = hist[start:end].reshape(shape)
                block[:, 0] = total - block[:, 1:].sum(axis=1)
                # in place: the left-side sums of bins 0..b, every b
                np.cumsum(block, axis=1, out=block)
            blocks.append((self.slot_columns[lo:hi][keep[lo:hi]], start, end,
                           shape))
            start = end
        # scored only where both sides hold min_data_in_leaf rows
        valid = (count >= min_data) & (count <= n - min_data)
        g_left, h_left = grad[valid], hess[valid]
        g_right = g_sum - g_left
        with np.errstate(divide="ignore", invalid="ignore"):
            scored = g_left * g_left / (h_left + lam)
            scored += g_right * g_right / (h_sum - h_left + lam)
            scored -= g_sum * g_sum / (h_sum + lam)
            scored *= 0.5
        gains = np.full(size, -np.inf)
        gains[valid] = scored
        return [(occupied, gains[start:end].reshape(shape))
                for occupied, start, end, shape in blocks]

    def split_node(self, node: tuple, col: int, threshold: float,
                   g: np.ndarray, h: np.ndarray) -> tuple[tuple, tuple]:
        """Child records of ``node``; rows go left iff value <= threshold,
        the routing ``predict`` applies."""
        rows = node[0]
        k = int(np.searchsorted(self.splittable, col))
        goes_left = self.X_split.column_values(k, rows) <= threshold
        return _node(rows[goes_left], g, h), _node(rows[~goes_left], g, h)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a sorted array (each row of it, if 2-d) starts a run of
    equal values."""
    starts = np.empty(a.shape, dtype=bool)
    starts[..., :1] = True
    np.not_equal(a[..., 1:], a[..., :-1], out=starts[..., 1:])
    return starts


def _value_ranks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, sorted, and each value's index among them."""
    by_value = np.argsort(vals)
    sorted_vals = vals[by_value]
    new_value = _run_starts(sorted_vals)
    rank = np.empty(len(vals), dtype=np.int64)
    rank[by_value] = np.cumsum(new_value) - 1
    return sorted_vals[new_value], rank


def _linear_quantiles(values: np.ndarray, starts: np.ndarray,
                      sizes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values[s:s + m], q)`` of every sorted run (s, m) at
    once, one row per run, in numpy's own float operations for its
    "linear" method: the virtual index (m - 1) * q, its floor and the next
    index (the run's last, at q = 1), and the two-sided lerp a + (b - a) * t,
    or b - (b - a) * (1 - t) where t >= 0.5.  At q = 1 numpy takes the
    fraction t from a floor of -1, but both ends are the maximum there, so
    its value is the maximum either way."""
    top = (sizes - 1)[:, None]
    virtual = top * q
    below = np.floor(virtual)
    t = virtual - below
    first = starts[:, None]
    a = values[first + below.astype(np.int64)]
    b = values[first + np.minimum(below + 1.0, top).astype(np.int64)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _bin_columns(X: SparseMatrix, n_bins: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cuts and bins of every column of X, byte for byte those of a loop of
    ``np.unique``, ``np.quantile`` and ``np.searchsorted`` calls, one
    column at a time (the cut rule is ``_BinnedMatrix``'s).

    Returns (cuts, bounds, bins): column k's cuts are
    cuts[bounds[k]:bounds[k + 1]], and bins[i] = 1 + searchsorted(column
    cuts, X.vals[i], "left").  Every value gets its rank among the
    distinct values of X, so one integer key, column * stride + rank,
    orders (column, value) pairs, and one sort of the keys sorts every
    column's values.  A cut c of a column gets the key column * stride +
    (number of distinct values <= c), and c < v exactly when that key is
    at most v's, so one searchsorted of the sorted value keys among the
    cut keys counts each value's cuts below it.  Memory stays O(nnz).
    """
    cols, vals = X.cols, X.vals
    sizes = np.bincount(cols, minlength=X.n_cols)
    starts = np.zeros(X.n_cols + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    distinct, keys = _value_ranks(vals)
    stride = len(distinct) + 1
    keys += cols * stride
    order = np.argsort(keys)
    keys, sorted_vals, sorted_cols = keys[order], vals[order], cols[order]

    # first entry of each distinct (column, value) pair
    firsts = _run_starts(keys)
    n_distinct = np.bincount(sorted_cols[firsts], minlength=X.n_cols)
    few = n_distinct <= n_bins - 1
    own_cut = firsts & few[sorted_cols]
    # other columns: n_bins - 1 evenly spaced quantiles, whose top one is
    # the maximum, so every value lands in one of the n_bins - 1 nonzero
    # bins; sorted, duplicates dropped, as np.unique leaves them
    many = np.flatnonzero(~few)
    q = np.linspace(0.0, 1.0, n_bins - 1) if n_bins > 2 else np.ones(1)
    quantiles = np.sort(_linear_quantiles(sorted_vals, starts[many],
                                          sizes[many], q), axis=1)
    kept = _run_starts(quantiles)

    n_cuts = np.where(few, n_distinct, 0)
    n_cuts[many] = kept.sum(axis=1)
    bounds = np.zeros(X.n_cols + 1, dtype=np.int64)
    np.cumsum(n_cuts, out=bounds[1:])
    cut_cols = np.repeat(np.arange(X.n_cols), n_cuts)
    own = few[cut_cols]
    cuts = np.empty(len(cut_cols))
    cut_keys = np.empty(len(cut_cols), dtype=np.int64)
    cuts[own] = sorted_vals[own_cut]
    cut_keys[own] = keys[own_cut] + 1
    cuts[~own] = quantiles[kept]
    cut_keys[~own] = (cut_cols[~own] * stride
                      + np.searchsorted(distinct, cuts[~own], side="right"))
    sorted_bins = np.searchsorted(cut_keys, keys, side="right")
    sorted_bins -= bounds[sorted_cols]
    sorted_bins += 1
    bins = np.empty_like(sorted_bins)
    bins[order] = sorted_bins
    return cuts, bounds, bins


def _node(rows: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple:
    """A node record: its rows and their gradient and hessian sums."""
    return rows, float(g[rows].sum()), float(h[rows].sum())


def _leaf_value(node: tuple, config: GbdtConfig) -> float:
    rows, g_sum, h_sum = node
    if len(rows) == 0:
        return 0.0  # a symmetric leaf no training row reaches
    return -g_sum / (h_sum + config.lambda_l2) * config.learning_rate


def _leaf_values(leaves: list[tuple], config: GbdtConfig,
                 n: int) -> tuple[list[float], np.ndarray]:
    """Each leaf's value, and the per-row training predictions they give."""
    values = [_leaf_value(leaf, config) for leaf in leaves]
    predictions = np.empty(n)
    for (rows, _, _), value in zip(leaves, values):
        predictions[rows] = value
    return values, predictions


def _best_split(per_class) -> tuple | None:
    """The (column, bin, gain) np.argmax would pick from the (columns,
    gains) pairs of the width classes laid out in column order: the
    highest gain (a NaN above all), ties to the lowest column, then the
    lowest bin.  None when there are no pairs."""
    winners = []
    for columns, gains in per_class:
        best = int(np.argmax(gains))
        k, bin_threshold = divmod(best, gains.shape[1])
        winners.append((int(columns[k]), bin_threshold, gains.flat[best]))
    if len(winners) <= 1:
        return winners[0] if winners else None
    winners.sort()  # by column: no two classes share one
    return winners[int(np.argmax([gain for _, _, gain in winners]))]


def _grow_leafwise(binned: _BinnedMatrix, g: np.ndarray, h: np.ndarray,
                   config: GbdtConfig) -> tuple[LeafwiseTree, np.ndarray]:
    """Grow one tree; returns it plus its per-row training predictions."""
    def best_split(node):
        """(gain, column, bin) of the node's best split, or None."""
        best = _best_split(binned.split_gains(node, g, h))
        if best is None or best[2] <= 0.0:
            return None
        col, bin_threshold, gain = best
        return float(gain), col, bin_threshold

    tree = LeafwiseTree(columns=[-1], bins=[-1], thresholds=[0.0],
                        left=[-1], right=[-1], values=[0.0])
    nodes = {0: _node(np.arange(len(g)), g, h)}
    best = {0: best_split(nodes[0])}
    leaves = [0]
    while len(leaves) < config.max_leaves:
        splittable = [leaf for leaf in leaves if best[leaf] is not None]
        if not splittable:
            break
        # the first leaf of highest gain
        chosen = max(splittable, key=lambda leaf: best[leaf][0])
        _, col, bin_threshold = best.pop(chosen)
        threshold = split_threshold(binned.cuts, col, bin_threshold)
        left_id = len(tree.columns)
        tree.columns[chosen] = col
        tree.bins[chosen] = bin_threshold
        tree.thresholds[chosen] = threshold
        tree.left[chosen] = left_id
        tree.right[chosen] = left_id + 1
        # the split that makes the last leaf leaves no leaf to split
        search = len(leaves) + 1 < config.max_leaves
        for child in binned.split_node(nodes.pop(chosen), col, threshold, g, h):
            child_id = len(tree.columns)
            for array, blank in ((tree.columns, -1), (tree.bins, -1),
                                 (tree.thresholds, 0.0), (tree.left, -1),
                                 (tree.right, -1), (tree.values, 0.0)):
                array.append(blank)
            nodes[child_id] = child
            best[child_id] = best_split(child) if search else None
        leaves.remove(chosen)
        leaves.extend([left_id, left_id + 1])

    values, predictions = _leaf_values([nodes[leaf] for leaf in leaves],
                                       config, len(g))
    for leaf, value in zip(leaves, values):
        tree.values[leaf] = value
    return tree, predictions


def _grow_symmetric(binned: _BinnedMatrix, g: np.ndarray, h: np.ndarray,
                    config: GbdtConfig) -> tuple[SymmetricTree, np.ndarray]:
    n_bins = binned.n_bins
    nodes = [_node(np.arange(len(g)), g, h)]
    tree = SymmetricTree(columns=[], bins=[], thresholds=[], leaf_values=[])

    for _ in range(config.depth):
        by_width: dict[int, list] = {}
        for node in nodes:
            for occupied, gains in binned.split_gains(node, g, h):
                by_width.setdefault(gains.shape[1], []).append(
                    (occupied, gains))
        # per width class, positive gains summed node by node over the
        # columns any node keeps
        totals = []
        for splits in by_width.values():
            columns = np.unique(np.concatenate(
                [occupied for occupied, _ in splits]))
            total_gain = np.zeros((len(columns), splits[0][1].shape[1]))
            for occupied, gains in splits:
                total_gain[np.searchsorted(columns, occupied)] += np.where(
                    gains > 0.0, gains, 0.0)
            totals.append((columns, total_gain))

        best = _best_split(totals)
        if best is None or best[2] <= 0.0:
            # no level split improves: pad with a no-op routing all rows left
            tree.columns.append(0)
            tree.bins.append(n_bins - 1)
            tree.thresholds.append(None)
            empty = _node(np.empty(0, dtype=np.int64), g, h)
            nodes = [child for node in nodes for child in (node, empty)]
            continue
        col, bin_threshold, _ = best
        threshold = split_threshold(binned.cuts, col, bin_threshold)
        tree.columns.append(col)
        tree.bins.append(bin_threshold)
        tree.thresholds.append(threshold)
        nodes = [child for node in nodes
                 for child in binned.split_node(node, col, threshold, g, h)]

    tree.leaf_values, predictions = _leaf_values(nodes, config, len(g))
    return tree, predictions


def train_gbdt(X: SparseMatrix, y, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    y = check_binary_labels(y, X.n_rows)
    y_float = y.astype(np.float64)
    positive_rate = float(y_float.mean())
    base_score = math.log(positive_rate / (1.0 - positive_rate))

    binned = _BinnedMatrix(X, config)
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
