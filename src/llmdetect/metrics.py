"""Exact, tie-aware ROC analysis.

ROC-AUC is computed from integer win/tie pair counts (positives ranked
above negatives score 1, exact score ties score 1/2), so the float result
is the correctly rounded value of an exact rational.  ``roc_auc_exact``
exposes that rational directly; rank-based identities that cannot survive
two independent float roundings hold exactly on it.  The curve places one
point per distinct score threshold (descending), so tied scores enter as a
single diagonal segment.

Decision rule everywhere: predicted positive iff score >= threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MetricsError
from .schema import binary_labels

REPORT_THRESHOLDS = [x / 10.0 for x in range(1, 10)]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        if self.tp + self.fn == 0:
            raise MetricsError("TPR undefined: no positive labels")
        return self.tp / (self.tp + self.fn)

    @property
    def fpr(self) -> float:
        if self.fp + self.tn == 0:
            raise MetricsError("FPR undefined: no negative labels")
        return self.fp / (self.fp + self.tn)


@dataclass(frozen=True)
class RocCurve:
    """(FPR, TPR) points from (0,0) to (1,1), one per distinct threshold.

    Integer cumulative counts are kept alongside the float coordinates so
    exact-rational area computation stays possible.
    """

    points: tuple[tuple[float, float], ...]
    thresholds: tuple[float, ...]
    tp_counts: tuple[int, ...]
    fp_counts: tuple[int, ...]
    n_pos: int
    n_neg: int


def _check_inputs(scores, labels, rows: bool = False
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Scores as a float array, one score per label (or, with ``rows``, a
    (rows, documents) array of them), and labels as an int64 array, both
    checked."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in ((1, 2) if rows else (1,)):
        raise MetricsError(f"scores must be {'1-D or 2-D' if rows else '1-D'}"
                           f", got {scores.ndim} dimensions")
    labels = binary_labels(labels, MetricsError)
    if scores.shape[-1] != len(labels):
        raise MetricsError(f"{scores.shape[-1]} scores but {len(labels)} labels")
    nan = np.argwhere(np.isnan(scores))
    if len(nan):
        where = f"row {nan[0][0]} " if scores.ndim == 2 else ""
        raise MetricsError(f"{where}score {nan[0][-1]} is NaN; scores must "
                           f"be ordered")
    return scores, labels


def tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal scores grouped in ascending order: each group's first position,
    each score's group number and each group's size.  Reject NaN first, as
    ``np.unique`` puts every NaN in one group."""
    _, first, group, sizes = np.unique(scores, return_index=True,
                                       return_inverse=True, return_counts=True)
    return first, group, sizes


def _class_groups(scores, labels):
    """Checked inputs as (distinct scores ascending, positives, negatives)."""
    first, group, sizes = tie_groups(scores)
    pos = np.bincount(group[labels == 1], minlength=len(sizes))
    return scores[first], pos, sizes - pos


def _check_both_classes(pos, neg) -> tuple[int, int]:
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("both classes must be present")
    return n_pos, n_neg


def _pair_counts(scores, labels) -> tuple[list[int], int]:
    """Per row of checked scores, 2 * wins + ties over all positive-negative
    pairs, and the common denominator 2 * P * N.

    Each row is sorted once.  Tie groups split where neighbouring sorted
    scores differ, so -0.0 ties with 0.0 and +-inf are ordered scores.
    A cumulative sum along each sorted row counts the negatives, and each
    positive adds those below its tie group (its wins) to those through
    the end of its group (its wins and ties).  Counts are at most 2 * N,
    so int32 holds them for any set of fewer than 2**30 documents.
    """
    n_pos, n_neg = _check_both_classes(labels, 1 - labels)
    scores = scores.reshape(-1, len(labels))
    negative = (labels == 0)[np.argsort(scores, axis=1)]
    ranked = np.sort(scores, axis=1)  # the same values; frees the order
    tied = ranked[:, 1:] == ranked[:, :-1]  # position i + 1 ties with i
    del ranked
    count = np.int32 if len(labels) < 2**30 else np.int64
    through = np.cumsum(negative, axis=1, dtype=count)
    below = through - negative
    # counts never fall along a row, so a running max carries the count
    # below each group's first position forward, and a running min from
    # the right carries the count through each group's last one back
    np.copyto(below[:, 1:], 0, where=tied)
    np.maximum.accumulate(below, axis=1, out=below)
    np.copyto(through[:, :-1], n_neg, where=tied)
    np.minimum.accumulate(through[:, ::-1], axis=1, out=through[:, ::-1])
    below += through
    np.copyto(below, 0, where=negative)
    return below.sum(axis=1, dtype=np.int64).tolist(), 2 * n_pos * n_neg


def _confusion(groups, threshold: float) -> ConfusionCounts:
    values, pos, neg = groups
    k = int(np.searchsorted(values, threshold))  # groups k.. score >= threshold
    tp, fp = int(pos[k:].sum()), int(neg[k:].sum())
    return ConfusionCounts(tp=tp, fp=fp, tn=int(neg.sum()) - fp,
                           fn=int(pos.sum()) - tp)


def confusion_at(scores, labels, threshold: float) -> ConfusionCounts:
    """Confusion counts with the inclusive >= decision rule."""
    return _confusion(_class_groups(*_check_inputs(scores, labels)), threshold)


def _curve(groups) -> RocCurve:
    values, pos, neg = groups
    n_pos, n_neg = _check_both_classes(pos, neg)
    tp_counts = [0] + np.cumsum(pos[::-1]).tolist()
    fp_counts = [0] + np.cumsum(neg[::-1]).tolist()
    return RocCurve(
        points=tuple((fp / n_neg, tp / n_pos)
                     for tp, fp in zip(tp_counts, fp_counts)),
        thresholds=(math.inf, *values[::-1].tolist()),
        tp_counts=tuple(tp_counts), fp_counts=tuple(fp_counts),
        n_pos=n_pos, n_neg=n_neg)


def roc_curve(scores, labels) -> RocCurve:
    """One point per distinct score threshold, descending, from (0,0)."""
    return _curve(_class_groups(*_check_inputs(scores, labels)))


def roc_auc_exact(scores, labels) -> Fraction:
    """AUC as an exact rational: (wins + ties/2) / (P*N)."""
    (count,), denominator = _pair_counts(*_check_inputs(scores, labels))
    return Fraction(count, denominator)


def roc_auc(scores, labels):
    """Area under the ROC curve, the correctly rounded exact rational.

    ``scores`` holds one score per label, giving a float, or is a (rows,
    documents) array, giving one AUC per row as a float array.  Each AUC
    is one int / int division, so it is ``float(roc_auc_exact(row))``.
    """
    scores, labels = _check_inputs(scores, labels, rows=True)
    counts, denominator = _pair_counts(scores, labels)
    aucs = [count / denominator for count in counts]
    return aucs[0] if scores.ndim == 1 else np.array(aucs)


def trapezoid_auc_exact(curve: RocCurve) -> Fraction:
    """Exact trapezoidal area under the curve, from its integer counts."""
    area = Fraction(0)
    for i in range(len(curve.points) - 1):
        d_fp = curve.fp_counts[i + 1] - curve.fp_counts[i]
        sum_tp = curve.tp_counts[i] + curve.tp_counts[i + 1]
        area += Fraction(d_fp * sum_tp, 2 * curve.n_pos * curve.n_neg)
    return area


def evaluation_report(scores, labels) -> dict:
    """AUC, curve points, and confusion tables at thresholds 0.1 .. 0.9."""
    scores, labels = _check_inputs(scores, labels)
    groups = _class_groups(scores, labels)
    curve = _curve(groups)
    confusion = []
    for threshold in REPORT_THRESHOLDS:
        c = _confusion(groups, threshold)
        confusion.append({"threshold": threshold, "tp": c.tp, "fp": c.fp,
                          "tn": c.tn, "fn": c.fn})
    curve_points = [
        {"threshold": thr if math.isfinite(thr) else None, "fpr": fpr, "tpr": tpr}
        for (fpr, tpr), thr in zip(curve.points, curve.thresholds)]
    (count,), denominator = _pair_counts(scores, labels)
    return {
        "auc": count / denominator,
        "n_documents": curve.n_pos + curve.n_neg,
        "n_positive": curve.n_pos,
        "n_negative": curve.n_neg,
        "curve": curve_points,
        "confusion": confusion,
    }
