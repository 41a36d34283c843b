import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmdetect.errors import MetricsError
from llmdetect.metrics import (confusion_at, evaluation_report, roc_auc,
                               roc_auc_exact, roc_curve, trapezoid_auc_exact)
from oracles import group_auc_oracle, pairwise_auc_oracle


def random_instance(rng, n_max=200):
    n = rng.randint(2, n_max)
    labels = [rng.randint(0, 1) for _ in range(n)]
    if sum(labels) == 0:
        labels[0] = 1
    if sum(labels) == n:
        labels[0] = 0
    # draw from a coarse grid so ties are frequent
    grid = [i / 7 for i in range(8)]
    scores = [rng.choice(grid) if rng.random() < 0.6 else rng.random()
              for _ in range(n)]
    return scores, labels


class TestConfusion:
    def test_threshold_below_min_predicts_all_positive(self):
        c = confusion_at([0.2, 0.7, 0.9], [1, 0, 1], threshold=0.1)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 0, 0)

    def test_threshold_above_max_predicts_all_negative(self):
        c = confusion_at([0.2, 0.7, 0.9], [1, 0, 1], threshold=0.95)
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 1, 2)

    def test_separable_pair(self):
        c = confusion_at([0.9, 0.1], [1, 0], threshold=0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)

    def test_rule_is_inclusive(self):
        c = confusion_at([0.5], [1], threshold=0.5)
        assert c.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            confusion_at([0.5], [1, 0], 0.5)


class TestCurve:
    def test_endpoints(self):
        curve = roc_curve([0.3, 0.9, 0.5], [0, 1, 1])
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_perfect_separation_passes_through_corner(self):
        curve = roc_curve([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert (0.0, 1.0) in curve.points

    def test_constant_scores_two_point_diagonal(self):
        curve = roc_curve([0.5, 0.5, 0.5], [1, 0, 1])
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_tie_segment_example(self):
        curve = roc_curve([0.8, 0.8, 0.3], [1, 0, 0])
        assert curve.points == ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))
        assert roc_auc([0.8, 0.8, 0.3], [1, 0, 0]) == 0.75

    def test_monotone_nondecreasing(self):
        rng = random.Random(5)
        for _ in range(50):
            scores, labels = random_instance(rng, n_max=60)
            curve = roc_curve(scores, labels)
            fprs = [p[0] for p in curve.points]
            tprs = [p[1] for p in curve.points]
            assert fprs == sorted(fprs) and tprs == sorted(tprs)

    def test_single_class_rejected(self):
        with pytest.raises(MetricsError):
            roc_curve([0.1, 0.9], [1, 1])


class TestAuc:
    def test_extremes(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_equal_is_half(self):
        assert roc_auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = random.Random(99)
        for _ in range(300):
            scores, labels = random_instance(rng)
            exact = roc_auc_exact(scores, labels)
            oracle = pairwise_auc_oracle(scores, labels)
            assert exact == oracle
            assert roc_auc(scores, labels) == float(oracle)

    def test_trapezoid_equals_pairwise_exactly(self):
        rng = random.Random(7)
        for _ in range(200):
            scores, labels = random_instance(rng)
            curve = roc_curve(scores, labels)
            assert trapezoid_auc_exact(curve) == pairwise_auc_oracle(
                scores, labels)

    def test_monotone_invariance_exact(self):
        rng = random.Random(21)
        for _ in range(100):
            scores, labels = random_instance(rng, n_max=80)
            transformed = [math.exp(3.0 * s) - 0.5 for s in scores]
            assert roc_auc(transformed, labels) == roc_auc(scores, labels)

    def test_label_complement_exact(self):
        rng = random.Random(13)
        for _ in range(100):
            scores, labels = random_instance(rng, n_max=80)
            flipped = [1 - y for y in labels]
            assert roc_auc_exact(scores, flipped) == 1 - roc_auc_exact(
                scores, labels)

    def test_score_negation_exact(self):
        rng = random.Random(17)
        for _ in range(100):
            scores, labels = random_instance(rng, n_max=80)
            negated = [-s for s in scores]
            assert roc_auc_exact(negated, labels) == 1 - roc_auc_exact(
                scores, labels)

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                              st.integers(0, 1)), min_size=4, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        value = roc_auc(scores, labels)
        assert 0.0 <= value <= 1.0


# rows of scores drawn from a few values, so most rows hold ties; -0.0
# beside 0.0, +-inf, and rows where every score is equal
_FEW_VALUES = [-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf]


@st.composite
def _score_rows(draw):
    n_docs = draw(st.integers(2, 30))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_docs,
                           max_size=n_docs))
    labels[:2] = [0, 1]
    value = st.one_of(st.sampled_from(_FEW_VALUES),
                      st.floats(allow_nan=False))
    row = st.one_of(
        st.lists(value, min_size=n_docs, max_size=n_docs),
        value.map(lambda v: [v] * n_docs))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return rows, labels


class TestAucRows:
    @given(_score_rows())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_oracles_bit_for_bit(self, inputs):
        rows, labels = inputs
        aucs = roc_auc(np.array(rows), labels)
        assert aucs.shape == (len(rows),) and aucs.dtype == np.float64
        for row, auc in zip(rows, aucs):
            exact = group_auc_oracle(row, labels)
            assert exact == pairwise_auc_oracle(row, labels)
            assert roc_auc_exact(row, labels) == exact
            assert auc.tobytes() == np.float64(float(exact)).tobytes()
            assert roc_auc(row, labels) == float(exact)

    @pytest.mark.parametrize("row, doc", [(0, 0), (1, 3), (2, 1)])
    def test_nan_anywhere_rejected(self, row, doc):
        scores = np.full((3, 4), 0.5)
        scores[row, doc] = math.nan
        with pytest.raises(MetricsError,
                           match=f"row {row} score {doc} is NaN"):
            roc_auc(scores, [0, 1, 0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError, match="3 scores but 4 labels"):
            roc_auc(np.zeros((2, 3)), [0, 1, 0, 1])

    @pytest.mark.parametrize("entry, scores", [
        (roc_auc, np.zeros((2, 2, 2))), (roc_auc, 0.5),
        (roc_auc_exact, np.zeros((2, 2))), (roc_curve, np.zeros((2, 2))),
        (evaluation_report, np.zeros((2, 2)))],
        ids=["roc_auc-3d", "roc_auc-scalar", "roc_auc_exact-2d",
             "roc_curve-2d", "evaluation_report-2d"])
    def test_other_shapes_rejected(self, entry, scores):
        with pytest.raises(MetricsError, match="dimensions"):
            entry(scores, [0, 1])


class TestLabels:
    def test_fractional_label_rejected_not_truncated(self):
        # int() used to turn 0.7 into 0, which made this AUC 1.0
        with pytest.raises(MetricsError, match="label 0.7 is not 0 or 1"):
            roc_auc([0.1, 0.9, 0.5], [0.7, 1, 0])

    @pytest.mark.parametrize("label", [2, -1, 1.5, math.nan, "1", None])
    def test_other_labels_rejected(self, label):
        with pytest.raises(MetricsError, match="is not 0 or 1"):
            confusion_at([0.2, 0.4, 0.6], [label, 1, 0], 0.5)

    def test_exact_zero_one_of_any_numeric_type_accepted(self):
        assert roc_auc([0.2, 0.8, 0.4], [0.0, True, np.int64(0)]) == 1.0


class TestNanScores:
    # a NaN score once made every entry point but confusion_at loop forever
    @pytest.mark.parametrize("entry", [
        roc_auc, roc_auc_exact, roc_curve, evaluation_report,
        lambda scores, labels: confusion_at(scores, labels, 0.5)],
        ids=["roc_auc", "roc_auc_exact", "roc_curve", "evaluation_report",
             "confusion_at"])
    def test_nan_rejected(self, time_bound, entry):
        with time_bound(10), pytest.raises(MetricsError, match="score 1 is NaN"):
            entry([0.2, math.nan, 0.7, 0.4], [1, 0, 1, 0])

    def test_infinities_are_ordered_scores(self):
        scores = [math.inf, 0.9, -math.inf, 0.1]
        assert roc_auc(scores, [1, 1, 0, 0]) == 1.0
        assert roc_curve(scores, [1, 1, 0, 0]).thresholds[1] == math.inf
        c = confusion_at(scores, [1, 0, 0, 1], math.inf)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 2, 1)


class TestReport:
    def test_schema(self):
        report = evaluation_report([0.9, 0.2, 0.6, 0.4], [1, 0, 1, 0])
        assert set(report) == {"auc", "n_documents", "n_positive",
                               "n_negative", "curve", "confusion"}
        assert len(report["confusion"]) == 9
        assert report["confusion"][0]["threshold"] == 0.1
        assert report["curve"][0] == {"threshold": None, "fpr": 0.0, "tpr": 0.0}

    def test_constant_scores_report_half(self):
        report = evaluation_report([0.5, 0.5], [1, 0])
        assert report["auc"] == 0.5
