import copy
import csv
import io
import math
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmdetect import cli, ensemble, pipeline
from llmdetect.corpus import DUMP_BLOCK_DOCS, synth_corpus
from llmdetect.ensemble import (COMBINERS, MAX_GRID_POINTS, EnsembleSpec,
                                ExternalScores, Voter, combiner,
                                collect_voter_scores, dump_scores,
                                parse_external_scores, rank_average,
                                run_ensemble, soft_vote, tune_weights,
                                weight_grid)
from llmdetect.errors import EnsembleError, ModelError
from llmdetect.features import TfidfConfig, same_transform
from llmdetect.models import GbdtConfig, SgdConfig, load_model
from llmdetect.pipeline import (TOKEN_SOURCE_WHITESPACE, score_texts,
                                train_bundle)
from llmdetect.tokenizer import save_vocab, train_bpe
from conftest import traced_peak
from oracles import (collect_voter_scores_oracle, grid_vote_oracle,
                     rank_average_oracle, soft_vote_oracle, tune_weights_oracle,
                     weight_grid_oracle)


class TestSoftVote:
    def test_single_voter_identity(self):
        scores = [0.1, 0.9, 0.4]
        out = soft_vote([scores], [2.5])
        np.testing.assert_array_equal(out, scores)

    def test_equal_weights_mean(self):
        out = soft_vote([[0.2], [0.8]], [1.0, 1.0])
        assert out[0] == 0.5

    def test_weighted_mean_hand_computed(self):
        out = soft_vote([[0.0], [1.0]], [1.0, 3.0])
        assert out[0] == 0.75

    def test_scale_invariance_is_bit_exact(self):
        # weights are chosen so that c * w is itself exact in binary
        # floating point; combination happens in exact rationals, so only
        # the (projective) weight vector matters
        rng = np.random.default_rng(3)
        scores = [rng.random(50).tolist() for _ in range(3)]
        weights = [1.0, 2.5, 0.25]
        base = soft_vote(scores, weights)
        for c in (0.5, 3.0, 100.0):
            scaled = soft_vote(scores, [c * w for w in weights])
            np.testing.assert_array_equal(scaled, base)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        scores = [rng.random(20).tolist() for _ in range(3)]
        weights = [1.0, 2.0, 3.0]
        base = soft_vote(scores, weights)
        permuted = soft_vote([scores[2], scores[0], scores[1]],
                             [weights[2], weights[0], weights[1]])
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    @given(st.lists(st.lists(st.floats(0, 1, allow_nan=False), min_size=4,
                             max_size=4), min_size=1, max_size=4),
           st.lists(st.floats(0.01, 10, allow_nan=False), min_size=4,
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_convexity_property(self, score_lists, raw_weights):
        weights = raw_weights[:len(score_lists)]
        out = soft_vote(score_lists, weights)
        per_doc = np.array(score_lists)
        assert np.all(out >= per_doc.min(axis=0))
        assert np.all(out <= per_doc.max(axis=0))

    def test_four_voters_hand_computed_on_five_documents(self):
        # three "internal" probability lists and one "external" list,
        # weights (1,1,1,3); expectations computed by scalar arithmetic
        voters = [[0.1, 0.5, 0.9, 0.3, 0.7],
                  [0.2, 0.4, 0.8, 0.2, 0.6],
                  [0.0, 0.5, 1.0, 0.5, 0.5],
                  [1.0, 0.0, 1.0, 0.0, 1.0]]
        weights = [1.0, 1.0, 1.0, 3.0]
        out = soft_vote(voters, weights)
        for d in range(5):
            expected = sum(Fraction(w) * Fraction(voters[v][d])
                           for v, w in enumerate(weights)) / Fraction(6)
            assert out[d] == float(expected)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(EnsembleError):
            soft_vote([[0.5]], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(EnsembleError):
            soft_vote([[0.5], [0.1, 0.2]], [1.0, 1.0])


class TestRankAverage:
    def test_single_voter_preserves_order(self):
        scores = [0.3, 0.1, 0.9, 0.5]
        out = rank_average([scores], [1.0])
        assert list(np.argsort(out)) == list(np.argsort(scores))

    def test_opposite_rankings_tie_at_half(self):
        out = rank_average([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]], [1.0, 1.0])
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5])

    def test_identical_voters_reproduce_ranking(self):
        scores = [0.4, 0.8, 0.1]
        out = rank_average([scores, scores], [1.0, 2.0])
        np.testing.assert_array_equal(out, [0.5, 1.0, 0.0])

    def test_ties_get_mid_rank(self):
        out = rank_average([[0.5, 0.5, 0.1]], [1.0])
        np.testing.assert_array_equal(out, [0.75, 0.75, 0.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.random(15).tolist()
        b = rng.random(15).tolist()
        base = rank_average([a, b], [1.0, 2.0])
        squashed = rank_average([list(np.tanh(np.array(a) * 4)), b], [1.0, 2.0])
        np.testing.assert_array_equal(squashed, base)

    def test_needs_two_documents(self):
        with pytest.raises(EnsembleError):
            rank_average([[0.5]], [1.0])


# scores drawn often from a small pool, so ties are frequent; the pool holds
# signed zeros and subnormals, the general draw covers every finite float
_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.1, 1 / 3, 5e-324, 1e-310,
                     2.2250738585072014e-308, 1e-300]),
    st.floats(0, 1),
    st.floats(allow_nan=False, allow_infinity=False))
_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([1.0, 0.1, 0.3, 2.5]),
                     st.floats(1e-300, 1e200))


@st.composite
def _vote_inputs(draw):
    n_voters = draw(st.integers(1, 4))
    n_docs = draw(st.integers(2, 12))
    scores = [draw(st.lists(_SCORES, min_size=n_docs, max_size=n_docs))
              for _ in range(n_voters)]
    weights = draw(st.lists(_WEIGHTS, min_size=n_voters, max_size=n_voters))
    if not any(weights):
        weights[0] = draw(st.floats(1e-300, 1e200))
    return scores, weights


def _bit_identical(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestFractionOracles:
    @given(_vote_inputs())
    @settings(max_examples=300, deadline=None)
    def test_soft_vote_matches_oracle_bit_for_bit(self, inputs):
        scores, weights = inputs
        assert _bit_identical(soft_vote(scores, weights),
                              soft_vote_oracle(scores, weights))

    @given(_vote_inputs())
    @settings(max_examples=300, deadline=None)
    def test_rank_average_matches_oracle_bit_for_bit(self, inputs):
        scores, weights = inputs
        assert _bit_identical(rank_average(scores, weights),
                              rank_average_oracle(scores, weights))


@st.composite
def _grid_inputs(draw):
    scores, weights = draw(_vote_inputs())
    grid = [weights]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(_WEIGHTS, min_size=len(weights),
                            max_size=len(weights)))
        if not any(row):
            row[-1] = draw(st.floats(1e-300, 1e200))
        grid.append(row)
    return scores, grid


_BELOW_HALF = math.nextafter(0.5, 0.0)
# in-window scores and weights for the kernel, drawn often from pools that
# make ties, values just below powers of two, signed zeros and cancellation
_KERNEL_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, _BELOW_HALF, 0.25, 1.0, 0.1, 1 / 3,
                     math.nextafter(0.1, 1.0), -0.5, 2.0 ** -80, 2.0 ** 60]),
    st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) > 1e-70),
    st.floats(1e-70, 1e70))
_KERNEL_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 0.5, 1.0, 3.0,
                     2.0 ** -110]),
    st.floats(1e-70, 1e70))


@st.composite
def _kernel_grid_inputs(draw):
    n_voters = draw(st.integers(1, 5))
    n_docs = draw(st.integers(2, 12))
    scores = [draw(st.lists(_KERNEL_SCORES, min_size=n_docs,
                            max_size=n_docs)) for _ in range(n_voters)]
    grid = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.lists(_KERNEL_WEIGHTS, min_size=n_voters,
                            max_size=n_voters))
        if not any(row):
            row[-1] = 1.0
        grid.append(row)
    return scores, grid


class TestWeightGrids:
    @pytest.mark.parametrize("combine", COMBINERS)
    @given(inputs=_grid_inputs())
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_the_one_vector_call(self, combine, inputs):
        scores, grid = inputs
        rows = combiner(combine)(scores, grid)
        assert rows.shape == (len(grid), len(scores[0]))
        for row, weights in zip(rows, grid):
            assert _bit_identical(row, combiner(combine)(scores, weights))

    @pytest.mark.parametrize("combine", [soft_vote, rank_average])
    @pytest.mark.parametrize("grid, message", [
        ([(0.5, 0.5), (1.0,)], "2 score lists but 1 weights"),
        ([(0.5, 0.5), 1.0], "only weight vectors"),
        ([(0.5, 0.5), (0.0, 0.0)], "all voter weights are zero"),
        ([(0.5, 0.5), (1.0, math.nan)], "finite"),
        ([], "2 score lists but 0 weights"),
        (np.empty((0, 2)), "2 score lists but 0 weights"),
    ], ids=["ragged", "scalar-row", "zero-row", "nan-row", "empty",
            "empty-array"])
    def test_bad_grid_rejected(self, combine, grid, message):
        with pytest.raises(EnsembleError, match=message):
            combine([[0.2, 0.7, 0.4], [0.1, 0.9, 0.4]], grid)


class TestNonFiniteInputs:
    # a NaN score once made rank_average loop forever; soft_vote raised a
    # raw ValueError (NaN) or OverflowError (inf)
    @pytest.mark.parametrize("combine", [soft_vote, rank_average])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, time_bound, combine, bad):
        with time_bound(10), pytest.raises(EnsembleError, match="finite"):
            combine([[0.2, bad, 0.7], [0.1, 0.5, 0.9]], [1.0, 1.0])

    @pytest.mark.parametrize("combine", [soft_vote, rank_average])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, time_bound, combine, bad):
        with time_bound(10), pytest.raises(EnsembleError, match="finite"):
            combine([[0.2, 0.7], [0.1, 0.9]], [1.0, bad])


_FINITE = st.floats(-1e300, 1e300)
# zero or a magnitude in the kernel's window [2**-256, 2**256]
_IN_WINDOW = st.one_of(st.sampled_from([0.0, -0.0, 2.0 ** -256, 2.0 ** 256]),
                       st.floats(2.0 ** -256, 2.0 ** 256),
                       st.floats(-2.0 ** 256, -2.0 ** -256))
# normal floats whose half-gaps are normal, powers of two among them
_GAPPED = st.one_of(st.floats(2.0 ** -968, 2.0 ** 1000),
                    st.integers(-968, 1000).map(lambda e: 2.0 ** e))


def _exact(s, e):
    return Fraction(float(s)) + Fraction(float(e))


class TestErrorFreeHelpers:
    """The kernel's building blocks against exact rational arithmetic."""

    @given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=8))
    def test_two_sum(self, pairs):
        a, b = np.array(pairs).T
        s, e = ensemble._two_sum(a, b)
        for x, y, hi, lo in zip(a, b, s, e):
            assert hi == x + y and _exact(hi, lo) == _exact(x, y)

    @given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=8))
    def test_fast_two_sum(self, pairs):
        a, b = np.array([sorted(pair, key=abs, reverse=True)
                         for pair in pairs]).T
        s, e = ensemble._fast_two_sum(a, b)
        for x, y, hi, lo in zip(a, b, s, e):
            assert hi == x + y and _exact(hi, lo) == _exact(x, y)

    @given(st.lists(st.tuples(_IN_WINDOW, _IN_WINDOW), min_size=1,
                    max_size=8))
    def test_two_product(self, pairs):
        a, b = np.array(pairs).T
        assert ensemble._in_window(a) and ensemble._in_window(b)
        p, e = ensemble._two_product(a, ensemble._split(a),
                                     b, ensemble._split(b))
        for x, y, hi, lo in zip(a, b, p, e):
            assert hi == x * y
            assert _exact(hi, lo) == Fraction(float(x)) * Fraction(float(y))

    @given(st.lists(st.tuples(_GAPPED, st.booleans()), min_size=1,
                    max_size=8))
    def test_half_gaps(self, draws):
        y = np.array([-x if negative else x for x, negative in draws])
        up, down = ensemble._half_gaps(y)
        for (x, _), hu, hd in zip(draws, up, down):
            assert hu == (math.nextafter(x, math.inf) - x) / 2
            assert hd == (x - math.nextafter(x, 0.0)) / 2


def _assert_votes_match_oracles(scores, weights):
    assert _bit_identical(soft_vote(scores, weights),
                          soft_vote_oracle(scores, weights))
    assert _bit_identical(rank_average(scores, weights),
                          rank_average_oracle(scores, weights))


class TestVoteKernel:
    """The double-double kernel against the Fraction oracles, on cells it
    must hand to the exact fallback and on inputs it must not take."""

    @pytest.mark.parametrize("scores, weights", [
        # the mean of a float and its successor is a tie between them
        ([[0.3, 0.7], [math.nextafter(0.3, 1.0), math.nextafter(0.7, 1.0)]],
         [0.5, 0.5]),
        # below 0.5 the gap is half the gap above it: a tie that rounds
        # to 0.5, a value nearer the float below, and one a hair below the
        # tie that the double-double quotient rounds onto it
        ([[0.5, 0.5], [_BELOW_HALF, 0.25]], [1.0, 1.0]),
        ([[0.5, 0.5], [_BELOW_HALF, 0.25]], [1.0, 3.0]),
        ([[0.5, 0.5], [_BELOW_HALF, 0.25], [0.0, 1.0]], [1.0, 1.0, 2.0 ** -110]),
        # positive and negative scores cancel, and the sum of the
        # products' low words drops a term of 2**-80: the double-double
        # numerator is 0.0 while the exact one is not
        ([[2.0 ** 60, 0.1], [2.0 ** -80, 0.2], [1.0, -0.3],
          [-(2.0 ** 60), 0.4], [-1.0, 0.5]], [1.0] * 5),
        ([[0.75, -0.25], [-0.5, 0.25], [-0.25, 1e-17]], [1.0, 2.0, 1.0]),
        # products near underflow and near overflow
        ([[1e-300, 3e-300], [0.25, 0.5]], [1e-20, 0.0]),
        ([[1e-300, 0.5], [0.25, 1e-300]], [1e-20, 1.0]),
        ([[1e200, 0.5], [0.5, 1e200]], [1e200, 1.0]),
        # signed zeros: a zero mean is +0.0
        ([[-0.0, 0.0, -0.0], [-0.0, -0.0, 0.5]], [1.0, 2.0]),
        ([[-0.0, 0.25], [-0.0, 0.5]], [0.0, 1.0]),
    ], ids=["midpoint", "tie-below-power-of-two", "below-power-of-two",
            "hair-below-tie", "lost-low-term", "cancellation", "underflow",
            "underflow-mixed", "overflow", "negative-zero",
            "negative-zero-weighted-out"])
    def test_edge_cases_match_oracles(self, scores, weights):
        _assert_votes_match_oracles(scores, weights)

    def test_fifteen_voters(self):
        rng = np.random.default_rng(15)
        scores = rng.random((15, 40)).tolist()
        weights = rng.random(15).tolist()
        _assert_votes_match_oracles(scores, weights)
        _assert_votes_match_oracles(np.round(scores, 1).tolist(),
                                    [1.0] * 15)

    @pytest.mark.parametrize("combine, oracle", [
        (soft_vote, soft_vote_oracle), (rank_average, rank_average_oracle)])
    @given(inputs=_kernel_grid_inputs(), block=st.integers(1, 50))
    @settings(max_examples=150, deadline=None)
    def test_grid_in_small_blocks(self, combine, oracle, inputs, block):
        scores, grid = inputs
        with patch.object(ensemble, "_BLOCK_CELLS", block):
            rows = combine(scores, grid)
        for row, weights in zip(rows, grid):
            assert _bit_identical(row, oracle(scores, weights))

    def test_block_peak_memory(self):
        # a 4-voter grid over 150 documents, in 286 x 14 blocks: while
        # every intermediate stayed bound until the next block rebound it,
        # the call peaked at about 21 arrays of one block's size (0.69 MB);
        # releasing each at its last use takes about 10.5
        rng = np.random.default_rng(7)
        scores = rng.random((4, 150))
        grid = np.array(weight_grid(4, 0.1))
        out = np.empty((len(grid), 150))
        block = len(grid) * (ensemble._BLOCK_CELLS // len(grid)) * 8
        ensemble._kernel_vote(scores, 1.0, grid, out)
        peak = traced_peak(
            lambda: ensemble._kernel_vote(scores, 1.0, grid, out))
        assert peak <= 11 * block, peak / block

    @pytest.mark.parametrize("combine", COMBINERS)
    def test_few_cells_fall_back(self, combine):
        rng = np.random.default_rng(4)
        scores = rng.random((4, 150)).tolist()
        grid = weight_grid(4, 0.1)
        exact = ensemble._exact_vote
        cells = []

        def counted(scores, k, weights, out, rows, docs):
            cells.append(len(rows))
            return exact(scores, k, weights, out, rows, docs)

        with patch.object(ensemble, "_exact_vote", counted):
            rows = combiner(combine)(scores, grid)
        assert len(cells) == 1 and cells[0] < 0.05 * rows.size, cells
        assert _bit_identical(rows, grid_vote_oracle(scores, grid, combine))


class TestExternalScores:
    def test_parse_and_align(self):
        ext = parse_external_scores("id,score\nd1,0.9\nd2,0.1\n")
        assert ext.scores == {"d1": 0.9, "d2": 0.1}
        np.testing.assert_array_equal(ext.aligned(["d2", "d1"]), [0.1, 0.9])

    def test_out_of_range_rejected(self):
        with pytest.raises(EnsembleError, match="outside"):
            parse_external_scores("id,score\nd1,1.5\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(EnsembleError, match="duplicate id 'd1'"):
            parse_external_scores("id,score\nd1,0.5\nd1,0.6\n")

    def test_missing_ids_listed(self):
        ext = parse_external_scores("id,score\nd1,0.5\n")
        with pytest.raises(EnsembleError, match="d2"):
            ext.aligned(["d1", "d2"])

    def test_field_over_csv_limit_rejected(self):
        text = "id,score\nd1,0.5\nd2," + "0" * 200_000 + "\n"
        with pytest.raises(EnsembleError, match="big.csv: .* at line 3"):
            parse_external_scores(text, source="big.csv")

    def test_dump_round_trips(self):
        ids = ["a", "b,with comma", "c"]
        scores = [0.125, 1 / 3, 0.999999999999]
        text = dump_scores(ids, scores)
        ext = parse_external_scores(text)
        assert ext.scores == dict(zip(ids, scores))


    @pytest.mark.parametrize("n_docs", [0, 1, DUMP_BLOCK_DOCS,
                                        2 * DUMP_BLOCK_DOCS + 3])
    def test_written_scores_are_the_dump(self, tmp_path, n_docs):
        forms = ['with, "quotes"', "two\nlines\r\n", "ünïcödé \u2028 ✓"]
        ids = [f"d{i} {forms[i % len(forms)]}" for i in range(n_docs)]
        scores = np.random.default_rng(n_docs).random(n_docs)
        path = tmp_path / "scores.csv"
        cli._write_scores(path, ids, scores)
        text = dump_scores(ids, scores)
        assert path.read_bytes() == text.encode("utf-8")
        # the one-pass rendering the blocks replaced
        whole = io.StringIO()
        csv.writer(whole, lineterminator="\n").writerows(
            [["id", "score"], *([i, repr(float(s))]
                                for i, s in zip(ids, scores))])
        assert text == whole.getvalue()

    def test_writing_scores_holds_one_block_of_rows(self, tmp_path):
        # 40,000 scores make a 2.1 MB file; holding its whole text and
        # bytes at once peaked at 6.5 MB, a block of rows at 0.22 MB
        ids = [f"document-{i:08d}-with,a comma" for i in range(40_000)]
        scores = np.random.default_rng(0).random(len(ids))
        peak = traced_peak(
            lambda: cli._write_scores(tmp_path / "s.csv", ids, scores))
        assert peak < 1_000_000


class TestSpecValidation:
    def test_voter_needs_exactly_one_source(self):
        with pytest.raises(EnsembleError):
            Voter(weight=1.0)
        with pytest.raises(EnsembleError):
            Voter(weight=1.0, bundle=object(),
                  external=ExternalScores(scores={}))

    def test_negative_weight_rejected(self):
        with pytest.raises(EnsembleError):
            Voter(weight=-1.0, external=ExternalScores(scores={}))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_at_construction(self, weight):
        # used to pass and fail only at vote time, after all voters scored
        with pytest.raises(EnsembleError, match="finite number >= 0"):
            Voter(weight=weight, external=ExternalScores(scores={}))

    def test_spec_needs_positive_weight(self):
        voter = Voter(weight=0.0, external=ExternalScores(scores={}))
        with pytest.raises(EnsembleError):
            EnsembleSpec(voters=[voter])

    def test_unknown_combiner_rejected(self):
        voter = Voter(weight=1.0, external=ExternalScores(scores={}))
        with pytest.raises(EnsembleError):
            EnsembleSpec(voters=[voter], combine="median")


def _bpe_bundles(vocab_size, kinds, tfidf_config=TfidfConfig(ngram_max=2)):
    """A BPE vocabulary of vocab_size on synth seed 1, and one loaded
    bundle per kind trained on that corpus with it."""
    corpus = synth_corpus(15, seed=1, divergence=0.5)
    vocab = train_bpe(corpus.texts, vocab_size=vocab_size)
    return vocab, [load_model(train_bundle(
        kind, corpus, tfidf_config=tfidf_config, bpe_vocab=vocab,
        vocab_bytes=save_vocab(vocab),
        sgd_config=SgdConfig(epochs=2, seed=1),
        gbdt_config=GbdtConfig(n_trees=2, n_bins=16, min_data_in_leaf=2),
        seed=1)) for kind in kinds]


def _whitespace_bundle(seed):
    corpus = synth_corpus(15, seed=seed, divergence=0.5)
    return load_model(train_bundle(
        "naive_bayes", corpus, tfidf_config=TfidfConfig(ngram_max=2),
        token_source=TOKEN_SOURCE_WHITESPACE))


@contextmanager
def _spy():
    """Count the calls collect_voter_scores makes to the pipeline's
    tokenize_texts and transform_corpus."""
    names = ("tokenize_texts", "transform_corpus")
    calls = dict.fromkeys(names, 0)
    saved = {name: getattr(pipeline, name) for name in names}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return saved[name](*args, **kwargs)
        return call

    for name in names:
        setattr(pipeline, name, counted(name))
    try:
        yield calls
    finally:
        for name in names:
            setattr(pipeline, name, saved[name])


@pytest.fixture(scope="module")
def mixed():
    """Seven voters: three BPE bundles sharing one TF-IDF model, one BPE
    bundle with min_df 1, whitespace bundles from two corpora, and an
    external score file; plus the documents and the oracle's scores."""
    vocab, shared = _bpe_bundles(150, ["naive_bayes", "sgd_linear", "gbdt"])
    _, own = _bpe_bundles(150, ["naive_bayes"],
                          TfidfConfig(ngram_max=2, min_df=1))
    documents = synth_corpus(10, seed=7, divergence=0.5)
    external = ExternalScores(scores={
        i: (k + 0.5) / len(documents) for k, i in enumerate(documents.ids)})
    voters = ([Voter(weight=1.0, bundle=b) for b in
               [*shared, *own, _whitespace_bundle(1), _whitespace_bundle(2)]]
              + [Voter(weight=1.0, external=external)])
    oracle = collect_voter_scores_oracle(EnsembleSpec(voters=voters),
                                         documents, vocab)
    return vocab, voters, documents, oracle


class TestRunEnsemble:
    def test_inconsistent_vocab_hashes_rejected(self):
        vocab, first = _bpe_bundles(150, ["naive_bayes"])
        _, second = _bpe_bundles(120, ["naive_bayes"])
        assert first[0].vocab_ref != second[0].vocab_ref
        spec = EnsembleSpec(voters=[Voter(weight=1.0, bundle=b)
                                    for b in first + second])
        with pytest.raises(EnsembleError, match="disagree"):
            run_ensemble(spec, synth_corpus(3, seed=1, divergence=0.5), vocab)

    def test_bundles_from_equal_payloads_share_a_model(self, mixed):
        _, voters, _, _ = mixed
        models = [voter.bundle.tfidf for voter in voters[:6]]
        assert models[0] is models[1] is models[2]
        assert len({id(model) for model in models}) == 4

    # Loaded, the three bundles of one payload hold one model, matched by
    # identity; copied, each voter holds its own and they match by bytes.
    @pytest.mark.parametrize("copied", [False, True], ids=["loaded", "copied"])
    @given(order=st.permutations(range(7)))
    @settings(max_examples=25, deadline=None)
    def test_grouped_scores_match_oracle_bit_for_bit(self, mixed, copied,
                                                     order):
        vocab, voters, documents, oracle = mixed
        if copied:
            voters = copy.deepcopy(voters)
        spec = EnsembleSpec(voters=[voters[i] for i in order])
        with _spy() as calls:
            got = collect_voter_scores(spec, documents, vocab)
        assert [s.tobytes() for s in got] == [oracle[i].tobytes()
                                              for i in order]
        # BPE and two word tables; two BPE TF-IDF models and two word ones
        assert calls == {"tokenize_texts": 3, "transform_corpus": 4}

    def test_idf_one_ulp_apart_not_grouped(self, mixed):
        vocab, voters, documents, _ = mixed
        original = voters[0].bundle
        moved = copy.deepcopy(original)
        col = int(np.argmin(moved.tfidf.idf))  # the most common n-gram
        moved.tfidf.idf[col] = np.nextafter(moved.tfidf.idf[col], np.inf)
        assert not same_transform(original.tfidf, moved.tfidf)
        spec = EnsembleSpec(voters=[Voter(weight=1.0, bundle=original),
                                    Voter(weight=1.0, bundle=moved)])
        with _spy() as calls:
            got = collect_voter_scores(spec, documents, vocab)
        assert calls == {"tokenize_texts": 1, "transform_corpus": 2}
        alone, _ = score_texts(moved, documents.texts, vocab)
        assert got[1].tobytes() == alone.tobytes()

    def test_errors_in_spec_order(self, mixed):
        _, voters, documents, _ = mixed
        bpe = voters[0]
        external = Voter(weight=1.0, external=ExternalScores(scores={}))
        with pytest.raises(EnsembleError, match="missing"):
            collect_voter_scores(EnsembleSpec(voters=[external, bpe]),
                                 documents)
        with pytest.raises(ModelError, match="tokenizer vocabulary"):
            collect_voter_scores(EnsembleSpec(voters=[bpe, external]),
                                 documents)


# validation scores with frequent ties, scaled near the bottom of the
# float range or left as they are
@st.composite
def _tuning_inputs(draw):
    n_voters = draw(st.integers(1, 4))
    n_docs = draw(st.integers(2, 60))
    digits = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e-300]))
    scores = [[round(draw(st.floats(0, 1)), digits) * scale
               for _ in range(n_docs)] for _ in range(n_voters)]
    labels = draw(st.lists(st.integers(0, 1), min_size=n_docs,
                           max_size=n_docs))
    labels[:2] = [0, 1]
    step = draw(st.sampled_from([0.5, 0.25, 0.2, 0.1, 0.05]))
    chunk = draw(st.sampled_from([1, 7, 50, 1 << 20]))
    return scores, labels, step, chunk


class TestWeightTuning:
    def test_grid_sums_to_one(self):
        grid = weight_grid(3, step=0.5)
        assert all(abs(sum(w) - 1.0) < 1e-9 for w in grid)
        assert (1.0, 0.0, 0.0) in grid

    @pytest.mark.parametrize("step", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_step_outside_unit_interval_rejected(self, step):
        # step 0 once raised ZeroDivisionError
        with pytest.raises(EnsembleError, match="grid step"):
            weight_grid(2, step=step)

    def test_too_many_voters_rejected(self):
        with pytest.raises(EnsembleError):
            weight_grid(5)

    def test_no_voters_rejected(self):
        # tune_weights([], labels) once returned (None, -1.0)
        with pytest.raises(EnsembleError, match="at least one voter"):
            weight_grid(0)
        with pytest.raises(EnsembleError, match="at least one voter"):
            tune_weights([], [0, 1])

    @pytest.mark.parametrize("step", [5e-324, 1e-310])
    def test_step_whose_inverse_overflows_rejected(self, step):
        # 1 / step is inf; rounding it raised a bare OverflowError
        with pytest.raises(EnsembleError, match="overflows"):
            weight_grid(2, step=step)

    @pytest.mark.parametrize("n_voters, step", [
        (4, 0.005), (4, 0.0001), (2, 1e-300), (3, 1e-300)])
    def test_grid_over_the_bound_refused_before_enumeration(
            self, time_bound, n_voters, step):
        # step 1e-300 raised OverflowError in product; 0.0001 with 4
        # voters walked 10001 ** 4 tuples
        with time_bound(2), pytest.raises(EnsembleError,
                                          match=f"{MAX_GRID_POINTS}"):
            weight_grid(n_voters, step=step)

    def test_bound_admits_step_hundredth_with_four_voters(self):
        grid = weight_grid(4, step=0.01)
        assert len(grid) == 176_851 <= MAX_GRID_POINTS
        assert grid[0] == (0.0, 0.0, 0.0, 1.0) and grid[-1] == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n_voters", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.04])
    def test_grid_matches_filtered_product(self, n_voters, step):
        assert weight_grid(n_voters, step) == weight_grid_oracle(n_voters, step)

    @pytest.mark.parametrize("n_voters", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [0.5, 0.1, 0.05, np.float64(0.2),
                                      np.float32(0.25)])
    def test_grid_weights_have_the_type_and_bits_of_count_times_step(
            self, n_voters, step):
        # the grid computes c * step once per step count c and shares the
        # result between vectors; each weight keeps that product's type
        def typed(grid):
            return [[(type(w), repr(w)) for w in vector] for vector in grid]
        assert typed(weight_grid(n_voters, step)) == typed(
            weight_grid_oracle(n_voters, step))

    @given(_tuning_inputs())
    @settings(max_examples=150, deadline=None)
    def test_tuning_matches_oracle(self, inputs):
        scores, labels, step, chunk = inputs
        for combine in COMBINERS:
            with patch.object(ensemble, "_CHUNK_SCORES", chunk):
                got = tune_weights(scores, labels, combine, step)
            assert got == tune_weights_oracle(scores, labels, combine, step)

    @pytest.mark.parametrize("chunk, calls", [(1 << 20, 1), (20, 17), (1, 66)])
    def test_one_auc_call_per_chunk(self, chunk, calls):
        # 66 weight vectors over 5 documents, in chunks of 66, 4 or 1 rows
        scores = [[0.1, 0.4, 0.4, 0.8, 0.3], [0.9, 0.2, 0.5, 0.5, 0.1],
                  [0.3, 0.3, 0.6, 0.7, 0.2]]
        labels = [0, 1, 0, 1, 1]
        shapes = []
        original = ensemble.roc_auc
        with patch.object(ensemble, "_CHUNK_SCORES", chunk), \
                patch.object(ensemble, "roc_auc", lambda s, y: shapes.append(
                    np.shape(s)) or original(s, y)):
            got = tune_weights(scores, labels, step=0.1)
        assert len(shapes) == calls
        assert sum(rows for rows, _ in shapes) == 66
        assert got == tune_weights_oracle(scores, labels, step=0.1)

    def test_tuning_holds_no_grid_of_python_ints(self):
        # 66 weight vectors over 20,000 documents, in chunks of 52: the
        # chunk's float rows bring tune_weights to about 2.7 times one
        # soft_vote call's peak, while keeping each vector's quotients as
        # Python objects until the chunk is done reaches 6.5 times
        rng = np.random.default_rng(11)
        scores = [rng.random(20_000) for _ in range(3)]
        labels = (rng.random(20_000) < 0.5).astype(int).tolist()
        one = traced_peak(lambda: soft_vote(scores, [0.2, 0.3, 0.5]))
        tuned = traced_peak(lambda: tune_weights(scores, labels, step=0.1))
        assert tuned < 4 * one, (tuned, one)

    def test_tuning_finds_the_good_voter(self):
        labels = [1, 1, 1, 0, 0, 0]
        perfect = [0.9, 0.8, 0.7, 0.2, 0.1, 0.3]
        inverted = [0.1, 0.2, 0.3, 0.9, 0.8, 0.7]
        weights, auc = tune_weights([perfect, inverted], labels, step=0.5)
        assert auc == 1.0
        assert weights == (1.0, 0.0)
