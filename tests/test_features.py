import base64
import gc
import hashlib
import math
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llmdetect import features, tokenizer
from llmdetect.corpus import synth_corpus
from llmdetect.errors import FeatureError
from llmdetect.files import pack
from llmdetect.features import (TfidfConfig, encode_words, extract_ngrams,
                                fit_tfidf, fit_word_vocab, tfidf_from_dict,
                                tfidf_to_dict, transform_corpus)
from llmdetect.tokenizer import (DEFAULT_VOCAB_SIZE, TokenCorpus,
                                 TokenSequence, encode, train_bpe)
from conftest import repack, set_payload_ngrams, traced_peak
from oracles import (csr_row, encode_oracle, fit_tfidf_oracle, tfidf_oracle,
                     token_sequences, transform_corpus_oracle, vector_pairs)


def seqs(*id_lists):
    return [TokenSequence(ids=tuple(ids)) for ids in id_lists]


def transform(model, seq):
    """One document's row of transform_corpus, as a (cols, vals) pair."""
    return csr_row(transform_corpus(model, [seq]), 0)


class TestExtractNgrams:
    def test_unigrams(self):
        assert extract_ngrams(seqs([1, 2, 3])[0], 1, 1) == {
            (1,): 1, (2,): 1, (3,): 1}

    def test_uni_and_bigrams(self):
        counts = extract_ngrams(seqs([1, 2, 3])[0], 1, 2)
        assert counts == {(1,): 1, (2,): 1, (3,): 1, (1, 2): 1, (2, 3): 1}

    def test_too_short_yields_nothing(self):
        assert extract_ngrams(seqs([1])[0], 2, 3) == {}

    def test_multiplicity(self):
        assert extract_ngrams(seqs([5, 5, 5])[0], 1, 2) == {
            (5,): 3, (5, 5): 2}

    def test_bad_range_rejected(self):
        with pytest.raises(FeatureError):
            extract_ngrams(seqs([1])[0], 0, 1)


class TestFit:
    def test_idf_floor_when_term_everywhere(self):
        model = fit_tfidf(seqs([1, 2], [1, 3]), TfidfConfig(1, 1, min_df=1))
        col = model.vocabulary.ngram_to_col[(1,)]
        assert model.idf[col] == pytest.approx(1.0, abs=1e-15)

    def test_idf_formula_value(self):
        # N=3 documents, term in exactly one: ln(4/2) + 1
        model = fit_tfidf(seqs([1], [2], [3]), TfidfConfig(1, 1, min_df=1))
        col = model.vocabulary.ngram_to_col[(2,)]
        assert model.idf[col] == pytest.approx(1.6931471805599454, abs=1e-15)

    def test_min_df_threshold(self):
        model = fit_tfidf(seqs([1, 2], [1, 3]), TfidfConfig(1, 1, min_df=2))
        assert (1,) in model.vocabulary.ngram_to_col
        assert (2,) not in model.vocabulary.ngram_to_col

    def test_columns_lexicographic_and_dense(self):
        model = fit_tfidf(seqs([3, 1], [3, 1, 2], [2, 1]),
                          TfidfConfig(1, 2, min_df=1))
        ngrams = model.vocabulary.ngrams
        assert ngrams == sorted(ngrams)
        assert sorted(model.vocabulary.ngram_to_col.values()) == list(
            range(len(ngrams)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(FeatureError):
            fit_tfidf([])
        with pytest.raises(FeatureError):
            fit_tfidf(seqs([], []))


class TestTransform:
    def test_no_in_vocab_ngrams_gives_empty_vector(self):
        model = fit_tfidf(seqs([1, 1], [1, 2]), TfidfConfig(1, 1, min_df=2))
        cols, _ = transform(model, seqs([7, 8])[0])
        assert len(cols) == 0

    def test_raw_count_times_idf(self):
        # single vocabulary term, count 2, no normalization
        model = fit_tfidf(seqs([4], [4], [5]),
                          TfidfConfig(1, 1, min_df=1, l2_normalize=False))
        col = model.vocabulary.ngram_to_col[(4,)]
        vec = transform(model, seqs([4, 4])[0])
        assert dict(vector_pairs(vec))[col] == pytest.approx(
            2.0 * model.idf[col], abs=1e-15)

    def test_l2_normalized_unit_norm(self):
        model = fit_tfidf(seqs([1, 2, 3], [2, 3, 4], [1, 4]),
                          TfidfConfig(1, 2, min_df=1, l2_normalize=True))
        _, vals = transform(model, seqs([1, 2, 3, 4])[0])
        assert np.linalg.norm(vals) == pytest.approx(1.0, abs=1e-12)

    def test_columns_strictly_increasing_no_zeros(self):
        model = fit_tfidf(seqs([1, 2, 3], [3, 2, 1]), TfidfConfig(1, 2, min_df=1))
        cols, vals = transform(model, seqs([2, 1, 3, 2])[0])
        assert np.all(np.diff(cols) > 0)
        assert np.all(vals != 0.0)

    def test_oov_ngrams_do_not_disturb_in_vocab_weights(self):
        cfg = TfidfConfig(1, 1, min_df=1, l2_normalize=False)
        model = fit_tfidf(seqs([1, 2], [2, 3]), cfg)
        with_oov = transform(model, seqs([1, 2, 99])[0])
        without = transform(model, seqs([1, 2])[0])
        assert vector_pairs(with_oov) == vector_pairs(without)

    def test_matrix_rows_match_vector_transforms(self):
        docs = seqs([1, 2, 3], [2, 2], [9])
        model = fit_tfidf(docs, TfidfConfig(1, 2, min_df=1))
        X = transform_corpus(model, docs)
        assert X.n_rows == 3 and X.n_cols == model.n_features
        for i, doc in enumerate(docs):
            for got, alone in zip(csr_row(X, i), transform(model, doc)):
                np.testing.assert_array_equal(got, alone)

    def test_empty_corpus_transform(self):
        model = fit_tfidf(seqs([1, 2], [2, 1]), TfidfConfig(1, 1, min_df=1))
        X = transform_corpus(model, [])
        assert X.n_rows == 0 and X.n_cols == model.n_features


class TestOracleEquivalence:
    @pytest.mark.parametrize("sublinear", [False, True])
    @pytest.mark.parametrize("l2", [False, True])
    def test_three_document_corpus(self, sublinear, l2):
        docs = [(1, 2, 1, 3), (2, 2, 4), (1, 4, 4, 4, 2)]
        cfg = TfidfConfig(1, 2, min_df=1, sublinear_tf=sublinear,
                          l2_normalize=l2)
        model = fit_tfidf(seqs(*docs), cfg)
        expected = tfidf_oracle(docs, 1, 2, 1, sublinear, l2)
        ngrams = model.vocabulary.ngrams
        for i, doc in enumerate(docs):
            vec = transform(model, seqs(doc)[0])
            got = {ngrams[c]: w for c, w in vector_pairs(vec)}
            assert set(got) == set(expected[i])
            for t, w in expected[i].items():
                assert got[t] == pytest.approx(w, abs=1e-9)

    def test_idf_monotone_in_df(self):
        # 4 docs; terms of increasing document frequency get lower idf
        docs = seqs([1, 2, 3, 4], [2, 3, 4], [3, 4], [4])
        model = fit_tfidf(docs, TfidfConfig(1, 1, min_df=1))
        idf = [model.idf[model.vocabulary.ngram_to_col[(t,)]] for t in (1, 2, 3, 4)]
        assert idf[0] > idf[1] > idf[2] > idf[3] >= 1.0


class TestSerialization:
    def test_round_trip(self):
        docs = seqs([1, 2, 3], [3, 2], [2, 2, 4])
        model = fit_tfidf(docs, TfidfConfig(1, 2, min_df=1, sublinear_tf=True))
        loaded = tfidf_from_dict(tfidf_to_dict(model))
        assert loaded.config == model.config
        assert loaded.vocabulary.ngram_to_col == model.vocabulary.ngram_to_col
        np.testing.assert_array_equal(loaded.idf, model.idf)
        for doc in docs:
            np.testing.assert_array_equal(transform(loaded, doc)[1],
                                          transform(model, doc)[1])

    def test_flat_arrays_held_from_fit_to_load(self):
        model = fit_tfidf(seqs([1, 2, 3], [3, 2]), TfidfConfig(1, 2, min_df=1))
        vocabulary = model.vocabulary
        assert vocabulary.ngrams == [(1,), (1, 2), (2,), (2, 3), (3,),
                                     (3, 2)]
        assert vocabulary.ids.tolist() == [1, 1, 2, 2, 2, 3, 3, 3, 2]
        assert vocabulary.lengths.tolist() == [1, 2, 1, 2, 1, 2]
        loaded = tfidf_from_dict(tfidf_to_dict(model)).vocabulary
        for got, want in ((loaded.ids, vocabulary.ids),
                          (loaded.lengths, vocabulary.lengths),
                          (loaded.df, vocabulary.df)):
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
            # bundles from equal payloads share a loaded model
            assert want.flags.writeable and not got.flags.writeable

    # int64 bytes hold no non-integer token id, so what can go wrong in an
    # array field is its encoding.
    @pytest.mark.parametrize("key", ["ngram_ids", "ngram_lengths", "df",
                                     "idf"])
    @pytest.mark.parametrize("value, message", [
        ([1, 2], "expected a base64 string, got list"),
        (None, "expected a base64 string, got NoneType"),
        ("AAAAAAAA*AAAAAAA", "invalid base64"),
        ("AAAAAAAAAAA", "invalid base64"),  # 11 characters: bad padding
        ("AAAAAAAAAA==", "7 bytes is not a whole number of 8-byte values"),
        (base64.b64encode(bytes(19)).decode(),
         "19 bytes is not a whole number"),  # 8k + 3 bytes
    ], ids=["list", "null", "alphabet", "padding", "7-bytes", "8k+3-bytes"])
    def test_encoding_fault_rejected(self, key, value, message):
        model = fit_tfidf(seqs([1, 3], [3, 1]), TfidfConfig(1, 1, min_df=1))
        payload = tfidf_to_dict(model)
        payload[key] = value
        with pytest.raises(FeatureError,
                           match=f"malformed tfidf payload: {key}: .*"
                                 f"{message}"):
            tfidf_from_dict(payload)

    def fitted_payload(self):
        docs = seqs([1, 2, 3], [3, 2, 1])
        return tfidf_to_dict(fit_tfidf(docs, TfidfConfig(1, 2, min_df=1)))

    @pytest.mark.parametrize("edit", [
        lambda p: repack(p, "ngram_ids", lambda a: a[:-1]),
        lambda p: repack(p, "ngram_ids", lambda a: np.append(a, 1)),
        lambda p: repack(p, "ngram_lengths", lambda a: a[:-1]),
        lambda p: repack(p, "ngram_lengths",
                         lambda a: a.__setitem__(0, a[0] + 1)),
    ], ids=["id-short", "id-long", "lengths-short", "length-long"])
    def test_lengths_must_sum_to_ids(self, edit):
        payload = self.fitted_payload()
        edit(payload)
        with pytest.raises(FeatureError, match="ngram_lengths"):
            tfidf_from_dict(payload)

    def test_negative_length_rejected(self):
        # lengths 3, -1 and 1 still sum to the ids of three 1-grams
        payload = self.fitted_payload()
        set_payload_ngrams(payload, [(1,), (2,), (3,)])
        repack(payload, "ngram_lengths", lambda a: a + [2, -2, 0])
        for key in ("df", "idf"):
            repack(payload, key, lambda a: a[:3])
        with pytest.raises(FeatureError, match=r"ngram_lengths must lie in"):
            tfidf_from_dict(payload)

    @pytest.mark.parametrize("key", ["df", "idf"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_df_and_idf_count_match_ngrams(self, key, change):
        payload = self.fitted_payload()
        repack(payload, key,
               lambda a: a[:change] if change < 0 else np.append(a, a[-1]))
        with pytest.raises(FeatureError, match="df/idf length mismatch"):
            tfidf_from_dict(payload)

    @staticmethod
    def with_ngrams(payload, ngrams):
        """The payload holding the n-grams, one df and idf each, its
        ngram_max their greatest length."""
        set_payload_ngrams(payload, ngrams)
        for key in ("df", "idf"):
            repack(payload, key, lambda a: np.ones(len(ngrams), a.dtype))
        payload["config"]["ngram_max"] = max(map(len, ngrams), default=1)
        return payload

    @pytest.mark.parametrize("ngrams", [
        [(1,), (2,), (1,)],
        [(1, 2), (2,), (3, 2), (1, 2)],
        [(5, 6, 7), (5, 6), (5, 6, 7)],
        [(2**63 - 1, -2**63), (-2**63,), (2**63 - 1, -2**63)],
        [(0, 1, 2**21), (2**21, 1, 0), (0, 1, 2**21)],
    ], ids=["1-gram", "2-gram", "3-gram", "extreme-ids", "wide-3-gram"])
    def test_duplicate_ngram_rejected(self, ngrams):
        payload = self.with_ngrams(self.fitted_payload(), ngrams)
        with pytest.raises(FeatureError, match="duplicate ngrams"):
            tfidf_from_dict(payload)
        # the n-grams with the repeat dropped load
        distinct = list(dict.fromkeys(ngrams))
        payload = self.with_ngrams(payload, distinct)
        assert tfidf_from_dict(payload).vocabulary.ngrams == distinct

    @given(st.lists(st.lists(st.integers(0, 3) | st.sampled_from(
        [2**20, 2**21 + 1, 2**62, 2**63 - 1, -2**63]), min_size=1,
        max_size=4).map(tuple), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_duplicate_check_matches_set(self, ngrams):
        # refused exactly when the n-gram list repeats one
        payload = self.with_ngrams(self.fitted_payload(), ngrams)
        if len(set(ngrams)) != len(ngrams):
            with pytest.raises(FeatureError, match="duplicate ngrams"):
                tfidf_from_dict(payload)
        else:
            assert tfidf_from_dict(payload).vocabulary.ngrams == ngrams

    @pytest.mark.parametrize("extra", [(1,), (1, 2, 3, 1), ()],
                             ids=["under-min", "over-max", "empty"])
    def test_lengths_outside_config_refused(self, extra):
        # no fit writes such an n-gram, and no transform could match it
        docs = seqs([1, 2, 3, 1, 2], [2, 3, 1, 2, 3])
        payload = tfidf_to_dict(fit_tfidf(docs, TfidfConfig(2, 3, min_df=1)))
        set_payload_ngrams(payload, tfidf_from_dict(payload).vocabulary.ngrams
                           + [extra])
        repack(payload, "df", lambda a: np.append(a, 1))
        repack(payload, "idf", lambda a: np.append(a, 2.0))
        with pytest.raises(FeatureError,
                           match=r"ngram_lengths must lie in \[2, 3\]"):
            tfidf_from_dict(payload)

    def test_long_ngrams_refused_in_time(self, time_bound):
        # two equal n-grams of 10**6 ids each, then two that differ only in
        # their last id
        payload = self.fitted_payload()
        long = np.arange(10**6, dtype=np.int64)
        payload["ngram_lengths"] = pack([10**6, 10**6], "<i8")
        payload["df"] = pack([1, 1], "<i8")
        payload["idf"] = pack([1.0, 1.0], "<f8")
        with time_bound(10):
            for last in (10**6 - 1, -1):
                long[-1] = last
                payload["ngram_ids"] = pack(np.concatenate(
                    [np.arange(10**6), long]), "<i8")
                with pytest.raises(FeatureError,
                                   match=r"ngram_lengths must lie in"):
                    tfidf_from_dict(payload)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, np.nextafter(1.0, 0.0),
        np.nextafter(1.0 + math.log(3), math.inf), 1e308, math.nan,
        math.inf], ids=["zero", "negative-zero", "under-1", "over-top",
                        "huge", "nan", "inf"])
    def test_idf_outside_fit_range_refused(self, value):
        # a fit on 2 documents writes idf in [1, 1 + ln 3]; 1e308 once
        # overflowed a transform's norms into NaN features
        payload = self.fitted_payload()
        repack(payload, "idf", lambda a: a.__setitem__(0, value))
        with pytest.raises(FeatureError, match=r"field tfidf.idf must hold "
                                               r"numbers in \[1, 2\.0986"):
            tfidf_from_dict(payload)

    def test_idf_range_ends_load(self):
        payload = self.fitted_payload()
        ends = [1.0, 1.0 + math.log(1 + payload["document_count"])]
        repack(payload, "idf", lambda a: a.__setitem__([0, -1], ends))
        assert tfidf_from_dict(payload).idf[[0, -1]].tolist() == ends

    def test_malformed_payload_rejected(self):
        model = fit_tfidf(seqs([1, 2], [2, 1]), TfidfConfig(1, 1, min_df=1))
        payload = tfidf_to_dict(model)
        del payload["idf"]
        with pytest.raises(FeatureError):
            tfidf_from_dict(payload)


def _csr_bytes(X):
    return [(a.dtype.str, a.tobytes()) for a in (X.indptr, X.cols, X.vals)]


@st.composite
def _featurizer_inputs(draw):
    """A config, a fitting corpus, a corpus to transform (with unseen ids)
    and a block size small enough to split it."""
    ngram_min = draw(st.integers(1, 4))
    config = TfidfConfig(ngram_min=ngram_min,
                         ngram_max=draw(st.integers(ngram_min, 6)),
                         min_df=draw(st.integers(1, 3)),
                         sublinear_tf=draw(st.booleans()),
                         l2_normalize=draw(st.booleans()))
    # A few distinct ids, so that n-grams recur; up to 2**20 so that a
    # packed (id + 2) ** ngram_max key would overflow int64.
    alphabet = draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=5,
                             unique=True))
    doc = st.lists(st.sampled_from(alphabet), max_size=14).map(tuple)
    fit_docs = draw(st.lists(doc, min_size=1, max_size=8))
    unseen = st.lists(st.sampled_from(alphabet) | st.integers(0, 2**20),
                      max_size=14).map(tuple)
    docs = draw(st.lists(doc | unseen, max_size=8))
    return config, fit_docs, fit_docs + docs, draw(st.integers(1, 40))


# Keys that pack (small), that do not (negative, and near the int64 top),
# and keys just either side of the packing bound for a short array.
_SORT_KEYS = st.lists(st.integers(0, 6) | st.integers(-2**63, 2**63 - 1)
                      | st.integers(2**57, 2**59), max_size=40)


class TestKeySort:
    """The packed-key sort and the numbering on it give the stable argsort
    and np.unique's answers."""

    @given(_SORT_KEYS)
    @settings(max_examples=300, deadline=None)
    @example([])
    @example([5])
    @example([-1])
    @example([3, -2, 3, 0, -2])
    @example([2**63 - 1, 0, 2**63 - 1])
    def test_matches_argsort_and_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        ordered, order = tokenizer._stable_sort(keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == ordered.dtype == np.int64
        assert order.tolist() == expected.tolist()
        assert ordered.tolist() == keys[expected].tolist()
        distinct, number, order = features._numbered(keys)
        want_distinct, want_number = np.unique(keys, return_inverse=True)
        assert distinct.tolist() == want_distinct.tolist()
        assert number.dtype == np.int64
        assert number.tolist() == want_number.tolist()
        assert order.tolist() == expected.tolist()

    def test_packs_exactly_the_keys_that_fit(self):
        # Four keys take 3 index bits, which leave 60 for the key.
        keys = np.array([2**60 - 1, 0, 2**60 - 1, 1])
        with mock.patch.object(np, "argsort", side_effect=AssertionError):
            assert tokenizer._stable_sort(keys)[1].tolist() == [1, 3, 0, 2]
        keys[[0, 2]] = 2**60
        with mock.patch.object(np, "argsort",
                               wraps=np.argsort) as argsort:
            assert tokenizer._stable_sort(keys)[1].tolist() == [1, 3, 0, 2]
        assert argsort.call_count == 1


_FEATURIZER_EXAMPLE = (
    TfidfConfig(4, 6, min_df=1, sublinear_tf=True),
    [(2**20, 0, 2**20 - 1, 2**20, 0, 2**20 - 1, 0), ()],
    [(2**20, 0, 2**20 - 1, 2**20, 0, 2**20 - 1, 0), (), (0,),
     (7, 2**20, 0, 2**20 - 1, 2**20)], 3)


class TestMatchesCounterOracle:
    """The array featurizer reproduces the Counter featurizer's bytes."""

    @given(_featurizer_inputs())
    @settings(max_examples=400, deadline=None)
    @example(_FEATURIZER_EXAMPLE)
    def test_fit_and_transform_bit_identical(self, inputs):
        self.check_bit_identical(inputs)

    @given(_featurizer_inputs())
    @settings(max_examples=400, deadline=None)
    @example(_FEATURIZER_EXAMPLE)
    def test_fit_and_transform_bit_identical_unpacked(self, inputs):
        # No key fits a zero-bit budget, so every sort takes the stable
        # argsort fallback; no digit key is below 0, so the fit's n-gram
        # order takes np.lexsort.
        with mock.patch.object(tokenizer, "_KEY_BITS", 0), \
                mock.patch.object(features, "_DIGIT_KEY_BOUND", 0):
            self.check_bit_identical(inputs)

    @given(_featurizer_inputs())
    @settings(max_examples=200, deadline=None)
    def test_fitted_payload_loads(self, inputs):
        # a fit's n-gram lengths, distinct n-grams and idf pass every check
        config, fit_docs, docs, _ = inputs
        assume(max(map(len, fit_docs)) >= config.ngram_min)
        model = fit_tfidf(seqs(*fit_docs), config)
        loaded = tfidf_from_dict(tfidf_to_dict(model))
        assert _csr_bytes(transform_corpus(loaded, seqs(*docs))) == \
            _csr_bytes(transform_corpus(model, seqs(*docs)))

    @pytest.mark.parametrize("n_tokens, lexsorted", [(6, False), (7, True)])
    def test_fit_sort_on_both_sides_of_the_digit_bound(self, n_tokens,
                                                       lexsorted):
        # 21-grams of 6 tokens take keys below 7**21, one int64; of 7
        # tokens, keys up to 8**21 = 2**63, which np.lexsort orders
        rng = np.random.default_rng(n_tokens)
        docs = seqs(*(rng.integers(0, n_tokens, size=40) * 3 + 1
                      for _ in range(4)))
        config = TfidfConfig(1, 21, min_df=1)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            model = fit_tfidf(docs, config)
        assert model.vocabulary.ids.max() == 3 * n_tokens - 2
        assert lexsort.call_count == lexsorted
        expected = fit_tfidf_oracle(docs, config)
        assert (list(model.vocabulary.ngram_to_col.items())
                == list(expected.vocabulary.ngram_to_col.items()))
        assert model.vocabulary.df.tobytes() == expected.vocabulary.df.tobytes()

    @staticmethod
    def check_bit_identical(inputs):
        config, fit_docs, docs, block = inputs
        fit_seqs, all_seqs = seqs(*fit_docs), seqs(*docs)
        try:
            expected = fit_tfidf_oracle(fit_seqs, config)
        except FeatureError as exc:
            with pytest.raises(FeatureError, match=str(exc)):
                fit_tfidf(fit_seqs, config)
            return
        with mock.patch.object(features, "_BLOCK_TOKENS", block):
            model = fit_tfidf(fit_seqs, config)
            X = transform_corpus(model, all_seqs)
        assert (list(model.vocabulary.ngram_to_col.items())
                == list(expected.vocabulary.ngram_to_col.items()))
        for got, want in ((model.vocabulary.df, expected.vocabulary.df),
                          (model.idf, expected.idf)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (X.n_rows, X.n_cols) == (len(docs), expected.n_features)
        assert _csr_bytes(X) == _csr_bytes(
            transform_corpus_oracle(expected, all_seqs))

    def test_corpus_spanning_several_blocks(self):
        corpus = synth_corpus(150, seed=3, divergence=0.0004)
        vocab = fit_word_vocab(corpus.texts[::2])
        sequences = token_sequences(encode_words(vocab, corpus.texts))
        assert sum(map(len, sequences)) > 2 * features._BLOCK_TOKENS
        for config in (TfidfConfig(), TfidfConfig(2, 4, min_df=3,
                                                  sublinear_tf=True,
                                                  l2_normalize=False)):
            expected = fit_tfidf_oracle(sequences[::2], config)
            X = transform_corpus(fit_tfidf(sequences[::2], config), sequences)
            assert _csr_bytes(X) == _csr_bytes(
                transform_corpus_oracle(expected, sequences))

    def test_loaded_model_matches(self):
        docs = seqs([1, 2, 3, 1, 2], [2, 3, 1], [0, 0, 1, 2])
        model = fit_tfidf(docs, TfidfConfig(1, 3, min_df=1))
        loaded = tfidf_from_dict(tfidf_to_dict(model))
        assert _csr_bytes(transform_corpus(loaded, docs)) == _csr_bytes(
            transform_corpus_oracle(model, docs))

    def test_levels_stop_at_longest_vocabulary_ngram(self, time_bound):
        docs = seqs([1, 2, 3, 1, 2], [2, 3, 1, 2, 3])
        model = fit_tfidf(docs, TfidfConfig(1, 3, min_df=1))
        payload = tfidf_to_dict(model)
        payload["config"]["ngram_max"] = features.MAX_NGRAM
        loaded = tfidf_from_dict(payload)
        with time_bound(5):
            assert len(features._ngram_table(loaded).levels) == 3
            with mock.patch.object(features, "_extend",
                                   wraps=features._extend) as extend:
                X = transform_corpus(loaded, docs)
        assert extend.call_count == 2  # lengths 2 and 3, in one block
        assert _csr_bytes(X) == _csr_bytes(transform_corpus(model, docs))

    def test_empty_vocabulary(self):
        model = fit_tfidf(seqs([1, 2], [3, 4]), TfidfConfig(1, 2, min_df=2))
        X = transform_corpus(model, seqs([1, 2], [], [3]))
        assert model.n_features == 0 and X.n_rows == 3 and X.nnz == 0
        assert _csr_bytes(X) == _csr_bytes(
            transform_corpus_oracle(model, seqs([1, 2], [], [3])))

    def test_transform_wraps_transform_corpus(self):
        docs = seqs([5, 6, 5, 6], [6, 5])
        model = fit_tfidf(docs, TfidfConfig(1, 2, min_df=1))
        vec = transform(model, docs[0])
        row = csr_row(transform_corpus(model, docs[:1]), 0)
        assert [a.tobytes() for a in vec] == [a.tobytes() for a in row]

    @pytest.mark.parametrize("shift", [0, 2**40])
    def test_dense_and_searched_rank_lookup_agree(self, shift):
        # small ids take the dense lookup, ids far past the token count
        # the searched one; both give the Counter featurizer's bytes
        fit = seqs(*[[i + shift for i in ids]
                     for ids in ([1, 2, 3, 1, 2], [2, 3, 1], [3, 3])])
        unseen = seqs([shift - 1, shift + 1, shift + 7, shift + 2])
        model = fit_tfidf(fit, TfidfConfig(1, 2, min_df=1))
        table = features._ngram_table(model)
        assert (table.lookup is None) == (shift > 0)
        all_seqs = fit + unseen
        assert _csr_bytes(transform_corpus(model, all_seqs)) == _csr_bytes(
            transform_corpus_oracle(model, all_seqs))

    def test_id_beyond_int64_rejected(self):
        model = fit_tfidf(seqs([1, 2], [2, 1]), TfidfConfig(1, 1, min_df=1))
        with pytest.raises(FeatureError, match="64-bit"):
            transform_corpus(model, seqs([1, 2**63]))


def _flat(sequences):
    """The TokenCorpus holding the sequences' ids."""
    return TokenCorpus(
        np.array([i for seq in sequences for i in seq.ids], dtype=np.int64),
        np.array([len(seq) for seq in sequences], dtype=np.int64))


class TestFlatCorpusInput:
    """A TokenCorpus and the equivalent TokenSequence list give the same
    fit and the same matrix bytes, whatever the block size."""

    @given(_featurizer_inputs())
    @settings(max_examples=200, deadline=None)
    def test_same_fit_and_matrix(self, inputs):
        config, fit_docs, docs, block = inputs
        fit_seqs, all_seqs = seqs(*fit_docs), seqs(*docs)
        with mock.patch.object(features, "_BLOCK_TOKENS", block):
            try:
                want = fit_tfidf(fit_seqs, config)
            except FeatureError as exc:
                with pytest.raises(FeatureError) as flat_exc:
                    fit_tfidf(_flat(fit_seqs), config)
                assert str(flat_exc.value) == str(exc)
                return
            got = fit_tfidf(_flat(fit_seqs), config)
            X_want = transform_corpus(want, all_seqs)
            X_got = transform_corpus(got, _flat(all_seqs))
        assert got.vocabulary.ngrams == want.vocabulary.ngrams
        for a, b in ((got.vocabulary.df, want.vocabulary.df),
                     (got.idf, want.idf)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (X_got.n_rows, X_got.n_cols) == (X_want.n_rows, X_want.n_cols)
        assert _csr_bytes(X_got) == _csr_bytes(X_want)

    def test_empty_corpus_rejected(self):
        with pytest.raises(FeatureError, match="empty corpus"):
            fit_tfidf(_flat([]))


# Two vocabularies for lists that mix the sequences of both.
_VOCABS = [train_bpe(["abcd ab ab cd abc"], 12),
           train_bpe(["dcba dc dc ba"], 9)]


@st.composite
def _mixed_entries(draw):
    """Texts, each with one of _VOCABS and how its sequence enters a list:
    pending on the vocabulary, already read, or constructed from ids."""
    return draw(st.lists(st.tuples(
        st.sampled_from(["pending", "read", "constructed"]),
        st.sampled_from([0, 1]), st.text("abcde \n", max_size=30)),
        min_size=1, max_size=10))


def _mixed(entries):
    out = []
    for kind, which, text in entries:
        if kind == "constructed":
            seq = TokenSequence(ids=encode_oracle(_VOCABS[which], text).ids)
        else:
            seq = encode(_VOCABS[which], text)
            if kind == "read":
                len(seq)
        out.append(seq)
    return out


def _constructed(entries):
    return [TokenSequence(ids=encode_oracle(_VOCABS[which], text).ids)
            for _, which, text in entries]


class TestPendingSequenceInput:
    """A list holding pending sequences gives the fit and the matrix bytes
    of the same ids in constructed sequences."""

    @given(_mixed_entries(), _mixed_entries(),
           st.sampled_from([TfidfConfig(1, 2, min_df=1), TfidfConfig()]))
    @settings(max_examples=200, deadline=None)
    @example([("pending", 0, "ab abcd")] * 2, [("pending", 1, "dc ba")],
             TfidfConfig(1, 2, min_df=1))
    def test_same_fit_and_matrix(self, fit_entries, entries, config):
        try:
            want = fit_tfidf(_constructed(fit_entries), config)
        except FeatureError as exc:
            with pytest.raises(FeatureError) as got_exc:
                fit_tfidf(_mixed(fit_entries), config)
            assert str(got_exc.value) == str(exc)
            return
        got = fit_tfidf(_mixed(fit_entries), config)
        assert got.vocabulary.ngrams == want.vocabulary.ngrams
        for a, b in ((got.vocabulary.df, want.vocabulary.df),
                     (got.idf, want.idf)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        X_want = transform_corpus(want, _constructed(entries))
        X_got = transform_corpus(got, _mixed(entries))
        assert (X_got.n_rows, X_got.n_cols) == (X_want.n_rows, X_want.n_cols)
        assert _csr_bytes(X_got) == _csr_bytes(X_want)


class TestWordVocab:
    def test_encode_words(self):
        vocab = ["<unk>", "a", "b"]
        corpus = encode_words(vocab, ["a b c", "", "b  a"])
        assert corpus.ids.tolist() == [1, 2, 0, 2, 1]
        assert corpus.lengths.tolist() == [3, 0, 2]
        assert corpus.ids.dtype == corpus.lengths.dtype == np.int64

    @pytest.mark.parametrize("word_vocab", [5, [[1]], "abc", [], ["a"],
                                            ["a", "<unk>"], ["<unk>", 1]])
    def test_malformed_rejected(self, word_vocab):
        payload = tfidf_to_dict(fit_tfidf(seqs([1, 2]), TfidfConfig(1, 1, 1)))
        payload["word_vocab"] = word_vocab
        with pytest.raises(FeatureError, match="word_vocab"):
            tfidf_from_dict(payload)

    def test_literal_unknown_word_loads(self):
        # a corpus holding the word "<unk>" lists it twice
        vocab = fit_word_vocab(["<unk> a", "b"])
        assert vocab == ["<unk>", "<unk>", "a", "b"]
        model = fit_tfidf(encode_words(vocab, ["<unk> a", "b"]),
                          TfidfConfig(1, 1, 1))
        model.word_vocab = vocab
        assert tfidf_from_dict(tfidf_to_dict(model)).word_vocab == vocab
        payload = tfidf_to_dict(model)
        payload["word_vocab"] = None
        assert tfidf_from_dict(payload).word_vocab is None


class TestSharedPayload:
    """A payload equal to that of a live loaded model returns that model."""

    @staticmethod
    def fitted(config=TfidfConfig(1, 2, 1)):
        return fit_tfidf(seqs([1, 2, 3], [2, 3], [3, 1]), config)

    def test_equal_payloads_return_one_model(self):
        model = self.fitted()
        first = tfidf_from_dict(tfidf_to_dict(model))
        assert tfidf_from_dict(tfidf_to_dict(model)) is first
        # the n-gram table the first transform builds is shared too
        transform(first, seqs([1, 2])[0])
        again = tfidf_from_dict(tfidf_to_dict(model))
        assert again._ngram_table is first._ngram_table

    def test_shared_arrays_read_only(self):
        loaded = tfidf_from_dict(tfidf_to_dict(self.fitted()))
        vocabulary = loaded.vocabulary
        for array in (vocabulary.ids, vocabulary.lengths, vocabulary.df,
                      loaded.idf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_registry_lets_go_with_the_last_holder(self):
        payload = tfidf_to_dict(self.fitted())
        idf = payload["idf"]
        held = sys.getrefcount(idf)
        first = tfidf_from_dict(payload)
        second = tfidf_from_dict(tfidf_to_dict(self.fitted()))
        assert second is first
        model = weakref.ref(first)
        del first
        gc.collect()
        assert model() is second
        del second
        gc.collect()
        assert model() is None
        assert not any(idf in key for key in features._LIVE.keys())
        assert sys.getrefcount(idf) == held  # no key holds the string
        assert tfidf_from_dict(payload) is not None

    @pytest.mark.parametrize("edit", [
        lambda p: repack(p, "idf", lambda a: a.__setitem__(
            0, np.nextafter(a[0], np.inf))),
        lambda p: p["config"].update(sublinear_tf=True),
        lambda p: set_payload_ngrams(
            p, tfidf_from_dict(p).vocabulary.ngrams[::-1]),
        lambda p: p.update(word_vocab=[features.WORD_UNKNOWN, "a", "b"]),
        lambda p: p.update(document_count=p["document_count"] + 1),
    ], ids=["idf-ulp", "sublinear_tf", "columns", "word_vocab",
            "document_count"])
    def test_payloads_that_differ_not_shared(self, edit):
        model = self.fitted()
        live = tfidf_from_dict(tfidf_to_dict(model))
        payload = tfidf_to_dict(model)
        edit(payload)
        loaded = tfidf_from_dict(payload)
        assert loaded is not live
        assert not np.shares_memory(loaded.idf, live.idf)
        # loaded as if alone: its own payload's values
        assert tfidf_to_dict(loaded) == payload

    def test_float_ngram_max_neither_shared_nor_loaded(self):
        # 3.0 == 3, and a model with ngram_max 3.0 once crashed transform
        live = tfidf_from_dict(tfidf_to_dict(self.fitted(
            TfidfConfig(1, 3, 1))))
        payload = tfidf_to_dict(live)
        payload["config"]["ngram_max"] = 3.0
        with pytest.raises(FeatureError, match="ngram_max must be an integer"):
            tfidf_from_dict(payload)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(word_vocab=["a"]), "word_vocab"),
        (lambda p: repack(p, "df", lambda a: a[:-1]), "df/idf"),
        (lambda p: p["config"].update(min_df=0), "min_df"),
        (lambda p: p.update(document_count=-1), "document_count"),
        # refused by the n-gram table, which loading builds
        (lambda p: set_payload_ngrams(p, [(1,), (2,), (3,), (1, 2), (2, 3),
                                          (1, 2)]), "duplicate ngrams"),
    ], ids=["word_vocab", "df", "config", "document_count", "duplicate"])
    def test_rejected_payload_leaves_registry(self, edit, message):
        model = self.fitted()
        live = tfidf_from_dict(tfidf_to_dict(model))
        before = dict(features._LIVE.items())
        payload = tfidf_to_dict(model)
        edit(payload)
        with pytest.raises(FeatureError, match=message):
            tfidf_from_dict(payload)
        after = dict(features._LIVE.items())
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
        assert tfidf_from_dict(tfidf_to_dict(model)) is live


# SHA-256 of indptr, cols and vals of a CLI-default fit (BPE vocab 5000,
# 1-3-grams, min_df 2, l2) on synth_corpus(150, 1, 0.0004), recorded with
# the Counter featurizer on x86-64 with numpy 2.x.
CLI_DEFAULT_CSR_SHA256 = (
    "6f5bdbfd5ae3af637ffd12de745f35ef814840c30dd7c5a15200bd96499aac92")


def test_cli_default_fit_csr_bytes_pinned():
    corpus = synth_corpus(150, 1, 0.0004)
    vocab = train_bpe(corpus.texts, vocab_size=DEFAULT_VOCAB_SIZE)
    sequences = [encode(vocab, t) for t in corpus.texts]
    X = transform_corpus(fit_tfidf(sequences, TfidfConfig()), sequences)
    digest = hashlib.sha256()
    for array in (X.indptr, X.cols, X.vals):
        digest.update(array.tobytes())
    assert (X.n_rows, X.n_cols, X.nnz) == (300, 7040, 46347)
    assert digest.hexdigest() == CLI_DEFAULT_CSR_SHA256


def test_flattened_list_adds_little_to_transform_peak():
    # A TokenSequence list is flattened once at entry; its flat ids (8
    # bytes a token) are released before the matrix is assembled, the
    # step that sets the peak.  Held to the end, they added all 8 bytes.
    corpus = synth_corpus(600, seed=5, divergence=0.0004)
    flat = encode_words(fit_word_vocab(corpus.texts[:300]), corpus.texts)
    sequences = token_sequences(flat)
    model = fit_tfidf(flat, TfidfConfig())
    transform_corpus(model, flat)
    flat_peak = traced_peak(lambda: transform_corpus(model, flat))
    list_peak = traced_peak(lambda: transform_corpus(model, sequences))
    assert list_peak - flat_peak < 0.5 * 8 * len(flat.ids), (
        (list_peak - flat_peak) / len(flat.ids))


def test_transform_peak_memory_no_higher_than_counter_path():
    corpus = synth_corpus(600, seed=5, divergence=0.0004)
    vocab = fit_word_vocab(corpus.texts[:300])
    sequences = token_sequences(encode_words(vocab, corpus.texts))
    assert sum(map(len, sequences)) >= 150_000
    model = fit_tfidf(sequences[:300], TfidfConfig())
    oracle_peak = traced_peak(
        lambda: transform_corpus_oracle(model, sequences))
    array_peak = traced_peak(lambda: transform_corpus(model, sequences))
    assert array_peak <= oracle_peak
