import gc
import json
import random
import string
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llmdetect.corpus import synth_corpus
from llmdetect.errors import TokenizerError
from llmdetect.features import TfidfConfig, fit_tfidf
from llmdetect.tokenizer import (DEFAULT_VOCAB_SIZE, END_OF_WORD,
                                 UNKNOWN_SYMBOL, TokenCorpus, TokenSequence,
                                 decode, encode, encode_corpus,
                                 encode_pending, load_vocab, save_vocab,
                                 train_bpe)
from conftest import traced_peak
from oracles import bpe_merges_oracle, encode_oracle, train_bpe_oracle


def random_corpus(seed, max_words=50, alphabet="abcdef"):
    rng = random.Random(seed)
    n_words = rng.randint(1, max_words)
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
             for _ in range(n_words)]
    # a couple of texts, words distributed between them
    cut = rng.randint(0, n_words)
    return [" ".join(words[:cut]), " ".join(words[cut:])]


class TestTraining:
    def test_first_merge_is_most_frequent_pair(self):
        # "aaab" twice: pair (a,a) occurs 4 times, beats (a,b) at 2
        vocab = train_bpe(["aaab aaab"], vocab_size=50)
        assert vocab.merges[0] == ("a", "a")

    def test_zero_merges_when_budget_is_initial_symbols(self):
        initial = len({"a", "b"}) + 2  # chars + marker + unknown sentinel
        vocab = train_bpe(["ab"], vocab_size=initial)
        assert vocab.merges == []
        assert set(vocab.symbols) == {"<unk>", "</w>", "a", "b"}

    def test_stops_when_no_pair_repeats(self):
        # every adjacent pair inside "abcdef" is unique across the corpus
        vocab = train_bpe(["abcdef"], vocab_size=1000)
        assert vocab.merges == []

    def test_vocab_size_below_charset_rejected(self):
        with pytest.raises(TokenizerError):
            train_bpe(["abcdef"], vocab_size=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TokenizerError):
            train_bpe(["   ", ""], vocab_size=100)

    def test_merges_are_pairs_of_symbols(self):
        vocab = train_bpe(["the cat the hat the bat"], vocab_size=60)
        assert vocab.merges
        for left, right in vocab.merges:
            assert left + right in vocab.symbols

    def test_ids_dense_and_unique(self):
        vocab = train_bpe(["banana bandana"], vocab_size=40)
        ids = sorted(vocab.symbols.values())
        assert ids == list(range(len(vocab.symbols)))

    def test_matches_recount_oracle(self):
        for seed in range(25):
            texts = random_corpus(seed)
            if not any(t.split() for t in texts):
                continue
            vocab = train_bpe(texts, vocab_size=500)
            expected = bpe_merges_oracle(texts, max_merges=20)
            got = vocab.merges[:20]
            assert got == expected[:len(got)] and len(got) == min(
                20, len(expected)), f"seed {seed}"

    def test_monotone_vocabulary(self):
        # a larger budget extends, never rewrites, the merge list
        texts = ["she sells sea shells by the sea shore " * 3]
        small = train_bpe(texts, vocab_size=30)
        large = train_bpe(texts, vocab_size=60)
        assert large.merges[:len(small.merges)] == small.merges


# Alphabets for the heap trainer's oracle comparison: a one-letter run
# ("aaaa": overlapping pairs), small alphabets (count ties), the
# characters of the reserved symbols, CJK, and combining marks.
_TRAINING_ALPHABETS = ["a", "ab", "abc", "q/</w>", "<unk>", "中文字",
                       "e\u0301\u0327"]
# Corpora the drawn ones may miss.  "/</w>" forms as ("/", "</w>") and as
# ("/</w", ">"), so the second merge adds no symbol; in the first corpus
# that second "/</w>" next to a "q" forms ("q", "/</w>") again, a
# duplicate rule.
_DUPLICATE_RULE = "q/ / q/ q/</w>q/ q/</w>/"
_TWO_PATHS = "/</w>/ </w >/ /</w>"


def _long_word(length):
    """One whitespace-free word over "abcd"."""
    return "".join(random.Random(3).choices("abcd", k=length))


def _bpe_bytes(train, texts, vocab_size):
    """A vocabulary's bytes, or the message training refused with."""
    try:
        return save_vocab(train(texts, vocab_size))
    except TokenizerError as exc:
        return str(exc)


@st.composite
def _training_inputs(draw):
    alphabet = draw(st.sampled_from(_TRAINING_ALPHABETS))
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=8),
                          max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(words)), max_size=2)))
    bounds = [0, *cuts, len(words)]
    texts = [" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:])]
    texts += draw(st.lists(st.text(" \t\n\u3000", max_size=3), max_size=2))
    initial = len(set("".join(words)) | {END_OF_WORD}) + 1  # + <unk>
    vocab_size = draw(st.one_of(st.integers(initial - 2, initial + 2),
                                st.integers(initial, initial + 60),
                                st.just(10 ** 9)))
    return texts, vocab_size


class TestHeapTraining:
    """train_bpe picks merges from a heap; the oracle scans every pair."""

    @given(_training_inputs())
    @settings(max_examples=300, deadline=None)
    @example(([_DUPLICATE_RULE], 1000))
    @example(([_TWO_PATHS], 1000))
    @example((["<unk> <unk>"], 100))
    @example((["</w></w> </w>"], 100))
    @example((["aaaa aaaa aaa", "aaaaa"], 100))
    @example((["中文 中文 文字", "e\u0301e\u0301 e\u0301"], 100))
    @example((["  \t", "\u3000"], 50))
    @example((["a" * 101], 1000))
    @example((["ab" * 64], 1000))
    @example((["aab" * 40 + " aab"], 1000))
    def test_matches_scan_oracle(self, inputs):
        texts, vocab_size = inputs
        assert (_bpe_bytes(train_bpe, texts, vocab_size)
                == _bpe_bytes(train_bpe_oracle, texts, vocab_size))

    def test_long_word_matches_scan_oracle(self):
        word = _long_word(2_000)
        assert (_bpe_bytes(train_bpe, [word], DEFAULT_VOCAB_SIZE)
                == _bpe_bytes(train_bpe_oracle, [word], DEFAULT_VOCAB_SIZE))

    def test_long_word_peak_memory(self):
        # The trainer keeps each position's symbol, word frequency, two
        # links and pair-index entries; on this word it peaks at about 117
        # bytes per character.
        word = _long_word(50_000)
        peak = traced_peak(lambda: train_bpe([word], DEFAULT_VOCAB_SIZE))
        assert peak <= 150 * len(word), peak / len(word)

    def test_pair_formed_again_is_merged_again(self):
        rules = train_bpe([_DUPLICATE_RULE], 1000).merges
        assert rules.count(("q", "/</w>")) == 2

    def test_symbol_formed_twice_is_numbered_once(self):
        vocab = train_bpe([_TWO_PATHS], 1000)
        merged = [left + right for left, right in vocab.merges]
        assert merged.count("/</w>") == 2
        assert len(vocab.symbols) == len(set(_TWO_PATHS) - {" "}) + 2 + len(
            set(merged))

    def test_reserved_symbols_refused(self):
        for text, symbol in [("<unk> <unk>", "<unk>"),
                             ("</w></w> </w>", "</w>")]:
            with pytest.raises(TokenizerError,
                               match=f"reserved symbol '{symbol}'"):
                train_bpe([text], 100)

    def test_peak_memory(self):
        # The heap holds at most twice as many entries as there are pairs
        # that can still be merged, and the pair index one entry per pair
        # occurrence ever formed; the scan oracle holds neither, but keeps
        # a symbol list per word and a word set per pair.  On 2,531
        # distinct words the trainer peaks at about 0.97 times the oracle.
        rng = random.Random(7)
        letters = "etaoinshrdlucmfwypvbgkjqxz"
        weights = [1 / (i + 1) for i in range(len(letters))]
        pool = ["".join(rng.choices(letters, weights, k=rng.randint(3, 9)))
                for _ in range(3000)]
        texts = [" ".join(rng.choice(pool) for _ in range(20))
                 for _ in range(300)]
        peak = traced_peak(lambda: train_bpe(texts, 1000))
        oracle_peak = traced_peak(lambda: train_bpe_oracle(texts, 1000))
        assert peak <= 1.3 * oracle_peak, peak / oracle_peak


class TestEncode:
    def test_no_unknowns_on_training_text(self):
        text = "abra cadabra abra"
        vocab = train_bpe([text], vocab_size=100)
        seq = encode(vocab, text)
        assert vocab.unknown_id not in seq.ids

    def test_zero_merges_is_character_segmentation(self):
        vocab = train_bpe(["ab"], vocab_size=4)
        seq = encode(vocab, "ab")
        symbols = vocab.id_to_symbol()
        assert [symbols[i] for i in seq.ids] == ["a", "b", "</w>"]

    def test_training_word_replays_to_final_state(self):
        vocab = train_bpe(["aaab aaab"], vocab_size=100)
        seq = encode(vocab, "aaab")
        # training fully merged the word (with marker) into one symbol
        symbols = vocab.id_to_symbol()
        assert [symbols[i] for i in seq.ids] == ["aaab</w>"]

    def test_unknown_characters_map_to_unknown_id(self):
        vocab = train_bpe(["aa aa"], vocab_size=20)
        seq = encode(vocab, "az")
        assert vocab.unknown_id in seq.ids

    def test_deterministic(self):
        vocab = train_bpe(["deterministic encode call"], vocab_size=60)
        assert encode(vocab, "call encode") == encode(vocab, "call encode")


# Vocabularies learn "abcd"; "e" and "é" stay outside them.  The
# separators are whitespace to str.split: U+2028 (line separator), \x1c
# (file separator) and U+3000 (ideographic space) among them.
_SEPARATORS = " \t\n\u2028\x1c\x1f\u3000"


@st.composite
def _encode_inputs(draw):
    words = draw(st.lists(st.text("abcd", min_size=1, max_size=6),
                          max_size=30))
    vocab = train_bpe(["abcd " + " ".join(words)],
                      vocab_size=draw(st.integers(6, 80)))
    texts = draw(st.lists(st.text("abcdeé" + _SEPARATORS, max_size=40),
                          max_size=8))
    return vocab, texts


def _assert_matches_oracle(corpus, vocab, texts):
    expected = [encode_oracle(vocab, text) for text in texts]
    assert corpus.ids.dtype == corpus.lengths.dtype == np.int64
    assert corpus.ids.tolist() == [i for seq in expected for i in seq.ids]
    assert corpus.lengths.tolist() == [len(seq) for seq in expected]


class TestFlatEncoding:
    """encode_corpus and encode give the oracle's ids, id for id."""

    @given(_encode_inputs())
    @settings(max_examples=200, deadline=None)
    @example((train_bpe(["abcd ab ab"], 20), []))
    @example((train_bpe(["abcd ab ab"], 20),
              ["", "  ", "\u2028", "ab\x1cab\u2028ab", "é e ab ab é",
               "abcd\x1fabcd abcd"]))
    def test_encode_corpus_matches_oracle(self, inputs):
        vocab, texts = inputs
        _assert_matches_oracle(encode_corpus(vocab, texts), vocab, texts)
        # again, with the pair table the first call may have built
        _assert_matches_oracle(encode_corpus(vocab, texts), vocab, texts)

    @given(_encode_inputs())
    @settings(max_examples=200, deadline=None)
    def test_encode_matches_oracle(self, inputs):
        vocab, texts = inputs
        for text in texts:  # each sequence read on its own
            assert encode(vocab, text) == encode_oracle(vocab, text)

    def test_vocabulary_freed_once_sequences_read(self):
        # A pending sequence holds its vocabulary; a read one holds only
        # its ids, and the vocabulary's pair table refers back to nothing.
        vocab = train_bpe(["ab ab ba"], vocab_size=10)
        alone, batched = encode(vocab, "ab ba"), [encode(vocab, "ba")] * 2
        assert alone == encode_oracle(vocab, "ab ba")  # read alone
        encode_pending(batched)
        assert batched[0] == encode_oracle(vocab, "ba")
        assert vocab._pair_table is not None
        ref = weakref.ref(vocab)
        gc.disable()
        try:
            del vocab
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("route", ["encode_corpus", "encode"])
    def test_vocabulary_retains_no_words(self, route):
        # Once the outputs are dropped, the vocabulary holds nothing per
        # word.  A per-text word cache kept about 37 MB for these 200,000
        # distinct words.
        rng = random.Random(11)
        texts = [" ".join("".join(rng.choices(string.ascii_lowercase, k=8))
                          for _ in range(100)) for _ in range(2000)]
        vocab = train_bpe(texts[:20], vocab_size=300)
        encode_corpus(vocab, texts[:1])  # builds the pair table

        def run():
            if route == "encode_corpus":
                encode_corpus(vocab, texts)
            else:
                fit_tfidf([encode(vocab, text) for text in texts],
                          TfidfConfig(1, 1))

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000, retained

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_encode_corpus_matches_encode(self, seed):
        # Sequences read one at a time give the corpus's ids.
        corpus = synth_corpus(150, seed, 0.0004)
        data = save_vocab(train_bpe(corpus.texts[:240], DEFAULT_VOCAB_SIZE))
        flat = encode_corpus(load_vocab(data), corpus.texts)
        vocab = load_vocab(data)
        per_text = [encode(vocab, text) for text in corpus.texts]
        assert flat.ids.tolist() == [i for seq in per_text for i in seq.ids]
        assert flat.lengths.tolist() == list(map(len, per_text))

    def test_peak_memory(self):
        # One text's words at a time: at most 4 int64 arrays of the
        # corpus's token count, plus the table of its distinct words.
        # Holding every text's word list at once, as str objects, takes
        # over 9.
        corpus = synth_corpus(600, seed=5, divergence=0.0004)
        vocab = train_bpe(corpus.texts[:300], vocab_size=DEFAULT_VOCAB_SIZE)
        n_tokens = len(encode_corpus(vocab, corpus.texts).ids)  # pair table
        table = traced_peak(lambda: {w: i for i, w in enumerate(
            {w for text in corpus.texts for w in text.split()})})
        peak = traced_peak(lambda: encode_corpus(vocab, corpus.texts))
        assert peak <= 4 * 8 * n_tokens + table, (peak - table) / n_tokens


def _vocab_bytes(rules, symbols, marker=END_OF_WORD):
    """A vocabulary file that load_vocab accepts: the rules' merged
    strings join the given symbols, after the unknown sentinel."""
    table = [UNKNOWN_SYMBOL]
    for string in [marker, *symbols, *(left + right for left, right in rules)]:
        if string not in table:
            table.append(string)
    return json.dumps({"format_version": 1, "end_of_word_marker": marker,
                       "merges": [list(rule) for rule in rules],
                       "symbols": table}).encode("utf-8")


@st.composite
def _hostile_inputs(draw):
    """A vocabulary load_vocab accepts but train_bpe would never write:
    rules in any rank order, repeated, sharing a merged string, with
    strings (even empty ones) outside the symbol table, and with the
    unknown sentinel's string; "d" and "é" are in no rule, and "d" is
    sometimes a symbol."""
    marker = draw(st.sampled_from([END_OF_WORD, "_", "a"]))
    part = st.one_of(st.text("abc", max_size=3),
                     st.text("abc", max_size=2).map(lambda s: s + marker),
                     st.just(UNKNOWN_SYMBOL))
    rules = draw(st.lists(st.tuples(part, part), max_size=30))
    if rules:
        rules += draw(st.lists(st.sampled_from(rules), max_size=4))
        rules = draw(st.permutations(rules))
    symbols = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "ab",
                                             "ca", marker]), unique=True))
    vocab = load_vocab(_vocab_bytes(rules, draw(st.permutations(symbols)),
                                    marker))
    words = draw(st.lists(st.text("abcdé", min_size=1, max_size=7),
                          max_size=40))
    cut = draw(st.integers(0, len(words)))
    texts = [" ".join(words[:cut]), "\n".join(words[cut:])]
    return vocab, texts + draw(st.lists(st.sampled_from(["", " ", "d é"]),
                                        max_size=2))


@st.composite
def _mixed_sequences(draw):
    """Sequences pending on two vocabularies, some of them already read,
    among constructed ones; and the texts and vocabularies behind them."""
    vocabs = [train_bpe(["abcd " + " ".join(draw(st.lists(
        st.text("abcd", min_size=1, max_size=6), max_size=20)))],
        vocab_size=draw(st.integers(6, 60))) for _ in range(2)]
    entries = draw(st.lists(st.tuples(
        st.sampled_from(["pending", "read", "constructed"]), st.integers(0, 1),
        st.text("abcdeé" + _SEPARATORS, max_size=30)), max_size=10))
    sequences = []
    for kind, which, text in entries:
        if kind == "constructed":
            seq = TokenSequence(ids=encode_oracle(vocabs[which], text).ids)
        else:
            seq = encode(vocabs[which], text)
            if kind == "read":
                len(seq)
        sequences.append(seq)
    return sequences, [(vocabs[which], text) for _, which, text in entries]


class TestPendingSequences:
    """A pending sequence's ids are encode_oracle's, read alone or with
    its list, and it compares and hashes as a constructed one."""

    @given(_mixed_sequences())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_oracle(self, inputs):
        sequences, sources = inputs
        was_pending = [seq._pending is not None for seq in sequences]
        one_vocab = len({id(seq._pending[1]) for seq in sequences
                         if seq._pending is not None}) == 1
        corpus = encode_pending(sequences)
        expected = [encode_oracle(vocab, text).ids for vocab, text in sources]
        assert [seq._pending for seq in sequences] == [None] * len(sequences)
        assert [seq.ids for seq in sequences] == expected
        if sequences and all(was_pending) and one_vocab:
            _assert_matches_oracle(corpus, sources[0][0],
                                   [text for _, text in sources])
        else:
            assert corpus is None

    def test_whole_list_on_one_vocabulary_is_its_corpus(self):
        vocab = train_bpe(["ab ab ba"], vocab_size=10)
        seq = encode(vocab, "ab ba")
        corpus = encode_pending([seq, encode(vocab, ""), seq])
        assert isinstance(corpus, TokenCorpus)
        assert corpus.lengths.tolist() == [len(seq), 0, len(seq)]
        assert encode_pending([seq]) is None  # nothing left pending

    def test_pending_equals_constructed(self):
        vocab = train_bpe(["abra cadabra abra"], vocab_size=40)
        for text in ["abra cadabra", "", "zz abra"]:
            want = encode_oracle(vocab, text)
            assert encode(vocab, text) == want
            assert want == encode(vocab, text)
            assert hash(encode(vocab, text)) == hash(want)
            assert repr(encode(vocab, text)) == repr(want)
            assert len({encode(vocab, text), want}) == 1
        assert encode(vocab, "abra") != encode(vocab, "cadabra")
        assert encode(vocab, "abra") != encode_oracle(vocab, "abra").ids

    def test_read_alone(self):
        vocab = train_bpe(["hello world hello"], vocab_size=60)
        seq = encode(vocab, "hello world")
        assert decode(vocab, seq.ids) == "hello world"
        assert seq._pending is None
        assert len(encode(vocab, "hello")) == len(encode_oracle(vocab,
                                                                "hello"))

    def test_long_word_in_time(self, time_bound):
        # A merge loop that rebuilds the word for every rule it applies
        # took 1.3-1.8 s on this word; the batched pass takes about 0.07 s.
        rng = random.Random(3)
        word = "".join(rng.choice("abcd") for _ in range(20_000))
        # every pair of letters, every pair of those, then the first 1,000
        # distinct adjacent pairs of the word's segmentation by those
        rules = list(product("abcd", repeat=2))
        rules += [(a + b, c + d) for (a, b), (c, d) in product(rules,
                                                               repeat=2)]
        vocab = load_vocab(_vocab_bytes(rules, "abcd"))
        symbols = vocab.id_to_symbol()
        pieces = [symbols[i] for i in encode_corpus(vocab, [word]).ids]
        rules += list(dict.fromkeys(zip(pieces, pieces[1:])))[:1000]
        vocab = load_vocab(_vocab_bytes(rules, "abcd"))
        with time_bound(0.5):
            assert len(encode(vocab, word)) < len(pieces)


class TestHostileVocabularies:
    """encode_corpus and encode give encode_oracle's ids on every
    vocabulary load_vocab accepts."""

    @given(_hostile_inputs())
    @settings(max_examples=300, deadline=None)
    # a rule string ("b") missing from the symbols
    @example((load_vocab(_vocab_bytes([("a", "b")], ["a"])),
              ["ab b ba", "abab"]))
    # a repeated rule: (a, b) ranks after (b, c), so "abc" -> a bc
    @example((load_vocab(_vocab_bytes([("a", "b"), ("b", "c"), ("a", "b")],
                                      ["a", "b", "c"])), ["abc cab"]))
    # two rules whose merged strings are both "abc"
    @example((load_vocab(_vocab_bytes(
        [("a", "b"), ("b", "c"), ("ab", "c"), ("a", "bc"), ("abc", "a")],
        ["a", "b", "c"])), ["abca bcabca"]))
    # a later merge forms an earlier-ranked pair: ab, then (ab, c)
    @example((load_vocab(_vocab_bytes([("ab", "c"), ("a", "b")],
                                      ["a", "b", "c"])), ["abc abcabc"]))
    # a rule on the sentinel's string, beside characters in no rule
    @example((load_vocab(_vocab_bytes([(UNKNOWN_SYMBOL, "a"), ("a", "d")],
                                      ["a"])), ["da éa ad"]))
    # self-pair runs, and words of unknown characters only
    @example((load_vocab(_vocab_bytes([("a", "a"), ("aa", "a")], ["a"])),
              ["a aa aaa aaaa aaaaa", "d éé déd", "", " "]))
    def test_matches_oracle(self, inputs):
        vocab, texts = inputs
        _assert_matches_oracle(encode_corpus(vocab, texts), vocab, texts)
        assert ([encode(vocab, text) for text in texts]
                == [encode_oracle(vocab, text) for text in texts])


class TestDecode:
    def test_round_trip(self):
        vocab = train_bpe(["hello world hello"], vocab_size=60)
        ids = encode_corpus(vocab, ["hello world"]).ids
        assert decode(vocab, ids) == "hello world"
        assert decode(vocab, ids.tolist()) == "hello world"

    def test_empty_sequence(self):
        vocab = train_bpe(["ab"], vocab_size=10)
        assert decode(vocab, ()) == ""

    def test_unknown_id_rejected(self):
        vocab = train_bpe(["ab"], vocab_size=10)
        with pytest.raises(TokenizerError, match="unknown id"):
            decode(vocab, [vocab.unknown_id])

    @pytest.mark.parametrize("token_id", [-1, 10**6])
    def test_id_outside_vocabulary_rejected(self, token_id):
        vocab = train_bpe(["ab"], vocab_size=10)
        with pytest.raises(TokenizerError, match="outside the vocabulary"):
            decode(vocab, [1, token_id])

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, words):
        text = " ".join(words)
        vocab = train_bpe([text], vocab_size=5000)
        assert decode(vocab, encode_corpus(vocab, [text]).ids) == text


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        vocab = train_bpe(["round trip round trip trip"], vocab_size=80)
        loaded = load_vocab(save_vocab(vocab))
        assert loaded.merges == vocab.merges
        assert loaded.symbols == vocab.symbols
        assert loaded.end_of_word_marker == vocab.end_of_word_marker
        assert loaded.unknown_id == vocab.unknown_id

    def test_save_is_canonical(self):
        vocab = train_bpe(["aa bb aa bb"], vocab_size=30)
        assert save_vocab(vocab) == save_vocab(load_vocab(save_vocab(vocab)))

    def test_foreign_version_rejected(self):
        data = save_vocab(train_bpe(["ab ab"], vocab_size=20))
        tampered = data.replace(b'"format_version":1', b'"format_version":2')
        with pytest.raises(TokenizerError, match="format_version"):
            load_vocab(tampered)

    def test_corrupted_payload_names_field(self):
        data = save_vocab(train_bpe(["ab ab"], vocab_size=20))
        tampered = data.replace(b'"merges"', b'"merged"')
        with pytest.raises(TokenizerError,
                           match="vocabulary file: unknown key 'merged'; "
                                 "missing key 'merges'"):
            load_vocab(tampered)

    def test_truncated_input_rejected(self):
        data = save_vocab(train_bpe(["ab ab"], vocab_size=20))
        with pytest.raises(TokenizerError):
            load_vocab(data[:len(data) // 2])

    def test_encode_after_reload_identical(self):
        vocab = train_bpe(["serialize me twice"], vocab_size=60)
        loaded = load_vocab(save_vocab(vocab))
        text = "serialize twice"
        assert encode(vocab, text) == encode(loaded, text)
