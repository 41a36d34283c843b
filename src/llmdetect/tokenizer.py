"""Byte-pair-encoding tokenizer built from scratch.

Training initializes every character as a symbol (plus an end-of-word
marker per whitespace-delimited word), repeatedly merges the most frequent
adjacent symbol pair into a new symbol, and records the merge order.  Ties
on frequency go to the lexicographically smallest (left, right) pair, and
training stops early once no pair occurs at least twice.  A merge rewrites
only the positions its pair occupies and the counts of the pairs beside
them, so its cost is that of its occurrences, not of the words holding
them: one long word trains in time about linear in its length.

Token id layout: id 0 is the reserved unknown sentinel, ids then cover the
initial symbols in sorted order followed by merged symbols in merge order.

Encoding merges each whitespace-delimited word on its own, by one
encoder: ``encode_corpus`` gives a whole corpus's ids in one int64 array
(``TokenCorpus``), gathered with numpy from the ids of its distinct
words, all encoded in one batched numpy pass.  ``encode`` defers: it
gives a ``TokenSequence`` pending on its text and vocabulary, and
``encode_pending`` encodes a list's pending sequences in one
``encode_corpus`` call per vocabulary (a sequence read on its own is a
one-text corpus).
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import TokenizerError
from .files import canonical_json, parse_json
from .schema import Rule, object_with

UNKNOWN_SYMBOL = "<unk>"
END_OF_WORD = "</w>"
FORMAT_VERSION = 1
_VOCAB = "vocabulary file"  # holds exactly _VOCAB_KEYS
_VOCAB_KEYS = ("format_version", "end_of_word_marker", "merges", "symbols")
_VERSION = Rule(int, FORMAT_VERSION, FORMAT_VERSION)

DEFAULT_VOCAB_SIZE = 5000
MIN_PAIR_FREQUENCY = 2

_NO_RANK = np.iinfo(np.int64).max

# A packed sort key is a key shifted left past its index, and must fit in
# this many bits, those of a non-negative int64.
_KEY_BITS = 63


def _stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 keys in ascending order, and the stable order that sorts
    them.  Where every key is non-negative and fits, that is one np.sort
    of key << b | index, b the bit length of the key count: the packed
    values are distinct, and equal keys order by index.  Else it is a
    stable argsort."""
    b = len(keys).bit_length()
    if (len(keys) and keys.min() >= 0
            and b + int(keys.max()).bit_length() <= _KEY_BITS):
        packed = keys << b
        packed |= np.arange(len(keys))
        packed.sort()
        order = packed & ((1 << b) - 1)
        packed >>= b
        return packed, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


@dataclass
class BpeVocab:
    """Merge rules as (left, right) pairs in rank order, a rule's rank its
    place in the list, plus the symbol table they produced."""

    merges: list[tuple[str, str]]
    symbols: dict[str, int]
    end_of_word_marker: str = END_OF_WORD
    unknown_id = 0  # the id of UNKNOWN_SYMBOL in every vocabulary
    # Built by the first encode, not at load: load_vocab runs in every
    # command.  It holds arrays only, so no cycle runs through it.
    _pair_table: _PairTable | None = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def id_to_symbol(self) -> list[str]:
        out = [""] * len(self.symbols)
        for sym, idx in self.symbols.items():
            out[idx] = sym
        return out


class _Numbering(dict):
    """Key -> its number, keys numbered in first-seen order."""

    def __missing__(self, key) -> int:
        number = self[key] = len(self)
        return number


class TokenSequence:
    """Token ids produced by encoding one text.

    ``TokenSequence(ids)`` holds its ids.  ``encode`` gives one pending on
    its text and vocabulary, whose ids are worked out at their first read
    (``encode_pending``), after which it holds only them."""

    __slots__ = ("_ids", "_pending")

    def __init__(self, ids: tuple[int, ...]):
        self._ids = ids
        self._pending: tuple[str, BpeVocab] | None = None

    @property
    def ids(self) -> tuple[int, ...]:
        if self._pending is not None:
            encode_pending([self])
        return self._ids

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ids == other.ids

    def __hash__(self) -> int:
        return hash((self.ids,))

    def __repr__(self) -> str:
        return f"TokenSequence(ids={self.ids!r})"


@dataclass(frozen=True, eq=False)
class TokenCorpus:
    """The token ids of a corpus's documents in one int64 array, document
    after document, and each document's length."""

    ids: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)


def _pair_heap(pair_counts: dict[tuple[str, str], int]) -> list:
    """One (-count, pair) entry for each pair that can still be merged."""
    heap = [(-count, pair) for pair, count in pair_counts.items()
            if count >= MIN_PAIR_FREQUENCY]
    heapq.heapify(heap)
    return heap


def train_bpe(texts: list[str], vocab_size: int = DEFAULT_VOCAB_SIZE) -> BpeVocab:
    """Learn merge rules until the symbol table reaches vocab_size or no
    adjacent pair occurs at least twice.

    Each merge is popped from a heap of (-count, pair) entries: the most
    frequent pair, ties to the lexicographically smallest.  Entries are
    never updated in place: after each merge, every pair whose count it
    changed is pushed again, and a popped entry whose count is not the
    pair's live count is stale and dropped.  Only pairs that occur at
    least MIN_PAIR_FREQUENCY times are pushed, so an empty heap means no
    pair repeats.  The heap is rebuilt from the live counts once stale
    entries outnumber live ones.

    The distinct words' symbols sit in one flat list, word after word,
    linked to their neighbours within the word, and each pair keeps the
    positions of its left symbol.  A merge visits only its pair's
    positions, in ascending order (word by word, left to right), skips
    those that no longer hold the pair (in a run of a self-pair such as
    (a, a), so every other hit), rewrites each occurrence in place and
    moves the counts of the pairs beside it.
    """
    word_freq = Counter()
    for text in texts:
        word_freq.update(text.split())
    if not word_freq:
        raise TokenizerError("empty corpus: no whitespace-delimited words found")

    chars = sorted({ch for word in word_freq for ch in word} | {END_OF_WORD})
    symbols: dict[str, int] = {UNKNOWN_SYMBOL: 0}
    for ch in chars:
        symbols[ch] = len(symbols)
    if vocab_size < len(symbols):
        raise TokenizerError(
            f"vocab_size {vocab_size} is below the {len(symbols)} initial "
            f"symbols (characters + marker + unknown sentinel)")

    # Distinct word types, each ending in the marker; merges never cross
    # word boundaries.  A symbol absorbed by a merge becomes None, and the
    # links skip it: nxt[p] and prv[p] are -1 at a word's ends.
    sym: list[str | None] = []
    freq: list[int] = []  # each position's word frequency
    for word in sorted(word_freq):
        sym += word
        sym.append(END_OF_WORD)
        freq += repeat(word_freq[word], len(word) + 1)
    at = list(range(len(sym)))  # the links share these int objects
    nxt = at[1:] + [-1]
    prv = [-1] + at[:-1]
    # each pair's count, and the positions of its left symbol
    pair_counts: dict[tuple[str, str], int] = {}
    where: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for p, pair in zip(at, zip(sym, sym[1:])):
        if pair[0] == END_OF_WORD:  # the next word starts at p + 1
            nxt[p] = prv[p + 1] = -1
            continue
        pair_counts[pair] = pair_counts.get(pair, 0) + freq[p]
        where[pair].append(p)
    del at
    heap = _pair_heap(pair_counts)
    n_live = len(heap)  # pairs counted at least MIN_PAIR_FREQUENCY times

    merges: list[tuple[str, str]] = []
    while len(symbols) < vocab_size:
        while heap:
            neg_count, best_pair = heapq.heappop(heap)
            if pair_counts.get(best_pair) == -neg_count:
                break
        else:
            break

        left, right = best_pair
        merged = left + right
        if merged in (UNKNOWN_SYMBOL, END_OF_WORD):
            raise TokenizerError(
                f"corpus would form the reserved symbol {merged!r}")
        merges.append(best_pair)
        if merged not in symbols:
            symbols[merged] = len(symbols)

        # count changes of this merge, summed over its occurrences
        changes: dict[tuple[str, str], int] = {}
        positions = where.pop(best_pair)
        positions.sort()
        for p in positions:
            q = nxt[p]
            if sym[p] != left or sym[q] != right:
                continue  # stale: merged away since it was listed
            f = freq[p]
            changes[best_pair] = changes.get(best_pair, 0) - f
            pred = prv[p]
            if pred >= 0:
                s = sym[pred]
                pair = (s, left)
                changes[pair] = changes.get(pair, 0) - f
                pair = (s, merged)
                changes[pair] = changes.get(pair, 0) + f
                where[pair].append(pred)
            succ = nxt[q]
            if succ >= 0:
                s = sym[succ]
                pair = (right, s)
                changes[pair] = changes.get(pair, 0) - f
                pair = (merged, s)
                changes[pair] = changes.get(pair, 0) + f
                where[pair].append(p)
                prv[succ] = p
            sym[p] = merged
            sym[q] = None
            nxt[p] = succ

        for pair, n in changes.items():
            if not n:
                continue
            before = pair_counts.get(pair, 0)
            count = before + n
            if count:
                pair_counts[pair] = count
            else:
                del pair_counts[pair]
                where.pop(pair, None)
            n_live += ((count >= MIN_PAIR_FREQUENCY)
                       - (before >= MIN_PAIR_FREQUENCY))
            if count >= MIN_PAIR_FREQUENCY:
                heapq.heappush(heap, (-count, pair))
        if len(heap) > 2 * n_live:
            heap = _pair_heap(pair_counts)

    return BpeVocab(merges=merges, symbols=symbols)


class _PairTable(NamedTuple):
    """A vocabulary's merge rules as arrays, for ``_encode_batch``.

    Every string that a symbol or a rule names has an id: a symbol keeps
    its vocabulary id and the other strings follow.  Two ids come last:
    one for every character that nothing names, then the gap that
    ``_encode_batch`` puts between words.  A pair's key is
    left * n_ids + right, and its order is its place among the rules by
    rank.  ``keys`` and ``char_codes`` end in an entry above every real
    one, so a search never runs off their end."""

    n_ids: int
    keys: np.ndarray        # sorted pair keys
    orders: np.ndarray      # each key's order; _NO_RANK for the last
    merged: np.ndarray      # order -> the merged string's id
    char_codes: np.ndarray  # sorted code points of one-character strings,
    char_ids: np.ndarray    # and of "\t" (the marker) and "\n" (the gap)


def _pair_table(vocab: BpeVocab) -> _PairTable:
    ids = dict(vocab.symbols)
    ranks = {pair: rank for rank, pair in enumerate(vocab.merges)}
    by_rank = sorted(ranks, key=ranks.__getitem__)
    merged = [ids.setdefault(left + right, len(ids))
              for left, right in by_rank]
    for string in set(chain.from_iterable(by_rank)).difference(ids):
        ids[string] = len(ids)
    marker = ids.setdefault(vocab.end_of_word_marker, len(ids))
    chars = {ord(s): i for s, i in ids.items() if len(s) == 1}
    chars[ord("\t")] = marker
    unknown = len(ids)
    chars[ord("\n")] = unknown + 1
    chars[0x110000] = unknown
    n_ids = unknown + 2
    pairs = np.fromiter(map(ids.__getitem__, chain.from_iterable(by_rank)),
                        dtype=np.int64, count=2 * len(by_rank))
    keys, by_key = _stable_sort(
        np.append(pairs[0::2] * n_ids + pairs[1::2], n_ids * n_ids))
    codes = sorted(chars)
    return _PairTable(
        n_ids, keys, np.append(np.arange(len(by_rank)), _NO_RANK)[by_key],
        np.array(merged, dtype=np.int64), np.array(codes, dtype=np.int64),
        np.array([chars[c] for c in codes], dtype=np.int64))


def _pair_orders(table: _PairTable, left: np.ndarray,
                 right: np.ndarray) -> np.ndarray:
    """The order of each (left, right) pair; _NO_RANK where no rule has
    it.  numpy searches sorted queries over twice as fast as unsorted
    ones, a gain a little larger than a packed sort of them costs, so the
    keys are searched in sorted order and the answers put back."""
    keys = left * table.n_ids + right
    at, by_key = _stable_sort(keys)
    at[by_key] = table.keys.searchsorted(at)  # each key's place in the table
    return np.where(table.keys[at] == keys, table.orders[at], _NO_RANK)


def _encode_batch(vocab: BpeVocab, words: list[str]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each word's ids, merge rules applied greedily in ascending rank
    order and symbols missing from the table mapped to the unknown id
    (``tests/oracles.py::encode_oracle`` is that loop, word by word), in
    numpy rounds: the ids of every word in one int64 array, then each
    word's start and length in it.
    The words, none holding whitespace, sit in one symbol array, each
    after a gap and before the marker; a gap pairs with nothing.  A round
    takes each word's lowest-rank pair and merges its occurrences left to
    right without overlap (in a run of adjacent hits of a self-pair such
    as (a, a), every other one), then looks up again only the pairs
    beside a merge.  Words with no ranked pair left are taken out of the
    arrays once they hold half of them, so a long word does not keep the
    rest in every round."""
    if not words:
        return (np.zeros(0, dtype=np.int64),) * 3
    if vocab._pair_table is None:
        vocab._pair_table = _pair_table(vocab)
    table = vocab._pair_table
    gap = table.n_ids - 1
    text = "\n" + "\t\n".join(words) + "\t\n"
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                          dtype="<u4")
    at = table.char_codes.searchsorted(codes)
    sym = np.where(table.char_codes[at] == codes, table.char_ids[at],
                   table.char_ids[-1])
    del codes, at
    order = np.full(len(sym), _NO_RANK, dtype=np.int64)
    order[:-1] = _pair_orders(table, sym[:-1], sym[1:])
    length = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    length += 2  # the gap and the marker
    word = np.arange(len(words))  # the words still in the arrays
    out_words, out_syms, out_len = [], [], []
    while len(word):
        ends = length.cumsum()
        best = np.minimum.reduceat(order, ends - length)
        done = best == _NO_RANK
        if 2 * length[done].sum() >= ends[-1]:
            leaving = np.append(done.repeat(length), False)  # not the last gap
            out_words.append(word[done])
            out_syms.append(sym[leaving])
            out_len.append(length[done])
            sym, order = sym[~leaving], order[~leaving]
            word, length = word[~done], length[~done]
            continue
        best[done] = -1  # no pair's order
        hits = np.flatnonzero(order[:-1] == best.repeat(length))
        adjacent = hits[1:] == hits[:-1] + 1
        if adjacent.any():  # a run of self-pair hits merges every other
            n = np.arange(len(hits))
            run_first = np.maximum.accumulate(
                np.where(np.r_[True, ~adjacent], n, 0))
            hits = hits[(n - run_first) % 2 == 0]
        length -= np.bincount(ends.searchsorted(hits, "right"),
                              minlength=len(length))
        sym[hits] = table.merged[order[hits]]
        keep = np.ones(len(sym), dtype=bool)
        keep[hits + 1] = False
        sym, order = sym[keep], order[keep]
        hits -= np.arange(len(hits))
        look = np.concatenate([hits - 1, hits])
        order[look] = _pair_orders(table, sym[look], sym[look + 1])

    ids = np.concatenate(out_syms)
    ids = ids[ids != gap]
    ids[ids >= len(vocab.symbols)] = BpeVocab.unknown_id
    counts = np.concatenate(out_len) - 1  # less the gap
    word = np.concatenate(out_words)
    start, length = np.empty_like(word), np.empty_like(word)
    start[word] = counts.cumsum() - counts
    length[word] = counts
    return ids, start, length


def encode(vocab: BpeVocab, text: str) -> TokenSequence:
    """Segment text into subword token ids, word by whitespace-delimited
    word: a sequence pending on the text and vocabulary, whose ids are
    ``encode_corpus``'s for the text, worked out at their first read."""
    seq = TokenSequence(())
    seq._pending = (text, vocab)
    return seq


def encode_pending(sequences: list[TokenSequence]) -> TokenCorpus | None:
    """Work out the ids of the list's pending sequences, those pending on
    one vocabulary in one ``encode_corpus`` call, and fill them in; each
    then holds its ids only.  When every sequence was pending on one
    vocabulary, return that call's corpus, the list's ids; else None."""
    groups: dict[int, list[TokenSequence]] = {}
    for seq in sequences:
        if seq._pending is not None:
            groups.setdefault(id(seq._pending[1]), []).append(seq)
    corpus = None
    for group in groups.values():
        vocab = group[0]._pending[1]
        corpus = encode_corpus(vocab, [seq._pending[0] for seq in group])
        # Through an array of the vocabulary's ids as Python ints, so the
        # tuples share one int object per id rather than one per token.
        flat = np.arange(len(vocab.symbols), dtype=object)[corpus.ids].tolist()
        ends = corpus.lengths.cumsum().tolist()
        for seq, start, end in zip(group, [0, *ends], ends):
            seq._ids, seq._pending = tuple(flat[start:end]), None
    if len(groups) == 1 and len(group) == len(sequences):
        return corpus
    return None


def map_words(texts, lookup) -> TokenCorpus:
    """The corpus whose ids are each text's whitespace-delimited words
    mapped through ``lookup``, splitting one text at a time."""
    numbers = [list(map(lookup, text.split())) for text in texts]
    lengths = np.fromiter(map(len, numbers), dtype=np.int64,
                          count=len(numbers))
    ids = np.fromiter(chain.from_iterable(numbers), dtype=np.int64,
                      count=int(lengths.sum()))
    return TokenCorpus(ids, lengths)


def encode_corpus(vocab: BpeVocab, texts: list[str]) -> TokenCorpus:
    """Every text's token ids, flat: the corpus's words are numbered in
    first-seen order, the distinct words are encoded in one
    ``_encode_batch`` call, and the id spans are gathered by word
    number."""
    numbering = _Numbering()
    words = map_words(texts, numbering.__getitem__)
    piece_ids, piece_start, piece_len = _encode_batch(vocab, list(numbering))
    del numbering
    # Position j of word w's span reads piece_ids at j + shift[w]: w's
    # piece start less the span's own start.  Each array is released at
    # its last use, so at most three word-length arrays are held at once.
    span_len = piece_len[words.ids]
    shift = piece_start[words.ids]
    word_ends = np.cumsum(words.lengths)
    del words
    ends = np.zeros(len(span_len) + 1, dtype=np.int64)  # ends[0] = 0
    np.cumsum(span_len, out=ends[1:])
    lengths = np.diff(ends[word_ends], prepend=0)
    shift -= ends[1:]
    del ends
    shift += span_len
    index = np.repeat(shift, span_len)
    del shift, span_len
    index += np.arange(len(index))
    return TokenCorpus(piece_ids[index], lengths)


def decode(vocab: BpeVocab, ids) -> str:
    """Invert encoding: join the ids' symbols, markers as single spaces."""
    table = vocab.id_to_symbol()
    parts: list[str] = []
    for token_id in ids:
        if token_id == vocab.unknown_id:
            raise TokenizerError("sequence contains the unknown id; not invertible")
        if not 0 <= token_id < len(table):
            raise TokenizerError(f"token id {token_id} outside the vocabulary")
        parts.append(table[token_id])
    return "".join(parts).replace(vocab.end_of_word_marker, " ").rstrip(" ")


def save_vocab(vocab: BpeVocab) -> bytes:
    """Canonical serialization; equal vocabularies produce identical bytes."""
    payload = {
        "format_version": FORMAT_VERSION,
        "end_of_word_marker": vocab.end_of_word_marker,
        "merges": vocab.merges,
        "symbols": vocab.id_to_symbol(),
    }
    return canonical_json(payload)


def load_vocab(data: bytes) -> BpeVocab:
    payload = parse_json(data, _VOCAB, TokenizerError)
    object_with(payload, _VOCAB_KEYS, _VOCAB, TokenizerError)
    _VERSION.check(f"{_VOCAB}: format_version", payload["format_version"],
                   TokenizerError)
    raw_symbols, marker = payload["symbols"], payload["end_of_word_marker"]
    Rule(str).check_each(f"{_VOCAB}: symbols", raw_symbols, TokenizerError)
    symbols = {s: i for i, s in enumerate(raw_symbols)}
    if len(symbols) != len(raw_symbols) or raw_symbols[:1] != [UNKNOWN_SYMBOL]:
        raise TokenizerError(f"{_VOCAB}: symbols must be distinct, the first "
                             f"the reserved {UNKNOWN_SYMBOL!r} sentinel")
    # a list scan, as a marker of any JSON type may be looked up there
    if not marker or marker not in raw_symbols:
        raise TokenizerError(f"{_VOCAB}: end_of_word_marker must be one of "
                             f"the symbols, not empty, got {marker!r}")

    # [left, right] string pairs, checked as two lists: quicker than by pair
    raw_merges = payload["merges"]
    Rule(list).check_each(f"{_VOCAB}: merges", raw_merges, TokenizerError)
    if set(map(len, raw_merges)) - {2}:
        raise TokenizerError(f"{_VOCAB}: merges must be [left, right] pairs")
    lefts, rights = (list(map(itemgetter(i), raw_merges)) for i in (0, 1))
    Rule(str).check_each(f"{_VOCAB}: left of merges", lefts, TokenizerError)
    Rule(str).check_each(f"{_VOCAB}: right of merges", rights, TokenizerError)
    missing = set(map(str.__add__, lefts, rights)).difference(symbols)
    if missing:
        raise TokenizerError(f"{_VOCAB}: merged symbol {min(missing)!r} "
                             f"missing from symbols")
    return BpeVocab(merges=list(zip(lefts, rights)), symbols=symbols,
                    end_of_word_marker=marker)
