"""TF-IDF weighting over token n-grams, producing sparse vectors.

Term weight is tf(t, d) * idf(t) with the smoothed inverse document
frequency idf(t) = ln((1 + N) / (1 + df(t))) + 1, which is bounded below
by 1 and defined for unseen terms.  tf is the raw in-document count, or
1 + ln(count) when sublinear_tf is set.  Columns are assigned to n-grams
in lexicographic token-id order, so fits are deterministic.

Fit and transform work on flat arrays of token ids: a ``TokenCorpus`` as
the tokenizer gives it, or a list of sequences flattened once (those
still pending on a vocabulary are first encoded in one batch), and the
vocabulary holds its n-grams flat too, from fit to bundle and back.  One
walk (``_levels``) numbers the n-grams of a corpus, or the vocabulary's
own, one length at a time by one stable sort of integer keys, up to the
longest one present; the fit counts document frequencies on that sort.
The document-term matrix is built in CSR form from the sorted (row,
column) cells, bit-for-bit that of counting each document's n-grams in a
dictionary (``extract_ngrams``).
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from .errors import FeatureError
from .files import pack, unpack
from .schema import Rule, build, check_fields, declared, object_with
from .sparse import SparseMatrix
from .tokenizer import (TokenCorpus, TokenSequence, _stable_sort,
                        encode_pending, map_words)

Ngram = tuple[int, ...]

WORD_UNKNOWN = "<unk>"


# The fit's rank matrix takes 8 * ngram_max bytes per kept n-gram, 256 at
# this bound.
MAX_NGRAM = 32
# The fit sorts its kept n-grams by one int64 key, their ranks read as
# digits, where every key stays below this bound; else by np.lexsort.
_DIGIT_KEY_BOUND = 2**63


@dataclass(frozen=True)
class TfidfConfig:
    ngram_min: int = declared(1, Rule(int, 1, MAX_NGRAM))
    ngram_max: int = declared(3, Rule(int, 1, MAX_NGRAM))
    min_df: int = declared(2, Rule(int, 1))
    sublinear_tf: bool = declared(False, Rule(bool))
    l2_normalize: bool = declared(True, Rule(bool))

    def __post_init__(self):
        check_fields(self, FeatureError)
        if self.ngram_min > self.ngram_max:
            raise FeatureError(f"need 1 <= ngram_min <= ngram_max <= "
                               f"{MAX_NGRAM}, got "
                               f"({self.ngram_min}, {self.ngram_max})")


@dataclass
class NgramVocabulary:
    """Retained n-grams in column order, held flat: ``ids`` holds their
    token ids end to end and ``lengths`` each one's length (both int64);
    and their document frequencies."""

    ids: np.ndarray
    lengths: np.ndarray
    document_count: int
    df: np.ndarray

    @property
    def ngrams(self) -> list[Ngram]:
        """Each column's n-gram as a tuple, built anew on every read."""
        ids = self.ids.tolist()
        ends = np.cumsum(self.lengths).tolist()
        return [tuple(ids[end - n:end])
                for end, n in zip(ends, self.lengths.tolist())]

    @property
    def ngram_to_col(self) -> dict[Ngram, int]:
        """Each n-gram's column, built anew on every read."""
        return {ngram: col for col, ngram in enumerate(self.ngrams)}


@dataclass
class TfidfModel:
    """Fitted vocabulary with per-column idf weights.

    ``word_vocab`` is only set in whitespace-token mode, where it carries
    the word -> id table (index 0 is the unknown sentinel) inside the model
    instead of an external tokenizer file.
    """

    vocabulary: NgramVocabulary
    idf: np.ndarray
    config: TfidfConfig
    word_vocab: list[str] | None = None
    _ngram_table: _NgramTable | None = field(default=None, repr=False,
                                             compare=False)

    @property
    def n_features(self) -> int:
        return len(self.vocabulary.lengths)


def extract_ngrams(seq: TokenSequence, ngram_min: int, ngram_max: int) -> Counter:
    """All contiguous id subsequences with length in [ngram_min, ngram_max],
    with multiplicity.  Sequences shorter than ngram_min yield what fits."""
    TfidfConfig(ngram_min, ngram_max)  # raises on a bad range
    ids = seq.ids
    counts: Counter = Counter()
    for n in range(ngram_min, ngram_max + 1):
        if n > len(ids):
            break
        for i in range(len(ids) - n + 1):
            counts[ids[i:i + n]] += 1
    return counts


# Documents are featurized in blocks of about this many token positions,
# so the transient arrays of a transform stay the same size however long
# the corpus is.
_BLOCK_TOKENS = 8_192


@dataclass(frozen=True)
class _NgramTable:
    """A vocabulary's n-grams as ``_levels`` numbers them, up to the longest
    that a transform can produce.  ``tokens`` holds the distinct token ids
    in ascending order, so a token's position there is its rank.  Level k
    holds the sorted keys of the length-k prefixes and each one's column,
    or -1 where it is only a prefix of longer n-grams.  ``lookup`` holds
    each id's rank, -1 where it is no token, when the ids are small enough
    for a dense array; else it is None."""

    tokens: np.ndarray
    levels: list[tuple[np.ndarray, np.ndarray]]
    lookup: np.ndarray | None

    def ranks(self, ids: np.ndarray) -> np.ndarray:
        """Each id's rank, or -1 where it is not one of the tokens."""
        if self.lookup is not None:
            # ids below 0 or past the last token read the final -1
            return self.lookup[np.clip(ids, -1, len(self.lookup) - 1)]
        found, rank = _find(self.tokens, ids)
        ranks = np.full(len(ids), -1, dtype=np.int64)
        ranks[found] = rank
        return ranks


def _flat_ids(sequences: list[Ngram]) -> tuple[np.ndarray, np.ndarray]:
    """Every sequence's ids in one int64 array, and each sequence's length."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64,
                          count=len(sequences))
    try:
        ids = np.fromiter(chain.from_iterable(sequences), dtype=np.int64,
                          count=int(lengths.sum()))
    except OverflowError:
        raise FeatureError("token ids must fit in a signed 64-bit integer")
    return ids, lengths


def _token_corpus(corpus_tokens: TokenCorpus | list[TokenSequence]
                  ) -> TokenCorpus:
    """A corpus given as a list of token sequences, flattened once after
    its pending sequences are encoded; a list wholly pending on one
    vocabulary is that encoding's corpus as it is."""
    if isinstance(corpus_tokens, TokenCorpus):
        return corpus_tokens
    corpus = encode_pending(corpus_tokens)
    if corpus is None:
        corpus = TokenCorpus(*_flat_ids([seq.ids for seq in corpus_tokens]))
    return corpus


def _find(sorted_keys: np.ndarray,
          keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ``keys`` that occur in ``sorted_keys``, and where
    they occur there."""
    if not len(sorted_keys):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # searchsorted is about four times as fast on sorted queries, and a
    # packed sort of them costs well under the difference.
    query, order = _stable_sort(keys)
    pos = np.searchsorted(sorted_keys, query)
    hit = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == query
    return order[hit], pos[hit]


def _numbered(keys: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct keys in ascending order, each key's number (the
    position of its value there), and the stable order that sorts the
    keys: ``np.unique(keys, return_inverse=True)`` and the sort under it."""
    ordered, order = _stable_sort(keys)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    number = np.empty(len(keys), dtype=np.int64)
    number[order] = np.cumsum(new) - 1
    return ordered[new], number, order


def _gapped(ranks: np.ndarray,
            lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The token ranks (-1 for unknown tokens) with a -1 gap after every
    sequence, so that no n-gram spans two of them, and the sequence each
    position belongs to."""
    doc = np.repeat(np.arange(len(lengths)), lengths + 1)
    is_token = np.ones(len(doc), dtype=bool)
    is_token[np.cumsum(lengths + 1) - 1] = False
    gapped = np.full(len(doc), -1, dtype=np.int64)
    gapped[is_token] = ranks
    return gapped, doc


def _extend(ranks: np.ndarray, start: np.ndarray, number: np.ndarray, k: int,
            n_tokens: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts of length-(k-1) n-grams (numbered ``number``) that extend
    to length k, and the keys of those length-k n-grams."""
    last = ranks[start + k - 1]
    ok = last >= 0
    return start[ok], number[ok] * n_tokens + last[ok]


def _levels(ranks: np.ndarray, start: np.ndarray, order: np.ndarray,
            n_tokens: int, k_max: int):
    """Yield, for k = 1, 2, ... up to k_max or the longest n-gram starting
    at ``start`` in the gapped ``ranks``, the sorted keys of the distinct
    length-k n-grams, their starts, their numbers (positions in the keys)
    and the stable order that sorts the numbers, in which each n-gram's
    starts follow one another in ascending order.  A 1-gram's key is its
    token's rank, a longer one's the number of its prefix times n_tokens
    plus the rank of its last token.  ``order`` is the 1-grams' order, the
    stable order that sorts ``ranks[start]``."""
    keys, number = np.arange(n_tokens), ranks[start]
    for k in range(1, k_max + 1):
        if k > 1:
            start, key = _extend(ranks, start, number, k, n_tokens)
            keys, number, order = _numbered(key)
        if not len(start):
            return
        yield keys, start, number, order


def fit_tfidf(corpus_tokens: TokenCorpus | list[TokenSequence],
              config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build the n-gram vocabulary (df >= min_df) and idf weights."""
    corpus = _token_corpus(corpus_tokens)
    ids, lengths = corpus.ids, corpus.lengths
    n_docs = len(lengths)
    if not n_docs:
        raise FeatureError("cannot fit TF-IDF on an empty corpus")
    if lengths.max() < config.ngram_min:
        raise FeatureError(f"every document is shorter than ngram_min = "
                           f"{config.ngram_min} tokens; nothing to fit")

    # Number every distinct n-gram of the corpus, count the documents
    # holding each, and read each retained one's ranks at an occurrence.
    tokens, ranks, by_token = _numbered(ids)
    ranks, doc = _gapped(ranks, lengths)
    levels = _levels(ranks, np.flatnonzero(ranks >= 0), by_token,
                     len(tokens), config.ngram_max)
    # Sort orders are released as soon as they are read, here and in the
    # loop, so none is held while the walk builds the next level.
    del by_token
    kept_ranks, kept_df = [], []
    for k, (keys, start, number, order) in enumerate(levels, 1):
        if k < config.ngram_min:
            continue
        n_nodes = len(keys)
        # Sorted by number, an n-gram's starts ascend and so do their
        # documents: it first occurs in a document where (number,
        # document) changes.
        by_number = number[order]
        first = np.diff(by_number * n_docs + doc[start[order]],
                        prepend=-1) != 0
        df = np.bincount(by_number[first], minlength=n_nodes)
        del order, by_number, first
        node = np.flatnonzero(df >= config.min_df)
        kept_df.append(df[node])
        occurrence = np.empty(n_nodes, dtype=np.int64)
        occurrence[number] = start
        mat = np.full((len(node), config.ngram_max), -1, dtype=np.int64)
        mat[:, :k] = ranks[occurrence[node, None] + np.arange(k)]
        kept_ranks.append(mat)

    # Ranks order like token ids and the -1 padding puts a prefix first,
    # so this is the lexicographic order of the id tuples.
    mat = np.concatenate(kept_ranks)
    base = len(tokens) + 1
    if base ** config.ngram_max < _DIGIT_KEY_BOUND:
        # each row's ranks + 1 as the base-(n_tokens + 1) digits of one key
        key = np.zeros(len(mat), dtype=np.int64)
        for column in mat.T:
            key *= base
            key += column
            key += 1
        order = _stable_sort(key)[1]
    else:
        order = np.lexsort(mat.T[::-1])
    mat, df = mat[order], np.concatenate(kept_df)[order]
    # Row-major order reads each n-gram's ranks, then its padding.
    token = mat >= 0
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    vocabulary = NgramVocabulary(ids=tokens[mat[token]],
                                 lengths=token.sum(axis=1, dtype=np.int64),
                                 document_count=n_docs, df=df)
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config)


def _ngram_table(model: TfidfModel) -> _NgramTable:
    """The model's lookup table, built on first use and then cached.

    Every n-gram's length must lie in [ngram_min, ngram_max], so that the
    walk numbers each one at its level; equal n-grams get one number
    there, and are refused."""
    if model._ngram_table is not None:
        return model._ngram_table
    lengths = model.vocabulary.lengths
    tokens, ranks, _ = _numbered(model.vocabulary.ids)
    # Each n-gram is its own sequence, numbered by its column, and is
    # walked from its first position only, so the levels hold its prefixes.
    ranks, col = _gapped(ranks, lengths)
    first = np.cumsum(lengths + 1) - lengths - 1
    by_token = _stable_sort(ranks[first])[1]
    levels = []
    for k, (keys, start, number, _) in enumerate(_levels(
            ranks, first, by_token, len(tokens), model.config.ngram_max), 1):
        cols = np.full(len(keys), -1, dtype=np.int64)
        exact = ranks[start + k] < 0  # the gap after the n-gram follows
        cols[number[exact]] = col[start[exact]]
        if np.count_nonzero(cols >= 0) < np.count_nonzero(exact):
            raise FeatureError("malformed tfidf payload: duplicate ngrams")
        levels.append((keys, cols))
    # Token ids a few times the token count fit a dense lookup; a bundle
    # may hold any int64 id, and those are searched instead.
    lookup = None
    if len(tokens) and tokens[0] >= 0 and tokens[-1] < 4 * len(tokens) + 4096:
        lookup = np.full(int(tokens[-1]) + 2, -1, dtype=np.int64)
        lookup[tokens] = np.arange(len(tokens))
    model._ngram_table = _NgramTable(tokens=tokens, levels=levels,
                                     lookup=lookup)
    return model._ngram_table


def _blocks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Runs [lo, hi) of consecutive sequences starting within the same
    _BLOCK_TOKENS positions (each sequence takes its length plus one)."""
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    edges = np.flatnonzero(np.diff(starts // _BLOCK_TOKENS)) + 1
    bounds = [0, *edges.tolist(), len(lengths)]
    return list(zip(bounds[:-1], bounds[1:]))


def _transform_block(model: TfidfModel, table: _NgramTable, ids: np.ndarray,
                     lengths: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nnz per row, cols, vals) of one block of documents, given their
    token ids and lengths, in CSR order."""
    cfg, n_cols = model.config, model.n_features
    ranks, doc = _gapped(table.ranks(ids), lengths)
    start = np.flatnonzero(ranks >= 0)
    number, cells = ranks[start], [np.zeros(0, dtype=np.int64)]
    for k, (keys, level_cols) in enumerate(table.levels, 1):
        if k > 1:
            start, key = _extend(ranks, start, number, k, len(table.tokens))
            found, number = _find(keys, key)
            start = start[found]
        if k >= cfg.ngram_min:
            col = level_cols[number]
            known = col >= 0
            cells.append(doc[start[known]] * n_cols + col[known])
    # Sorted (row, col) cells are CSR order; their multiplicities are tf.
    cell, counts = np.unique(np.concatenate(cells), return_counts=True)
    rows, cols = np.divmod(cell, max(n_cols, 1))
    if cfg.sublinear_tf:
        distinct, which, _ = _numbered(counts)
        tf = np.array([1.0 + math.log(c) for c in distinct.tolist()])[which]
    else:
        tf = counts.astype(np.float64)
    vals = tf * model.idf[cols]
    nnz = np.bincount(rows, minlength=len(lengths))
    if cfg.l2_normalize:
        # One np.dot per row, as a per-document vector would be normalized:
        # a segmented sum rounds differently.
        norms = np.ones(len(nnz))
        bounds = np.cumsum(nnz).tolist()
        for i, (lo, hi) in enumerate(zip([0, *bounds], bounds)):
            if hi > lo:
                row = vals[lo:hi]
                norm = math.sqrt(float(np.dot(row, row)))
                if norm > 0.0:
                    norms[i] = norm
        vals /= np.repeat(norms, nnz)
    return nnz, cols, vals


def transform_corpus(model: TfidfModel,
                     corpus_tokens: TokenCorpus | list[TokenSequence]
                     ) -> SparseMatrix:
    """Weight every document; out-of-vocabulary n-grams are dropped."""
    table = _ngram_table(model)
    corpus = _token_corpus(corpus_tokens)
    ids, lengths = corpus.ids, corpus.lengths
    offsets = [0, *np.cumsum(lengths).tolist()]
    nnz, cols, vals = [np.zeros(1, dtype=np.int64)], [], []
    for lo, hi in _blocks(lengths):
        block_nnz, block_cols, block_vals = _transform_block(
            model, table, ids[offsets[lo]:offsets[hi]], lengths[lo:hi])
        nnz.append(block_nnz)
        cols.append(block_cols)
        vals.append(block_vals)
    # A flattened list's ids are released before the output is assembled,
    # the step whose transients are largest.
    del corpus, ids
    indptr = np.cumsum(np.concatenate(nnz))
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return SparseMatrix(indptr=indptr, cols=cols, vals=vals,
                        n_rows=len(lengths), n_cols=model.n_features)


# -- whitespace-token fallback -------------------------------------------

def fit_word_vocab(texts: list[str]) -> list[str]:
    """Word -> id table for whitespace-token mode; id 0 is the unknown."""
    words = sorted({w for text in texts for w in text.split()})
    return [WORD_UNKNOWN] + words


def word_vocab_ref(word_vocab: list[str]) -> str:
    """Hash standing in for a tokenizer-file ref in whitespace mode."""
    canonical = json.dumps(word_vocab, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


class _WordTable(dict):
    """Word -> id; words outside the table map to the unknown id 0."""

    def __missing__(self, word: str) -> int:
        return 0


def encode_words(word_vocab: list[str], texts: list[str]) -> TokenCorpus:
    """Map whitespace-delimited words to ids; unknown words map to id 0."""
    table = _WordTable((w, i) for i, w in enumerate(word_vocab))
    return map_words(texts, table.__getitem__)


# -- bundle-embedded serialization ---------------------------------------

def tfidf_to_dict(model: TfidfModel) -> dict:
    vocabulary = model.vocabulary
    return {
        "config": asdict(model.config),
        "document_count": vocabulary.document_count,
        "ngram_ids": pack(vocabulary.ids, "<i8"),
        "ngram_lengths": pack(vocabulary.lengths, "<i8"),
        "df": pack(vocabulary.df, "<i8"),
        "idf": pack(model.idf, "<f8"),
        "word_vocab": model.word_vocab,
    }


# The packed arrays of a payload, in the order they are decoded.
_PACKED = (("ngram_ids", "<i8"), ("ngram_lengths", "<i8"), ("df", "<i8"),
           ("idf", "<f8"))
_PAYLOAD_KEYS = ("config", "document_count", "word_vocab",
                 *(name for name, _ in _PACKED))


class _PayloadKey(tuple):
    """A payload's checked config and document count, then its four packed
    strings.  Keys are equal when those are, the strings as strings; the
    hash reads only the strings' lengths, as hashing them would take a
    pass over each."""

    def __hash__(self):
        return hash((*self[:2], *map(len, self[2:])))


# Every model tfidf_from_dict returned that is still alive, by its
# payload's key; an entry goes when the last holder of its model lets it go.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def tfidf_from_dict(data: dict) -> TfidfModel:
    """The checked model of a bundle's ``tfidf`` payload.

    While a model this returned is alive, a payload with the same config,
    document_count and word_vocab and the same four packed strings (equal
    as strings, not as the numbers they decode to) returns that very
    model, with its n-gram table, and decodes nothing.  Any other payload
    is decoded and checked in full, its n-gram table built on the way.
    Since bundles may share a model, its arrays are read-only."""
    object_with(data, _PAYLOAD_KEYS, "field tfidf", FeatureError)
    config = build(TfidfConfig, data["config"], "field tfidf.config",
                   FeatureError)
    document_count = data["document_count"]
    Rule(int, 0).check("document_count", document_count, FeatureError)
    word_vocab = data["word_vocab"]
    packed = [data[name] for name, _ in _PACKED]
    key = _PayloadKey((config, document_count, *packed))
    if all(map(Rule(str).admits, packed)):
        shared = _LIVE.get(key)
        if shared is not None and shared.word_vocab == word_vocab:
            return shared
    ids, lengths, df, idf = (unpack(data[name], dtype, f"malformed tfidf "
                                    f"payload: {name}", FeatureError)
                             for name, dtype in _PACKED)
    # Lengths of at most MAX_NGRAM cannot sum past int64, and only these
    # can a fit write or a transform match.
    low, high = config.ngram_min, config.ngram_max
    if len(lengths) and (lengths.min() < low or lengths.max() > high):
        raise FeatureError(f"malformed tfidf payload: ngram_lengths must lie "
                           f"in [{low}, {high}], the config's ngram_min and "
                           f"ngram_max")
    if int(lengths.sum()) != len(ids):
        raise FeatureError(f"malformed tfidf payload: ngram_lengths sum to "
                           f"{int(lengths.sum())}, not the {len(ids)} "
                           f"ngram_ids")
    if len(idf) != len(lengths) or len(df) != len(lengths):
        raise FeatureError("malformed tfidf payload: df/idf length mismatch")
    # A fit's idf, ln((1 + N) / (1 + df)) + 1 with 1 <= df <= N, lies in
    # this range; a far larger one overflows a transform's row norms.
    top = 1.0 + math.log(1 + document_count)
    if not ((idf >= 1.0) & (idf <= top)).all():
        raise FeatureError(f"field tfidf.idf must hold numbers in [1, {top}] "
                           f"(1 + ln(1 + document_count))")
    # Entries need not be distinct: a corpus holding the literal word
    # "<unk>" lists it twice, and its bundles must load.
    if word_vocab is not None:
        Rule(str).check_each("field tfidf.word_vocab", word_vocab, FeatureError)
        if word_vocab[:1] != [WORD_UNKNOWN]:
            raise FeatureError(f"field tfidf.word_vocab must start with "
                               f"{WORD_UNKNOWN!r}")
    for array in (ids, lengths, df, idf):
        array.flags.writeable = False
    vocabulary = NgramVocabulary(ids=ids, lengths=lengths,
                                 document_count=document_count, df=df)
    model = TfidfModel(vocabulary=vocabulary, idf=idf, config=config,
                       word_vocab=word_vocab)
    _ngram_table(model)
    # Every packed value decoded, so each is a string.
    _LIVE[key] = model
    return model
