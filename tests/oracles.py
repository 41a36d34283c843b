"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles by the most
literal method available (full recounts, exhaustive enumeration, central
finite differences, all-pairs comparison, Python-integer arithmetic) and
deliberately shares no code with the implementations under test beyond
data containers and constants, with these exceptions: the Counter
featurizer uses the library's ``extract_ngrams``, which the array
featurizer it checks does not call; the per-voter ensemble loop uses
``pipeline.score_texts``, which the grouped ``collect_voter_scores`` does
not call; the dense-gradient SGD loop uses the library's ``sigmoid`` on
scalars, whose scalar path is checked against its array path, and takes
its label check (``check_binary_labels``) and its shuffle stream
(``stream_rng``) from the library, so both loops visit the same samples;
the synthetic corpus loop takes the lexicon, the cumulative Zipf weights
and the "synth" stream from the library, and checks only how documents
are drawn from them.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np

from llmdetect.corpus import (DOC_LENGTH_RANGE, LEXICON_SIZE, LabeledCorpus,
                              _lexicon, _zipf_cumulative)
from llmdetect.ensemble import COMBINE_PROBABILITY_MEAN, DEFAULT_GRID_STEP
from llmdetect.errors import FeatureError, ModelError, TokenizerError
from llmdetect.features import (NgramVocabulary, TfidfConfig, TfidfModel,
                                extract_ngrams)
from llmdetect.models import NaiveBayesModel, SgdConfig, SgdLinearModel
from llmdetect.models.common import check_binary_labels, sigmoid
from llmdetect.pipeline import score_texts
from llmdetect.seeds import stream_rng
from llmdetect.sparse import SparseMatrix
from llmdetect.tokenizer import (DEFAULT_VOCAB_SIZE, END_OF_WORD,
                                 MIN_PAIR_FREQUENCY, UNKNOWN_SYMBOL,
                                 BpeVocab, TokenSequence)


# -- synthetic corpus, one random.choices call per document -----------------

def synth_corpus_oracle(n_per_class: int, seed: int,
                        divergence: float) -> LabeledCorpus:
    """``corpus.synth_corpus`` as CPython's ``random.Random`` draws it: per
    document a ``randint`` length and then ``choices`` of that many words."""
    lexicon = _lexicon()
    top = LEXICON_SIZE - 1
    human_cum = _zipf_cumulative([float(i) for i in range(LEXICON_SIZE)])
    machine_cum = _zipf_cumulative(
        [(1.0 - divergence) * i + divergence * (top - i)
         for i in range(LEXICON_SIZE)])
    rng = stream_rng(seed, "synth")
    ids, texts, labels = [], [], []
    for label, prefix, cum in ((0, "human", human_cum),
                               (1, "machine", machine_cum)):
        for i in range(n_per_class):
            length = rng.randint(*DOC_LENGTH_RANGE)
            words = rng.choices(lexicon, cum_weights=cum, k=length)
            ids.append(f"{prefix}-{i:05d}")
            texts.append(" ".join(words))
            labels.append(label)
    return LabeledCorpus(ids=ids, texts=texts, labels=labels)


# -- CSR matrices built and read one row at a time --------------------------
# A row is a (cols, vals) pair of arrays: its slices of cols and vals from
# indptr[i] to indptr[i + 1].

def sparse_from_rows(rows: list[tuple[np.ndarray, np.ndarray]],
                     n_cols: int) -> SparseMatrix:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, (cols, _) in enumerate(rows):
        indptr[i + 1] = indptr[i] + len(cols)
    total = int(indptr[-1])
    cols = np.empty(total, dtype=np.int64)
    vals = np.empty(total, dtype=np.float64)
    for i, (row_cols, row_vals) in enumerate(rows):
        cols[indptr[i]:indptr[i + 1]] = row_cols
        vals[indptr[i]:indptr[i + 1]] = row_vals
    return SparseMatrix(indptr=indptr, cols=cols, vals=vals,
                        n_rows=len(rows), n_cols=n_cols)


def sparse_from_dense(dense) -> SparseMatrix:
    dense = np.asarray(dense, dtype=np.float64)
    rows = []
    for i in range(dense.shape[0]):
        nz = np.flatnonzero(dense[i])
        rows.append((nz.astype(np.int64), dense[i, nz]))
    return sparse_from_rows(rows, dense.shape[1])


def csr_row(X: SparseMatrix, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i of X as its (cols, vals) pair."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return X.cols[lo:hi], X.vals[lo:hi]


def to_dense(X: SparseMatrix) -> np.ndarray:
    """X as a dense array, filled one row at a time."""
    out = np.zeros((X.n_rows, X.n_cols))
    for i in range(X.n_rows):
        cols, vals = csr_row(X, i)
        out[i, cols] = vals
    return out


def validate_csr(X: SparseMatrix) -> None:
    """Assert the CSR invariants."""
    assert X.indptr[0] == 0 and X.indptr[-1] == X.nnz
    assert np.all(np.diff(X.indptr) >= 0), "row offsets must not decrease"
    if X.nnz:
        assert X.cols.min() >= 0 and X.cols.max() < X.n_cols
        assert np.all(X.vals != 0.0), "explicit zeros are not stored"
    for i in range(X.n_rows):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        assert np.all(np.diff(X.cols[lo:hi]) > 0), \
            f"row {i} columns must strictly increase"


def vector_pairs(row: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, float]]:
    cols, vals = row
    return list(zip(cols.tolist(), vals.tolist()))


# -- BPE: recount every pair from scratch each iteration -------------------

def bpe_merges_oracle(texts: list[str], max_merges: int) -> list[tuple[str, str]]:
    """First merges chosen by a from-scratch pair recount, ties lexicographic."""
    words = [list(w) + ["</w>"] for text in texts for w in text.split()]
    merges: list[tuple[str, str]] = []
    while len(merges) < max_merges:
        counts: Counter = Counter()
        for syms in words:
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += 1
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        pair = min(p for p, c in counts.items() if c == top)
        merges.append(pair)
        merged = pair[0] + pair[1]
        for w, syms in enumerate(words):
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == pair[0]
                        and syms[i + 1] == pair[1]):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


# -- BPE training: a scan of every live pair for each merge --------------
# The library's trainer before its heap, kept verbatim with its two
# helpers.

def _word_pairs(syms: list[str]) -> Counter:
    return Counter(zip(syms, syms[1:]))


def _apply_merge(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace occurrences of pair left-to-right, non-overlapping."""
    left, right = pair
    out: list[str] = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def train_bpe_oracle(texts: list[str], vocab_size: int = DEFAULT_VOCAB_SIZE) -> BpeVocab:
    """Learn merge rules until the symbol table reaches vocab_size or no
    adjacent pair occurs at least twice."""
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

    # distinct word types with frequencies; merges never cross word boundaries
    words = sorted(word_freq)
    word_syms: list[list[str]] = [list(w) + [END_OF_WORD] for w in words]
    freqs = [word_freq[w] for w in words]

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wid, syms in enumerate(word_syms):
        for pair, n in _word_pairs(syms).items():
            pair_counts[pair] += n * freqs[wid]
            pair_words.setdefault(pair, set()).add(wid)

    merges: list[tuple[str, str]] = []
    while len(symbols) < vocab_size:
        best_pair = None
        best_count = 0
        for pair, count in pair_counts.items():
            if count > best_count or (count == best_count and
                                      best_pair is not None and pair < best_pair):
                best_pair, best_count = pair, count
        if best_pair is None or best_count < MIN_PAIR_FREQUENCY:
            break

        merged = best_pair[0] + best_pair[1]
        if merged in (UNKNOWN_SYMBOL, END_OF_WORD):
            raise TokenizerError(
                f"corpus would form the reserved symbol {merged!r}")
        merges.append(best_pair)
        if merged not in symbols:
            symbols[merged] = len(symbols)

        for wid in sorted(pair_words[best_pair]):
            old = word_syms[wid]
            new = _apply_merge(old, best_pair)
            word_syms[wid] = new
            old_pairs = _word_pairs(old)
            new_pairs = _word_pairs(new)
            for pair in old_pairs.keys() | new_pairs.keys():
                delta = new_pairs[pair] - old_pairs[pair]
                if delta:
                    pair_counts[pair] += delta * freqs[wid]
                    if pair_counts[pair] == 0:
                        del pair_counts[pair]
                if new_pairs[pair]:
                    pair_words.setdefault(pair, set()).add(wid)
                elif old_pairs[pair]:
                    members = pair_words.get(pair)
                    if members is not None:
                        members.discard(wid)
                        if not members:
                            del pair_words[pair]

    return BpeVocab(merges=merges, symbols=symbols)


# -- BPE encoding: one text at a time, word by word -------------------------
# The library's encoder before its word cache and flat corpus ids, kept
# verbatim but for three changes: the merge helper is inlined, the rank
# table comes from the merge list, and nothing is cached, so it cannot
# read back what the library stored.

def _encode_word_oracle(vocab, rank_of, word: str) -> tuple[int, ...]:
    syms = list(word) + [vocab.end_of_word_marker]
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(syms, syms[1:]):
            rank = rank_of.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        left, right = best_pair
        out: list[str] = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return tuple(vocab.symbols.get(s, vocab.unknown_id) for s in syms)


def encode_oracle(vocab, text: str) -> TokenSequence:
    rank_of = {pair: rank for rank, pair in enumerate(vocab.merges)}
    ids: list[int] = []
    for word in text.split():
        ids.extend(_encode_word_oracle(vocab, rank_of, word))
    return TokenSequence(ids=tuple(ids))


def token_sequences(corpus) -> list[TokenSequence]:
    """A flat ``TokenCorpus`` as one ``TokenSequence`` per document."""
    ids = corpus.ids.tolist()
    out, start = [], 0
    for length in corpus.lengths.tolist():
        out.append(TokenSequence(ids=tuple(ids[start:start + length])))
        start += length
    return out


# -- TF-IDF: scalar arithmetic over explicit dictionaries ------------------

def tfidf_oracle(docs: list[tuple], ngram_min: int, ngram_max: int,
                 min_df: int, sublinear_tf: bool,
                 l2_normalize: bool) -> list[dict]:
    """Per-document {ngram: weight} maps computed with plain floats."""
    def ngrams_of(ids):
        out = []
        for n in range(ngram_min, ngram_max + 1):
            for i in range(len(ids) - n + 1):
                out.append(tuple(ids[i:i + n]))
        return out

    n_docs = len(docs)
    df: Counter = Counter()
    for ids in docs:
        df.update(set(ngrams_of(ids)))
    vocab = {t for t, c in df.items() if c >= min_df}

    weighted = []
    for ids in docs:
        counts = Counter(t for t in ngrams_of(ids) if t in vocab)
        weights = {}
        for t, c in counts.items():
            tf = 1.0 + math.log(c) if sublinear_tf else float(c)
            idf = math.log((1.0 + n_docs) / (1.0 + df[t])) + 1.0
            weights[t] = tf * idf
        if l2_normalize and weights:
            norm = math.sqrt(sum(w * w for w in weights.values()))
            if norm > 0:
                weights = {t: w / norm for t, w in weights.items()}
        weighted.append(weights)
    return weighted


# -- TF-IDF: the per-document Counter featurizer ---------------------------
# The library's fit and transform before they moved to flat arrays, kept
# verbatim but for the vocabulary, which now holds its n-grams flat; the
# array featurizer must reproduce their bytes.

def fit_tfidf_oracle(corpus_tokens: list[TokenSequence],
                     config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build the n-gram vocabulary (df >= min_df) and idf weights."""
    if not corpus_tokens:
        raise FeatureError("cannot fit TF-IDF on an empty corpus")
    n_docs = len(corpus_tokens)
    df_counts: Counter = Counter()
    any_ngrams = False
    for seq in corpus_tokens:
        doc_ngrams = extract_ngrams(seq, config.ngram_min, config.ngram_max)
        if doc_ngrams:
            any_ngrams = True
        df_counts.update(doc_ngrams.keys())
    if not any_ngrams:
        raise FeatureError(f"every document is shorter than ngram_min = "
                           f"{config.ngram_min} tokens; nothing to fit")

    retained = sorted(t for t, c in df_counts.items() if c >= config.min_df)
    df = np.array([df_counts[t] for t in retained], dtype=np.int64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    vocabulary = NgramVocabulary(
        ids=np.array([i for ngram in retained for i in ngram], dtype=np.int64),
        lengths=np.array([len(ngram) for ngram in retained], dtype=np.int64),
        document_count=n_docs, df=df)
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config)


def transform_oracle(model: TfidfModel, seq: TokenSequence
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Weight one document, as its (cols, vals) row; out-of-vocabulary
    n-grams are dropped."""
    cfg = model.config
    counts = extract_ngrams(seq, cfg.ngram_min, cfg.ngram_max)
    vocab = model.vocabulary.ngram_to_col
    pairs: list[tuple[int, float]] = []
    for ngram, count in counts.items():
        col = vocab.get(ngram)
        if col is None:
            continue
        tf = 1.0 + math.log(count) if cfg.sublinear_tf else float(count)
        pairs.append((col, tf * model.idf[col]))
    pairs.sort()
    cols = np.array([c for c, _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs], dtype=np.float64)
    if cfg.l2_normalize and len(vals):
        norm = math.sqrt(float(np.dot(vals, vals)))
        if norm > 0.0:
            vals = vals / norm
    return cols, vals


def transform_corpus_oracle(model: TfidfModel,
                            corpus_tokens: list[TokenSequence]
                            ) -> SparseMatrix:
    rows = [transform_oracle(model, seq) for seq in corpus_tokens]
    return sparse_from_rows(rows, n_cols=model.n_features)


# -- SGD: central finite differences of the per-sample objective -----------

def sample_loss(theta: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                label: int, l2: float) -> float:
    """The per-sample objective at theta."""
    margin = float(np.dot(vals, theta[cols]) + theta[-1])
    y_signed = 2 * label - 1
    weights = theta[:-1]
    return (float(np.logaddexp(0.0, -y_signed * margin)) +
            0.5 * l2 * float(np.dot(weights, weights)))


def finite_difference_gradient(loss_fn, theta: np.ndarray,
                               step: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(theta)
    for k in range(len(theta)):
        bumped_up = theta.copy()
        bumped_up[k] += step
        bumped_down = theta.copy()
        bumped_down[k] -= step
        grad[k] = (loss_fn(bumped_up) - loss_fn(bumped_down)) / (2.0 * step)
    return grad


# -- SGD: a dense gradient and a new theta every step ------------------------

def sgd_step(theta: np.ndarray, gradient: np.ndarray, alpha: float) -> np.ndarray:
    """One descent update: theta - alpha * gradient, elementwise."""
    if theta.shape != gradient.shape:
        raise ModelError(f"theta shape {theta.shape} does not match gradient "
                         f"shape {gradient.shape}")
    if alpha <= 0.0:
        raise ModelError(f"alpha must be positive, got {alpha}")
    return theta - alpha * gradient


def sample_gradient(theta: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    label: int, l2: float) -> np.ndarray:
    """Dense gradient of the per-sample objective at theta."""
    margin = float(np.dot(vals, theta[cols]) + theta[-1])
    y_signed = 2 * label - 1
    residual = -y_signed * sigmoid(-y_signed * margin)
    gradient = np.zeros_like(theta)
    if l2 != 0.0:
        gradient[:-1] = l2 * theta[:-1]
    np.add.at(gradient, cols, residual * vals)
    gradient[-1] += residual
    return gradient


def train_sgd_oracle(X: SparseMatrix, y,
                     config: SgdConfig = SgdConfig()) -> SgdLinearModel:
    y = check_binary_labels(y, X.n_rows)
    theta = np.zeros(X.n_cols + 1)
    rng = stream_rng(config.seed, "sgd_shuffle")
    order = list(range(X.n_rows))
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            alpha = config.eta0 / (1.0 + config.eta0 * config.l2 * step)
            cols, vals = csr_row(X, i)
            gradient = sample_gradient(theta, cols, vals, y[i], config.l2)
            theta = sgd_step(theta, gradient, alpha)
            step += 1
    return SgdLinearModel(theta=theta, config=config)


# -- naive Bayes: one class at a time --------------------------------------

def train_nb_oracle(X: SparseMatrix, y, alpha: float) -> NaiveBayesModel:
    """Priors and smoothed likelihoods class by class: each class's rows
    gathered in order, their weights summed per column by one bincount."""
    y = check_binary_labels(y, X.n_rows)
    log_prior = np.empty(2)
    log_likelihood = np.empty((2, X.n_cols))
    for cls in (0, 1):
        rows = np.flatnonzero(y == cls)
        log_prior[cls] = np.log(len(rows) / X.n_rows)
        gathered = [csr_row(X, i) for i in rows]
        cols = np.concatenate([row_cols for row_cols, _ in gathered])
        vals = np.concatenate([row_vals for _, row_vals in gathered])
        feature_sums = (np.bincount(cols, weights=vals, minlength=X.n_cols)
                        if len(cols) else np.zeros(X.n_cols))
        log_likelihood[cls] = np.log(
            (alpha + feature_sums) / (alpha * X.n_cols + feature_sums.sum()))
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood,
                           alpha=alpha)


# -- ROC-AUC: literal all-pairs comparison ----------------------------------

def pairwise_auc_oracle(scores, labels) -> Fraction:
    """Mann-Whitney statistic over every positive-negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return Fraction(2 * wins + ties, 2 * len(pos) * len(neg))


def group_auc_oracle(scores, labels) -> Fraction:
    """Rank-sum statistic over ``np.unique`` tie groups: each group's
    positives beat the negatives of every lower group and tie with its
    own."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, group, sizes = np.unique(scores, return_inverse=True,
                                return_counts=True)
    pos = np.bincount(group[labels == 1], minlength=len(sizes))
    neg = sizes - pos
    below = np.cumsum(neg) - neg  # negatives scored strictly lower
    wins, ties = int(pos @ below), int(pos @ neg)
    return Fraction(2 * wins + ties, 2 * int(pos.sum()) * int(neg.sum()))


# -- Voting: per-document Fraction accumulation -----------------------------

def soft_vote_oracle(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter probabilities, document by document."""
    n_docs = len(per_voter_scores[0])
    frac_weights = [Fraction(float(w)) for w in weights]
    total = sum(frac_weights)
    out = np.empty(n_docs)
    for d in range(n_docs):
        acc = Fraction(0)
        for scores, w in zip(per_voter_scores, frac_weights):
            if w:
                acc += w * Fraction(float(scores[d]))
        out[d] = float(acc / total)
    return out


def _fractional_ranks(scores) -> list[Fraction]:
    """Tie-averaged ranks scaled into [0, 1] (exact rationals)."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: scores[i])
    ranks: list[Fraction] = [Fraction(0)] * n
    i = 0
    while i < n:
        j = i
        while j < n and scores[order[j]] == scores[order[i]]:
            j += 1
        mid_rank = Fraction(i + j - 1, 2)  # average of ranks i .. j-1
        for k in range(i, j):
            ranks[order[k]] = mid_rank / (n - 1)
        i = j
    return ranks


def rank_average_oracle(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter fractional ranks."""
    n_docs = len(per_voter_scores[0])
    frac_weights = [Fraction(float(w)) for w in weights]
    total = sum(frac_weights)
    voter_ranks = [_fractional_ranks([float(s) for s in scores])
                   for scores in per_voter_scores]
    out = np.empty(n_docs)
    for d in range(n_docs):
        acc = Fraction(0)
        for ranks, w in zip(voter_ranks, frac_weights):
            if w:
                acc += w * ranks[d]
        out[d] = float(acc / total)
    return out


def weight_grid_oracle(n_voters: int, step: float) -> list[tuple[float, ...]]:
    """Every tuple of ``product`` over the step counts, kept if it sums to
    the unit count."""
    units = round(1.0 / step)
    grid = []
    for combo in product(range(units + 1), repeat=n_voters):
        if sum(combo) == units:
            grid.append(tuple(c * step for c in combo))
    return grid


def _weighted_mean(numerators, denominator: int, weights) -> np.ndarray:
    """Per document, sum_v w_v * numerators[v] / (denominator * sum_v w_v),
    as one correctly rounded int / int division, as ``float(Fraction)``.
    ``numerators`` is a (voters, documents) object array of Python ints;
    the quotients come back as an object array of Python floats."""
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max(q for _, q in ratios)  # a power of two, as every q is
    int_weights = [p * (scale // q) for p, q in ratios]
    total = denominator * sum(int_weights)
    acc = sum(w * n for w, n in zip(int_weights, numerators) if w)
    return acc / total


def _vote(numerators, denominator: int, rows, grid: bool) -> np.ndarray:
    """``_weighted_mean`` for each weight vector: one row of scores per
    vector of a grid, else the scores of the one vector."""
    out = np.empty((len(rows), numerators.shape[1]))
    for r, weights in enumerate(rows):
        out[r] = _weighted_mean(numerators, denominator, weights)
    return out if grid else out[0]


def grid_vote_oracle(per_voter_scores, grid, combine: str) -> np.ndarray:
    """One row of combined scores per weight vector of ``grid``: each
    voter's scores (probability_mean) or tie-averaged rank numerators over
    ``np.unique`` groups (rank_mean) as Python integers over one common
    denominator, and each vector's weighted mean of them by ``_vote``."""
    scores = np.array(per_voter_scores, dtype=np.float64)
    if combine == COMBINE_PROBABILITY_MEAN:
        # score = mantissa * 2**exponent with an integer mantissa of 53 bits
        mantissas, exponents = np.frexp(scores)
        exponents = exponents.astype(np.int64) - 53
        low = int(exponents.min(initial=0))
        numerators = ((mantissas * 2.0 ** 53).astype(np.int64).astype(object)
                      << (exponents - low).astype(object))
        return _vote(numerators, 1 << -low, grid, True)
    numerators = []
    for row in scores:
        _, group, sizes = np.unique(row, return_inverse=True,
                                    return_counts=True)
        ends = np.cumsum(sizes)
        numerators.append((2 * ends - sizes - 1)[group])
    return _vote(np.array(numerators).astype(object),
                 2 * (scores.shape[1] - 1), grid, True)


def tune_weights_oracle(per_voter_scores, labels,
                        combine: str = COMBINE_PROBABILITY_MEAN,
                        step: float = DEFAULT_GRID_STEP
                        ) -> tuple[tuple[float, ...], float]:
    """Grid-search voter weights maximizing validation AUC.

    Returns (weights, auc); ties keep the first grid point, so results are
    deterministic.  AUCs are compared as the rounded floats the library
    returns, so two grid points whose exact AUCs round alike tie.
    """
    grid = weight_grid_oracle(len(per_voter_scores), step)
    best_weights = None
    best_auc = -1.0
    for weights, row in zip(grid, grid_vote_oracle(per_voter_scores, grid,
                                                   combine)):
        auc = float(group_auc_oracle(row, labels))
        if auc > best_auc:
            best_weights, best_auc = weights, auc
    return best_weights, best_auc


def collect_voter_scores_oracle(spec, documents, bpe_vocab=None):
    """Per-voter scores in spec order, each internal voter tokenized and
    featurized on its own by ``score_texts``."""
    ids = documents.ids
    texts = documents.texts
    per_voter: list[np.ndarray] = []
    for voter in spec.voters:
        if voter.external is not None:
            per_voter.append(voter.external.aligned(ids))
        else:
            scores, _ = score_texts(voter.bundle, texts, bpe_vocab)
            per_voter.append(scores)
    return per_voter


# -- GBDT: exhaustive-threshold boosting ------------------------------------

def _oracle_gain(g_left, h_left, g_right, h_right, lam):
    parent = (g_left + g_right) ** 2 / (h_left + h_right + lam)
    return 0.5 * (g_left ** 2 / (h_left + lam)
                  + g_right ** 2 / (h_right + lam) - parent)


def _column_thresholds(dense: np.ndarray) -> list[np.ndarray]:
    """Candidate split values per column: every distinct value but the top."""
    return [np.unique(dense[:, col])[:-1] for col in range(dense.shape[1])]


def _oracle_best_split(dense, thresholds, rows, g, h, lam, min_data):
    best = None  # (gain, col, threshold)
    for col in range(dense.shape[1]):
        values = dense[rows, col]
        for t in thresholds[col]:
            left = rows[values <= t]
            right = rows[values > t]
            if len(left) < min_data or len(right) < min_data:
                continue
            gain = _oracle_gain(g[left].sum(), h[left].sum(),
                                g[right].sum(), h[right].sum(), lam)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, col, float(t))
    return best


class OracleNode:
    def __init__(self, rows):
        self.rows = rows
        self.column = -1
        self.threshold = None
        self.left = None
        self.right = None
        self.value = 0.0


def oracle_grow_leafwise(dense, g, h, lam, min_data, max_leaves, learning_rate):
    """Leaf-wise growth splitting the globally best leaf, exhaustively."""
    thresholds = _column_thresholds(dense)
    root = OracleNode(np.arange(dense.shape[0]))
    leaves = [root]
    candidates = {id(root): _oracle_best_split(dense, thresholds, root.rows,
                                               g, h, lam, min_data)}
    while len(leaves) < max_leaves:
        chosen = None
        for node in leaves:
            cand = candidates[id(node)]
            if cand is None:
                continue
            if chosen is None or cand[0] > candidates[id(chosen)][0]:
                chosen = node
        if chosen is None:
            break
        _, col, t = candidates[id(chosen)]
        values = dense[chosen.rows, col]
        chosen.column = col
        chosen.threshold = t
        chosen.left = OracleNode(chosen.rows[values <= t])
        chosen.right = OracleNode(chosen.rows[values > t])
        for child in (chosen.left, chosen.right):
            candidates[id(child)] = _oracle_best_split(
                dense, thresholds, child.rows, g, h, lam, min_data)
        leaves.remove(chosen)
        leaves.extend([chosen.left, chosen.right])
    for node in leaves:
        node.value = -g[node.rows].sum() / (h[node.rows].sum() + lam) * learning_rate
    return root, leaves


def oracle_grow_symmetric(dense, g, h, lam, min_data, depth, learning_rate):
    """One exhaustively chosen (column, threshold) per level, summed gains."""
    thresholds = _column_thresholds(dense)
    groups = [np.arange(dense.shape[0])]
    levels = []
    for _ in range(depth):
        best = None  # (total_gain, col, threshold)
        for col in range(dense.shape[1]):
            for t in thresholds[col]:
                total = 0.0
                for rows in groups:
                    if len(rows) < 2 * min_data:
                        continue
                    values = dense[rows, col]
                    left = rows[values <= t]
                    right = rows[values > t]
                    if len(left) < min_data or len(right) < min_data:
                        continue
                    gain = _oracle_gain(g[left].sum(), h[left].sum(),
                                        g[right].sum(), h[right].sum(), lam)
                    if gain > 0:
                        total += gain
                if total > 0 and (best is None or total > best[0]):
                    best = (total, col, float(t))
        if best is None:
            levels.append((0, None))
            padded = []
            for rows in groups:
                padded.extend([rows, np.empty(0, dtype=np.int64)])
            groups = padded
            continue
        _, col, t = best
        levels.append((col, t))
        next_groups = []
        for rows in groups:
            if len(rows) == 0:
                next_groups.extend([rows, rows])
                continue
            values = dense[rows, col]
            next_groups.extend([rows[values <= t], rows[values > t]])
        groups = next_groups
    leaf_values = []
    for rows in groups:
        if len(rows) == 0:
            leaf_values.append(0.0)
        else:
            leaf_values.append(
                -g[rows].sum() / (h[rows].sum() + lam) * learning_rate)
    return levels, groups, leaf_values


def oracle_predictions(leaves) -> dict[int, float]:
    """Row -> leaf value map from oracle leaf-wise leaves."""
    out = {}
    for node in leaves:
        for row in node.rows:
            out[int(row)] = node.value
    return out


# -- GBDT: binning and split choice before the single split search ---------
# The library's two binning passes and its histogram split choice, kept
# verbatim; ``_BinnedMatrix`` must reproduce their cuts and bins byte for
# byte, and leaf-wise growth their (column, bin, gain) choice.  One case
# differs on purpose: with n_bins = 2 a column of two or more distinct
# values gets a cut at its minimum here, which bins larger values past
# the last bin, and a cut at its maximum in the library.

def compute_bin_edges(X: SparseMatrix, n_bins: int) -> list[np.ndarray]:
    """Per-column cut values for the nonzero entries.

    If a column has at most n_bins - 1 distinct nonzero values, every
    distinct value gets its own bin (cuts are the values themselves), which
    makes histogram splits coincide with exhaustive value splits.
    """
    col_indptr, _, vals = X.to_csc()
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
    col_indptr, _, vals = X.to_csc()
    # the CSR position of each CSC entry
    csr_pos = np.argsort(X.cols, kind="stable")
    bins = np.zeros(X.nnz, dtype=np.int64)
    for col in range(X.n_cols):
        lo, hi = col_indptr[col], col_indptr[col + 1]
        if hi > lo:
            bins[csr_pos[lo:hi]] = 1 + np.searchsorted(
                cuts[col], vals[lo:hi], side="left")
    return bins


# -- GBDT: the per-column binning loop before the one-sort pass -------------
# The library's ``_BinnedMatrix.__init__`` as it was, one np.unique,
# np.quantile and np.searchsorted call per column, kept verbatim but for
# ``csr_pos``, which the CSC view no longer carries; the library's
# one-sort pass must reproduce all four of its results byte for byte.

def binned_matrix_oracle(X: SparseMatrix, config) -> SimpleNamespace:
    """``splittable``, ``cuts``, ``bins`` and ``X_split`` of X binned one
    column at a time."""
    n_bins = config.n_bins
    col_indptr, _, vals = X.to_csc()
    # the CSR position of each CSC entry
    csr_pos = np.argsort(X.cols, kind="stable")
    splittable = np.flatnonzero(
        np.diff(col_indptr) >= config.min_data_in_leaf)
    cuts_by_col: list[np.ndarray] = [np.empty(0)] * X.n_cols
    bins = np.zeros(X.nnz, dtype=np.int64)
    bounds = col_indptr.tolist()
    for col in splittable.tolist():
        lo, hi = bounds[col], bounds[col + 1]
        v = vals[lo:hi]
        cuts = np.unique(v)
        if len(cuts) > n_bins - 1:
            # the top cut is the maximum, so that every value lands in
            # one of the n_bins - 1 nonzero bins
            q = np.linspace(0.0, 1.0, n_bins - 1) if n_bins > 2 else 1.0
            cuts = np.unique(np.quantile(v, q))
        cuts_by_col[col] = cuts
        bins[csr_pos[lo:hi]] = 1 + np.searchsorted(cuts, v, side="left")
    in_split = bins > 0
    kept_before = np.zeros(X.nnz + 1, dtype=np.int64)
    np.cumsum(in_split, out=kept_before[1:])
    X_split = SparseMatrix(
        indptr=kept_before[X.indptr],
        cols=np.searchsorted(splittable, X.cols[in_split]),
        vals=X.vals[in_split], n_rows=X.n_rows, n_cols=len(splittable))
    return SimpleNamespace(splittable=splittable, cuts=cuts_by_col,
                           bins=bins[in_split], X_split=X_split)


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


def histograms_oracle(X: SparseMatrix, bins: np.ndarray, rows, g, h,
                      n_bins: int):
    """(grad, hess, count) histograms of every column at the node holding
    ``rows``, one stored entry at a time; the zero bin holds the node's
    rows with no entry in the column."""
    grad = np.zeros((X.n_cols, n_bins))
    hess = np.zeros((X.n_cols, n_bins))
    count = np.zeros((X.n_cols, n_bins), dtype=np.int64)
    for row in rows:
        grad[:, 0] += g[row]
        hess[:, 0] += h[row]
        count[:, 0] += 1
        for k in range(X.indptr[row], X.indptr[row + 1]):
            col, b = X.cols[k], bins[k]
            grad[col, 0] -= g[row]
            hess[col, 0] -= h[row]
            count[col, 0] -= 1
            grad[col, b] += g[row]
            hess[col, b] += h[row]
            count[col, b] += 1
    return grad, hess, count


# -- GBDT: the split search before width classes ---------------------------
# The library's ``_BinnedMatrix.split_gains`` as it was, kept verbatim with
# ``self`` renamed: every occupied column's histograms take n_bins cells.
# The width-class search must reproduce its gain on every valid cell bit
# for bit.

def split_gains_oracle(binned, node: tuple, g: np.ndarray,
                       h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain of every split of ``node``, a (rows, g_sum, h_sum) record.

    Returns (occupied, gains).  ``occupied`` lists the columns with at
    least min_data_in_leaf nonzeros at the node; every threshold of any
    other column leaves fewer than min_data_in_leaf rows on its right
    side, so it cannot split the node and is dropped before its
    histograms are built.  ``gains[k, b]`` is the gain of sending bins
    0..b of column occupied[k] left, for b in 0..n_bins-2, and -inf
    where a side would hold fewer than min_data_in_leaf rows.  The zero
    bin holds the node totals minus the column's nonzero sums.
    """
    rows, g_sum, h_sum = node
    n, n_bins = len(rows), binned.n_bins
    min_data, lam = binned.config.min_data_in_leaf, binned.config.lambda_l2
    no_split = np.empty(0, dtype=np.int64), np.empty((0, n_bins - 1))
    if n < 2 * min_data:
        return no_split
    pos, lengths = binned.X_split.gather_positions(rows)
    cols = binned.X_split.cols[pos]
    keep = np.bincount(cols, minlength=binned.X_split.n_cols) >= min_data
    if not keep.any():
        return no_split
    occupied = binned.splittable[keep]
    kept = keep[cols]
    keys = ((np.cumsum(keep) - 1)[cols[kept]] * n_bins
            + binned.bins[pos[kept]])
    entry_rows = np.repeat(rows, lengths)[kept]
    size, shape = len(occupied) * n_bins, (len(occupied), n_bins)
    grad = np.bincount(keys, weights=g[entry_rows],
                       minlength=size).reshape(shape)
    hess = np.bincount(keys, weights=h[entry_rows],
                       minlength=size).reshape(shape)
    count = np.bincount(keys, minlength=size).reshape(shape)
    grad[:, 0] = g_sum - grad[:, 1:].sum(axis=1)
    hess[:, 0] = h_sum - hess[:, 1:].sum(axis=1)
    count[:, 0] = n - count[:, 1:].sum(axis=1)
    # left-side sums of thresholds 0..n_bins-2, accumulated in place
    g_left = np.cumsum(grad, axis=1, out=grad)[:, :-1]
    h_left = np.cumsum(hess, axis=1, out=hess)[:, :-1]
    c_left = np.cumsum(count, axis=1, out=count)[:, :-1]
    # scored only where both sides hold min_data_in_leaf rows
    valid = (c_left >= min_data) & (c_left <= n - min_data)
    g_left, h_left = g_left[valid], h_left[valid]
    g_right = g_sum - g_left
    with np.errstate(divide="ignore", invalid="ignore"):
        scored = g_left * g_left / (h_left + lam)
        scored += g_right * g_right / (h_sum - h_left + lam)
        scored -= g_sum * g_sum / (h_sum + lam)
        scored *= 0.5
    gains = np.full(valid.shape, -np.inf)
    gains[valid] = scored
    return occupied, gains
