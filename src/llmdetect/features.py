"""TF-IDF weighting over token n-grams, producing sparse vectors.

Term weight is tf(t, d) * idf(t) with the smoothed inverse document
frequency idf(t) = ln((1 + N) / (1 + df(t))) + 1, which is bounded below
by 1 and defined for unseen terms.  tf is the raw in-document count, or
1 + ln(count) when sublinear_tf is set.  Columns are assigned to n-grams
in lexicographic token-id order, so fits are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FeatureError
from .sparse import SparseMatrix, SparseVector
from .tokenizer import TokenSequence

Ngram = tuple[int, ...]

WORD_UNKNOWN = "<unk>"


@dataclass(frozen=True)
class TfidfConfig:
    ngram_min: int = 1
    ngram_max: int = 3
    min_df: int = 2
    sublinear_tf: bool = False
    l2_normalize: bool = True

    def __post_init__(self):
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise FeatureError(f"need 1 <= ngram_min <= ngram_max, got "
                               f"({self.ngram_min}, {self.ngram_max})")
        if self.min_df < 1:
            raise FeatureError(f"min_df must be >= 1, got {self.min_df}")


@dataclass
class NgramVocabulary:
    """Retained n-grams, their column indices, and document frequencies."""

    ngram_to_col: dict[Ngram, int]
    document_count: int
    df: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ngram_to_col)

    def columns(self) -> list[Ngram]:
        out: list[Ngram] = [()] * len(self.ngram_to_col)
        for ngram, col in self.ngram_to_col.items():
            out[col] = ngram
        return out


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
    _word_ids: dict[str, int] | None = field(default=None, repr=False, compare=False)

    @property
    def n_features(self) -> int:
        return self.vocabulary.size


def extract_ngrams(seq: TokenSequence, ngram_min: int, ngram_max: int) -> Counter:
    """All contiguous id subsequences with length in [ngram_min, ngram_max],
    with multiplicity.  Sequences shorter than ngram_min yield what fits."""
    if not 1 <= ngram_min <= ngram_max:
        raise FeatureError(f"need 1 <= ngram_min <= ngram_max, got "
                           f"({ngram_min}, {ngram_max})")
    ids = seq.ids
    counts: Counter = Counter()
    for n in range(ngram_min, ngram_max + 1):
        if n > len(ids):
            break
        for i in range(len(ids) - n + 1):
            counts[ids[i:i + n]] += 1
    return counts


def fit_tfidf(corpus_tokens: list[TokenSequence],
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
        raise FeatureError("all documents are empty; nothing to fit")

    retained = sorted(t for t, c in df_counts.items() if c >= config.min_df)
    ngram_to_col = {t: i for i, t in enumerate(retained)}
    df = np.array([df_counts[t] for t in retained], dtype=np.int64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    vocabulary = NgramVocabulary(ngram_to_col=ngram_to_col,
                                 document_count=n_docs, df=df)
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config)


def transform(model: TfidfModel, seq: TokenSequence) -> SparseVector:
    """Weight one document; out-of-vocabulary n-grams are dropped."""
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
    return SparseVector(cols=cols, vals=vals, n_cols=model.n_features)


def transform_corpus(model: TfidfModel,
                     corpus_tokens: list[TokenSequence]) -> SparseMatrix:
    rows = [transform(model, seq) for seq in corpus_tokens]
    return SparseMatrix.from_rows(rows, n_cols=model.n_features)


# -- whitespace-token fallback -------------------------------------------

def fit_word_vocab(texts: list[str]) -> list[str]:
    """Word -> id table for whitespace-token mode; id 0 is the unknown."""
    words = sorted({w for text in texts for w in text.split()})
    return [WORD_UNKNOWN] + words


def encode_words(word_vocab: list[str], text: str,
                 model: TfidfModel | None = None) -> TokenSequence:
    """Map whitespace-delimited words to ids; unknown words map to id 0."""
    if model is not None and model._word_ids is not None:
        table = model._word_ids
    else:
        table = {w: i for i, w in enumerate(word_vocab)}
        if model is not None:
            model._word_ids = table
    return TokenSequence(ids=tuple(table.get(w, 0) for w in text.split()))


# -- bundle-embedded serialization ---------------------------------------

def tfidf_to_dict(model: TfidfModel) -> dict:
    return {
        "config": asdict(model.config),
        "document_count": model.vocabulary.document_count,
        "ngrams": [list(t) for t in model.vocabulary.columns()],
        "df": model.vocabulary.df.tolist(),
        "idf": model.idf.tolist(),
        "word_vocab": model.word_vocab,
    }


def tfidf_from_dict(data: dict) -> TfidfModel:
    try:
        config = TfidfConfig(**data["config"])
        ngrams = [tuple(t) for t in data["ngrams"]]
        vocabulary = NgramVocabulary(
            ngram_to_col={t: i for i, t in enumerate(ngrams)},
            document_count=int(data["document_count"]),
            df=np.array(data["df"], dtype=np.int64))
        idf = np.array(data["idf"], dtype=np.float64)
        word_vocab = data.get("word_vocab")
    except (KeyError, TypeError, ValueError) as exc:
        raise FeatureError(f"malformed tfidf payload: {exc}")
    if len(vocabulary.ngram_to_col) != len(ngrams):
        raise FeatureError("malformed tfidf payload: duplicate ngrams")
    if len(idf) != len(ngrams) or len(vocabulary.df) != len(ngrams):
        raise FeatureError("malformed tfidf payload: df/idf length mismatch")
    return TfidfModel(vocabulary=vocabulary, idf=idf, config=config,
                      word_vocab=word_vocab)
