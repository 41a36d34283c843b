"""End-to-end wiring: raw texts -> tokens -> TF-IDF -> classifier scores.

This is the layer the CLI and the ensemble runner share.  It owns the
vocabulary-hash handshake: a bundle records the SHA-256 of the tokenizer
file it was trained with and refuses to score tokens from any other.
"""

from __future__ import annotations

import numpy as np

from .corpus import LabeledCorpus
from .errors import FeatureError, ModelError
from .features import (TfidfConfig, encode_words, fit_tfidf, fit_word_vocab,
                       transform_corpus, word_vocab_ref)
from .models import (KIND_NAIVE_BAYES, KIND_SGD_LINEAR, MODEL_KINDS,
                     GbdtConfig, ModelBundle, SgdConfig, save_model,
                     train_gbdt, train_nb, train_sgd, vocab_hash)
from .models.naive_bayes import DEFAULT_ALPHA
from .tokenizer import BpeVocab, TokenCorpus, encode_corpus

TOKEN_SOURCE_BPE = "bpe"
TOKEN_SOURCE_WHITESPACE = "whitespace"
TOKEN_SOURCES = (TOKEN_SOURCE_BPE, TOKEN_SOURCE_WHITESPACE)


def check_vocab_ref(bundle: ModelBundle, vocab_bytes: bytes) -> None:
    actual = vocab_hash(vocab_bytes)
    if bundle.vocab_ref != actual:
        raise ModelError(
            f"vocabulary hash mismatch: bundle was trained with "
            f"{bundle.vocab_ref}, tokenizer file is {actual}")


def tokenize_texts(texts: list[str], word_vocab: list[str] | None,
                   bpe_vocab: BpeVocab | None) -> TokenCorpus:
    """Whitespace word ids when there is a word vocabulary, else BPE ids."""
    if word_vocab is not None:
        return encode_words(word_vocab, texts)
    if bpe_vocab is None:
        raise ModelError("model was trained on BPE tokens; a tokenizer "
                         "vocabulary is required to score text")
    return encode_corpus(bpe_vocab, texts)


def train_bundle(kind: str, corpus: LabeledCorpus, *, tfidf_config: TfidfConfig,
                 token_source: str = TOKEN_SOURCE_BPE,
                 bpe_vocab: BpeVocab | None = None,
                 vocab_bytes: bytes | None = None,
                 nb_alpha: float = DEFAULT_ALPHA, sgd_config=None,
                 gbdt_config=None,
                 seed: int | None = None,
                 config_hash: str | None = None) -> bytes:
    """Tokenize, fit TF-IDF, train one classifier, and emit its bundle.
    A config left as None takes its trainer's defaults."""
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    if token_source == TOKEN_SOURCE_WHITESPACE:
        word_vocab = fit_word_vocab(corpus.texts)
        ref = word_vocab_ref(word_vocab)
    elif token_source == TOKEN_SOURCE_BPE:
        if bpe_vocab is None or vocab_bytes is None:
            raise ModelError("BPE token source requires a trained tokenizer "
                             "vocabulary (run tokenize-train first)")
        word_vocab, ref = None, vocab_hash(vocab_bytes)
    else:
        raise ModelError(f"unknown token source {token_source!r}")
    sequences = tokenize_texts(corpus.texts, word_vocab, bpe_vocab)

    tfidf = fit_tfidf(sequences, tfidf_config)
    if not tfidf.n_features:
        # Such a model scores every document alike.
        raise FeatureError(
            f"no n-gram of ngram_min = {tfidf_config.ngram_min} to "
            f"ngram_max = {tfidf_config.ngram_max} tokens is in at least "
            f"min_df = {tfidf_config.min_df} of the {len(corpus)} training "
            f"documents; nothing to train on")
    tfidf.word_vocab = word_vocab
    X = transform_corpus(tfidf, sequences)

    if kind == KIND_NAIVE_BAYES:
        model = train_nb(X, corpus.labels, alpha=nb_alpha)
    elif kind == KIND_SGD_LINEAR:
        model = train_sgd(X, corpus.labels, sgd_config or SgdConfig())
    else:
        model = train_gbdt(X, corpus.labels, gbdt_config or GbdtConfig())
    return save_model(model, tfidf, ref, seed=seed, config_hash=config_hash)


def score_texts(bundle: ModelBundle, texts: list[str],
                bpe_vocab: BpeVocab | None,
                sequences: TokenCorpus | None = None,
                ) -> tuple[np.ndarray, TokenCorpus]:
    """Probability of class 1 per text; returns the tokenized corpus too so
    callers scoring several same-vocabulary bundles can reuse it."""
    if sequences is None:
        sequences = tokenize_texts(texts, bundle.tfidf.word_vocab, bpe_vocab)
    X = transform_corpus(bundle.tfidf, sequences)
    return bundle.predict_proba(X), sequences
