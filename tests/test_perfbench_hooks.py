"""The benchmark's hooks into the library, checked without a benchmark run.

``perfbench/workloads.py`` spans the library calls made inside
``run_ensemble``, ``collect_voter_scores`` and ``tune_weights`` by patching
module attributes by name (``SCORING_PATCHES``, ``TUNE_PATCHES``), and its
mirror check calls ``pipeline.train_bundle`` and ``pipeline.score_texts``
with fixed keyword arguments.  A refactor that renames or bypasses one of
them would otherwise show only in a traced or checked benchmark run.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from llmdetect import pipeline
from llmdetect.corpus import synth_corpus
from llmdetect.ensemble import (COMBINERS, EnsembleSpec, Voter,
                                collect_voter_scores, run_ensemble,
                                tune_weights)
from llmdetect.models import GbdtConfig, SgdConfig, load_model
from llmdetect.tokenizer import save_vocab, train_bpe

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer, inner_spans  # noqa: E402


@pytest.fixture(scope="module")
def trained():
    """Each benchmark model trained as the mirror check trains it."""
    corpus = synth_corpus(20, seed=3, divergence=0.5)
    vocab = train_bpe(corpus.texts, vocab_size=150)
    vocab_bytes = save_vocab(vocab)
    bundles = {}
    for model in workloads.MODELS:
        gbdt = (GbdtConfig(variant=model.split(".")[1], n_trees=2, n_bins=16)
                if model.startswith("gbdt") else None)
        bundles[model] = pipeline.train_bundle(
            workloads.LIBRARY_KIND[model], corpus,
            tfidf_config=workloads.TFIDF, bpe_vocab=vocab,
            vocab_bytes=vocab_bytes, nb_alpha=workloads.NB_ALPHA,
            sgd_config=SgdConfig(epochs=2, seed=1), gbdt_config=gbdt, seed=1)
    return corpus, vocab, bundles


def voters(bundles):
    return [Voter(weight=1.0, bundle=load_model(bundles[m]), name=m)
            for m in workloads.MODELS]


def span_names(patches, voter_list) -> set[str]:
    """The span each patch opens when the library calls it."""
    names = set()
    for _, _, name in patches:
        names |= ({name(v.bundle) for v in voter_list} if callable(name)
                  else {name})
    return names


def test_mirror_check_calls(trained):
    corpus, vocab, bundles = trained
    sequences = None
    for model in workloads.MODELS:
        bundle = load_model(bundles[model])
        assert workloads.model_key(bundle) == model
        scores, sequences = pipeline.score_texts(
            bundle, corpus.texts, vocab, sequences=sequences)
        assert scores.shape == (len(corpus),)


@pytest.mark.parametrize("token_source", ["bpe", "whitespace"])
def test_score_texts_takes_back_its_tokens(trained, token_source):
    # the mirror check hands each score_texts result back as sequences=
    corpus, vocab, bundles = trained
    data = (bundles["naive_bayes"] if token_source == "bpe" else
            pipeline.train_bundle("naive_bayes", corpus,
                                  tfidf_config=workloads.TFIDF,
                                  token_source=token_source))
    bundle = load_model(data)
    scores, sequences = pipeline.score_texts(bundle, corpus.texts, vocab)
    again, returned = pipeline.score_texts(bundle, corpus.texts, vocab,
                                           sequences=sequences)
    assert returned is sequences
    assert again.dtype == scores.dtype and again.tobytes() == scores.tobytes()


def test_scoring_patches_fire(trained):
    corpus, vocab, bundles = trained
    spec = EnsembleSpec(voters=voters(bundles))
    untraced = run_ensemble(spec, corpus, vocab)
    for call in (run_ensemble, collect_voter_scores):
        tracer = Tracer("t", True)
        with inner_spans(tracer, workloads.SCORING_PATCHES):
            out = call(spec, corpus, vocab)
        fired = {s["name"] for s in tracer.spans}
        wanted = span_names(workloads.SCORING_PATCHES, spec.voters)
        if call is collect_voter_scores:
            wanted.discard("ensemble.soft_vote")
        else:
            np.testing.assert_array_equal(out, untraced)
        assert wanted <= fired, wanted - fired


def test_ensemble_encodes_and_featurizes_once(trained):
    # the four benchmark bundles share one TF-IDF model, so a traced
    # ensemble round opens one encode and one transform span, not four
    corpus, vocab, bundles = trained
    spec = EnsembleSpec(voters=voters(bundles))
    tracer = Tracer("t", True)
    with inner_spans(tracer, workloads.SCORING_PATCHES):
        run_ensemble(spec, corpus, vocab)
    fired = Counter(s["name"] for s in tracer.spans)
    assert fired["tokenizer.encode"] == 1
    assert fired["features.transform_corpus"] == 1
    for model in workloads.MODELS:
        assert fired[f"models.{model}.predict"] == 1, model


def test_tune_patches_fire(trained):
    corpus, vocab, bundles = trained
    per_voter = collect_voter_scores(EnsembleSpec(voters=voters(bundles)),
                                     corpus, vocab)
    tracer = Tracer("t", True)
    with inner_spans(tracer, workloads.TUNE_PATCHES):
        for combine in COMBINERS:
            tune_weights(per_voter, corpus.labels, combine=combine, step=0.5)
    fired = {s["name"] for s in tracer.spans}
    wanted = span_names(workloads.TUNE_PATCHES, [])
    assert wanted <= fired, wanted - fired
