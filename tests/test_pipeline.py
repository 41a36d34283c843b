import numpy as np
import pytest

from llmdetect.corpus import (LabeledCorpus, SplitSpec, split_corpus,
                              synth_corpus)
from llmdetect.errors import ModelError
from llmdetect.features import TfidfConfig
from llmdetect.metrics import roc_auc
from llmdetect.models import GbdtConfig, SgdConfig, load_model
from llmdetect.pipeline import (check_vocab_ref, score_texts, train_bundle,
                                word_vocab_ref)
from llmdetect.tokenizer import save_vocab, train_bpe


def nb_pipeline_auc(corpus, vocab_size=250, ngram_max=1, min_df=2):
    """Full pipeline AUC of a naive Bayes detector on a held-out split."""
    train, test = split_corpus(corpus, SplitSpec(test_fraction=0.25, seed=1))
    vocab = train_bpe(train.texts, vocab_size=vocab_size)
    vocab_bytes = save_vocab(vocab)
    data = train_bundle("naive_bayes", train,
                        tfidf_config=TfidfConfig(1, ngram_max, min_df=min_df),
                        bpe_vocab=vocab, vocab_bytes=vocab_bytes)
    bundle = load_model(data)
    check_vocab_ref(bundle, vocab_bytes)
    scores, _ = score_texts(bundle, test.texts, vocab)
    return roc_auc(scores, test.labels)


class TestSyntheticSeparation:
    def test_zero_divergence_near_chance(self):
        auc = nb_pipeline_auc(synth_corpus(200, seed=3, divergence=0.0))
        assert 0.3 <= auc <= 0.7

    def test_full_divergence_separates(self):
        # disjoint high-frequency vocabularies: the pipeline must nail it
        auc = nb_pipeline_auc(synth_corpus(1000, seed=42, divergence=1.0))
        assert auc >= 0.99

    def test_divergence_monotonicity_over_seeds(self):
        low, high = [], []
        for seed in range(5):
            low.append(nb_pipeline_auc(synth_corpus(40, seed=seed,
                                                    divergence=0.2)))
            high.append(nb_pipeline_auc(synth_corpus(40, seed=seed,
                                                     divergence=0.8)))
        assert np.mean(high) >= np.mean(low)


class TestWhitespaceFallback:
    def test_word_token_bundle_round_trip(self):
        corpus = synth_corpus(40, seed=9, divergence=0.9)
        train, test = split_corpus(corpus, SplitSpec(test_fraction=0.25, seed=9))
        data = train_bundle("naive_bayes", train,
                            tfidf_config=TfidfConfig(1, 2, min_df=2),
                            token_source="whitespace")
        bundle = load_model(data)
        assert bundle.tfidf.word_vocab is not None
        assert bundle.tfidf.word_vocab[0] == "<unk>"
        assert bundle.vocab_ref == word_vocab_ref(bundle.tfidf.word_vocab)
        # no tokenizer file needed to score
        scores, _ = score_texts(bundle, test.texts, bpe_vocab=None)
        assert roc_auc(scores, test.labels) >= 0.9

    def test_bpe_mode_requires_vocab(self):
        corpus = synth_corpus(10, seed=2, divergence=0.5)
        with pytest.raises(ModelError, match="tokenizer"):
            train_bundle("naive_bayes", corpus,
                         tfidf_config=TfidfConfig(1, 1, min_df=1))

    def test_unknown_kind_rejected(self):
        corpus = synth_corpus(10, seed=2, divergence=0.5)
        with pytest.raises(ModelError, match="kind"):
            train_bundle("transformer", corpus,
                         tfidf_config=TfidfConfig(1, 1, min_df=1),
                         token_source="whitespace")

    def test_unknown_kind_rejected_before_tokenizing(self):
        # once refused only after tokenizing and fitting TF-IDF, so a BPE
        # run without a tokenizer named the missing vocabulary instead
        corpus = synth_corpus(10, seed=2, divergence=0.5)
        with pytest.raises(ModelError, match="kind"):
            train_bundle("transformer", corpus,
                         tfidf_config=TfidfConfig(1, 1, min_df=1))

    @pytest.mark.parametrize("kind, key, default", [
        ("sgd_linear", "sgd_config", SgdConfig()),
        ("gbdt", "gbdt_config", GbdtConfig())])
    def test_missing_config_means_defaults(self, kind, key, default):
        # each once an AttributeError on None ('eta0', 'n_bins')
        corpus = synth_corpus(10, seed=2, divergence=0.5)
        vocab = train_bpe(corpus.texts, vocab_size=100)
        given = dict(tfidf_config=TfidfConfig(1, 1, min_df=1),
                     bpe_vocab=vocab, vocab_bytes=save_vocab(vocab))
        assert (train_bundle(kind, corpus, **given)
                == train_bundle(kind, corpus, **given, **{key: default}))


    def test_large_word_vocabulary_trains_in_time(self, time_bound):
        # The word -> id table was once rebuilt for every document: these
        # 1,000 documents over 100,000 distinct words took 22 s (2-vCPU
        # x86-64); one shared table takes about 1 s.
        n_docs, per_doc = 1000, 100
        corpus = LabeledCorpus(
            ids=[f"d{i}" for i in range(n_docs)],
            texts=[" ".join(f"w{i * per_doc + j}" for j in range(per_doc))
                   for i in range(n_docs)],
            labels=[i % 2 for i in range(n_docs)])
        with time_bound(10):
            data = train_bundle("naive_bayes", corpus,
                                tfidf_config=TfidfConfig(1, 1, min_df=1),
                                token_source="whitespace")
        bundle = load_model(data)
        assert len(bundle.tfidf.word_vocab) == n_docs * per_doc + 1
        assert bundle.tfidf.n_features == n_docs * per_doc

    def test_literal_unknown_word_scores(self):
        corpus = synth_corpus(10, seed=2, divergence=0.9)
        corpus.texts[0] = "<unk> " + corpus.texts[0]
        bundle = load_model(train_bundle(
            "naive_bayes", corpus, tfidf_config=TfidfConfig(1, 1, min_df=1),
            token_source="whitespace"))
        assert bundle.tfidf.word_vocab[:2] == ["<unk>", "<unk>"]
        scores, sequences = score_texts(bundle, corpus.texts, bpe_vocab=None)
        first = sequences.ids[:sequences.lengths[0]]
        assert len(scores) == len(corpus) and 1 in first.tolist()


class TestVocabHandshake:
    def test_mismatch_reports_both_hashes(self):
        corpus = synth_corpus(15, seed=4, divergence=0.8)
        vocab = train_bpe(corpus.texts, vocab_size=200)
        data = train_bundle("naive_bayes", corpus,
                            tfidf_config=TfidfConfig(1, 1, min_df=1),
                            bpe_vocab=vocab, vocab_bytes=save_vocab(vocab))
        bundle = load_model(data)
        other = train_bpe(["different corpus entirely"], vocab_size=100)
        with pytest.raises(ModelError) as err:
            check_vocab_ref(bundle, save_vocab(other))
        assert bundle.vocab_ref in str(err.value)
