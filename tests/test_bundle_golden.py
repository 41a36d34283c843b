"""Golden bundle bytes: ``save_model`` output is pinned by SHA-256.

A small fixed corpus is tokenized, featurized and used to train each model
kind; the canonical bundle bytes must hash to the recorded values, so any
change to a serializer, a default, or a training path that moves a single
output bit shows up here.  The hashes were recorded on x86-64 with
numpy 2.x and OpenBLAS.  They pin float results, and two of those go
through BLAS ``ddot``: each TF-IDF row's L2 norm and each SGD step's
margin.  OpenBLAS picks its ``ddot`` kernel for the CPU at run time, and
the kernels sum in different orders, so a machine whose OpenBLAS picks
another kernel (``OPENBLAS_CORETYPE=Haswell`` forces one) writes other
bytes with no code change.
"""

import hashlib

import pytest

from llmdetect.corpus import synth_corpus
from llmdetect.features import TfidfConfig, fit_tfidf, transform_corpus
from llmdetect.models import (GbdtConfig, SgdConfig, save_model, train_gbdt,
                              train_nb, train_sgd, vocab_hash)
from llmdetect.tokenizer import encode, save_vocab, train_bpe
from conftest import v1_rendering

GOLDEN_SHA256 = {
    "naive_bayes":
        "877b0f78d8afb20e1887377449616147a0596fe805bc27e0428551f75b85a3a2",
    "sgd_linear":
        "a33e9552578354abb4fa572de6a8c760423d23adbfdbf6306adf940e1d998340",
    "sgd_linear.l2_zero":
        "0bff5bea3c928a6692e2a7956c11d5c1ac28ca969bbd76d74d69f165d52d1811",
    "gbdt.leaf_wise":
        "05dc2b73a20538348a43574cff172e007dff56f423babc2d85d0550166a0f736",
    "gbdt.symmetric":
        "18358e4ac73a34940e43199ad79a33d31edd56597fbf6bb066f1cfcde7d7e8c4",
}

# The same bundles in format 1, which held every array as a JSON list.  The
# format-1 rendering of each bundle above must still hash to these, so
# format 2 moved the encoding and no model number.
GOLDEN_V1_SHA256 = {
    "naive_bayes":
        "4b26256fb628f950dcf173656d8f9c2fec4b3f3d59c6843e1ef5af729dfe5639",
    "sgd_linear":
        "c59b77ad93723cd5bd349542d32cc8ff3ef8c5d92a454602e8da9804074c4bd1",
    "sgd_linear.l2_zero":
        "ae56c2a258f2fe1bba6d2443b3f90a98b30245dbe12276068104d654516a52aa",
    "gbdt.leaf_wise":
        "a84db3ae284c4be0d5bcf61c29a92768fb426221e70ff8363fc782d89707c6b6",
    "gbdt.symmetric":
        "267fe12c7718d7b890ab1be71317521a3a8c1eddd4de6f8fa0aecce5217140d9",
}


@pytest.fixture(scope="module")
def fitted():
    corpus = synth_corpus(30, seed=8, divergence=0.0005)
    vocab = train_bpe(corpus.texts, vocab_size=150)
    sequences = [encode(vocab, t) for t in corpus.texts]
    tfidf = fit_tfidf(sequences, TfidfConfig(1, 2, min_df=2))
    X = transform_corpus(tfidf, sequences)
    return corpus.labels, X, tfidf, vocab_hash(save_vocab(vocab))


def _train(name, X, y):
    if name == "naive_bayes":
        return train_nb(X, y, alpha=0.5)
    if name == "sgd_linear":
        return train_sgd(X, y, SgdConfig(epochs=3, seed=5))
    if name == "sgd_linear.l2_zero":
        # the scale stays 1.0, so the weights equal the dense loop's
        return train_sgd(X, y, SgdConfig(l2=0.0, epochs=3, seed=5))
    variant = name.split(".")[1]
    return train_gbdt(X, y, GbdtConfig(variant=variant, n_trees=3,
                                       max_leaves=6, depth=3, n_bins=32,
                                       min_data_in_leaf=3,
                                       learning_rate=0.3))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_save_model_bytes_pinned(fitted, name):
    y, X, tfidf, ref = fitted
    data = save_model(_train(name, X, y), tfidf, ref, seed=7)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]
    assert hashlib.sha256(v1_rendering(data)).hexdigest() == \
        GOLDEN_V1_SHA256[name]
