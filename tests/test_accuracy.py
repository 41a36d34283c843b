"""Accuracy gate: held-out AUC of each model on the hard corpus.

The corpus is perfbench's hard one, rebuilt through the library:
``synth_corpus(150, seed, 0.0004)``, a stratified 20% holdout, a BPE
vocabulary of 5,000 and every model at its CLI defaults (GBDT with 200
trees of 255 bins).  AUC on it lies well below 1.0, so a change that costs
accuracy can fail here, where the acceptance suite's easy corpus scores
1.0 for every model.

Each band is [lowest - 0.05, min(highest + 0.05, 0.99)] of the model's
held-out AUC over seeds 1-10, measured at commit f7997d5 (before SGD's
lazy L2):

    naive_bayes     0.696 - 0.911
    sgd_linear      0.812 - 0.960
    gbdt.leaf_wise  0.708 - 0.921
    gbdt.symmetric  0.707 - 0.927

The gate runs on seeds 11-13, which set no band.
"""

import pytest

from llmdetect.corpus import SplitSpec, split_corpus, synth_corpus
from llmdetect.features import TfidfConfig, fit_tfidf, transform_corpus
from llmdetect.metrics import roc_auc
from llmdetect.models import (GbdtConfig, SgdConfig, train_gbdt, train_nb,
                              train_sgd)
from llmdetect.tokenizer import encode_corpus, train_bpe

SEEDS = (11, 12, 13)
BANDS = {
    "naive_bayes": (0.65, 0.96),
    "sgd_linear": (0.75, 0.99),
    "gbdt.leaf_wise": (0.65, 0.97),
    "gbdt.symmetric": (0.65, 0.98),
}
TRAINERS = {
    "naive_bayes": lambda X, y, seed: train_nb(X, y),
    "sgd_linear": lambda X, y, seed: train_sgd(X, y, SgdConfig(seed=seed)),
    "gbdt.leaf_wise": lambda X, y, seed: train_gbdt(
        X, y, GbdtConfig(variant="leaf_wise")),
    "gbdt.symmetric": lambda X, y, seed: train_gbdt(
        X, y, GbdtConfig(variant="symmetric")),
}


def holdout_aucs(seed: int) -> dict[str, float]:
    corpus = synth_corpus(150, seed, 0.0004)
    train, holdout = split_corpus(corpus, SplitSpec(test_fraction=0.2,
                                                    seed=seed))
    vocab = train_bpe(train.texts, vocab_size=5000)
    train_ids = encode_corpus(vocab, train.texts)
    tfidf = fit_tfidf(train_ids, TfidfConfig())
    X = transform_corpus(tfidf, train_ids)
    X_holdout = transform_corpus(tfidf, encode_corpus(vocab, holdout.texts))
    return {name: float(roc_auc(fit(X, train.labels, seed)
                                .predict_proba(X_holdout), holdout.labels))
            for name, fit in TRAINERS.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_holdout_auc_in_band(seed, time_bound):
    # about 5 s a seed on a 2-CPU machine, nearly all of it GBDT
    with time_bound(60):
        aucs = holdout_aucs(seed)
    outside = {name: auc for name, auc in aucs.items()
               if not BANDS[name][0] <= auc <= BANDS[name][1]}
    assert not outside, f"held-out AUC outside its band: {outside}"
