"""Acceptance suite: every exit criterion at its stated tolerance.

Each test is one criterion; the conftest hook prints a PASS/FAIL line per
criterion when this module runs.  Criteria that are statements about whole
pipelines run them for real, at desk scale, under their time budgets.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from llmdetect.cli import main as cli_main
from llmdetect.corpus import SplitSpec, split_corpus, synth_corpus
from llmdetect.ensemble import (EnsembleSpec, Voter, load_external_scores,
                                run_ensemble, soft_vote)
from llmdetect.features import TfidfConfig, fit_tfidf, transform_corpus
from llmdetect.metrics import roc_auc, roc_auc_exact, roc_curve, \
    trapezoid_auc_exact
from llmdetect.models import (GbdtConfig, SgdConfig, load_model, save_model,
                              train_gbdt, train_nb, train_sgd, vocab_hash)
from llmdetect.tokenizer import encode, save_vocab, train_bpe
from conftest import random_sparse
from gbdt_compare import (assert_leafwise_equal, assert_symmetric_equal,
                          replay_boosting)
from oracles import (bpe_merges_oracle, csr_row, finite_difference_gradient,
                     pairwise_auc_oracle, sample_gradient, sample_loss,
                     sparse_from_dense, tfidf_oracle, vector_pairs)


def test_bpe_merge_oracle_100_corpora():
    """First 20 merges match a from-scratch pair recount on 100 corpora."""
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        n_words = rng.randint(1, 50)
        words = ["".join(rng.choice("abcdef")
                         for _ in range(rng.randint(1, 7)))
                 for _ in range(n_words)]
        cut = rng.randint(0, n_words)
        texts = [" ".join(words[:cut]), " ".join(words[cut:])]
        if not any(t.split() for t in texts):
            continue
        vocab = train_bpe(texts, vocab_size=10_000)
        expected = bpe_merges_oracle(texts, max_merges=20)
        got = vocab.merges[:20]
        assert got == expected[:len(got)]
        assert len(got) == min(20, len(expected))
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"BPE oracle sweep took {elapsed:.1f}s"


def test_tfidf_hand_oracle():
    """3-document toy corpus matches scalar arithmetic to 1e-9, covering
    the idf floor and the ln(2)+1 value."""
    from llmdetect.tokenizer import TokenSequence
    docs = [(1, 2, 1, 3), (2, 2, 4), (1, 4, 4, 4, 2)]
    seqs = [TokenSequence(ids=d) for d in docs]
    for l2_normalize in (False, True):
        cfg = TfidfConfig(1, 2, min_df=1, l2_normalize=l2_normalize)
        model = fit_tfidf(seqs, cfg)
        # token 2 appears in every document: idf at the floor
        assert abs(model.idf[model.vocabulary.ngram_to_col[(2,)]] - 1.0) < 1e-15
        # token 3 appears in 1 of 3 documents: ln(4/2) + 1
        assert abs(model.idf[model.vocabulary.ngram_to_col[(3,)]]
                   - 1.6931471805599454) < 1e-15
        expected = tfidf_oracle(docs, 1, 2, 1, False, l2_normalize)
        ngrams = model.vocabulary.ngrams
        for seq, wanted in zip(seqs, expected):
            vec = csr_row(transform_corpus(model, [seq]), 0)
            got = {ngrams[c]: w for c, w in vector_pairs(vec)}
            assert set(got) == set(wanted)
            for term, weight in wanted.items():
                assert abs(got[term] - weight) < 1e-9


def test_naive_bayes_posteriors():
    """Posterior sums to 1 within 1e-9 on 1,000 inputs; hand example 1/3."""
    rng = np.random.default_rng(5)
    X, _ = random_sparse(rng, 60, 15)
    y = (rng.random(60) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    model = train_nb(X, y, alpha=1.0)
    probe, _ = random_sparse(rng, 1000, 15)
    p1 = model.predict_proba(probe)
    score0 = model.log_prior[0] + probe.dot(model.log_likelihood[0])
    score1 = model.log_prior[1] + probe.dot(model.log_likelihood[1])
    high = np.maximum(score0, score1)
    p0 = np.exp(score0 - high) / (np.exp(score0 - high) + np.exp(score1 - high))
    assert np.max(np.abs(p0 + p1 - 1.0)) < 1e-9

    hand = train_nb(sparse_from_dense([[3.0, 1.0], [1.0, 3.0]]), [0, 1],
                    alpha=1.0)
    got = hand.predict_proba(sparse_from_dense([[1.0, 0.0]]))[0]
    assert abs(got - 1.0 / 3.0) < 1e-12


def test_sgd_gradient_and_separable_fit():
    """FD gradient check < 1e-5 over 20 points; separable data fit 100%."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n_features = int(rng.integers(3, 9))
        nnz = int(rng.integers(1, n_features + 1))
        cols = np.sort(rng.choice(n_features, size=nnz, replace=False))
        vals = rng.normal(size=nnz)
        label = int(rng.integers(0, 2))
        l2 = float(rng.choice([0.0, 0.1, 0.5]))
        theta = rng.normal(size=n_features + 1)
        analytic = sample_gradient(theta, cols, vals, label, l2)
        numeric = finite_difference_gradient(
            lambda t: sample_loss(t, cols, vals, label, l2), theta)
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(analytic), 1e-12))
        worst = max(worst, rel)
    assert worst < 1e-5, f"worst relative gradient error {worst:.2e}"

    pos = rng.uniform(0.6, 1.0, size=(10, 2))
    neg = rng.uniform(0.0, 0.4, size=(10, 2))
    X = sparse_from_dense(np.vstack([pos, neg]))
    y = [1] * 10 + [0] * 10
    model = train_sgd(X, y, SgdConfig(eta0=0.5, l2=0.0, epochs=100, seed=0))
    assert list((model.predict_proba(X) >= 0.5).astype(int)) == y


def test_gbdt_exhaustive_oracle_and_threshold_dataset():
    """Trees equal the exhaustive-split oracle node for node; the 1-D
    threshold dataset reaches training AUC 1.0 within 5 trees."""
    start = time.monotonic()
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X, dense = random_sparse(rng, 100, 5, max_distinct=9)
        y = ((dense[:, 0] + dense[:, 1] + 0.3 * rng.random(100)) > 0.7)
        y = y.astype(np.float64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = GbdtConfig(n_trees=3, learning_rate=0.3, max_leaves=8,
                         n_bins=64, min_data_in_leaf=3)
        model = train_gbdt(X, y.astype(int), cfg)
        base, rounds = replay_boosting(dense, y, cfg, "leaf_wise")
        assert abs(model.base_score - base) < 1e-12
        for tree, (oracle_root, _) in zip(model.trees, rounds):
            assert_leafwise_equal(tree, oracle_root, X, 100)

        cfg_sym = GbdtConfig(variant="symmetric", n_trees=3, learning_rate=0.3,
                             depth=3, n_bins=64, min_data_in_leaf=3)
        model_sym = train_gbdt(X, y.astype(int), cfg_sym)
        _, rounds_sym = replay_boosting(dense, y, cfg_sym, "symmetric")
        for tree, oracle_round in zip(model_sym.trees, rounds_sym):
            assert_symmetric_equal(tree, oracle_round, X, 100)

    rng = np.random.default_rng(3)
    x = rng.random(200)
    y = (x > 0.5).astype(int)
    X = sparse_from_dense(x[:, None])
    for variant in ("leaf_wise", "symmetric"):
        cfg = GbdtConfig(variant=variant, n_trees=5, learning_rate=0.3,
                         max_leaves=8, depth=3, n_bins=255, min_data_in_leaf=5)
        model = train_gbdt(X, y, cfg)
        assert roc_auc(model.predict_proba(X), y) == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"GBDT oracle suite took {elapsed:.1f}s"


def test_roc_auc_oracle_1000_instances():
    """Sorted tie-aware AUC equals the all-pairs oracle exactly on 1,000
    random tied instances; rank identities hold exactly."""
    rng = random.Random(777)
    grid = [i / 9 for i in range(10)]
    for _ in range(1000):
        n = rng.randint(2, 200)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) == 0:
            labels[0] = 1
        if sum(labels) == n:
            labels[0] = 0
        scores = [rng.choice(grid) if rng.random() < 0.5 else rng.random()
                  for _ in range(n)]
        exact = roc_auc_exact(scores, labels)
        oracle = pairwise_auc_oracle(scores, labels)
        assert exact == oracle
        assert roc_auc(scores, labels) == float(oracle)
        assert trapezoid_auc_exact(roc_curve(scores, labels)) == oracle
        # monotone invariance: identical tie structure, identical floats
        transformed = [math.exp(2.0 * s) for s in scores]
        assert roc_auc(transformed, labels) == roc_auc(scores, labels)
        # label complement, exact in rational arithmetic
        assert roc_auc_exact(scores, [1 - y for y in labels]) == 1 - exact


@pytest.fixture(scope="module")
def desk_scale_run():
    """The end-to-end experiment: 1000 docs/class at divergence 0.8."""
    start = time.monotonic()
    corpus = synth_corpus(1000, seed=42, divergence=0.8)
    train, test = split_corpus(corpus, SplitSpec(test_fraction=0.2, seed=42))
    vocab = train_bpe(train.texts, vocab_size=400)
    train_seqs = [encode(vocab, t) for t in train.texts]
    test_seqs = [encode(vocab, t) for t in test.texts]
    tfidf = fit_tfidf(train_seqs, TfidfConfig(1, 2, min_df=3))
    X_train = transform_corpus(tfidf, train_seqs)
    X_test = transform_corpus(tfidf, test_seqs)

    models = {
        "naive_bayes": train_nb(X_train, train.labels, alpha=1.0),
        "sgd_linear": train_sgd(X_train, train.labels,
                                SgdConfig(eta0=0.5, l2=1e-4, epochs=8,
                                          seed=42)),
        "gbdt_leaf_wise": train_gbdt(X_train, train.labels, GbdtConfig(
            n_trees=30, learning_rate=0.3, max_leaves=15, n_bins=16,
            min_data_in_leaf=20)),
        "gbdt_symmetric": train_gbdt(X_train, train.labels, GbdtConfig(
            variant="symmetric", n_trees=30, learning_rate=0.3, depth=5,
            n_bins=16, min_data_in_leaf=20)),
    }
    scores = {name: m.predict_proba(X_test) for name, m in models.items()}
    elapsed = time.monotonic() - start
    return {"test_labels": test.labels, "scores": scores, "elapsed": elapsed}


def test_end_to_end_desk_scale(desk_scale_run):
    """Each model reaches held-out AUC >= 0.90; the uniform soft-voting
    ensemble is within 0.01 of the best member; run under 60 s."""
    labels = desk_scale_run["test_labels"]
    aucs = {name: roc_auc(s, labels)
            for name, s in desk_scale_run["scores"].items()}
    for name, auc in aucs.items():
        assert auc >= 0.90, f"{name} held-out AUC {auc:.4f} < 0.90"
    voter_scores = [list(s) for s in desk_scale_run["scores"].values()]
    ensemble_auc = roc_auc(soft_vote(voter_scores, [1.0] * len(voter_scores)),
                           labels)
    assert ensemble_auc >= max(aucs.values()) - 0.01
    assert desk_scale_run["elapsed"] < 60.0, \
        f"end-to-end run took {desk_scale_run['elapsed']:.1f}s"


def test_ensemble_identity_and_scale_invariance():
    """Single-voter identity is exact; rescaling weights by 0.5 / 3 / 100
    changes no output bit."""
    rng = np.random.default_rng(6)
    scores = [rng.random(200).tolist() for _ in range(4)]
    single = soft_vote([scores[0]], [7.0])
    np.testing.assert_array_equal(single, scores[0])

    weights = [1.0, 2.0, 0.5, 4.0]
    base = soft_vote(scores, weights)
    for c in (0.5, 3.0, 100.0):
        rescaled = soft_vote(scores, [c * w for w in weights])
        assert np.array_equal(rescaled, base), f"bit change at c={c}"


def test_external_blending_lifts_weak_voter(tmp_path):
    """A perfect-oracle score file blended 3:1 against a weak voter beats
    the weak voter alone."""
    corpus = synth_corpus(150, seed=7, divergence=0.5)
    train, test = split_corpus(corpus, SplitSpec(test_fraction=0.3, seed=7))
    vocab = train_bpe(train.texts, vocab_size=300)
    train_seqs = [encode(vocab, t) for t in train.texts]
    tfidf = fit_tfidf(train_seqs, TfidfConfig(1, 1, min_df=2))
    X_train = transform_corpus(tfidf, train_seqs)
    # a single stump can emit only two distinct scores: weak by construction
    stump = train_gbdt(X_train, train.labels, GbdtConfig(
        n_trees=1, max_leaves=2, n_bins=32, min_data_in_leaf=10,
        learning_rate=1.0))
    bundle = load_model(save_model(stump, tfidf,
                                   vocab_ref=vocab_hash(save_vocab(vocab))))

    from llmdetect.pipeline import score_texts
    weak_scores, _ = score_texts(bundle, test.texts, vocab)
    weak_auc = roc_auc(weak_scores, test.labels)
    assert weak_auc < 1.0

    oracle_path = tmp_path / "oracle.csv"
    oracle_path.write_text("id,score\n" + "".join(
        f"{doc_id},{float(label)}\n"
        for doc_id, label in zip(test.ids, test.labels)))
    spec = EnsembleSpec(voters=[
        Voter(weight=3.0, external=load_external_scores(oracle_path)),
        Voter(weight=1.0, bundle=bundle),
    ])
    blended = run_ensemble(spec, test, vocab)
    assert roc_auc(blended, test.labels) > weak_auc


def test_cli_determinism_all_commands(tmp_path, capsys):
    """Every subcommand re-run with identical inputs produces byte-identical
    artifacts."""
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nseed = 11\n"
        "[tokenizer]\nvocab_size = 120\n"
        "[features]\nngram_max = 2\nmin_df = 1\n"
        "[sgd]\nepochs = 3\n"
        "[gbdt]\nn_trees = 4\nmax_leaves = 4\nn_bins = 16\n"
        "min_data_in_leaf = 2\n")

    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    outputs = {}

    def artifacts(tag):
        run(["synth", "--n-per-class", "15", "--divergence", "0.9",
             "--seed", "5", "--out", tmp_path / f"corpus{tag}.jsonl"])
        run(["tokenize-train", tmp_path / f"corpus{tag}.jsonl",
             "--out", tmp_path / f"vocab{tag}.json", "--config", config])
        run(["train", tmp_path / f"corpus{tag}.jsonl", "--kind", "gbdt",
             "--out", tmp_path / f"model{tag}.json",
             "--vocab", tmp_path / f"vocab{tag}.json", "--config", config])
        run(["predict", tmp_path / f"model{tag}.json",
             tmp_path / f"corpus{tag}.jsonl",
             "--out", tmp_path / f"scores{tag}.csv",
             "--vocab", tmp_path / f"vocab{tag}.json"])
        spec = {"format_version": 1, "combine": "probability_mean",
                "voters": [{"model": f"model{tag}.json", "weight": 1.0},
                           {"scores": f"scores{tag}.csv", "weight": 1.0}]}
        (tmp_path / f"spec{tag}.json").write_text(json.dumps(spec))
        run(["ensemble", tmp_path / f"spec{tag}.json",
             tmp_path / f"corpus{tag}.jsonl",
             "--out", tmp_path / f"combined{tag}.csv",
             "--vocab", tmp_path / f"vocab{tag}.json"])
        run(["evaluate", tmp_path / f"scores{tag}.csv",
             tmp_path / f"corpus{tag}.jsonl",
             "--json", tmp_path / f"report{tag}.json"])
        return {name: (tmp_path / f"{name}{tag}{ext}").read_bytes()
                for name, ext in [("corpus", ".jsonl"), ("vocab", ".json"),
                                  ("model", ".json"), ("scores", ".csv"),
                                  ("combined", ".csv"), ("report", ".json")]}

    first = artifacts("_a")
    second = artifacts("_b")
    for name in first:
        assert first[name] == second[name], f"{name} differs between re-runs"
