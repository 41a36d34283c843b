"""The three workloads: inputs made from a seed, one closed-loop round of
commands, and the checks on every command's output.

Every workload runs every command once per round, in the order a user of
the CLI would: ``train`` for each of the four models, a soft vote on the
holdout, ``predict``, ``ensemble``, and ``ensemble --tune-weights`` with
both combiners.  The workloads differ only in their sizes (``SHAPES``),
which decide the layer that dominates:

* ``train``: CLI-default model settings (255 GBDT bins) and small scoring
  and tuning sets, so ``models.gbdt`` training is the largest layer.
* ``score``: a cheap GBDT shape (16 bins) and a large unseen stream, so
  ``features.transform_corpus`` and ``tokenizer.encode`` are.
* ``tune``: the cheap GBDT shape and a large labelled validation set, so
  the ensemble combiners and ``metrics.roc_auc`` inside ``tune_weights``
  are.

The benchmark calls each layer's public functions in the order
``pipeline.train_bundle`` and ``pipeline.score_texts`` call them, with one
span per call; ``run_ensemble``, ``collect_voter_scores`` and
``tune_weights`` are called whole.  The first round is also checked
against the library's own wiring (the mirror check).
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from llmdetect import ensemble, pipeline
from llmdetect.corpus import SplitSpec, split_corpus, synth_corpus
from llmdetect.ensemble import (COMBINE_PROBABILITY_MEAN, COMBINE_RANK_MEAN,
                                EnsembleSpec, Voter, collect_voter_scores,
                                dump_scores, load_external_scores,
                                rank_average, run_ensemble, soft_vote,
                                tune_weights, weight_grid)
from llmdetect.features import (TfidfConfig, extract_ngrams, fit_tfidf,
                                transform_corpus)
from llmdetect.metrics import evaluation_report, roc_auc
from llmdetect.models import (GbdtConfig, LeafwiseTree, ModelBundle,
                              SgdConfig, load_model, save_model, train_gbdt,
                              train_nb, train_sgd, vocab_hash)
from llmdetect.tokenizer import encode, load_vocab, save_vocab, train_bpe

from spans import Tracer, inner_spans

# Synth divergence of the hard corpus.  Over seeds 1-10 the best single
# model's held-out AUC on the train workload has median 0.89 (0.81-0.96);
# at 0.0005 the median is 0.94, and at 0.001 every model scores >= 0.99.
DIVERGENCE = 0.0004
HOLDOUT_FRACTION = 0.2
VOCAB_SIZE = 5000
TFIDF = TfidfConfig()           # CLI defaults: 1-3-grams, min_df 2
NB_ALPHA = 1.0
SGD_EPOCHS = 10
GRID_STEP = 0.1
MIN_DATA_IN_LEAF = GbdtConfig().min_data_in_leaf
# Offsets that give the stream and the validation set their own seeds.
STREAM_SEED_OFFSET = 1_000_003
VALIDATION_SEED_OFFSET = 2_000_003

MODELS = ("naive_bayes", "sgd", "gbdt.leaf_wise", "gbdt.symmetric")
LIBRARY_KIND = {"naive_bayes": "naive_bayes", "sgd": "sgd_linear",
                "gbdt.leaf_wise": "gbdt", "gbdt.symmetric": "gbdt"}
COMBINERS = (COMBINE_PROBABILITY_MEAN, COMBINE_RANK_MEAN)


@dataclass(frozen=True)
class Shape:
    train_per_class: int        # 80% trains the models, 20% is the holdout
    stream_per_class: int       # unseen stream for predict and ensemble
    validation_per_class: int   # labelled set for tune-weights
    gbdt_trees: int
    gbdt_bins: int


SHAPES = {
    "train": Shape(train_per_class=150, stream_per_class=150,
                   validation_per_class=25, gbdt_trees=1, gbdt_bins=255),
    "score": Shape(train_per_class=150, stream_per_class=600,
                   validation_per_class=25, gbdt_trees=2, gbdt_bins=16),
    "tune": Shape(train_per_class=150, stream_per_class=150,
                  validation_per_class=75, gbdt_trees=2, gbdt_bins=16),
}

# Where the workload's headline AUC and its per-model AUCs are measured.
EVAL_SET = {"train": "holdout", "score": "stream", "tune": "validation"}
# The corpus whose encode and transform dominate the workload.
MAIN_SET = {"train": "train", "score": "stream", "tune": "validation"}


def model_key(bundle: ModelBundle) -> str:
    if bundle.kind == "gbdt":
        return f"gbdt.{bundle.model.config.variant}"
    return "sgd" if bundle.kind == "sgd_linear" else bundle.kind


# Library calls made inside run_ensemble / collect_voter_scores and
# tune_weights, spanned only in traced rounds.
SCORING_PATCHES = [
    (pipeline, "tokenize_texts", "tokenizer.encode"),
    (pipeline, "transform_corpus", "features.transform_corpus"),
    (ModelBundle, "predict_proba", lambda b: f"models.{model_key(b)}.predict"),
    (ensemble, "soft_vote", "ensemble.soft_vote"),
]
TUNE_PATCHES = [
    (ensemble, "soft_vote", "ensemble.soft_vote"),
    (ensemble, "rank_average", "ensemble.rank_average"),
    (ensemble, "roc_auc", "metrics.roc_auc"),
]


# The reference kernel: a fixed mix of the work the program does (tuple
# counting, Fraction sums, numpy bincount and sorts) that calls nothing in
# llmdetect.  It runs before every command, and every end-to-end time is
# scaled by KERNEL_NOMINAL_S over the median kernel time of its round, so a
# host that is busier or slower for a while moves kernel and commands alike
# and cancels out.  A change to the program does not move the kernel.
KERNEL_NOMINAL_S = 0.007
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_VALUES = _KERNEL_RNG.random(20_000)
_KERNEL_KEYS = _KERNEL_RNG.integers(0, 2_000, 20_000)
_KERNEL_TEXT = " ".join(f"w{k}" for k in _KERNEL_KEYS[:8000].tolist())


def reference_kernel() -> float:
    """Seconds one pass of the reference kernel takes."""
    start = time.perf_counter()
    counts: Counter = Counter()
    words = _KERNEL_TEXT.split()
    for pair in zip(words, words[1:]):
        counts[pair] += 1
    total = Fraction(0)
    for value in _KERNEL_VALUES[:600].tolist():
        total += Fraction(value)
    np.bincount(_KERNEL_KEYS, weights=_KERNEL_VALUES)
    np.argsort(_KERNEL_VALUES)
    np.unique(_KERNEL_KEYS)
    return time.perf_counter() - start


@dataclass
class Op:
    """One timed command of the closed loop."""

    name: str
    round: int
    seconds: float = 0.0
    error: str | None = None


def pair_count_auc(scores, labels) -> Fraction:
    """AUC from integer win/tie counts, independent of llmdetect.metrics."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = np.sort(s[y == 0])
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((upto - below).sum())
    return Fraction(2 * wins + ties, 2 * len(pos) * len(neg))


def scores_ok(scores, n: int) -> bool:
    s = np.asarray(scores)
    return (s.shape == (n,) and bool(np.all(np.isfinite(s)))
            and float(s.min()) >= 0.0 and float(s.max()) <= 1.0)


def tie_share(scores) -> float:
    return 1.0 - len(np.unique(scores)) / len(scores)


class Session:
    """Inputs, state and op ledger of one workload run."""

    def __init__(self, workload: str, seed: int, tmpdir, tracer: Tracer, log):
        self.workload = workload
        self.shape = SHAPES[workload]
        self.seed = seed
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.log = log
        self.ops: list[Op] = []
        self.round = 0
        self.first: dict = {}          # first round's outputs
        self.first_ops: dict = {}      # and its ops
        self.eval_scores: dict = {}    # per-model scores on each eval set
        self.aucs: list[float] = []    # the workload's AUC, per round
        self.kernel_times: dict[int, list[float]] = {}   # per round

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Synth, split and tokenize-train; write the external voter file."""
        t, shape, seed = self.tracer, self.shape, self.seed
        with t.span("corpus.synth_corpus"):
            corpus = synth_corpus(shape.train_per_class, seed, DIVERGENCE)
        with t.span("corpus.split_corpus"):
            self.train, self.holdout = split_corpus(
                corpus, SplitSpec(test_fraction=HOLDOUT_FRACTION, seed=seed))
        with t.span("corpus.synth_corpus"):
            self.stream = synth_corpus(shape.stream_per_class,
                                       seed + STREAM_SEED_OFFSET, DIVERGENCE)
        with t.span("corpus.synth_corpus"):
            self.validation = synth_corpus(shape.validation_per_class,
                                           seed + VALIDATION_SEED_OFFSET,
                                           DIVERGENCE)
        with t.span("tokenizer.train_bpe"):
            vocab = train_bpe(self.train.texts, vocab_size=VOCAB_SIZE)
        self.vocab_bytes = save_vocab(vocab)
        self.merges = len(vocab.merges)
        # The external voter: a weak, label-correlated scorer from elsewhere.
        rng = random.Random(seed)
        external = [round((rng.random() + 0.6 * y) / 1.6, 4)
                    for y in self.stream.labels]
        self.external_path = self.tmpdir / "external_scores.csv"
        with t.span("ensemble.dump_scores"):
            text = dump_scores(self.stream.ids, external)
        self.external_path.write_text(text)
        self.external_scores = np.array(external)

    def sets(self) -> dict:
        return {"train": self.train, "holdout": self.holdout,
                "stream": self.stream, "validation": self.validation}

    # -- the closed loop ------------------------------------------------

    @contextmanager
    def op(self, name: str):
        rec = Op(name=name, round=self.round)
        self.ops.append(rec)
        self.kernel_times.setdefault(self.round, []).append(reference_kernel())
        gc.collect()    # each command starts from a collected heap
        start = time.perf_counter()
        try:
            with self.tracer.span(f"command.{name}"):
                yield rec
        except Exception as exc:
            rec.error = f"raised {exc!r}"
            raise
        finally:
            rec.seconds = time.perf_counter() - start

    def fail(self, op: Op, what: str) -> None:
        self.log(f"check failed: round {op.round} {op.name}: {what}")
        if op.error is None:
            op.error = what

    def fail_all(self, start: int, what: str) -> None:
        """Fail every op from index ``start`` on, when checking them raised."""
        for op in self.ops[start:]:
            self.fail(op, what)

    def sgd_config(self) -> SgdConfig:
        return SgdConfig(epochs=SGD_EPOCHS, seed=self.seed)

    def gbdt_config(self, variant: str) -> GbdtConfig:
        return GbdtConfig(variant=variant, n_trees=self.shape.gbdt_trees,
                          n_bins=self.shape.gbdt_bins)

    def fit(self, model: str, X):
        labels = self.train.labels
        if model == "naive_bayes":
            return train_nb(X, labels, alpha=NB_ALPHA)
        if model == "sgd":
            return train_sgd(X, labels, self.sgd_config())
        return train_gbdt(X, labels, self.gbdt_config(model.split(".")[1]))

    def cmd_train(self, model: str):
        """``llmdetect train``: load_vocab -> encode -> fit_tfidf ->
        transform_corpus -> train -> save_model."""
        t = self.tracer
        with t.span("tokenizer.load_vocab"):
            vocab = load_vocab(self.vocab_bytes)
        ref = vocab_hash(self.vocab_bytes)
        with t.span("tokenizer.encode"):
            seqs = [encode(vocab, text) for text in self.train.texts]
        with t.span("features.fit_tfidf"):
            tfidf = fit_tfidf(seqs, TFIDF)
        with t.span("features.transform_corpus"):
            X = transform_corpus(tfidf, seqs)
        with t.span(f"models.{model}.train"):
            fitted = self.fit(model, X)
        with t.span("models.save_model"):
            data = save_model(fitted, tfidf, ref, seed=self.seed)
        return data, fitted, tfidf, X

    def cmd_holdout_vote(self, bundles: dict):
        """Uniform soft vote of the four reloaded bundles on the holdout."""
        t = self.tracer
        with t.span("tokenizer.load_vocab"):
            vocab = load_vocab(self.vocab_bytes)
        loaded = {}
        for model in MODELS:
            with t.span("models.load_model"):
                loaded[model] = load_model(bundles[model])
        with t.span("tokenizer.encode"):
            seqs = [encode(vocab, text) for text in self.holdout.texts]
        scores = {}
        for model in MODELS:
            with t.span("features.transform_corpus"):
                X = transform_corpus(loaded[model].tfidf, seqs)
            with t.span(f"models.{model}.predict"):
                scores[model] = loaded[model].predict_proba(X)
        with t.span("ensemble.soft_vote"):
            vote = soft_vote([scores[m] for m in MODELS], [1.0] * len(MODELS))
        with t.span("metrics.evaluation_report"):
            report = evaluation_report(vote, self.holdout.labels)
        return seqs, scores, vote, report["auc"]

    def cmd_predict(self, data: bytes):
        """``llmdetect predict`` with one bundle: load_model -> encode ->
        transform_corpus -> predict_proba -> dump_scores."""
        t = self.tracer
        with t.span("tokenizer.load_vocab"):
            vocab = load_vocab(self.vocab_bytes)
        with t.span("models.load_model"):
            bundle = load_model(data)
        with t.span("tokenizer.encode"):
            seqs = [encode(vocab, text) for text in self.stream.texts]
        with t.span("features.transform_corpus"):
            X = transform_corpus(bundle.tfidf, seqs)
        with t.span(f"models.{model_key(bundle)}.predict"):
            scores = bundle.predict_proba(X)
        with t.span("ensemble.dump_scores"):
            text = dump_scores(self.stream.ids, scores)
        return scores, text

    def load_voters(self, bundles: dict):
        t = self.tracer
        with t.span("tokenizer.load_vocab"):
            vocab = load_vocab(self.vocab_bytes)
        voters = []
        for model in MODELS:
            with t.span("models.load_model"):
                voters.append(Voter(weight=1.0, bundle=load_model(bundles[model]),
                                    name=model))
        return vocab, voters

    def cmd_ensemble(self, bundles: dict):
        """``llmdetect ensemble``: four bundles and one score-file voter."""
        t = self.tracer
        vocab, voters = self.load_voters(bundles)
        with t.span("ensemble.load_external_scores"):
            external = load_external_scores(self.external_path)
        voters.append(Voter(weight=1.0, external=external, name="external"))
        spec = EnsembleSpec(voters=voters)
        with t.span("ensemble.run_ensemble"), inner_spans(t, SCORING_PATCHES):
            scores = run_ensemble(spec, self.stream, vocab)
        with t.span("ensemble.dump_scores"):
            text = dump_scores(self.stream.ids, scores)
        return scores, text

    def cmd_voter_scores(self, bundles: dict):
        """The scoring half of ``llmdetect ensemble --tune-weights``."""
        t = self.tracer
        vocab, voters = self.load_voters(bundles)
        spec = EnsembleSpec(voters=voters)
        with t.span("ensemble.collect_voter_scores"), \
                inner_spans(t, SCORING_PATCHES):
            return collect_voter_scores(spec, self.validation, vocab)

    def cmd_tune(self, per_voter, combine: str):
        t = self.tracer
        with t.span(f"ensemble.tune_weights.{combine}"), \
                inner_spans(t, TUNE_PATCHES):
            return tune_weights(per_voter, self.validation.labels,
                                combine=combine, step=GRID_STEP)

    def cmd_evaluate(self, scores, labels):
        """``llmdetect evaluate`` on scores already in memory."""
        with self.tracer.span("metrics.evaluation_report"):
            return evaluation_report(scores, labels)

    def run_round(self) -> dict:
        """One pass of every command; returns their outputs and ops."""
        out: dict = {"ops": {}}
        ops = out["ops"]
        bundles = {}
        out["train"] = {}
        for model in MODELS:
            with self.op(f"train.{model}") as ops[f"train.{model}"]:
                out["train"][model] = self.cmd_train(model)
            bundles[model] = out["train"][model][0]
        with self.op("holdout_vote") as ops["holdout_vote"]:
            out["holdout_vote"] = self.cmd_holdout_vote(bundles)
        with self.op("predict") as ops["predict"]:
            out["predict"] = self.cmd_predict(bundles["naive_bayes"])
        with self.op("ensemble") as ops["ensemble"]:
            out["ensemble"] = self.cmd_ensemble(bundles)
        with self.op("evaluate.ensemble") as ops["evaluate.ensemble"]:
            out["ensemble_report"] = self.cmd_evaluate(out["ensemble"][0],
                                                       self.stream.labels)
        with self.op("tune.voter_scores") as ops["tune.voter_scores"]:
            per_voter = self.cmd_voter_scores(bundles)
        out["per_voter"] = per_voter
        out["tune"] = {}
        for combine in COMBINERS:
            with self.op(f"tune.{combine}") as ops[f"tune.{combine}"]:
                out["tune"][combine] = self.cmd_tune(per_voter, combine)
        weights, _ = out["tune"][COMBINE_PROBABILITY_MEAN]
        with self.op("evaluate.tune") as ops["evaluate.tune"]:
            with self.tracer.span("ensemble.soft_vote"):
                tuned = soft_vote(per_voter, list(weights))
            out["tune_report"] = self.cmd_evaluate(tuned,
                                                   self.validation.labels)
        out["tuned_scores"] = tuned
        return out

    # -- checks ---------------------------------------------------------

    def check_auc(self, op: Op, scores, labels, auc: float, what: str) -> None:
        if auc != float(pair_count_auc(scores, labels)):
            self.fail(op, f"{what}: roc_auc {auc!r} differs from the pair count")

    def check_same(self, op: Op, key: str, value) -> None:
        """Outputs must repeat bit for bit across rounds."""
        if key not in self.first:
            self.first[key] = value
            return
        first = self.first[key]
        same = (first == value if isinstance(value, (bytes, str, tuple, float))
                else np.array_equal(first, value) and first.dtype == value.dtype)
        if not same:
            self.fail(op, f"{key} differs from the first round")

    def check_round(self, out: dict) -> None:
        ops = out["ops"]
        holdout = self.holdout
        seqs, hold_scores, vote, vote_auc = out["holdout_vote"]
        for model in MODELS:
            op = ops[f"train.{model}"]
            data, fitted, tfidf, _ = out["train"][model]
            self.check_same(op, f"bundle.{model}", data)
            # Reloaded bundle predicts bit-identically to the in-memory model.
            direct = fitted.predict_proba(transform_corpus(tfidf, seqs))
            if not (np.array_equal(direct, hold_scores[model])
                    and direct.dtype == hold_scores[model].dtype):
                self.fail(op, "reloaded bundle scores differ from the model's")
            if not scores_ok(hold_scores[model], len(holdout)):
                self.fail(op, "holdout scores not finite in [0, 1]")
            self.check_auc(op, hold_scores[model], holdout.labels,
                           roc_auc(hold_scores[model], holdout.labels), model)
            self.check_same(op, f"holdout.{model}", hold_scores[model])
        op = ops["holdout_vote"]
        stacked = np.vstack([hold_scores[m] for m in MODELS])
        if not (scores_ok(vote, len(holdout))
                and np.all(stacked.min(axis=0) <= vote)
                and np.all(vote <= stacked.max(axis=0))):
            self.fail(op, "soft vote outside the voters' range or [0, 1]")
        self.check_auc(op, vote, holdout.labels, vote_auc, "holdout vote")
        self.check_same(op, "holdout_vote", vote)

        op = ops["predict"]
        scores, text = out["predict"]
        if not scores_ok(scores, len(self.stream)):
            self.fail(op, "predict scores not finite in [0, 1]")
        self.check_same(op, "predict", scores)
        self.check_same(op, "predict.text", text)

        op = ops["ensemble"]
        scores, text = out["ensemble"]
        if not scores_ok(scores, len(self.stream)):
            self.fail(op, "ensemble scores not finite in [0, 1]")
        self.check_same(op, "ensemble", scores)
        self.check_same(op, "ensemble.text", text)
        self.check_auc(ops["evaluate.ensemble"], scores, self.stream.labels,
                       out["ensemble_report"]["auc"], "ensemble")

        op = ops["tune.voter_scores"]
        for model, scores in zip(MODELS, out["per_voter"]):
            if not scores_ok(scores, len(self.validation)):
                self.fail(op, f"{model} validation scores not in [0, 1]")
        self.check_same(op, "per_voter", np.vstack(out["per_voter"]))
        labels = self.validation.labels
        for combine in COMBINERS:
            op = ops[f"tune.{combine}"]
            weights, auc = out["tune"][combine]
            combiner = soft_vote if combine == COMBINE_PROBABILITY_MEAN \
                else rank_average
            recombined = combiner(out["per_voter"], list(weights))
            if roc_auc(recombined, labels) != auc:
                self.fail(op, "recombining at the tuned weights changes the AUC")
            self.check_auc(op, recombined, labels, auc, f"tuned {combine}")
            self.check_same(op, f"tune.{combine}", (tuple(weights), auc))
        op = ops["evaluate.tune"]
        stacked = np.vstack(out["per_voter"])
        tuned = out["tuned_scores"]
        if not (scores_ok(tuned, len(self.validation))
                and np.all(stacked.min(axis=0) <= tuned)
                and np.all(tuned <= stacked.max(axis=0))):
            self.fail(op, "tuned vote outside the voters' range or [0, 1]")
        if out["tune_report"]["auc"] != out["tune"][COMBINE_PROBABILITY_MEAN][1]:
            self.fail(op, "evaluate disagrees with the tuned AUC")
        self.first_ops = self.first_ops or ops
        self.aucs.append({"train": vote_auc,
                          "score": out["ensemble_report"]["auc"],
                          "tune": out["tune_report"]["auc"]}[self.workload])

    def mirror_check(self) -> None:
        """The first checked round against the library's own wiring: the
        composed train must give pipeline.train_bundle's bytes, the composed
        predict must give pipeline.score_texts's scores, and the ensemble
        must stay between its voters."""
        ops, first = self.first_ops, self.first
        vocab = load_vocab(self.vocab_bytes)
        for model in MODELS:
            gbdt = (self.gbdt_config(model.split(".")[1])
                    if model.startswith("gbdt") else None)
            data = pipeline.train_bundle(
                LIBRARY_KIND[model], self.train, tfidf_config=TFIDF,
                bpe_vocab=vocab, vocab_bytes=self.vocab_bytes,
                nb_alpha=NB_ALPHA, sgd_config=self.sgd_config(),
                gbdt_config=gbdt, seed=self.seed)
            if data != first[f"bundle.{model}"]:
                self.fail(ops[f"train.{model}"],
                          "bundle differs from pipeline.train_bundle")

        per_voter, sequences = [], None
        for model in MODELS:
            bundle = load_model(first[f"bundle.{model}"])
            scores, sequences = pipeline.score_texts(
                bundle, self.stream.texts, vocab, sequences=sequences)
            per_voter.append(scores)
        if not np.array_equal(per_voter[0], first["predict"]):
            self.fail(ops["predict"], "scores differ from pipeline.score_texts")
        per_voter.append(self.external_scores)
        stacked = np.vstack(per_voter)
        combined = first["ensemble"]
        if not (np.all(stacked.min(axis=0) <= combined)
                and np.all(combined <= stacked.max(axis=0))):
            self.fail(ops["ensemble"], "ensemble score outside its voters' range")

        self.eval_scores = {
            "holdout": [first[f"holdout.{m}"] for m in MODELS],
            "stream": per_voter[:len(MODELS)],
            "validation": list(first["per_voter"]),
        }
        self.bundle_sha = {m: hashlib.sha256(first[f"bundle.{m}"]).hexdigest()
                           for m in MODELS}

    # -- results --------------------------------------------------------

    def seconds(self, name: str) -> list[float]:
        """The passing runs of a command, in reference-kernel seconds."""
        return [op.seconds * KERNEL_NOMINAL_S
                / statistics.median(self.kernel_times[op.round])
                for op in self.ops if op.name == name and op.error is None]

    def holdout_auc(self) -> float:
        return statistics.median(self.aucs)

    def properties(self) -> dict[str, tuple[str, float]]:
        """Workload-property counters, measured once, outside any span."""
        sets = self.sets()
        main = sets[MAIN_SET[self.workload]]
        bundles = {m: self.first[f"bundle.{m}"] for m in MODELS}
        tfidf = load_model(bundles["naive_bayes"]).tfidf
        vocab = load_vocab(self.vocab_bytes)
        X_train = transform_corpus(
            tfidf, [encode(vocab, text) for text in self.train.texts])
        seqs = [encode(vocab, text) for text in main.texts]
        X = transform_corpus(tfidf, seqs)
        known = tfidf.vocabulary.ngram_to_col
        total = oov = 0
        for seq in seqs:
            for ngram, count in extract_ngrams(seq, TFIDF.ngram_min,
                                               TFIDF.ngram_max).items():
                total += count
                if ngram not in known:
                    oov += count
        words = [w for text in main.texts for w in text.split()]
        per_column = np.bincount(X_train.cols, minlength=X_train.n_cols)
        props = {
            "tokenizer.merges": ("count", self.merges),
            "tokenizer.tokens": ("count", sum(map(len, seqs))),
            "tokenizer.distinct_word_share": ("ratio",
                                              len(set(words)) / len(words)),
            "features.n_features": ("count", X.n_cols),
            "features.nnz": ("count", X.nnz),
            "features.oov_ngram_share": ("ratio", oov / total),
            "models.gbdt.splittable_col_share": (
                "ratio", np.mean(per_column >= MIN_DATA_IN_LEAF)),
            "models.sgd.steps": ("count", SGD_EPOCHS * X_train.n_rows),
            "models.bundle_bytes": ("bytes", sum(map(len, bundles.values()))),
            "ensemble.grid_points": ("count", len(weight_grid(len(MODELS),
                                                              GRID_STEP))),
        }
        eval_name = EVAL_SET[self.workload]
        eval_labels = sets[eval_name].labels
        for model, scores in zip(MODELS, self.eval_scores[eval_name]):
            props[f"models.{model}.auc"] = ("ratio",
                                            roc_auc(scores, eval_labels))
            props[f"ensemble.score_tie_share.{model}"] = ("ratio",
                                                          tie_share(scores))
        for model in MODELS[2:]:
            trees = load_model(bundles[model]).model.trees
            props[f"models.{model}.leaves"] = ("count", np.mean(
                [tree.n_leaves if isinstance(tree, LeafwiseTree)
                 else 2 ** sum(thr is not None for thr in tree.thresholds)
                 for tree in trees]))
        return props

    def best_single_auc(self) -> float:
        labels = self.holdout.labels
        return max(roc_auc(s, labels) for s in self.eval_scores["holdout"])

