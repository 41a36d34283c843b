import json
import math
import random
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from llmdetect import ensemble, pipeline
from llmdetect.cli import main
from llmdetect.config import DEFAULTS
from llmdetect.corpus import synth_corpus, save_corpus
from llmdetect.ensemble import (DEFAULT_GRID_STEP, dump_scores,
                                load_external_scores, weight_grid)
from llmdetect.errors import EnsembleError, ModelError
from llmdetect.features import TfidfConfig
from llmdetect.files import canonical_json
from llmdetect.models import GbdtConfig, SgdConfig, load_model, save_model
from conftest import repack, unpacked, v1_rendering

CONFIG = """
[run]
seed = 11

[tokenizer]
vocab_size = 120

[features]
ngram_min = 1
ngram_max = 2
min_df = 1

[sgd]
epochs = 3

[gbdt]
n_trees = 4
max_leaves = 4
n_bins = 16
min_data_in_leaf = 2
learning_rate = 0.3
"""


@pytest.fixture
def workdir(tmp_path):
    corpus = synth_corpus(20, seed=5, divergence=0.9)
    save_corpus(corpus, tmp_path / "corpus.jsonl", "jsonl")
    (tmp_path / "run.ini").write_text(CONFIG)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def trained_bundle(workdir, kind="naive_bayes"):
    assert run(["tokenize-train", workdir / "corpus.jsonl",
                "--out", workdir / "vocab.json",
                "--config", workdir / "run.ini"]) == 0
    assert run(["train", workdir / "corpus.jsonl", "--kind", kind,
                "--out", workdir / f"{kind}.json",
                "--vocab", workdir / "vocab.json",
                "--config", workdir / "run.ini"]) == 0
    return workdir / f"{kind}.json", workdir / "vocab.json"


class TestTokenizeTrain:
    def test_output_reloadable(self, workdir):
        from llmdetect.tokenizer import load_vocab
        assert run(["tokenize-train", workdir / "corpus.jsonl",
                    "--out", workdir / "v.json",
                    "--config", workdir / "run.ini"]) == 0
        vocab = load_vocab((workdir / "v.json").read_bytes())
        assert vocab.size <= 120

    def test_vocab_size_too_small_fails(self, workdir, capsys):
        code = run(["tokenize-train", workdir / "corpus.jsonl",
                    "--out", workdir / "v.json", "--vocab-size", "3"])
        assert code == 1
        assert "error[tokenizer]" in capsys.readouterr().err

    def test_vocab_size_zero_refused(self, workdir, capsys):
        # 0 once fell back to the config's size and trained a vocabulary
        code = run(["tokenize-train", workdir / "corpus.jsonl",
                    "--out", workdir / "v.json", "--vocab-size", "0"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("llmdetect: error[tokenizer]: ")
        assert not (workdir / "v.json").exists()

    def test_vocab_size_bounded_by_the_data(self, workdir, time_bound):
        # Training stops once no pair repeats, so a size of 10^9 costs no
        # more than the smallest size that holds every symbol it learns.
        from llmdetect.tokenizer import load_vocab
        with time_bound(10):
            assert run(["tokenize-train", workdir / "corpus.jsonl",
                        "--out", workdir / "huge.json",
                        "--vocab-size", "1000000000"]) == 0
        data = (workdir / "huge.json").read_bytes()
        size = load_vocab(data).size
        assert run(["tokenize-train", workdir / "corpus.jsonl",
                    "--out", workdir / "exact.json",
                    "--vocab-size", str(size)]) == 0
        assert (workdir / "exact.json").read_bytes() == data

    def test_long_word_in_time(self, tmp_path, time_bound):
        # A trainer that rebuilt each word for every merge touching it
        # took about 27 s on this 50,000-character word; merging each
        # occurrence in place takes about 0.2 s.
        word = "".join(random.Random(3).choices("abcd", k=50_000))
        rows = [{"id": f"d{i}", "text": text, "label": i % 2}
                for i, text in enumerate([word, "an ordinary row",
                                          "another ordinary row", "row"])]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with time_bound(5):
            assert run(["tokenize-train", corpus,
                        "--out", tmp_path / "v.json"]) == 0

    def test_byte_identical_reruns(self, workdir):
        for _ in range(2):
            run(["tokenize-train", workdir / "corpus.jsonl",
                 "--out", workdir / "v.json", "--config", workdir / "run.ini"])
            first = (workdir / "v.json").read_bytes()
        assert (workdir / "v.json").read_bytes() == first


class TestTrain:
    def test_bundle_round_trips(self, workdir):
        bundle_path, _ = trained_bundle(workdir)
        from llmdetect.models import load_model
        bundle = load_model(bundle_path.read_bytes())
        assert bundle.kind == "naive_bayes"
        assert bundle.seed == 11

    def test_unknown_kind_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", workdir / "corpus.jsonl", "--kind", "svm",
                 "--out", workdir / "m.json"])
        assert exc.value.code == 2
        assert "naive_bayes" in capsys.readouterr().err

    def test_missing_vocab_path_fails(self, workdir, capsys):
        code = run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--out", workdir / "m.json",
                    "--config", workdir / "run.ini"])
        assert code == 1
        assert "error[config]" in capsys.readouterr().err

    def test_identical_bundles_across_runs(self, workdir):
        path1, _ = trained_bundle(workdir)
        data1 = path1.read_bytes()
        path2, _ = trained_bundle(workdir)
        assert path2.read_bytes() == data1

    def test_holdout_split_written(self, workdir):
        run(["tokenize-train", workdir / "corpus.jsonl",
             "--out", workdir / "vocab.json", "--config", workdir / "run.ini"])
        assert run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--out", workdir / "m.json",
                    "--vocab", workdir / "vocab.json",
                    "--config", workdir / "run.ini",
                    "--holdout-fraction", "0.2",
                    "--holdout-out", workdir / "held.jsonl"]) == 0
        from llmdetect.corpus import load_corpus
        held = load_corpus(workdir / "held.jsonl", "jsonl")
        assert len(held) == 8  # 20% of 40, stratified

    def test_trained_bundle_scores_holdout_well(self, tmp_path):
        # full CLI loop at divergence 0.8: held-out AUC must clear 0.9
        save_corpus(synth_corpus(100, seed=42, divergence=0.8),
                    tmp_path / "c.jsonl", "jsonl")
        (tmp_path / "run.ini").write_text(CONFIG)
        run(["tokenize-train", tmp_path / "c.jsonl",
             "--out", tmp_path / "v.json", "--config", tmp_path / "run.ini"])
        run(["train", tmp_path / "c.jsonl", "--kind", "naive_bayes",
             "--out", tmp_path / "m.json", "--vocab", tmp_path / "v.json",
             "--config", tmp_path / "run.ini",
             "--holdout-fraction", "0.2",
             "--holdout-out", tmp_path / "held.jsonl"])
        run(["predict", tmp_path / "m.json", tmp_path / "held.jsonl",
             "--out", tmp_path / "s.csv", "--vocab", tmp_path / "v.json"])
        run(["evaluate", tmp_path / "s.csv", tmp_path / "held.jsonl",
             "--json", tmp_path / "r.json"])
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["auc"] >= 0.9


class TestPredict:
    def test_scores_round_trip_through_schema(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        assert run(["predict", bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "scores.csv", "--vocab", vocab]) == 0
        scores = load_external_scores(workdir / "scores.csv")
        assert len(scores.scores) == 40
        assert all(0.0 <= s <= 1.0 for s in scores.scores.values())

    def test_empty_corpus_gives_header_only(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        (workdir / "empty.jsonl").write_text("")
        assert run(["predict", bundle, workdir / "empty.jsonl",
                    "--out", workdir / "s.csv", "--vocab", vocab]) == 0
        assert (workdir / "s.csv").read_text() == "id,score\n"

    def test_vocab_hash_mismatch_refused(self, workdir, capsys):
        bundle, _ = trained_bundle(workdir)
        other = synth_corpus(10, seed=77, divergence=0.2)
        save_corpus(other, workdir / "other.jsonl", "jsonl")
        run(["tokenize-train", workdir / "other.jsonl",
             "--out", workdir / "other_vocab.json",
             "--config", workdir / "run.ini"])
        code = run(["predict", bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "s.csv",
                    "--vocab", workdir / "other_vocab.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error[model]" in err and "mismatch" in err

    def test_missing_vocab_flagged(self, workdir, capsys):
        bundle, _ = trained_bundle(workdir)
        code = run(["predict", bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "s.csv"])
        assert code == 1
        assert "--vocab" in capsys.readouterr().err

    def test_byte_identical_reruns(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "a.csv", "--vocab", vocab])
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "b.csv", "--vocab", vocab])
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


class TestEvaluate:
    def write_scores(self, workdir, rows):
        path = workdir / "oracle.csv"
        path.write_text("id,score\n" + "".join(f"{i},{s}\n" for i, s in rows))
        return path

    def test_perfect_oracle_auc_one(self, workdir, capsys):
        corpus = synth_corpus(5, seed=2, divergence=0.5)
        save_corpus(corpus, workdir / "c.jsonl", "jsonl")
        rows = list(zip(corpus.ids, map(float, corpus.labels)))
        scores = self.write_scores(workdir, rows)
        assert run(["evaluate", scores, workdir / "c.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "roc_auc: 1.0" in out

    def test_constant_scores_auc_half(self, workdir, capsys):
        corpus = synth_corpus(5, seed=2, divergence=0.5)
        save_corpus(corpus, workdir / "c.jsonl", "jsonl")
        scores = self.write_scores(workdir, [(i, 0.5) for i in corpus.ids])
        assert run(["evaluate", scores, workdir / "c.jsonl"]) == 0
        assert "roc_auc: 0.5" in capsys.readouterr().out

    def test_json_report_schema(self, workdir, capsys):
        corpus = synth_corpus(5, seed=2, divergence=0.5)
        save_corpus(corpus, workdir / "c.jsonl", "jsonl")
        rows = list(zip(corpus.ids, map(float, corpus.labels)))
        scores = self.write_scores(workdir, rows)
        assert run(["evaluate", scores, workdir / "c.jsonl",
                    "--json", workdir / "report.json"]) == 0
        report = json.loads((workdir / "report.json").read_text())
        assert set(report) == {"auc", "n_documents", "n_positive", "n_negative",
                               "curve", "confusion"}
        assert [c["threshold"] for c in report["confusion"]] == [
            pytest.approx(t / 10) for t in range(1, 10)]

    def test_corpus_id_missing_from_scores_listed(self, workdir, capsys):
        corpus = synth_corpus(3, seed=2, divergence=0.5)
        save_corpus(corpus, workdir / "c.jsonl", "jsonl")
        scores = self.write_scores(workdir, [(corpus.ids[0], 0.5)])
        assert run(["evaluate", scores, workdir / "c.jsonl"]) == 1
        assert corpus.ids[1] in capsys.readouterr().err


class TestEnsembleCommand:
    def test_spec_run_and_missing_id(self, workdir, capsys):
        bundle, vocab = trained_bundle(workdir)
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "inner.csv", "--vocab", vocab])
        spec = {"format_version": 1, "combine": "probability_mean",
                "voters": [{"model": "naive_bayes.json", "weight": 1.0},
                           {"scores": "inner.csv", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "combined.csv", "--vocab", vocab]) == 0
        combined = load_external_scores(workdir / "combined.csv")
        inner = load_external_scores(workdir / "inner.csv")
        for doc_id, score in inner.scores.items():
            assert combined.scores[doc_id] == pytest.approx(score, abs=1e-15)

        # corpus with an id the external file does not cover
        extra = synth_corpus(21, seed=5, divergence=0.9)
        save_corpus(extra, workdir / "bigger.jsonl", "jsonl")
        code = run(["ensemble", workdir / "spec.json", workdir / "bigger.jsonl",
                    "--out", workdir / "x.csv", "--vocab", vocab])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_single_internal_voter_equals_predict(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        spec = {"format_version": 1,
                "voters": [{"model": "naive_bayes.json", "weight": 2.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
             "--out", workdir / "ens.csv", "--vocab", vocab])
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "solo.csv", "--vocab", vocab])
        assert ((workdir / "ens.csv").read_bytes()
                == (workdir / "solo.csv").read_bytes())

    def test_predict_accepts_spec_file(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        spec = {"format_version": 1,
                "voters": [{"model": "naive_bayes.json", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["predict", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "via_predict.csv", "--vocab", vocab]) == 0
        run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
             "--out", workdir / "via_ensemble.csv", "--vocab", vocab])
        assert ((workdir / "via_predict.csv").read_bytes()
                == (workdir / "via_ensemble.csv").read_bytes())

    def test_rank_mean_combiner(self, workdir):
        bundle, vocab = trained_bundle(workdir)
        spec = {"format_version": 1, "combine": "rank_mean",
                "voters": [{"model": "naive_bayes.json", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "ranked.csv", "--vocab", vocab]) == 0
        ranked = load_external_scores(workdir / "ranked.csv")
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "raw.csv", "--vocab", vocab])
        raw = load_external_scores(workdir / "raw.csv")
        # a single voter's rank transform preserves its score ordering
        ids = sorted(raw.scores)
        order_raw = sorted(ids, key=lambda i: raw.scores[i])
        order_ranked = sorted(ids, key=lambda i: ranked.scores[i])
        assert order_raw == order_ranked
        assert all(0.0 <= s <= 1.0 for s in ranked.scores.values())

    def test_tune_weights_runs(self, workdir, capsys):
        bundle, vocab = trained_bundle(workdir)
        run(["predict", bundle, workdir / "corpus.jsonl",
             "--out", workdir / "inner.csv", "--vocab", vocab])
        spec = {"format_version": 1,
                "voters": [{"model": "naive_bayes.json", "weight": 1.0},
                           {"scores": "inner.csv", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "tuned.csv", "--vocab", vocab,
                    "--tune-weights"]) == 0
        assert "tuned weights" in capsys.readouterr().err

    @pytest.mark.parametrize("n_voters, grid, message", [
        (5, "", "at most 4 voters"),
        (2, "[ensemble]\ngrid_step = 0.3\n", "evenly divide"),
        (2, "[ensemble]\ngrid_step = 1e-300\n", "more than 200000"),
        (4, "[ensemble]\ngrid_step = 0.0001\n", "more than 200000"),
        (2, "[ensemble]\ngrid_step = 5e-324\n", "overflows"),
    ], ids=["five-voters", "grid-step-0.3", "grid-step-1e-300",
            "grid-step-0.0001", "grid-step-5e-324"])
    def test_bad_weight_grid_refused_before_scoring(
            self, workdir, capsys, monkeypatch, time_bound, n_voters, grid,
            message):
        # the first two once tokenized, featurized and scored the whole
        # corpus before the grid was refused; 1e-300 and 5e-324 ended in
        # an OverflowError traceback, and 0.0001 with 4 voters hung
        _, vocab = trained_bundle(workdir)
        (workdir / "grid.ini").write_text(grid)
        spec = {"format_version": 1,
                "voters": [{"model": "naive_bayes.json", "weight": 1.0}]
                * n_voters}
        (workdir / "spec.json").write_text(json.dumps(spec))
        calls = []
        original = pipeline.tokenize_texts
        monkeypatch.setattr(pipeline, "tokenize_texts",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        capsys.readouterr()
        with time_bound(5):
            assert run(["ensemble", workdir / "spec.json",
                        workdir / "corpus.jsonl", "--out", workdir / "tuned.csv",
                        "--vocab", vocab, "--config", workdir / "grid.ini",
                        "--tune-weights"]) == 1
        line = single_error(capsys, "ensemble")
        assert message in line
        assert calls == []
        step = float(grid.split("=")[1]) if grid else DEFAULT_GRID_STEP
        with pytest.raises(EnsembleError) as refused:
            weight_grid(n_voters, step)
        assert line == f"llmdetect: error[ensemble]: {refused.value}"

    def test_one_voter_fine_grid_bounded(self, tmp_path, capsys, time_bound):
        # a one-voter grid is one vector whatever the step, but the grid
        # once listed c * step for every count c up to 1 / step: 10**9
        # floats here, a MemoryError traceback under a 2 GB ulimit -v
        corpus = synth_corpus(3, seed=5, divergence=0.9)
        save_corpus(corpus, tmp_path / "c.jsonl", "jsonl")
        (tmp_path / "v.csv").write_text(
            dump_scores(corpus.ids, [i / 5 for i in range(len(corpus))]))
        (tmp_path / "grid.ini").write_text(
            f"[ensemble]\nvoters = {tmp_path / 'v.csv'}\ngrid_step = 1e-9\n")
        with time_bound(5):
            assert run(["ensemble", tmp_path / "c.jsonl", "--out",
                        tmp_path / "tuned.csv", "--config",
                        tmp_path / "grid.ini", "--tune-weights"]) == 0
        assert "tuned weights [1.0]" in capsys.readouterr().err

    def test_tuning_builds_the_grid_once(self, tmp_path, monkeypatch, capsys):
        # the CLI once built the 176,851-point grid only to check its size,
        # and tune_weights then built it again
        corpus = synth_corpus(2, seed=5, divergence=0.9)
        save_corpus(corpus, tmp_path / "c.jsonl", "jsonl")
        for v in range(4):
            scores = [(v + 3 * i) % 5 / 4 for i in range(len(corpus))]
            (tmp_path / f"{v}.csv").write_text(
                dump_scores(corpus.ids, scores))
        spec = {"format_version": 1,
                "voters": [{"scores": f"{v}.csv", "weight": 1.0}
                           for v in range(4)]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "grid.ini").write_text("[ensemble]\ngrid_step = 0.01\n")
        built = []
        monkeypatch.setattr(ensemble, "weight_grid", lambda *a: built.append(
            a) or weight_grid(*a))
        assert run(["ensemble", tmp_path / "spec.json", tmp_path / "c.jsonl",
                    "--out", tmp_path / "tuned.csv", "--config",
                    tmp_path / "grid.ini", "--tune-weights"]) == 0
        assert built == [(4, 0.01)]
        assert "tuned weights" in capsys.readouterr().err


class TestWhitespaceMode:
    def test_train_and_predict_without_tokenizer_file(self, workdir, capsys):
        config = workdir / "ws.ini"
        config.write_text("[features]\ntoken_source = whitespace\n"
                          "ngram_max = 2\nmin_df = 1\n")
        assert run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--out", workdir / "ws.json", "--config", config]) == 0
        assert run(["predict", workdir / "ws.json", workdir / "corpus.jsonl",
                    "--out", workdir / "ws_scores.csv"]) == 0
        assert run(["evaluate", workdir / "ws_scores.csv",
                    workdir / "corpus.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "roc_auc:" in out


class TestNothingToFit:
    """Feature settings that leave the model nothing to read end in one
    error line, and write no bundle."""

    @pytest.mark.parametrize("token_source", ["bpe", "whitespace"])
    def test_min_df_above_every_ngram(self, workdir, capsys, token_source):
        # once exit 0 with a zero-feature bundle, which scores every
        # document alike (0.5 for NB)
        config = workdir / "high.ini"
        config.write_text(f"[features]\ntoken_source = {token_source}\n"
                          f"ngram_max = 2\nmin_df = 1000\n")
        assert run(["tokenize-train", workdir / "corpus.jsonl",
                    "--out", workdir / "vocab.json"]) == 0
        capsys.readouterr()
        assert run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--out", workdir / "m.json", "--vocab",
                    workdir / "vocab.json", "--config", config]) == 1
        line = single_error(capsys, "features")
        assert ("no n-gram of ngram_min = 1 to ngram_max = 2 tokens is in at "
                "least min_df = 1000 of the 40 training documents") in line
        assert not (workdir / "m.json").exists()

    def test_documents_shorter_than_ngram_min(self, tmp_path, capsys):
        # once "all documents are empty", of documents two words long
        (tmp_path / "c.jsonl").write_text(
            '{"id":"a","label":0,"text":"x y"}\n'
            '{"id":"b","label":1,"text":"y x"}\n')
        (tmp_path / "run.ini").write_text(
            "[features]\ntoken_source = whitespace\nngram_min = 3\n"
            "ngram_max = 3\nmin_df = 1\n")
        assert run(["train", tmp_path / "c.jsonl", "--kind", "naive_bayes",
                    "--out", tmp_path / "m.json",
                    "--config", tmp_path / "run.ini"]) == 1
        assert single_error(capsys, "features").endswith(
            "every document is shorter than ngram_min = 3 tokens; "
            "nothing to fit")


class TestWhitespaceCorpora:
    """Two whitespace NB bundles trained on synth seeds 1 and 2."""

    @pytest.fixture
    def pair(self, workdir):
        config = workdir / "ws.ini"
        config.write_text("[features]\ntoken_source = whitespace\n"
                          "ngram_max = 2\nmin_df = 1\n")
        for seed in (1, 2):
            corpus = workdir / f"c{seed}.jsonl"
            save_corpus(synth_corpus(20, seed=seed, divergence=0.9), corpus,
                        "jsonl")
            assert run(["train", corpus, "--kind", "naive_bayes", "--out",
                        workdir / f"ws{seed}.json", "--config", config]) == 0
        return workdir / "ws1.json", workdir / "ws2.json"

    @staticmethod
    def write_spec(workdir, weights):
        spec = {"format_version": 1,
                "voters": [{"model": f"ws{i}.json", "weight": w}
                           for i, w in zip((1, 2), weights)]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        return workdir / "spec.json"

    def test_each_weight_reproduces_its_bundle(self, workdir, pair):
        # once refused: internal voters disagree on vocabulary hash
        for weights, bundle in (((1, 0), pair[0]), ((0, 1), pair[1])):
            spec = self.write_spec(workdir, weights)
            assert run(["ensemble", spec, workdir / "corpus.jsonl",
                        "--out", workdir / "ens.csv"]) == 0
            assert run(["predict", bundle, workdir / "corpus.jsonl",
                        "--out", workdir / "solo.csv"]) == 0
            assert ((workdir / "ens.csv").read_bytes()
                    == (workdir / "solo.csv").read_bytes())

    def test_borrowed_ref_refused(self, workdir, pair, capsys):
        # once loaded, and scored after ws1 with ws1's word ids
        first, second = pair
        payload = json.loads(second.read_text())
        payload["vocab_ref"] = json.loads(first.read_text())["vocab_ref"]
        second.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match="vocab_ref"):
            load_model(second.read_bytes())
        spec = self.write_spec(workdir, (0, 1))
        capsys.readouterr()
        assert run(["predict", spec, workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert "vocab_ref" in single_error(capsys, "model")


class TestSynth:
    def test_jsonl_line_count(self, workdir):
        assert run(["synth", "--n-per-class", "10", "--divergence", "0.5",
                    "--out", workdir / "s.jsonl", "--seed", "3"]) == 0
        lines = (workdir / "s.jsonl").read_text().splitlines()
        assert len(lines) == 20

    def test_divergence_out_of_range(self, workdir, capsys):
        code = run(["synth", "--n-per-class", "5", "--divergence", "1.2",
                    "--out", workdir / "s.jsonl"])
        assert code == 1
        assert "error[corpus]" in capsys.readouterr().err

    def test_n_per_class_over_bound(self, workdir, capsys, time_bound):
        # the whole corpus is built in memory before it is written: 10**9
        # per class once ran on toward some 2 TB of memory
        with time_bound(10):
            assert run(["synth", "--n-per-class", "1000000000",
                        "--divergence", "0.5",
                        "--out", workdir / "s.jsonl"]) == 1
        assert "n_per_class" in single_error(capsys, "corpus")
        assert not (workdir / "s.jsonl").exists()

    def test_fixed_seed_identical_bytes(self, workdir):
        for name in ("a.jsonl", "b.jsonl"):
            run(["synth", "--n-per-class", "6", "--divergence", "0.4",
                 "--out", workdir / name, "--seed", "9"])
        assert ((workdir / "a.jsonl").read_bytes()
                == (workdir / "b.jsonl").read_bytes())


    def test_csv_suffix_round_trips_through_train(self, workdir):
        # --out corpus.csv once wrote JSONL, which every reader then
        # refused as a CSV file with a bad header
        out = workdir / "corpus.csv"
        assert run(["synth", "--n-per-class", "10", "--divergence", "0.5",
                    "--out", out, "--seed", "3"]) == 0
        assert out.read_text().startswith("id,text,label\n")
        config = workdir / "ws.ini"
        config.write_text("[features]\ntoken_source = whitespace\n")
        assert run(["train", out, "--kind", "naive_bayes",
                    "--out", workdir / "ws.json", "--config", config]) == 0
        assert run(["predict", workdir / "ws.json", out,
                    "--out", workdir / "scores.csv"]) == 0

    def test_csv_header_error_quotes_a_prefix(self, workdir, capsys):
        # the message once quoted the whole first line of the file
        path = workdir / "long.csv"
        path.write_text("x" * 100_000 + "\n")
        capsys.readouterr()
        assert run(["train", path, "--kind", "naive_bayes",
                    "--out", workdir / "nb.json"]) == 1
        line = single_error(capsys, "corpus")
        assert line.endswith("x" * 80 + "... (100000 characters)")
        assert len(line) < 300


def test_module_entry_point(tmp_path):
    corpus = synth_corpus(3, seed=1, divergence=0.5)
    save_corpus(corpus, tmp_path / "c.jsonl", "jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "llmdetect", "synth", "--n-per-class", "2",
         "--divergence", "0.3", "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.jsonl").exists()


def single_error(capsys, code: str) -> str:
    """The one stderr line of a failed command, checked for its code."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"llmdetect: error[{code}]: "), lines[0]
    return lines[0]


class TestBundleEncoding:
    """Bundles whose arrays format 2 cannot read end in one error line."""

    def predict(self, workdir, capsys, bundle, vocab) -> int:
        capsys.readouterr()
        return run(["predict", bundle, workdir / "corpus.jsonl",
                    "--vocab", vocab, "--out", workdir / "s.csv"])

    def test_format_1_bundle_refused(self, workdir, capsys):
        bundle, vocab = trained_bundle(workdir)
        bundle.write_bytes(v1_rendering(bundle.read_bytes()))
        assert json.loads(bundle.read_text())["tfidf"]["ngrams"]
        assert self.predict(workdir, capsys, bundle, vocab) == 1
        assert "field format_version must be equal to 2, got 1" in \
            single_error(capsys, "model")
        assert not (workdir / "s.csv").exists()

    def test_bad_padding_refused(self, workdir, capsys):
        bundle, vocab = trained_bundle(workdir)
        payload = json.loads(bundle.read_text())
        payload["tfidf"]["idf"] = payload["tfidf"]["idf"][:-1]
        bundle.write_text(json.dumps(payload))
        assert self.predict(workdir, capsys, bundle, vocab) == 1
        assert "idf: invalid base64" in single_error(capsys, "features")
        assert not (workdir / "s.csv").exists()


class TestBadInputs:
    @pytest.fixture
    def scored(self, workdir):
        corpus = synth_corpus(20, seed=5, divergence=0.9)
        (workdir / "ext.csv").write_text(
            "id,score\n" + "".join(f"{i},0.5\n" for i in corpus.ids))
        return workdir

    @pytest.mark.parametrize("weight", ["abc", "nan", "inf", "-inf", "-1",
                                        None, [1], True, "1"])
    def test_bad_spec_weight(self, scored, capsys, weight):
        # a weight of true or "1" once combined as 1.0: a JSON weight is a
        # number, not text to parse
        spec = {"format_version": 1,
                "voters": [{"scores": "ext.csv", "weight": weight},
                           {"scores": "ext.csv", "weight": 1.0}]}
        (scored / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", scored / "spec.json", scored / "corpus.jsonl",
                    "--out", scored / "x.csv"]) == 1
        assert (f"voters[0]: weight must be a finite number >= 0, "
                f"got {weight!r}") in single_error(capsys, "ensemble")

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1", "abc,1", "-2,1"])
    def test_bad_config_weight(self, scored, capsys, weights):
        ext = scored / "ext.csv"
        (scored / "ens.ini").write_text(
            f"[ensemble]\nvoters = {ext},{ext}\nweights = {weights}\n")
        assert run(["ensemble", scored / "corpus.jsonl",
                    "--config", scored / "ens.ini",
                    "--out", scored / "x.csv"]) == 1
        assert "ensemble.weights" in single_error(capsys, "config")

    def test_config_weights_are_text(self, scored):
        # INI weights are text and parsed; a spec's are JSON numbers
        corpus = synth_corpus(20, seed=5, divergence=0.9)
        (scored / "low.csv").write_text(
            "id,score\n" + "".join(f"{i},0.{n % 10}\n"
                                   for n, i in enumerate(corpus.ids)))
        voters = [scored / "ext.csv", scored / "low.csv"]
        (scored / "ens.ini").write_text(
            f"[ensemble]\nvoters = {voters[0]},{voters[1]}\nweights = 1, 3\n")
        spec = {"format_version": 1,
                "voters": [{"scores": "ext.csv", "weight": 1},
                           {"scores": "low.csv", "weight": 3.0}]}
        (scored / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", scored / "corpus.jsonl",
                    "--config", scored / "ens.ini",
                    "--out", scored / "ini.csv"]) == 0
        assert run(["ensemble", scored / "spec.json", scored / "corpus.jsonl",
                    "--out", scored / "spec.csv"]) == 0
        assert (scored / "ini.csv").read_bytes() == \
            (scored / "spec.csv").read_bytes()

    def test_non_finite_config_float(self, workdir, capsys):
        # eta0 = nan once trained and wrote NaN scores
        (workdir / "bad.ini").write_text("[sgd]\neta0 = nan\n")
        code = run(["train", workdir / "corpus.jsonl", "--kind", "sgd_linear",
                    "--out", workdir / "m.json", "--config", workdir / "bad.ini"])
        assert code == 1
        assert "sgd.eta0" in single_error(capsys, "config")

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_sgd_rate_product_overflow(self, workdir, capsys, command):
        # eta0 * l2 overflows to inf: synth once exited 0 on the file, and
        # train failed only at its second SGD step, naming alpha
        (workdir / "big.ini").write_text("[sgd]\neta0 = 1e300\nl2 = 1e300\n")
        out = workdir / "out.json"
        args = (["synth", "--n-per-class", "2", "--divergence", "0.5"]
                if command == "synth" else
                ["train", workdir / "corpus.jsonl", "--kind", "sgd_linear"])
        assert run([*args, "--out", out, "--config", workdir / "big.ini"]) == 1
        line = single_error(capsys, "model")
        assert "eta0 * l2 must be finite" in line
        assert "eta0 = 1e+300 and l2 = 1e+300" in line
        assert not out.exists()

    def test_sgd_rate_underflow(self, workdir, capsys):
        # eta0 * l2 is 1e308, so eta0 * l2 * step overflows at step 2
        _, vocab = trained_bundle(workdir)
        (workdir / "big.ini").write_text("[sgd]\neta0 = 1e200\nl2 = 1e108\n")
        capsys.readouterr()
        code = run(["train", workdir / "corpus.jsonl", "--kind", "sgd_linear",
                    "--out", workdir / "m.json", "--config", workdir / "big.ini",
                    "--vocab", vocab])
        assert code == 1
        line = single_error(capsys, "model")
        assert "eta0 * l2 * step overflows at step 2" in line
        assert "alpha" not in line
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("section, key, code", [
        ("features", "ngram_max", "features"), ("gbdt", "n_bins", "model")])
    def test_size_over_bound(self, workdir, capsys, section, key, code):
        # each once a numpy _ArrayMemoryError traceback: the fit's rank
        # matrix asked for 797 GiB here, GBDT binning for 7.45 GiB
        _, vocab = trained_bundle(workdir)
        (workdir / "big.ini").write_text(f"[{section}]\n{key} = 1000000000\n")
        capsys.readouterr()
        assert run(["train", workdir / "corpus.jsonl", "--kind", "gbdt",
                    "--out", workdir / "m.json", "--config", workdir / "big.ini",
                    "--vocab", vocab]) == 1
        assert key in single_error(capsys, code)
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("kind, section, key", [
        ("gbdt", "gbdt", "n_trees"), ("sgd_linear", "sgd", "epochs")])
    def test_rounds_over_bound(self, workdir, capsys, time_bound, kind,
                               section, key):
        # each once ran on, silent, until killed: every tree or epoch runs
        # however little it changes the model
        _, vocab = trained_bundle(workdir)
        (workdir / "big.ini").write_text(f"[{section}]\n{key} = 1000000000\n")
        capsys.readouterr()
        with time_bound(10):
            assert run(["train", workdir / "corpus.jsonl", "--kind", kind,
                        "--out", workdir / "m.json",
                        "--config", workdir / "big.ini",
                        "--vocab", vocab]) == 1
        assert key in single_error(capsys, "model")
        assert not (workdir / "m.json").exists()

    def test_max_leaves_bounded_by_the_data(self, workdir, time_bound):
        # Leaf-wise growth stops once no leaf can be split, so a bound of
        # 10^9 grows the trees of the largest leaf count it reaches.  The
        # hard corpus keeps leaves splittable past CONFIG's 4.
        _, vocab = trained_bundle(workdir)
        corpus = workdir / "hard.jsonl"
        save_corpus(synth_corpus(30, seed=5, divergence=0.0004), corpus,
                    "jsonl")

        def trees(max_leaves):
            ini, out = workdir / "leaves.ini", workdir / "gbdt.json"
            ini.write_text(CONFIG.replace("max_leaves = 4",
                                          f"max_leaves = {max_leaves}"))
            assert run(["train", corpus, "--kind", "gbdt", "--out", out,
                        "--config", ini, "--vocab", vocab]) == 0
            return load_model(out.read_bytes()).model.trees

        with time_bound(10):
            grown = trees(10 ** 9)
        leaves = max(tree.columns.count(-1) for tree in grown)
        assert leaves > 4
        assert trees(leaves) == grown

    @pytest.mark.parametrize("command", ["synth", "tokenize-train"])
    @pytest.mark.parametrize("section, key, code", [
        ("features", "ngram_max", "features"), ("gbdt", "n_bins", "model"),
        ("sgd", "epochs", "model")])
    def test_config_checked_when_loaded(self, workdir, capsys, command,
                                        section, key, code):
        # synth and tokenize-train once exited 0 on a file train refuses
        value = 0 if key == "epochs" else 10 ** 9
        (workdir / "bad.ini").write_text(f"[{section}]\n{key} = {value}\n")
        config = ["--config", workdir / "bad.ini"]
        assert run(["train", workdir / "corpus.jsonl", "--kind", "gbdt",
                    "--out", workdir / "m.json", *config]) == 1
        refused = single_error(capsys, code)
        assert key in refused
        out = workdir / "out.json"
        args = (["synth", "--n-per-class", "2", "--divergence", "0.5"]
                if command == "synth" else
                ["tokenize-train", workdir / "corpus.jsonl"])
        assert run([*args, "--out", out, *config]) == 1
        assert single_error(capsys, code) == refused
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["-1", "0"])
    def test_nb_alpha_checked_when_loaded(self, workdir, capsys, alpha):
        # synth once exited 0 on it, and train --kind naive_bayes refused
        # it only after tokenizing and fitting
        (workdir / "bad.ini").write_text(f"[naive_bayes]\nalpha = {alpha}\n")
        capsys.readouterr()
        assert run(["synth", "--n-per-class", "2", "--divergence", "0.5",
                    "--out", workdir / "s.jsonl",
                    "--config", workdir / "bad.ini"]) == 1
        assert "alpha" in single_error(capsys, "model")
        assert not (workdir / "s.jsonl").exists()

    def test_threads_key_removed(self, workdir, capsys):
        (workdir / "old.ini").write_text("[run]\nthreads = 0\n")
        assert run(["synth", "--n-per-class", "2", "--divergence", "0.5",
                    "--out", workdir / "s.jsonl",
                    "--config", workdir / "old.ini"]) == 1
        assert "run.threads" in single_error(capsys, "config")

    @pytest.mark.parametrize("command, code", [("tokenize-train", "corpus"),
                                               ("evaluate", "ensemble")])
    def test_field_over_csv_limit(self, tmp_path, command, code):
        # once a raw _csv.Error traceback: field larger than field limit
        long_field = "a" * 200_000
        (tmp_path / "big.csv").write_text(f'id,text,label\nd1,"{long_field}",1\n')
        (tmp_path / "scores.csv").write_text(f"id,score\nd1,{long_field}\n")
        (tmp_path / "c.csv").write_text("id,text,label\nd1,hello,1\n")
        args = (["tokenize-train", "big.csv", "--out", "v.json"]
                if command == "tokenize-train" else
                ["evaluate", "scores.csv", "c.csv"])
        proc = subprocess.run([sys.executable, "-m", "llmdetect", *args],
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"llmdetect: error[{code}]: "), lines[0]
        assert "field limit" in lines[0] and "at line 2" in lines[0]

    def test_spec_and_bundle_agree_on_missing_vocab(self, workdir, capsys):
        bundle, _ = trained_bundle(workdir)
        spec = {"format_version": 1,
                "voters": [{"model": "naive_bayes.json", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        capsys.readouterr()
        assert run(["predict", bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "a.csv"]) == 1
        from_bundle = single_error(capsys, "model")
        assert run(["predict", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "b.csv"]) == 1
        assert single_error(capsys, "model") == from_bundle
        assert "--vocab" in from_bundle


def cli_proc(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "llmdetect", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def single_error_proc(proc, code: str) -> str:
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"llmdetect: error[{code}]: "), lines[0]
    return lines[0]


class TestFilePaths:
    """A path that names a directory, or a file in a missing directory, ends
    in one error line like a missing file does; each of these once ended in
    an IsADirectoryError or FileNotFoundError traceback."""

    @pytest.mark.parametrize("args, code", [
        (["evaluate", "adir", "corpus.jsonl"], "ensemble"),
        (["predict", "adir", "corpus.jsonl", "--out", "s.csv"], "model"),
        (["train", "corpus.jsonl", "--kind", "naive_bayes", "--out", "m.json",
          "--config", "adir"], "config"),
        (["tokenize-train", "corpus.jsonl", "--out", "adir",
          "--config", "run.ini"], "tokenizer"),
        (["synth", "--n-per-class", "2", "--divergence", "0.5",
          "--out", "missing_dir/x.jsonl"], "corpus"),
    ], ids=["evaluate", "predict", "train-config", "tokenize-train", "synth"])
    def test_subprocess_single_error(self, workdir, args, code):
        (workdir / "adir").mkdir()
        line = single_error_proc(cli_proc(args, workdir), code)
        assert "adir" in line or "missing_dir" in line

    @pytest.mark.parametrize("flag, code", [
        ("--out", "ensemble"), ("--vocab", "tokenizer")])
    def test_predict_paths(self, workdir, capsys, flag, code):
        bundle, vocab = trained_bundle(workdir)
        (workdir / "adir").mkdir()
        paths = {"--out": workdir / "s.csv", "--vocab": vocab}
        paths[flag] = workdir / "adir"
        capsys.readouterr()
        assert run(["predict", bundle, workdir / "corpus.jsonl",
                    "--out", paths["--out"], "--vocab", paths["--vocab"]]) == 1
        assert "adir" in single_error(capsys, code)

    @pytest.mark.parametrize("flag, code", [
        ("--out", "model"), ("--holdout-out", "corpus"), ("--vocab", "tokenizer")])
    def test_train_paths(self, workdir, capsys, flag, code):
        _, vocab = trained_bundle(workdir)
        (workdir / "adir").mkdir()
        paths = {"--out": workdir / "m.json", "--vocab": vocab,
                 "--holdout-out": workdir / "h.jsonl"}
        paths[flag] = workdir / "adir"
        capsys.readouterr()
        assert run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--config", workdir / "run.ini", "--holdout-fraction",
                    "0.25", *[a for f, p in paths.items() for a in (f, p)]]) == 1
        # the bundle may be logged before the held-out part fails
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "error[" in line] == lines[-1:]
        assert lines[-1].startswith(f"llmdetect: error[{code}]: ")
        assert "adir" in lines[-1]
        if flag != "--holdout-out":
            # once written before the vocabulary was read
            assert not (workdir / "h.jsonl").exists()

    def test_corpus_directory(self, workdir, capsys):
        (workdir / "adir").mkdir()
        assert run(["tokenize-train", workdir / "adir",
                    "--out", workdir / "v.json"]) == 1
        assert "adir" in single_error(capsys, "corpus")

    def test_evaluate_json_and_ensemble_out(self, workdir, capsys):
        (workdir / "adir").mkdir()
        corpus = synth_corpus(20, seed=5, divergence=0.9)
        (workdir / "ext.csv").write_text(
            "id,score\n" + "".join(f"{i},0.5\n" for i in corpus.ids))
        spec = {"format_version": 1,
                "voters": [{"scores": "ext.csv", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        capsys.readouterr()
        assert run(["evaluate", workdir / "ext.csv", workdir / "corpus.jsonl",
                    "--json", workdir / "adir"]) == 1
        assert "adir" in capsys.readouterr().err.splitlines()[-1]
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "adir"]) == 1
        assert "adir" in single_error(capsys, "ensemble")

    def test_spec_voter_directory(self, workdir, capsys):
        (workdir / "adir").mkdir()
        spec = {"format_version": 1,
                "voters": [{"model": "adir", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert "adir" in single_error(capsys, "model")


class TestLoaderGaps:
    @pytest.fixture
    def ws_bundle(self, workdir):
        config = workdir / "ws.ini"
        config.write_text("[features]\ntoken_source = whitespace\n"
                          "ngram_max = 1\nmin_df = 1\n")
        assert run(["train", workdir / "corpus.jsonl", "--kind", "naive_bayes",
                    "--out", workdir / "ws.json", "--config", config]) == 0
        return workdir / "ws.json"

    @staticmethod
    def edit(path, edit):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("command", ["predict", "ensemble"])
    def test_non_string_vocab_ref_in_spec(self, workdir, ws_bundle, capsys,
                                          command):
        # once TypeError: unhashable type: 'list' from a spec naming it
        self.edit(ws_bundle, lambda p: p.update(vocab_ref=["x"]))
        spec = {"format_version": 1,
                "voters": [{"model": "ws.json", "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        capsys.readouterr()
        assert run([command, workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert "vocab_ref" in single_error(capsys, "model")

    @pytest.mark.parametrize("word_vocab", [5, [[1]], "abc"])
    def test_malformed_word_vocab(self, workdir, ws_bundle, capsys,
                                  word_vocab):
        self.edit(ws_bundle, lambda p: p["tfidf"].update(word_vocab=word_vocab))
        capsys.readouterr()
        assert run(["predict", ws_bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert "word_vocab" in single_error(capsys, "features")

    @pytest.mark.parametrize("training", ["x", 5, [1]])
    def test_training_field_not_an_object(self, workdir, ws_bundle, capsys,
                                          training):
        # once an AttributeError traceback: 'str' object has no attribute 'get'
        self.edit(ws_bundle, lambda p: p.update(training=training))
        capsys.readouterr()
        assert run(["predict", ws_bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert "field training: expected an object, got" in single_error(
            capsys, "model")

    @pytest.mark.parametrize("field", ["df", "idf"])
    @pytest.mark.parametrize("value", [3, 0.5, "nested"],
                             ids=["int", "float", "nested"])
    def test_tfidf_df_idf_not_flat(self, workdir, ws_bundle, capsys, field,
                                   value):
        # a number once ended in TypeError: len() of unsized object; since
        # format 2 the arrays are base64 strings, and anything else is one
        # error line
        def edit(payload):
            tfidf = payload["tfidf"]
            tfidf[field] = ([[x] for x in unpacked(tfidf, field).tolist()]
                            if value == "nested" else value)
        self.edit(ws_bundle, edit)
        capsys.readouterr()
        assert run(["predict", ws_bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert f"{field}: expected a base64 string" in single_error(
            capsys, "features")

    def test_ngram_max_over_bound(self, workdir, ws_bundle, capsys,
                                  time_bound):
        # once a predict that ran for hours, one loop per n-gram length
        self.edit(ws_bundle,
                  lambda p: p["tfidf"]["config"].update(ngram_max=10 ** 9))
        capsys.readouterr()
        with time_bound(10):
            assert run(["predict", ws_bundle, workdir / "corpus.jsonl",
                        "--out", workdir / "x.csv"]) == 1
        assert "ngram_max" in single_error(capsys, "features")

    @pytest.mark.parametrize("field, value", [
        ("ngram_max", 1.0), ("ngram_min", True), ("min_df", 2.5),
        ("sublinear_tf", "no"), ("l2_normalize", 1), ("document_count", "240"),
        ("document_count", 240.9), ("document_count", -1),
        ("document_count", True)])
    def test_mistyped_tfidf_field(self, workdir, ws_bundle, capsys, field,
                                  value):
        # ngram_max 1.0 once ended in a TypeError traceback in transform,
        # sublinear_tf "no" loaded as true, and the others loaded
        def edit(payload):
            tfidf = payload["tfidf"]
            (tfidf if field == "document_count"
             else tfidf["config"])[field] = value
        self.edit(ws_bundle, edit)
        capsys.readouterr()
        assert run(["predict", ws_bundle, workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        assert f"{field} must be" in single_error(capsys, "features")
        assert not (workdir / "x.csv").exists()

    def test_n_bins_over_bound(self, workdir, capsys):
        bundle, vocab = trained_bundle(workdir, "gbdt")
        self.edit(bundle,
                  lambda p: p["parameters"]["config"].update(n_bins=10 ** 8))
        capsys.readouterr()
        assert run(["predict", bundle, workdir / "corpus.jsonl",
                    "--vocab", vocab, "--out", workdir / "x.csv"]) == 1
        assert "n_bins" in single_error(capsys, "model")

    @pytest.mark.parametrize("voter", [{"model": 5}, {"scores": None},
                                       {"model": ""}, {"scores": ["a.csv"]}])
    def test_voter_path_must_be_a_string(self, workdir, capsys, voter):
        spec = {"format_version": 1, "voters": [{**voter, "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run(["ensemble", workdir / "spec.json", workdir / "corpus.jsonl",
                    "--out", workdir / "x.csv"]) == 1
        key, = voter
        assert f"voters[0]: {key} must be a " in single_error(capsys,
                                                               "ensemble")

    def test_subprocess_voter_path(self, workdir):
        # once a TypeError traceback in the spec loader
        spec = {"format_version": 1, "voters": [{"model": 5, "weight": 1.0}]}
        (workdir / "spec.json").write_text(json.dumps(spec))
        line = single_error_proc(cli_proc(
            ["predict", "spec.json", "corpus.jsonl", "--out", "x.csv"],
            workdir), "ensemble")
        assert "voters[0]: model must be a string, got 5" in line


DROP = object()  # a path edit that deletes the key


@pytest.fixture(scope="module")
def schema_bundles(tmp_path_factory):
    """Whitespace bundles of each kind, and of each GBDT variant, as bytes,
    with the corpus they score."""
    root = tmp_path_factory.mktemp("schema")
    corpus = root / "corpus.jsonl"
    save_corpus(synth_corpus(20, seed=5, divergence=0.9), corpus, "jsonl")
    ws = CONFIG.replace("[features]\n", "[features]\ntoken_source = whitespace\n")
    configs = {"naive_bayes": ws, "sgd_linear": ws, "leaf_wise": ws,
               "symmetric": ws.replace("[gbdt]\n", "[gbdt]\nvariant = symmetric\n"
                                                   "depth = 2\n")}
    bundles = {}
    for name, text in configs.items():
        (root / f"{name}.ini").write_text(text)
        kind = name if name in ("naive_bayes", "sgd_linear") else "gbdt"
        assert run(["train", corpus, "--kind", kind, "--out", root / name,
                    "--config", root / f"{name}.ini"]) == 0
        bundles[name] = (root / name).read_bytes()
    return bundles, corpus


def edited(data: bytes, path: str, value) -> str:
    """The bundle with the value at a dotted path (list indices as numbers)
    replaced: by value(old) if value is callable, deleted if DROP."""
    payload = json.loads(data)
    *parents, last = [int(k) if k.lstrip("-").isdigit() else k
                      for k in path.split(".")]
    target = payload
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value(target[last]) if callable(value) else value
    return json.dumps(payload)


class TestBundleSchema:
    """A bundle field of the wrong kind, out of range, missing or unknown
    ends in one error line that names it.  Each of these once loaded and
    scored, or failed in Python's own words: '<=' not supported, 'NoneType'
    object is not iterable, unexpected keyword argument, and the like."""

    @pytest.mark.parametrize("name, path, value, code, message", [
        ("leaf_wise", "parameters.config.n_bins", 16.0, "model",
         "n_bins must be an integer, got 16.0"),
        ("leaf_wise", "parameters.config.n_trees", True, "model",
         "n_trees must be an integer, got True"),
        ("leaf_wise", "parameters.config.max_leaves", 4.5, "model",
         "max_leaves must be an integer, got 4.5"),
        ("leaf_wise", "parameters.config.depth", "6", "model",
         "depth must be an integer, got '6'"),
        ("leaf_wise", "parameters.config.learning_rate", "0.1", "model",
         "learning_rate must be a finite number >= 0, got '0.1'"),
        ("leaf_wise", "parameters.config.extra", 1, "model",
         "field parameters.config: unknown key 'extra'"),
        ("leaf_wise", "parameters.config.n_bins", DROP, "model",
         "field parameters.config: missing key 'n_bins'"),
        ("leaf_wise", "parameters.n_features", str, "model",
         "n_features must be an integer, got '"),
        ("leaf_wise", "parameters.n_features", None, "model",
         "n_features must be an integer, got None"),
        ("leaf_wise", "parameters.base_score", True, "model",
         "base_score must be a finite number, got True"),
        ("leaf_wise", "parameters.trees", None, "model",
         "trees must be a list, got NoneType"),
        ("sgd_linear", "parameters.config.epochs", 2.5, "model",
         "epochs must be an integer, got 2.5"),
        ("sgd_linear", "parameters.config.eta0", True, "model",
         "eta0 must be a finite number > 0, got True"),
        ("sgd_linear", "parameters.config.seed", "x", "model",
         "seed must be an integer, got 'x'"),
        ("sgd_linear", "parameters.config", [], "model",
         "field parameters.config: expected an object, got list"),
        ("naive_bayes", "parameters.alpha", -1, "model",
         "alpha must be a finite number > 0, got -1"),
        ("naive_bayes", "parameters.alpha", True, "model",
         "alpha must be a finite number > 0, got True"),
        ("naive_bayes", "parameters.alpha", "1e400", "model",
         "alpha must be a finite number > 0, got '1e400'"),
        ("naive_bayes", "parameters.alpha", "abc", "model",
         "alpha must be a finite number > 0, got 'abc'"),
        ("naive_bayes", "parameters.log_prior", ["-0.7", "-0.7"], "model",
         "log_prior[0] must be a finite number, got '-0.7'"),
        ("naive_bayes", "parameters", [], "model",
         "field parameters: expected an object, got list"),
        ("naive_bayes", "tfidf.config", [], "features",
         "field tfidf.config: expected an object, got list"),
        ("naive_bayes", "training.seed", {}, "model",
         "training.seed must be an integer or null, got {}"),
        ("naive_bayes", "training.config_hash", 5, "model",
         "training.config_hash must be a string or null, got 5"),
    ])
    def test_parameter_refused(self, schema_bundles, tmp_path, capsys, name,
                               path, value, code, message):
        self.assert_refused(schema_bundles, tmp_path, capsys, name, path,
                            value, code, message)

    @pytest.mark.parametrize("name, path, value, message", [
        ("leaf_wise", "parameters.trees.0.bins", lambda old: ["x"] * len(old),
         "trees[0].bins[0] must be an integer, got 'x'"),
        ("symmetric", "parameters.trees.0.bins", lambda old: ["x"] * len(old),
         "trees[0].bins[0] must be an integer, got 'x'"),
        ("leaf_wise", "parameters.trees.0.bins.0", 16,
         "trees[0].bins[0] must be in [-1, 15], got 16"),
        ("leaf_wise", "parameters.trees.0.thresholds.0", True,
         "trees[0].thresholds[0] must be a finite number, got True"),
        ("leaf_wise", "parameters.trees.0.values.-1", True,
         "must be a finite number, got True"),
        ("symmetric", "parameters.trees.0.thresholds.0", True,
         "trees[0].thresholds[0] must be a finite number or null, got True"),
        ("symmetric", "parameters.trees.0.leaf_values.0", True,
         "trees[0].leaf_values[0] must be a finite number, got True"),
        ("leaf_wise", "parameters.trees.0", 5,
         "trees[0] must be an object, got 5"),
        ("leaf_wise", "parameters.trees.0.extra", 1,
         "trees[0]: unknown key 'extra'"),
    ])
    def test_tree_array_refused(self, schema_bundles, tmp_path, capsys, name,
                                path, value, message):
        # bins were never read, and booleans passed as thresholds and
        # leaf values
        self.assert_refused(schema_bundles, tmp_path, capsys, name, path,
                            value, "model", message)

    @staticmethod
    def assert_refused(schema_bundles, tmp_path, capsys, name, path, value,
                       code, message):
        bundles, corpus = schema_bundles
        bundle, out = tmp_path / "bundle.json", tmp_path / "x.csv"
        bundle.write_text(edited(bundles[name], path, value))
        capsys.readouterr()
        assert run(["predict", bundle, corpus, "--out", out]) == 1
        assert message in single_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["naive_bayes", "sgd_linear",
                                      "leaf_wise", "symmetric"])
    def test_unedited_bundle_scores(self, schema_bundles, tmp_path, name):
        bundles, corpus = schema_bundles
        (tmp_path / "b.json").write_bytes(bundles[name])
        assert run(["predict", tmp_path / "b.json", corpus,
                    "--out", tmp_path / "x.csv"]) == 0


def field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


# Every field a config file or a bundle's config sets: each INI key, and
# each bundle's tfidf.config and parameters.config keys and naive Bayes
# alpha.
_INI_FIELDS = [(section, key) for section, keys in DEFAULTS.items()
               for key in keys]
_BUNDLE_FIELDS = (
    [(name, f"tfidf.config.{key}") for name in ("naive_bayes", "sgd_linear",
                                                "leaf_wise", "symmetric")
     for key in field_names(TfidfConfig)]
    + [("sgd_linear", f"parameters.config.{key}")
       for key in field_names(SgdConfig)]
    + [(name, f"parameters.config.{key}") for name in ("leaf_wise", "symmetric")
       for key in field_names(GbdtConfig)]
    + [("naive_bayes", "parameters.alpha")])
# Integers to 10^9, floats where integers belong, booleans, strings, nulls
# and lists.
_JSON_VALUES = st.one_of(
    st.integers(-10 ** 9, 10 ** 9), st.integers(-3, 40),
    st.integers(-3, 40).map(float), st.floats(), st.booleans(),
    st.text(max_size=8), st.none(), st.lists(st.integers(0, 3), max_size=3),
    st.sampled_from(["leaf_wise", "symmetric", "1", "true"]))
_INI_TEXTS = st.one_of(
    st.integers(-10 ** 9, 10 ** 9).map(str), st.integers(-3, 40).map(str),
    st.floats().map(repr), st.sampled_from(
        ["true", "no", "", "null", "[1, 2]", "2.0", "whitespace",
         "rank_mean", "symmetric"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8))
# A value of these fields may be refused where the trees disagree with it.
_ALSO_NAMED = {"n_bins": "bins", "variant": "trees"}


class TestSchemaFuzz:
    """Any value of any config field, in an INI file or in a bundle, scores
    or exits 1 with one error line that names the field, in bounded time."""

    @staticmethod
    def assert_finished_or_named(capsys, code, field):
        lines = capsys.readouterr().err.splitlines()
        if code == 0:
            return
        assert code == 1 and len(lines) == 1, lines
        assert lines[0].startswith("llmdetect: error["), lines[0]
        assert field in lines[0] or _ALSO_NAMED.get(field, field) in lines[0]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ini_field(self, tmp_path, capsys, time_bound, data):
        section, key = data.draw(st.sampled_from(_INI_FIELDS))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {data.draw(_INI_TEXTS)}\n",
                       encoding="utf-8")
        capsys.readouterr()
        with time_bound(10):
            code = run(["synth", "--n-per-class", "1", "--divergence", "0.5",
                        "--out", tmp_path / "s.jsonl", "--config", ini])
        self.assert_finished_or_named(capsys, code, key)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bundle_field(self, schema_bundles, tmp_path, capsys, time_bound,
                          data):
        bundles, corpus = schema_bundles
        name, path = data.draw(st.sampled_from(_BUNDLE_FIELDS))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(edited(bundles[name], path, data.draw(_JSON_VALUES)))
        capsys.readouterr()
        with time_bound(10):
            code = run(["predict", bundle, corpus,
                        "--out", tmp_path / "x.csv"])
        self.assert_finished_or_named(capsys, code, path.rsplit(".", 1)[1])


@pytest.mark.parametrize("name, path, value", [
    ("leaf_wise", "parameters.base_score", 0),
    ("symmetric", "parameters.trees.0.leaf_values.0", -1),
    ("naive_bayes", "parameters.alpha", 2),
    ("sgd_linear", "parameters.config.eta0", 1),
])
def test_numbers_kept_as_given(schema_bundles, tmp_path, name, path, value):
    # an int where a float is written loads, scores and saves back to the
    # same bytes: a finite number is never coerced
    bundles, corpus = schema_bundles
    text = edited(bundles[name], path, value)
    (tmp_path / "b.json").write_text(text)
    assert run(["predict", tmp_path / "b.json", corpus,
                "--out", tmp_path / "x.csv"]) == 0
    bundle = load_model(text.encode("utf-8"))
    assert save_model(bundle.model, bundle.tfidf, bundle.vocab_ref,
                      bundle.seed, bundle.config_hash) == \
        canonical_json(json.loads(text))


# Where a bundle of each name holds numbers: (name, holder, key), a holder
# "trees" meaning each tree of the model.
_NUMBER_FIELDS = (
    [(name, "tfidf", "idf") for name in ("naive_bayes", "sgd_linear",
                                         "leaf_wise", "symmetric")]
    + [("naive_bayes", "parameters", "log_likelihood"),
       ("naive_bayes", "parameters", "log_prior"),
       ("sgd_linear", "parameters", "theta"),
       ("leaf_wise", "parameters", "base_score"),
       ("symmetric", "parameters", "base_score"),
       ("leaf_wise", "trees", "values"),
       ("symmetric", "trees", "leaf_values")])
_EXTREME_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308,
                                   -1e308, 5e-324, -5e-324, -0.0])


def with_numbers(data: bytes, holder: str, key: str, value, start: int,
                 step: int) -> str:
    """The bundle with value written into every step-th entry, from start,
    of each packed array or list at key, or in place of a number there."""
    def fill(array):
        array[start::step] = value
        return array

    payload = json.loads(data)
    holders = (payload["parameters"]["trees"] if holder == "trees"
               else [payload[holder]])
    for target in holders:
        old = target[key]
        if isinstance(old, str):
            repack(target, key, fill)
        elif isinstance(old, list):
            target[key] = fill(np.array(old, dtype=np.float64)).tolist()
        else:
            target[key] = value
    return json.dumps(payload)


class TestArrayFuzz:
    """NaN, infinities, huge, subnormal and negative-zero numbers in a
    bundle's packed arrays, priors, base score or leaf values: predict
    writes scores that evaluate reads, or exits 1 with one error line and
    no score file, in bounded time."""

    @pytest.mark.parametrize("name, holder, key, value, code, message", [
        ("naive_bayes", "tfidf", "idf", math.nan, "features",
         "field tfidf.idf must hold finite numbers"),
        ("sgd_linear", "tfidf", "idf", math.nan, "features",
         "field tfidf.idf must hold finite numbers"),
        ("naive_bayes", "parameters", "log_likelihood", -1e308, "model",
         "naive_bayes model scores document 0 as NaN"),
    ])
    def test_nan_scores_refused(self, schema_bundles, tmp_path, capsys, name,
                                holder, key, value, code, message):
        # each bundle loaded, and predict wrote NaN scores that evaluate
        # then refused
        bundles, corpus = schema_bundles
        bundle, out = tmp_path / "b.json", tmp_path / "x.csv"
        bundle.write_text(with_numbers(bundles[name], holder, key, value,
                                       0, 1))
        assert run(["predict", bundle, corpus, "--out", out]) == 1
        assert message in single_error(capsys, code)
        assert not out.exists()

    @given(field=st.sampled_from(_NUMBER_FIELDS), value=_EXTREME_FLOATS,
           start=st.integers(0, 2), step=st.integers(1, 3))
    @example(field=("naive_bayes", "tfidf", "idf"), value=math.nan, start=0,
             step=1)
    @example(field=("sgd_linear", "tfidf", "idf"), value=math.nan, start=0,
             step=1)
    @example(field=("naive_bayes", "parameters", "log_likelihood"),
             value=-1e308, start=0, step=1)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scores_or_one_error(self, schema_bundles, tmp_path, capsys,
                                 time_bound, field, value, start, step):
        bundles, corpus = schema_bundles
        name, holder, key = field
        bundle, out = tmp_path / "b.json", tmp_path / "x.csv"
        bundle.write_text(with_numbers(bundles[name], holder, key, value,
                                       start, step))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        with time_bound(10):
            code = run(["predict", bundle, corpus, "--out", out])
            lines = capsys.readouterr().err.splitlines()
            if code == 0:
                assert run(["evaluate", out, corpus]) == 0, \
                    capsys.readouterr().err
                return
        assert code == 1 and len(lines) == 1, lines
        assert lines[0].startswith("llmdetect: error["), lines[0]
        assert not out.exists()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A corpus with the JSON documents the CLI reads: a BPE vocabulary,
    a whitespace naive Bayes bundle, a score file and an ensemble spec
    naming both voters, as bytes, in one directory."""
    root = tmp_path_factory.mktemp("documents")
    save_corpus(synth_corpus(6, seed=5, divergence=0.9), root / "c.jsonl",
                "jsonl")
    (root / "run.ini").write_text(CONFIG)
    (root / "ws.ini").write_text("[features]\ntoken_source = whitespace\n"
                                 "min_df = 1\n")
    assert run(["tokenize-train", root / "c.jsonl", "--out", root / "v.json",
                "--config", root / "run.ini"]) == 0
    assert run(["train", root / "c.jsonl", "--kind", "naive_bayes",
                "--out", root / "nb.json", "--config", root / "ws.ini"]) == 0
    assert run(["predict", root / "nb.json", root / "c.jsonl",
                "--out", root / "s.csv"]) == 0
    spec = {"format_version": 1, "combine": "rank_mean",
            "voters": [{"model": "nb.json", "weight": 1.0},
                       {"scores": "s.csv", "weight": 0.5}]}
    return root, {"vocab": (root / "v.json").read_bytes(),
                  "bundle": (root / "nb.json").read_bytes(),
                  "spec": json.dumps(spec).encode("utf-8")}


def run_on(root, name: str, text: str) -> int:
    """Write a document, then run the command that reads it: train on a
    vocabulary file, predict with a bundle, ensemble a spec."""
    path = root / f"edited_{name}.json"
    path.write_text(text)
    out = root / "out"
    out.unlink(missing_ok=True)
    if name == "vocab":
        return run(["train", root / "c.jsonl", "--kind", "naive_bayes",
                    "--vocab", path, "--config", root / "run.ini",
                    "--out", out])
    if name == "bundle":
        return run(["predict", path, root / "c.jsonl", "--out", out])
    return run(["ensemble", path, root / "c.jsonl", "--out", out])


class TestDocumentSchema:
    """Each JSON document refuses an unknown key, a version that is not
    the integer it must be, and (a spec) a voter naming both sources, in
    one error line that names the document and the key.  Each case here
    once ran and exited 0, ended in a traceback, or printed another error."""

    @pytest.mark.parametrize("name, path, value, code, message", [
        ("spec", "combiner", "rank_mean", "ensemble",
         "edited_spec.json: unknown key 'combiner'"),
        ("spec", "voters.0.scores", "s.csv", "ensemble",
         "edited_spec.json: voters[0]: needs exactly one of model and "
         "scores"),
        ("spec", "voters.1.weigth", 1.0, "ensemble",
         "edited_spec.json: voters[1]: unknown key 'weigth'"),
        ("spec", "format_version", True, "ensemble",
         "edited_spec.json: format_version must be an integer, got True"),
        ("vocab", "format_version", True, "tokenizer",
         "vocabulary file: format_version must be an integer, got True"),
        ("vocab", "format_version", 1.0, "tokenizer",
         "vocabulary file: format_version must be an integer, got 1.0"),
        ("vocab", "extra", 1, "tokenizer",
         "vocabulary file: unknown key 'extra'"),
        ("bundle", "extra", 1, "model", "model bundle: unknown key 'extra'"),
        ("bundle", "format_version", 2.0, "model",
         "field format_version must be an integer, got 2.0"),
        ("bundle", "training.extra", 1, "model",
         "field training: unknown key 'extra'"),
        # a ValueError traceback, not a refusal, until read_bytes caught it
        ("spec", "voters.1.scores", "s\0.csv", "ensemble",
         "cannot read score file '"),
        # these paths once split the error line in two
        ("spec", "voters.1.scores", "s\n.csv", "ensemble",
         "no such score file: "),
        ("spec", "voters.1.scores", "s\x85\u2028.csv", "ensemble",
         "s\\x85\\u2028.csv"),
        ("spec", "voters.0.model", "nb\0.json", "model",
         "cannot read file '"),
    ])
    def test_refused(self, documents, capsys, name, path, value, code,
                     message):
        root, docs = documents
        capsys.readouterr()
        assert run_on(root, name, edited(docs[name], path, value)) == 1
        assert message in single_error(capsys, code)
        assert not (root / "out").exists()

    @pytest.mark.parametrize("name, path, value, message", [
        ("spec", "combine", DROP, None),
        ("bundle", "training", DROP, None),
        ("bundle", "training.seed", DROP, None),
        ("spec", "combine", "sum", "edited_spec.json: combine must be "
                                   "probability_mean or rank_mean, got 'sum'"),
        ("spec", "voters.1.scores", "", "edited_spec.json: voters[1]: scores "
                                        "must be a non-empty string"),
        ("spec", "voters", {}, "edited_spec.json: voters must be a list, "
                               "got {}"),
        ("spec", "voters.0", [], "edited_spec.json: voters[0]: expected an "
                                 "object, got list"),
        ("vocab", "symbols.3", 7, "vocabulary file: symbols[3] must be a "
                                  "string, got 7"),
        ("vocab", "merges.2", ["a"], "vocabulary file: merges must be "
                                     "[left, right] pairs"),
        ("vocab", "merges.2", "ab", "vocabulary file: merges[2] must be a "
                                    "list, got 'ab'"),
        ("vocab", "symbols.4", "a", "vocabulary file: symbols must be "
                                    "distinct, the first the reserved '<unk>'"),
        ("vocab", "merges.0.1", "x", "vocabulary file: merged symbol 'bx' "
                                     "missing from symbols"),
        ("vocab", "merges.2.1", None, "vocabulary file: right of merges[2] "
                                      "must be a string, got None"),
        ("vocab", "end_of_word_marker", "", "vocabulary file: "
         "end_of_word_marker must be one of the symbols, not empty, got ''"),
        ("vocab", "symbols", [], "vocabulary file: symbols must be "
                                 "distinct, the first the reserved '<unk>'"),
    ])
    def test_optional_keys_and_values(self, documents, capsys, name, path,
                                      value, message):
        # combine and training stay optional; every other value is named
        root, docs = documents
        capsys.readouterr()
        code = run_on(root, name, edited(docs[name], path, value))
        if message is None:
            assert code == 0
        else:
            assert code == 1 and message in single_error(
                capsys, {"spec": "ensemble", "vocab": "tokenizer"}[name])

    @pytest.mark.parametrize("name", ["vocab", "bundle", "spec"])
    def test_unedited_document_runs(self, documents, name):
        root, docs = documents
        assert run_on(root, name, docs[name].decode("utf-8")) == 0


def _json_paths(value, prefix=()):
    """Every path into a JSON value, its list items to the first three."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, (*prefix, key))
    elif isinstance(value, list):
        for i, item in enumerate(value[:3]):
            yield from _json_paths(item, (*prefix, i))


# Integers to 10^9, floats, booleans, nulls, strings and lists.
_FUZZ_VALUES = st.one_of(
    st.integers(-10 ** 9, 10 ** 9), st.integers(-3, 3), st.floats(),
    st.booleans(), st.none(), st.text(max_size=8),
    st.sampled_from(["<unk>", "</w>", "nb.json", "s.csv", "rank_mean",
                     "\0", "\n", "\x85"]),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=3)), max_size=3))


def mutated(data, doc: bytes) -> str:
    """doc with one key dropped, renamed or added, or one value swapped,
    at a place drawn from data."""
    doc = json.loads(doc)
    *parents, last = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    target = doc
    for key in parents:
        target = target[key]
    action = data.draw(st.sampled_from(["swap", "add"] + (
        ["drop", "rename"] if isinstance(target, dict) else [])))
    if action == "add" and isinstance(target[last], dict):
        target[last][data.draw(st.text(max_size=8))] = data.draw(_FUZZ_VALUES)
    elif action == "add" and isinstance(target, dict):
        target[data.draw(st.text(max_size=8))] = data.draw(_FUZZ_VALUES)
    elif action in ("add", "swap"):
        target[last] = data.draw(_FUZZ_VALUES)
    else:
        value = target.pop(last)
        if action == "rename":
            target[data.draw(st.text(max_size=8))] = value
    return json.dumps(doc)


class TestDocumentFuzz:
    """A vocabulary file or an ensemble spec with a key dropped, renamed or
    added, or a value swapped, runs or exits 1 with one error line, and
    no traceback, in bounded time."""

    @pytest.mark.parametrize("name", ["vocab", "spec"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_document(self, documents, capsys, time_bound, name,
                              data):
        root, docs = documents
        text = mutated(data, docs[name])
        capsys.readouterr()
        with time_bound(10):
            code = run_on(root, name, text)
        lines = capsys.readouterr().err.splitlines()
        assert code in (0, 1)
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith(
                "llmdetect: error["), lines
