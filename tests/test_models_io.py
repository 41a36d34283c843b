import json
import subprocess
import sys

import numpy as np
import pytest

from llmdetect.corpus import save_corpus, synth_corpus
from llmdetect.errors import ModelError
from llmdetect.features import TfidfConfig, fit_tfidf
from llmdetect.models import (GbdtConfig, SgdConfig, load_model, save_model,
                              train_gbdt, train_nb, train_sgd, vocab_hash)
from llmdetect.pipeline import TOKEN_SOURCE_WHITESPACE, train_bundle
from llmdetect.tokenizer import TokenSequence
from conftest import random_sparse

# A corrupt bundle must be refused well inside this many seconds; a
# predict that walks a cyclic tree would otherwise never return.
CLI_TIME_BOUND_S = 60


@pytest.fixture
def tfidf():
    # 8 n-grams: as wide as the 8-column training matrix below
    docs = [TokenSequence(ids=(1, 2, 3)), TokenSequence(ids=(2, 3, 4)),
            TokenSequence(ids=(5,))]
    return fit_tfidf(docs, TfidfConfig(1, 2, min_df=1))


@pytest.fixture
def training(rng):
    X, _ = random_sparse(rng, 40, 8, max_distinct=10)
    y = (rng.random(40) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    return X, y


def train_each(X, y):
    return {
        "naive_bayes": train_nb(X, y),
        "sgd_linear": train_sgd(X, y, SgdConfig(epochs=3, seed=2)),
        "gbdt": train_gbdt(X, y, GbdtConfig(n_trees=4, max_leaves=5,
                                            n_bins=16, min_data_in_leaf=2)),
        "gbdt_symmetric": train_gbdt(X, y, GbdtConfig(
            variant="symmetric", n_trees=4, depth=3, n_bins=16,
            min_data_in_leaf=2)),
    }


class TestBundleRoundTrip:
    def test_scores_bit_exact(self, rng, tfidf, training):
        X, y = training
        probe, _ = random_sparse(rng, 25, 8, max_distinct=10)
        for name, model in train_each(X, y).items():
            data = save_model(model, tfidf, vocab_ref="ref123", seed=7,
                              config_hash="deadbeef")
            bundle = load_model(data)
            np.testing.assert_array_equal(bundle.predict_proba(probe),
                                          model.predict_proba(probe)), name
            assert bundle.vocab_ref == "ref123"
            assert bundle.seed == 7 and bundle.config_hash == "deadbeef"

    def test_save_is_canonical(self, tfidf, training):
        X, y = training
        model = train_nb(X, y)
        data = save_model(model, tfidf, vocab_ref="r")
        assert data == save_model(load_model(data).model, tfidf, vocab_ref="r",
                                  seed=None, config_hash=None)

    def test_kind_mismatch_rejected(self, tfidf, training):
        X, y = training
        data = save_model(train_gbdt(X, y, GbdtConfig(n_trees=1, n_bins=8,
                                                      min_data_in_leaf=2)),
                          tfidf, vocab_ref="r")
        with pytest.raises(ModelError, match="expected naive_bayes"):
            load_model(data, expected_kind="naive_bayes")

    def test_foreign_version_rejected(self, tfidf, training):
        X, y = training
        data = save_model(train_nb(X, y), tfidf, vocab_ref="r")
        tampered = data.replace(b'"format_version":1', b'"format_version":9')
        with pytest.raises(ModelError, match="format_version"):
            load_model(tampered)

    def test_truncated_rejected(self, tfidf, training):
        X, y = training
        data = save_model(train_nb(X, y), tfidf, vocab_ref="r")
        with pytest.raises(ModelError):
            load_model(data[:40])

    def test_unknown_kind_rejected(self, tfidf, training):
        X, y = training
        data = save_model(train_nb(X, y), tfidf, vocab_ref="r")
        tampered = data.replace(b'"kind":"naive_bayes"', b'"kind":"mystery"')
        with pytest.raises(ModelError, match="kind"):
            load_model(tampered)

    def test_foreign_object_rejected(self, tfidf):
        with pytest.raises(ModelError, match="unknown model type"):
            save_model(object(), tfidf, vocab_ref="r")


class TestVocabHash:
    def test_stable_and_sensitive(self):
        assert vocab_hash(b"abc") == vocab_hash(b"abc")
        assert vocab_hash(b"abc") != vocab_hash(b"abd")


def tampered(data: bytes, edit) -> bytes:
    payload = json.loads(data)
    edit(payload["parameters"])
    return json.dumps(payload).encode("utf-8")


class TestBundleValidation:
    @pytest.fixture
    def bundles(self, tfidf, training):
        X, y = training
        return {name: save_model(model, tfidf, vocab_ref="r")
                for name, model in train_each(X, y).items()}

    def test_width_must_match_tfidf(self, bundles):
        for name in ("naive_bayes", "sgd_linear"):
            payload = json.loads(bundles[name])
            payload["tfidf"]["ngrams"].pop()
            payload["tfidf"]["df"].pop()
            payload["tfidf"]["idf"].pop()
            with pytest.raises(ModelError, match="features"):
                load_model(json.dumps(payload).encode("utf-8"))

        def widen(params):
            params["n_features"] += 1
        with pytest.raises(ModelError, match="features"):
            load_model(tampered(bundles["gbdt"], widen))

    def test_leafwise_arrays_equal_length(self, bundles):
        def drop(params):
            params["trees"][0]["values"].pop()
        with pytest.raises(ModelError, match="length"):
            load_model(tampered(bundles["gbdt"], drop))

    def test_leafwise_child_before_parent_rejected(self, bundles):
        def loop(params):
            params["trees"][0]["right"][0] = 0
        with pytest.raises(ModelError, match="right child"):
            load_model(tampered(bundles["gbdt"], loop))

    def test_symmetric_leaf_count(self, bundles):
        def drop(params):
            params["trees"][0]["leaf_values"].pop()
        with pytest.raises(ModelError, match="leaf values"):
            load_model(tampered(bundles["gbdt_symmetric"], drop))

    def test_symmetric_column_range(self, bundles):
        def far(params):
            params["trees"][0]["columns"][0] = 10 ** 6
            params["trees"][0]["thresholds"][0] = 0.5
        with pytest.raises(ModelError, match="column"):
            load_model(tampered(bundles["gbdt_symmetric"], far))

    def test_tree_class_follows_variant(self, bundles):
        def swap(params):
            params["config"]["variant"] = "symmetric"
        with pytest.raises(ModelError, match="malformed gbdt"):
            load_model(tampered(bundles["gbdt"], swap))

    @pytest.mark.parametrize("name,key", [("naive_bayes", "log_prior"),
                                          ("sgd_linear", "theta")])
    def test_non_finite_weights_rejected(self, bundles, name, key):
        def poison(params):
            params[key][0] = float("nan")
        with pytest.raises(ModelError, match="finite"):
            load_model(tampered(bundles[name], poison))


class TestCorruptGbdtBundleCli:
    """Bundles that once crashed or hung ``predict`` now exit 1 in time."""

    @pytest.fixture
    def leafwise(self, tmp_path):
        corpus = synth_corpus(20, seed=5, divergence=0.9)
        save_corpus(corpus, tmp_path / "c.jsonl", "jsonl")
        data = train_bundle(
            "gbdt", corpus, tfidf_config=TfidfConfig(1, 1, min_df=1),
            token_source=TOKEN_SOURCE_WHITESPACE,
            gbdt_config=GbdtConfig(n_trees=2, max_leaves=4, n_bins=16,
                                   min_data_in_leaf=2))
        return data, tmp_path

    @staticmethod
    def refused(data, tmp_path) -> str:
        (tmp_path / "m.json").write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "llmdetect", "predict",
             str(tmp_path / "m.json"), str(tmp_path / "c.jsonl"),
             "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=CLI_TIME_BOUND_S)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "llmdetect: error[model]: "), proc.stderr
        return lines[0]

    def test_column_out_of_range(self, leafwise):
        # once an IndexError traceback at predict time
        def far(params):
            params["trees"][0]["columns"][0] = 10 ** 6
        assert "column" in self.refused(tampered(leafwise[0], far),
                                        leafwise[1])

    def test_cycle_refused_not_walked(self, leafwise):
        # once a predict that never returned
        def cycle(params):
            params["trees"][0]["left"][0] = 0
        assert "left child" in self.refused(tampered(leafwise[0], cycle),
                                            leafwise[1])
