import base64
import copy
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llmdetect.corpus import save_corpus, synth_corpus
from llmdetect.errors import LlmdetectError, ModelError
from llmdetect.features import TfidfConfig, fit_tfidf
from llmdetect.files import pack, unpack
from llmdetect.models import (BUNDLE_FORMAT_VERSION, GbdtConfig, SgdConfig,
                              load_model, save_model, train_gbdt, train_nb,
                              train_sgd, vocab_hash)
from llmdetect.models.gbdt import MAX_DEPTH
from llmdetect.pipeline import TOKEN_SOURCE_WHITESPACE, train_bundle
from llmdetect.sparse import SparseMatrix
from llmdetect.tokenizer import TokenSequence
from conftest import random_sparse, repack, unpacked

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


@pytest.mark.parametrize("train", [train_nb, train_sgd, train_gbdt])
def test_no_rows_rejected(train):
    # train_sgd and train_gbdt once raised a bare ValueError from y.min()
    X = SparseMatrix(indptr=np.zeros(1, dtype=np.int64),
                     cols=np.empty(0, dtype=np.int64), vals=np.empty(0),
                     n_rows=0, n_cols=3)
    with pytest.raises(ModelError, match="empty matrix"):
        train(X, [])


@pytest.mark.parametrize("train", [train_nb, train_sgd, train_gbdt])
def test_fractional_labels_refused(rng, train):
    # the labels were once cast to int64, so these trained as [0, 1, 0, 1]
    X, _ = random_sparse(rng, 4, 3, density=1.0)
    with pytest.raises(ModelError, match="label 0.7 is not 0 or 1"):
        train(X, [0.7, 1, 0, 1])


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

    @pytest.mark.parametrize("version, wanted", [
        (1, "equal to 2"), (9, "equal to 2"), ("2", "an integer"),
        (None, "an integer"), (2.0, "an integer"), (True, "an integer")])
    def test_foreign_version_rejected(self, tfidf, training, version, wanted):
        # format 1 held every array as a JSON list; it is refused, not read.
        # 2.0 once loaded, since 2.0 == 2: a version is an integer.
        X, y = training
        payload = json.loads(save_model(train_nb(X, y), tfidf, vocab_ref="r"))
        assert payload["format_version"] == BUNDLE_FORMAT_VERSION == 2
        payload["format_version"] = version
        with pytest.raises(ModelError) as refused:
            load_model(json.dumps(payload).encode("utf-8"))
        assert str(refused.value) == \
            f"field format_version must be {wanted}, got {version!r}"

    @pytest.mark.parametrize("ref", [["x"], 5, None])
    def test_non_string_vocab_ref_rejected(self, tfidf, training, ref):
        X, y = training
        payload = json.loads(save_model(train_nb(X, y), tfidf, vocab_ref="r"))
        payload["vocab_ref"] = ref
        with pytest.raises(ModelError, match="vocab_ref"):
            load_model(json.dumps(payload).encode("utf-8"))

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

    @pytest.mark.parametrize("change", [-1, 1])
    def test_width_must_match_tfidf(self, bundles, change):
        # the TF-IDF model one n-gram narrower or wider than the model
        for name in ("naive_bayes", "sgd_linear"):
            payload = json.loads(bundles[name])
            tfidf = payload["tfidf"]
            lengths = unpacked(tfidf, "ngram_lengths")
            if change < 0:
                repack(tfidf, "ngram_ids", lambda a: a[:len(a) - lengths[-1]])
                for key in ("ngram_lengths", "df", "idf"):
                    repack(tfidf, key, lambda a: a[:-1])
            else:
                repack(tfidf, "ngram_ids", lambda a: np.append(a, 10**6))
                for key in ("ngram_lengths", "df", "idf"):
                    repack(tfidf, key, lambda a: np.append(a, 1))
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
        with pytest.raises(ModelError, match=r"right\[0\] must be in"):
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
        with pytest.raises(ModelError, match=r"trees\[0\]: unknown key"):
            load_model(tampered(bundles["gbdt"], swap))

    @pytest.mark.parametrize("name,key", [("gbdt", "columns"),
                                          ("gbdt", "left"),
                                          ("gbdt_symmetric", "columns")])
    def test_boolean_index_rejected(self, bundles, name, key):
        # a column of true once passed the range check and then failed
        # inside predict with a TypeError
        def poison(params):
            params["trees"][0][key][0] = True
            if name == "gbdt_symmetric":
                params["trees"][0]["thresholds"][0] = 0.5
        with pytest.raises(ModelError, match="must be an integer, got True"):
            load_model(tampered(bundles[name], poison))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,key", [("naive_bayes", "log_prior"),
                                          ("naive_bayes", "log_likelihood"),
                                          ("sgd_linear", "theta")])
    def test_non_finite_weights_rejected(self, bundles, name, key, value):
        def poison(params):
            if key == "log_prior":
                params[key][0] = value
            else:
                repack(params, key, lambda a: a.__setitem__(-1, value))
        with pytest.raises(ModelError, match="finite"):
            load_model(tampered(bundles[name], poison))

    @pytest.mark.parametrize("name,key", [("naive_bayes", "log_likelihood"),
                                          ("sgd_linear", "theta")])
    @pytest.mark.parametrize("value, message", [
        ([0.5, 0.25], "expected a base64 string, got list"),
        (1.5, "expected a base64 string, got float"),
        ("AAAA#AAAAAAA", "invalid base64"),
        ("AAAAAAAAAA", "invalid base64"),  # bad padding
        (base64.b64encode(bytes(26)).decode(), "26 bytes is not a whole"),
    ], ids=["list", "float", "alphabet", "padding", "8k+2-bytes"])
    def test_encoding_fault_rejected(self, bundles, name, key, value,
                                     message):
        def poison(params):
            params[key] = value
        with pytest.raises(ModelError, match=f"{key}: .*{message}"):
            load_model(tampered(bundles[name], poison))

    def test_odd_likelihood_count_rejected(self, bundles):
        # 2 x n row-major values: an odd count is no two rows
        def poison(params):
            repack(params, "log_likelihood", lambda a: a[:-1])
        with pytest.raises(ModelError, match="2 finite likelihood rows"):
            load_model(tampered(bundles["naive_bayes"], poison))

    def test_likelihood_rows_are_row_major(self, bundles):
        bundle = load_model(bundles["naive_bayes"])
        params = json.loads(bundles["naive_bayes"])["parameters"]
        stored = unpacked(params, "log_likelihood")
        assert stored.tobytes() == bundle.model.log_likelihood.tobytes()
        assert bundle.model.log_likelihood.shape == (2, 8)
        np.testing.assert_array_equal(stored[:8],
                                      bundle.model.log_likelihood[0])


class TestPackedArrays:
    """``files.pack``/``unpack``: the bundle's array encoding."""

    @pytest.mark.parametrize("dtype", ["<f8", "<i8"])
    def test_byte_order_independent(self, rng, dtype):
        native = (rng.standard_normal(50) * 1e6).astype(dtype)
        big = native.astype(np.dtype(dtype).newbyteorder(">"))
        assert big.tobytes() != native.tobytes()
        assert pack(big, dtype) == pack(native, dtype)
        back = unpack(pack(big, dtype), dtype, "x", ModelError)
        assert back.dtype == np.dtype(dtype).newbyteorder("=")
        assert back.tobytes() == native.astype(back.dtype).tobytes()

    def test_little_endian_on_any_host(self):
        assert pack(np.array([1], dtype=">i8"), "<i8") == "AQAAAAAAAAA="
        assert pack(np.array([1.0], dtype=">f8"), "<f8") == "AAAAAAAA8D8="
        assert pack(np.array([1], dtype=np.int32), "<i8") == "AQAAAAAAAAA="

    def test_bits_round_trip(self):
        values = np.array([-0.0, 0.0, 5e-324, -math.inf, math.nan, 1 / 3])
        back = unpack(pack(values, "<f8"), "<f8", "x", ModelError)
        assert back.tobytes() == values.tobytes()
        assert back.flags.writeable and back.flags.c_contiguous
        extremes = np.array([2**63 - 1, -2**63, 0, -1])
        assert unpack(pack(extremes, "<i8"), "<i8", "x",
                      ModelError).tobytes() == extremes.tobytes()

    def test_float_not_packed_as_integer(self):
        with pytest.raises(TypeError):
            pack(np.array([1.5]), "<i8")


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
        assert "left[0] must be in" in self.refused(
            tampered(leafwise[0], cycle), leafwise[1])


def cli(*args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "llmdetect", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=CLI_TIME_BOUND_S)


def single_error_line(proc, code: str) -> str:
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"llmdetect: error[{code}]: "), proc.stderr
    return lines[0]


class TestUnwritableBundle:
    """``save_model`` writes only what ``load_model`` accepts."""

    @pytest.mark.parametrize("build", [
        lambda v: GbdtConfig(learning_rate=v),
        lambda v: GbdtConfig(lambda_l2=v),
        lambda v: SgdConfig(eta0=v),
        lambda v: SgdConfig(l2=v),
    ], ids=["gbdt.learning_rate", "gbdt.lambda_l2", "sgd.eta0", "sgd.l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config_rejected(self, build, value):
        # once trained and saved a bundle that load_model refused
        with pytest.raises(ModelError, match="finite"):
            build(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_nb_alpha_rejected(self, training, value):
        X, y = training
        with pytest.raises(ModelError, match="finite"):
            train_nb(X, y, alpha=value)

    def test_non_finite_parameters_not_saved(self, tfidf, training):
        X, y = training
        models = train_each(X, y)
        models["gbdt"].trees[0].values[-1] = math.inf
        models["gbdt_symmetric"].base_score = math.nan
        models["sgd_linear"].theta[0] = math.nan
        models["naive_bayes"].log_likelihood[1, 0] = -math.inf
        for name, model in models.items():
            with pytest.raises(ModelError, match="finite"):
                save_model(model, tfidf, vocab_ref="r")

    def test_width_mismatch_not_saved(self, training):
        X, y = training
        narrow = fit_tfidf([TokenSequence(ids=(1, 2))], TfidfConfig(1, 1, min_df=1))
        with pytest.raises(ModelError, match="features"):
            save_model(train_nb(X, y), narrow, vocab_ref="r")

    def test_cli_train_refuses_to_write(self, tmp_path):
        # learning_rate 1e308 overflows a leaf value to inf; train once
        # exited 0 and predict then failed on the bundle it wrote
        corpus = synth_corpus(40, seed=5, divergence=0.2)
        save_corpus(corpus, tmp_path / "c.jsonl", "jsonl")
        (tmp_path / "run.ini").write_text(
            "[features]\ntoken_source = whitespace\nngram_max = 1\n"
            "min_df = 1\n[gbdt]\nlearning_rate = 1e308\nn_trees = 20\n"
            "min_data_in_leaf = 2\n")
        proc = cli("train", "c.jsonl", "--kind", "gbdt", "--config", "run.ini",
                   "--out", "m.json", cwd=tmp_path)
        assert "must be a finite number, got inf" in single_error_line(
            proc, "model")
        assert not (tmp_path / "m.json").exists()


class TestDepthCap:
    def test_constructor(self):
        assert GbdtConfig(depth=MAX_DEPTH).depth == 16
        for depth in (0, MAX_DEPTH + 1, 40):
            with pytest.raises(ModelError, match=r"depth must be in \[1, 16\]"):
                GbdtConfig(variant="symmetric", depth=depth)

    def test_cli_fails_at_config_time(self, tmp_path):
        # the symmetric grower keeps 2**depth row groups: depth 40 once ran
        # out of memory instead of failing
        save_corpus(synth_corpus(6, seed=5, divergence=0.9),
                    tmp_path / "c.jsonl", "jsonl")
        (tmp_path / "run.ini").write_text(
            "[features]\ntoken_source = whitespace\nmin_df = 1\n"
            "[gbdt]\nvariant = symmetric\ndepth = 17\nn_trees = 1\n"
            "min_data_in_leaf = 1\n")
        proc = cli("train", "c.jsonl", "--kind", "gbdt", "--config", "run.ini",
                   "--out", "m.json", cwd=tmp_path)
        assert "depth must be in [1, 16], got 17" in single_error_line(
            proc, "model")
        assert not (tmp_path / "m.json").exists()


class TestPositiveLambda:
    # with lambda_l2 = 0, a node whose rows all had saturated probabilities
    # (h exactly 0) once ended training in a bare ZeroDivisionError

    @pytest.mark.parametrize("variant", ["leaf_wise", "symmetric"])
    def test_constructor(self, variant):
        with pytest.raises(ModelError,
                           match="lambda_l2 must be a finite number > 0"):
            GbdtConfig(variant=variant, lambda_l2=0.0, learning_rate=0.3,
                       n_trees=200)
        assert GbdtConfig(variant=variant, lambda_l2=1e-12).lambda_l2 == 1e-12

    @pytest.mark.parametrize("variant", ["leaf_wise", "symmetric"])
    def test_bundle_with_zero_lambda_rejected(self, variant):
        def zero_lambda(parameters):
            parameters["config"]["lambda_l2"] = 0.0
        with pytest.raises(ModelError, match="lambda_l2"):
            load_model(tampered(GBDT_BUNDLES[variant], zero_lambda))

    def test_cli_fails_at_config_time(self, tmp_path):
        save_corpus(synth_corpus(6, seed=5, divergence=0.9),
                    tmp_path / "c.jsonl", "jsonl")
        (tmp_path / "run.ini").write_text(
            "[features]\ntoken_source = whitespace\nmin_df = 1\n"
            "[gbdt]\nlambda_l2 = 0\nn_trees = 1\nmin_data_in_leaf = 1\n")
        proc = cli("train", "c.jsonl", "--kind", "gbdt", "--config", "run.ini",
                   "--out", "m.json", cwd=tmp_path)
        assert "lambda_l2 must be a finite number > 0, got 0.0" in \
            single_error_line(proc, "model")
        assert not (tmp_path / "m.json").exists()


# -- fuzzing GBDT bundle parameters -----------------------------------------

def _small_gbdt_bundles() -> dict[str, bytes]:
    rng = np.random.default_rng(7)
    X, _ = random_sparse(rng, 40, 8, max_distinct=10)
    y = (rng.random(40) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    docs = [TokenSequence(ids=(1, 2, 3)), TokenSequence(ids=(2, 3, 4)),
            TokenSequence(ids=(5,))]
    tfidf = fit_tfidf(docs, TfidfConfig(1, 2, min_df=1))
    return {variant: save_model(train_gbdt(X, y, GbdtConfig(
        variant=variant, n_trees=2, max_leaves=4, depth=2, n_bins=16,
        min_data_in_leaf=2)), tfidf, vocab_ref="r")
        for variant in ("leaf_wise", "symmetric")}


GBDT_BUNDLES = _small_gbdt_bundles()
_PROBE = random_sparse(np.random.default_rng(8), 30, 8, max_distinct=10)[0]

_ODD_VALUES = st.sampled_from([
    None, True, False, -1, -2, 0, 1, 2, 3, 7, 8, 10 ** 6, 2 ** 63, -(2 ** 63),
    1.5, -0.5, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
    "0", "", [], [0], {}, {"a": 1}])


@st.composite
def _mutations(draw, node):
    """Up to four edits anywhere inside a parameters document: drop a key,
    swap in a value of another type or range, resize a list, or point a
    child back at an earlier node."""
    for _ in range(draw(st.integers(1, 4))):
        path, target = [], node
        while (isinstance(target, (dict, list)) and target
               and draw(st.integers(0, 3))):
            key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                       else range(len(target))))
            path.append(target)
            target = target[key]
            path.append(key)
        if not path:
            continue
        parent, key = path[-2], path[-1]
        action = draw(st.sampled_from(["drop", "replace", "grow", "cycle"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[key]
        elif action == "grow" and isinstance(target, list):
            target.append(copy.deepcopy(
                draw(_ODD_VALUES) if draw(st.booleans())
                else (target[-1] if target else 0)))
        elif action == "cycle" and key in ("left", "right") and target:
            target[draw(st.integers(0, len(target) - 1))] = draw(
                st.integers(-1, len(target)))
        else:
            parent[key] = copy.deepcopy(draw(_ODD_VALUES))
    return node


class TestFuzzGbdtBundles:
    @pytest.mark.parametrize("variant", ["leaf_wise", "symmetric"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_and_predict_finish_or_refuse(self, variant, data, time_bound):
        payload = json.loads(GBDT_BUNDLES[variant])
        payload["parameters"] = data.draw(_mutations(
            copy.deepcopy(payload["parameters"])))
        blob = json.dumps(payload).encode("utf-8")
        with time_bound(10):
            try:
                scores = load_model(blob).predict_proba(_PROBE)
            except LlmdetectError:
                return
        assert scores.shape == (_PROBE.n_rows,)
        assert np.isfinite(scores).all()
        assert ((0.0 <= scores) & (scores <= 1.0)).all()
