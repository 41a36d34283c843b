from pathlib import Path

import pytest

from llmdetect.config import DEFAULTS, default_config, load_run_config
from llmdetect.errors import ConfigError, FeatureError


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestDefaults:
    def test_every_key_has_a_default(self):
        config = default_config()
        for section, keys in DEFAULTS.items():
            for key in keys:
                assert config.get(section, key) == DEFAULTS[section][key]

    def test_none_path_gives_defaults(self):
        assert load_run_config(None).sections == default_config().sections


class TestParsing:
    def test_overrides_apply(self, tmp_path):
        path = write(tmp_path, "[gbdt]\nn_trees = 7\nvariant = symmetric\n")
        config = load_run_config(path)
        assert config.get("gbdt", "n_trees") == 7
        assert config.get("gbdt", "variant") == "symmetric"
        assert config.get("gbdt", "depth") == 6  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[models]\nalpha = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write(tmp_path, "[gbdt]\nnbins = 3\n")
        with pytest.raises(ConfigError, match="gbdt.nbins"):
            load_run_config(path)

    def test_bad_int_rejected(self, tmp_path):
        path = write(tmp_path, "[sgd]\nepochs = many\n")
        with pytest.raises(ConfigError, match="sgd.epochs"):
            load_run_config(path)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, tmp_path, raw):
        path = write(tmp_path, f"[gbdt]\nlearning_rate = {raw}\n")
        with pytest.raises(ConfigError, match="gbdt.learning_rate"):
            load_run_config(path)

    @pytest.mark.parametrize("section, key", [("features", "token_source"),
                                              ("ensemble", "combine")])
    def test_unknown_choice_rejected(self, tmp_path, section, key):
        path = write(tmp_path, f"[{section}]\n{key} = bogus\n")
        with pytest.raises(ConfigError, match=f"{section}.{key} must be "
                                              f".* or .*, got 'bogus'"):
            load_run_config(path)

    def test_typed_sections_checked_on_load(self, tmp_path):
        path = write(tmp_path, "[features]\nngram_min = 3\nngram_max = 2\n")
        with pytest.raises(FeatureError, match="ngram_min <= ngram_max"):
            load_run_config(path)

    def test_bool_values(self, tmp_path):
        path = write(tmp_path, "[features]\nsublinear_tf = yes\n"
                               "l2_normalize = false\n")
        config = load_run_config(path)
        assert config.get("features", "sublinear_tf") is True
        assert config.get("features", "l2_normalize") is False

    def test_bad_bool_rejected(self, tmp_path):
        path = write(tmp_path, "[features]\nsublinear_tf = maybe\n")
        with pytest.raises(ConfigError, match="true or false"):
            load_run_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_run_config(tmp_path / "absent.ini")


class TestHashAndSeed:
    def test_hash_stable_and_sensitive(self, tmp_path):
        a = load_run_config(write(tmp_path, "[run]\nseed = 1\n"))
        b = load_run_config(write(tmp_path, "[run]\nseed = 1\n"))
        c = load_run_config(write(tmp_path, "[run]\nseed = 2\n"))
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_with_seed_does_not_mutate(self):
        config = default_config()
        reseeded = config.with_seed(99)
        assert reseeded.seed == 99
        assert config.seed == DEFAULTS["run"]["seed"]

    def test_typed_subconfigs(self):
        config = default_config()
        assert config.tfidf_config().ngram_max == 3
        assert config.sgd_config().seed == config.seed
        assert config.gbdt_config().n_trees == 200

    def test_defaults_are_the_dataclass_defaults(self):
        from llmdetect.features import TfidfConfig
        from llmdetect.models import GbdtConfig, SgdConfig
        config = default_config()
        assert config.tfidf_config() == TfidfConfig()
        assert config.sgd_config() == SgdConfig(seed=config.seed)
        assert config.gbdt_config() == GbdtConfig()

    def test_defaults_are_the_library_constants(self):
        import inspect

        from llmdetect import ensemble, tokenizer
        config = default_config()
        assert config.get("tokenizer", "vocab_size") == \
            tokenizer.DEFAULT_VOCAB_SIZE
        assert config.get("ensemble", "combine") == \
            ensemble.COMBINE_PROBABILITY_MEAN
        assert config.get("ensemble", "grid_step") == ensemble.DEFAULT_GRID_STEP
        for tuner in (ensemble.weight_grid, ensemble.tune_weights):
            step = inspect.signature(tuner).parameters["step"].default
            assert step == ensemble.DEFAULT_GRID_STEP

    def test_canonical_rendering_unchanged(self):
        # config_hash is logged into every bundle; deriving the defaults
        # from the library constants must not move it
        assert default_config().hash() == (
            "9949a772ff2b6f592dd12c6191305e0ff057634a9ab1fbab2969bed27849e1c3")


def test_readme_defaults_block_loads(tmp_path):
    # its inline "; ..." comments were once read as part of the values:
    # token_source was 'bpe           ; or "whitespace" ...'
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_run_config(write(tmp_path, block))
    assert config.canonical() == default_config().canonical()
