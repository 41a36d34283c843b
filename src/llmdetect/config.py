"""Run configuration: an INI document with typed sections and defaults.

Every key has a documented default; unknown sections or keys are hard
errors so typos cannot silently fall back to defaults.  The canonical
rendering (sorted ``section.key=value`` lines) feeds the config hash that
training logs into model bundles.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields

from .ensemble import COMBINE_PROBABILITY_MEAN, COMBINERS, DEFAULT_GRID_STEP
from .errors import ConfigError, ModelError
from .features import TfidfConfig
from .files import read_text
from .models import GbdtConfig, SgdConfig
from .models.naive_bayes import ALPHA, DEFAULT_ALPHA
from .pipeline import TOKEN_SOURCE_BPE, TOKEN_SOURCES
from .schema import Rule, build
from .tokenizer import DEFAULT_VOCAB_SIZE


def _field_defaults(cls, *exclude: str) -> dict:
    """A config dataclass's defaults, keyed by field name."""
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


DEFAULTS: dict[str, dict] = {
    "run": {
        "seed": 42,
    },
    "tokenizer": {
        "vocab_size": DEFAULT_VOCAB_SIZE,
        "vocab_path": "",      # trained vocabulary consumed by train/predict
    },
    "features": {
        "token_source": TOKEN_SOURCE_BPE,  # or "whitespace"
        **_field_defaults(TfidfConfig),
    },
    "naive_bayes": {
        "alpha": DEFAULT_ALPHA,
    },
    "sgd": _field_defaults(SgdConfig, "seed"),  # the seed comes from [run]
    "gbdt": _field_defaults(GbdtConfig),
    "ensemble": {
        "combine": COMBINE_PROBABILITY_MEAN,
        "voters": "",          # comma-separated bundle/score-file paths
        "weights": "",         # comma-separated reals, parallel to voters
        "grid_step": DEFAULT_GRID_STEP,  # step for --tune-weights
    },
}

# Keys whose value must be one of a few names.
_CHOICES = {("features", "token_source"): TOKEN_SOURCES,
            ("ensemble", "combine"): COMBINERS}

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _coerce(section: str, key: str, raw: str, default):
    """A key's text as a value of its default's kind, or as one of its
    names.  The bounds are left to the config that holds the key."""
    rule = Rule(_CHOICES.get((section, key), type(default)))
    try:
        value = (_BOOL_VALUES.get(raw.strip().lower()) if rule.kind is bool
                 else rule.kind(raw) if rule.kind in (int, float) else raw)
    except ValueError:
        value = None
    if not rule.admits(value):
        # the rule refuses the text as it refused the value, so this
        # raises, quoting the text as written
        rule.check(f"{section}.{key}", raw, ConfigError)
    return value


@dataclass
class RunConfig:
    sections: dict[str, dict]

    def get(self, section: str, key: str):
        return self.sections[section][key]

    @property
    def seed(self) -> int:
        return self.sections["run"]["seed"]

    def with_seed(self, seed: int) -> "RunConfig":
        sections = {name: dict(values) for name, values in self.sections.items()}
        sections["run"]["seed"] = seed
        return RunConfig(sections=sections)

    def tfidf_config(self) -> TfidfConfig:
        features = {key: value for key, value in self.sections["features"].items()
                    if key != "token_source"}
        return build(TfidfConfig, features, "[features]", ConfigError)

    def sgd_config(self) -> SgdConfig:
        return build(SgdConfig, {**self.sections["sgd"], "seed": self.seed},
                     "[sgd]", ConfigError)

    def gbdt_config(self) -> GbdtConfig:
        return build(GbdtConfig, self.sections["gbdt"], "[gbdt]", ConfigError)

    def canonical(self) -> str:
        lines = []
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                lines.append(f"{section}.{key}={self.sections[section][key]!r}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def default_config() -> RunConfig:
    return RunConfig(sections={name: dict(values)
                               for name, values in DEFAULTS.items()})


def load_run_config(path=None) -> RunConfig:
    """Parse an INI run config, or return pure defaults when path is None."""
    if path is None:
        return default_config()
    parser = configparser.ConfigParser(interpolation=None)
    text = read_text(path, "config file", ConfigError)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    config = default_config()
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}] "
                              f"(expected one of {sorted(DEFAULTS)})")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(
                    f"unknown key {section}.{key} (expected one of "
                    f"{sorted(DEFAULTS[section])})")
            config.sections[section][key] = _coerce(
                section, key, raw, DEFAULTS[section][key])
    # Range-check every typed section now, so that each command refuses a
    # bad file with the same one error before it reads any input.
    config.tfidf_config()
    config.sgd_config()
    config.gbdt_config()
    ALPHA.check("alpha", config.get("naive_bayes", "alpha"), ModelError)
    return config
