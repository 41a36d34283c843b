"""Three binary probabilistic classifiers behind one scoring contract.

Every trained model exposes ``predict_proba(X) -> per-row P(class 1)`` and
round-trips through a canonical JSON bundle that embeds the TF-IDF model
and references the tokenizer vocabulary by SHA-256 hash, so a bundle can
refuse to score tokens produced by the wrong vocabulary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ModelError
from ..features import (TfidfModel, tfidf_from_dict, tfidf_to_dict,
                        word_vocab_ref)
from ..files import canonical_json, parse_json
from ..schema import Rule, object_with
from .common import sigmoid
from .gbdt import (GbdtConfig, GbdtModel, LeafwiseTree, SymmetricTree,
                   train_gbdt)
from .naive_bayes import NaiveBayesModel, train_nb
from .sgd import SgdConfig, SgdLinearModel, objective, train_sgd

BUNDLE_FORMAT_VERSION = 2
# A bundle holds these keys and may hold "training", with _TRAINING's.
_BUNDLE_KEYS = ("format_version", "kind", "tfidf", "vocab_ref", "parameters")
_VERSION = Rule(int, BUNDLE_FORMAT_VERSION, BUNDLE_FORMAT_VERSION)
_TRAINING = {"seed": Rule(int, null=True), "config_hash": Rule(str, null=True)}

# Bundle "kind" -> model class; each class owns its parameter schema.
MODEL_CLASSES = {cls.KIND: cls
                 for cls in (NaiveBayesModel, SgdLinearModel, GbdtModel)}
MODEL_KINDS = tuple(MODEL_CLASSES)
KIND_NAIVE_BAYES, KIND_SGD_LINEAR, KIND_GBDT = MODEL_KINDS

__all__ = [
    "NaiveBayesModel", "train_nb",
    "SgdConfig", "SgdLinearModel", "train_sgd", "objective",
    "GbdtConfig", "GbdtModel", "train_gbdt",
    "LeafwiseTree", "SymmetricTree",
    "sigmoid", "ModelBundle", "save_model", "load_model", "bundle_from_dict",
    "vocab_hash", "MODEL_CLASSES", "MODEL_KINDS",
    "KIND_NAIVE_BAYES", "KIND_SGD_LINEAR", "KIND_GBDT",
]


def vocab_hash(vocab_bytes: bytes) -> str:
    """SHA-256 of a canonical vocabulary file, used as the bundle's ref."""
    return hashlib.sha256(vocab_bytes).hexdigest()


@dataclass
class ModelBundle:
    """A trained classifier plus everything needed to score raw text."""

    kind: str
    model: object
    tfidf: TfidfModel
    vocab_ref: str
    seed: int | None = None
    config_hash: str | None = None

    def predict_proba(self, X) -> np.ndarray:
        """Each row's P(class 1); a NaN score is refused, naming its row."""
        scores = self.model.predict_proba(X)
        nan = np.flatnonzero(np.isnan(scores))
        if len(nan):
            raise ModelError(f"{self.kind} model scores document {nan[0]} "
                             f"as NaN")
        return scores


def save_model(model, tfidf: TfidfModel, vocab_ref: str,
               seed: int | None = None, config_hash: str | None = None) -> bytes:
    """Canonical bundle bytes; identical inputs give identical bytes."""
    kind = getattr(model, "KIND", None)
    if MODEL_CLASSES.get(kind) is not type(model):
        raise ModelError(f"unknown model type {type(model).__name__}")
    parameters = model.to_dict()
    # never write a bundle that load_model would reject
    _check_word_vocab_ref(tfidf, vocab_ref)
    _model_from_parameters(kind, parameters, tfidf.n_features)
    payload = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": kind,
        "tfidf": tfidf_to_dict(tfidf),
        "vocab_ref": vocab_ref,
        "parameters": parameters,
        "training": {"seed": seed, "config_hash": config_hash},
    }
    return canonical_json(payload)


def load_model(data: bytes) -> ModelBundle:
    return bundle_from_dict(parse_json(data, "model bundle", ModelError))


def bundle_from_dict(payload) -> ModelBundle:
    """Validate a parsed bundle document and rebuild its model."""
    object_with(payload, _BUNDLE_KEYS, "model bundle", ModelError,
                optional=("training",))
    _VERSION.check("field format_version", payload["format_version"],
                   ModelError)
    kind = payload["kind"]
    Rule(MODEL_KINDS).check("field kind", kind, ModelError)
    Rule(str).check("field vocab_ref", payload["vocab_ref"], ModelError)
    tfidf = tfidf_from_dict(payload["tfidf"])
    _check_word_vocab_ref(tfidf, payload["vocab_ref"])
    model = _model_from_parameters(kind, payload["parameters"],
                                   tfidf.n_features)
    training = object_with(payload.get("training", {}), (), "field training",
                           ModelError, optional=_TRAINING)
    for key, rule in _TRAINING.items():
        rule.check(f"training.{key}", training.get(key), ModelError)
    return ModelBundle(kind=kind, model=model, tfidf=tfidf,
                       vocab_ref=payload["vocab_ref"], **training)


def _check_word_vocab_ref(tfidf: TfidfModel, vocab_ref) -> None:
    """A whitespace bundle's ref must be the hash of its own word table."""
    if tfidf.word_vocab is not None and \
            vocab_ref != word_vocab_ref(tfidf.word_vocab):
        raise ModelError("field vocab_ref: does not match the hash of the "
                         "bundle's whitespace word table")


def _model_from_parameters(kind: str, parameters, n_features: int):
    """Rebuild a bundle's model, checked as load_model checks it.  A
    model's parameter keys are its class's fields."""
    cls = MODEL_CLASSES[kind]
    object_with(parameters, [f.name for f in fields(cls)], "field parameters",
                ModelError)
    model = cls.from_dict(parameters)
    if model.n_features != n_features:
        raise ModelError(f"{kind} model has {model.n_features} features but "
                         f"its TF-IDF model has {n_features}")
    return model
