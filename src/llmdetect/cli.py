"""Command-line surface wiring the pipeline end to end.

Subcommands: tokenize-train, train, predict, evaluate, ensemble, synth.
Logs go to standard error; data artifacts go to files.  Every command is
deterministic given (inputs, config, seed): re-running produces
byte-identical artifacts.  Failures exit non-zero with a single
machine-greppable ``llmdetect: error[<code>]: ...`` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ensemble as ens
from .config import RunConfig, load_run_config
from .corpus import SplitSpec, load_corpus, save_corpus, split_corpus, synth_corpus
from .errors import (ConfigError, EnsembleError, LlmdetectError,
                     MetricsError, ModelError, TokenizerError)
from .files import canonical_json, parse_json, read_bytes, write_bytes
from .metrics import evaluation_report
from .models import MODEL_KINDS, bundle_from_dict, load_model
from .pipeline import (TOKEN_SOURCE_BPE, check_vocab_ref, score_texts,
                       train_bundle)
from .schema import Rule, object_with
from .tokenizer import load_vocab, save_vocab, train_bpe

# An ensemble spec holds format_version 1 and voters, and may hold
# combine; each voter holds a weight and exactly one of _SOURCES.
_SPEC_VERSION = Rule(int, 1, 1)
_SOURCES = ("model", "scores")
# Where str.splitlines breaks a line, escaped, so that an error quoting a
# path or key that holds one is still printed as one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1]
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_format(path, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    return "jsonl"


def _load_corpus_arg(path, explicit_format: str | None):
    return load_corpus(path, _resolve_format(path, explicit_format))


def _read_json(path, error):
    return parse_json(read_bytes(path, "file", error), path, error)


def _config_for(args) -> RunConfig:
    config = load_run_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


def _load_bpe_vocab(path):
    data = read_bytes(path, "file", TokenizerError)
    return load_vocab(data), data


def cmd_tokenize_train(args) -> int:
    config = _config_for(args)
    vocab_size = (args.vocab_size if args.vocab_size is not None
                  else config.get("tokenizer", "vocab_size"))
    corpus = _load_corpus_arg(args.corpus, args.format)
    vocab = train_bpe(corpus.texts, vocab_size=vocab_size)
    write_bytes(args.out, save_vocab(vocab), TokenizerError)
    _log(f"trained {len(vocab.merges)} merges; vocabulary size {vocab.size}")
    return 0


def cmd_train(args) -> int:
    config = _config_for(args)
    tfidf_config, sgd_config, gbdt_config = (
        config.tfidf_config(), config.sgd_config(), config.gbdt_config())
    corpus = _load_corpus_arg(args.corpus, args.format)

    token_source = config.get("features", "token_source")
    bpe_vocab = vocab_bytes = None
    if token_source == TOKEN_SOURCE_BPE:
        vocab_path = args.vocab or config.get("tokenizer", "vocab_path")
        if not vocab_path:
            raise ConfigError("tokenizer.vocab_path is empty; train a "
                              "vocabulary with tokenize-train and point the "
                              "config (or --vocab) at it")
        bpe_vocab, vocab_bytes = _load_bpe_vocab(vocab_path)

    holdout = None
    if args.holdout_fraction:
        spec = SplitSpec(test_fraction=args.holdout_fraction, seed=config.seed)
        corpus, holdout = split_corpus(corpus, spec)

    bundle_bytes = train_bundle(
        args.kind, corpus,
        tfidf_config=tfidf_config,
        token_source=token_source,
        bpe_vocab=bpe_vocab, vocab_bytes=vocab_bytes,
        nb_alpha=config.get("naive_bayes", "alpha"),
        sgd_config=sgd_config,
        gbdt_config=gbdt_config,
        seed=config.seed, config_hash=config.hash())
    write_bytes(args.out, bundle_bytes, ModelError)
    _log(f"trained {args.kind} on {len(corpus)} documents -> {args.out}")
    # written only once the bundle is, so a failed train leaves no file
    if holdout is not None and args.holdout_out:
        save_corpus(holdout, args.holdout_out,
                    _resolve_format(args.holdout_out, None))
        _log(f"wrote {len(holdout)} held-out documents to {args.holdout_out}")
    return 0


def _voter(raw_path, weight: float, base, is_scores: bool,
           where: str) -> ens.Voter:
    """A voter from a bundle or score-file path, resolved against base."""
    Rule(str).check(where, raw_path, EnsembleError)
    if not raw_path:
        raise EnsembleError(f"{where} must be a non-empty string")
    path = Path(base) / raw_path
    if is_scores:
        return ens.Voter(weight=weight, name=raw_path,
                         external=ens.load_external_scores(path))
    return ens.Voter(weight=weight, name=raw_path,
                     bundle=load_model(read_bytes(path, "file", ModelError)))


def _ensemble_spec(payload, path) -> ens.EnsembleSpec:
    """Build a spec from the parsed spec file at path."""
    object_with(payload, ("format_version", "voters"), str(path),
                EnsembleError, optional=("combine",))
    _SPEC_VERSION.check(f"{path}: format_version", payload["format_version"],
                        EnsembleError)
    combine = payload.get("combine", ens.COMBINE_PROBABILITY_MEAN)
    ens.COMBINE.check(f"{path}: combine", combine, EnsembleError)
    Rule(list).check(f"{path}: voters", payload["voters"], EnsembleError)
    base = Path(path).parent
    voters = []
    for i, entry in enumerate(payload["voters"]):
        where = f"{path}: voters[{i}]"
        object_with(entry, ("weight",), where, EnsembleError,
                    optional=_SOURCES)
        sources = [key for key in _SOURCES if key in entry]
        if len(sources) != 1:
            raise EnsembleError(f"{where}: needs exactly one of model and "
                                f"scores")
        ens.WEIGHT.check(f"{where}: weight", entry["weight"], EnsembleError)
        source, = sources
        voters.append(_voter(entry[source], entry["weight"], base,
                             source == "scores", f"{where}: {source}"))
    return ens.EnsembleSpec(voters=voters, combine=combine)


def _spec_from_config(config) -> ens.EnsembleSpec:
    raw_voters = config.get("ensemble", "voters")
    if not raw_voters.strip():
        raise ConfigError("no ensemble spec given and ensemble.voters is empty")
    paths = [p.strip() for p in raw_voters.split(",") if p.strip()]
    raw_weights = config.get("ensemble", "weights").strip()
    if raw_weights:
        weights = [ens.parse_weight(w, "ensemble.weights", ConfigError)
                   for w in raw_weights.split(",")]
        if len(weights) != len(paths):
            raise ConfigError(f"{len(paths)} ensemble.voters but "
                              f"{len(weights)} ensemble.weights")
    else:
        weights = [1.0] * len(paths)
    voters = [_voter(p, w, "", p.endswith(".csv"), "ensemble.voters")
              for p, w in zip(paths, weights)]
    return ens.EnsembleSpec(voters=voters,
                            combine=config.get("ensemble", "combine"))


def _vocab_for(bundles, vocab_path):
    """Load the tokenizer file and hash-check it against the BPE bundles.

    Returns None when every bundle carries its own whitespace vocabulary.
    """
    bpe_bundles = [b for b in bundles if b.tfidf.word_vocab is None]
    if not bpe_bundles:
        return None
    if not vocab_path:
        raise ModelError("bundle was trained on BPE tokens; pass the "
                         "tokenizer file with --vocab")
    bpe_vocab, vocab_bytes = _load_bpe_vocab(vocab_path)
    for bundle in bpe_bundles:
        check_vocab_ref(bundle, vocab_bytes)
    return bpe_vocab


def _write_scores(path, ids, scores) -> None:
    """Write ``dump_scores``'s text as UTF-8 one block of rows at a time."""
    write_bytes(path, (block.encode("utf-8")
                       for block in ens.score_csv_blocks(ids, scores)),
                EnsembleError)


def _spec_bundles(spec: ens.EnsembleSpec):
    return [v.bundle for v in spec.voters if v.bundle is not None]


def cmd_predict(args) -> int:
    payload = _read_json(args.model, ModelError)
    corpus = _load_corpus_arg(args.corpus, args.format)

    if isinstance(payload, dict) and "voters" in payload:
        spec = _ensemble_spec(payload, args.model)
        bpe_vocab = _vocab_for(_spec_bundles(spec), args.vocab)
        scores = ens.run_ensemble(spec, corpus, bpe_vocab)
    else:
        bundle = bundle_from_dict(payload)
        bpe_vocab = _vocab_for([bundle], args.vocab)
        scores, _ = score_texts(bundle, corpus.texts, bpe_vocab)

    _write_scores(args.out, corpus.ids, scores)
    _log(f"scored {len(corpus)} documents -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    scores_by_id = ens.load_external_scores(args.scores)
    corpus = _load_corpus_arg(args.corpus, args.format)
    aligned = scores_by_id.aligned(corpus.ids)
    report = evaluation_report(aligned, corpus.labels)

    print(f"documents: {report['n_documents']} "
          f"({report['n_positive']} positive, {report['n_negative']} negative)")
    print(f"roc_auc: {report['auc']!r}")
    print("confusion at thresholds (score >= threshold is positive):")
    print("  threshold      tp      fp      tn      fn")
    for row in report["confusion"]:
        print(f"  {row['threshold']:9.1f} {row['tp']:7d} {row['fp']:7d} "
              f"{row['tn']:7d} {row['fn']:7d}")
    print(f"curve points: {len(report['curve'])}")
    if args.json:
        write_bytes(args.json, canonical_json(report), MetricsError)
        _log(f"wrote structured report to {args.json}")
    return 0


def cmd_ensemble(args) -> int:
    config = _config_for(args)
    if args.spec:
        spec = _ensemble_spec(_read_json(args.spec, EnsembleError), args.spec)
    else:
        spec = _spec_from_config(config)
    step = config.get("ensemble", "grid_step")
    if args.tune_weights:
        ens.grid_units(len(spec.voters), step)  # refuse before any scoring
    corpus = _load_corpus_arg(args.corpus, args.format)
    bpe_vocab = _vocab_for(_spec_bundles(spec), args.vocab)

    per_voter = ens.collect_voter_scores(spec, corpus, bpe_vocab)
    weights = [v.weight for v in spec.voters]
    if args.tune_weights:
        weights, auc = ens.tune_weights(per_voter, corpus.labels,
                                        combine=spec.combine, step=step)
        _log(f"tuned weights {list(weights)} (validation auc {auc!r})")
    scores = ens.combiner(spec.combine)(per_voter, list(weights))

    _write_scores(args.out, corpus.ids, scores)
    _log(f"combined {len(spec.voters)} voters over {len(corpus)} documents "
         f"-> {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = _config_for(args)
    seed = args.seed if args.seed is not None else config.seed
    corpus = synth_corpus(args.n_per_class, seed=seed, divergence=args.divergence)
    save_corpus(corpus, args.out, _resolve_format(args.out, args.format))
    _log(f"wrote {len(corpus)} synthetic documents to {args.out}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="run config (INI) path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--format", choices=["csv", "jsonl"],
                        help="corpus format (default: inferred from suffix)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llmdetect",
        description="Detect machine-generated text with BPE + TF-IDF + "
                    "classical classifiers + soft voting, scored by ROC-AUC.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize-train",
                       help="train a BPE vocabulary from a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--vocab-size", type=int,
                   help="override tokenizer.vocab_size")
    _add_common(p)
    p.set_defaults(func=cmd_tokenize_train)

    p = sub.add_parser("train", help="train one classifier into a bundle")
    p.add_argument("corpus")
    p.add_argument("--kind", required=True, choices=list(MODEL_KINDS))
    p.add_argument("--out", required=True, help="model bundle to write")
    p.add_argument("--vocab", help="override tokenizer.vocab_path")
    p.add_argument("--holdout-fraction", type=float, default=0.0,
                   help="reserve a stratified fraction before training")
    p.add_argument("--holdout-out", help="where to write the held-out part")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict",
                       help="score a corpus with a bundle or ensemble spec")
    p.add_argument("model", help="model bundle or ensemble spec path")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="score CSV to write")
    p.add_argument("--vocab", help="tokenizer vocabulary file")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="join scores to labels and report")
    p.add_argument("scores", help="id,score CSV")
    p.add_argument("corpus")
    p.add_argument("--json", help="write the structured report here")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble",
                       help="combine voters over a corpus (optionally tuning "
                            "weights on its labels)")
    p.add_argument("spec", nargs="?",
                   help="ensemble spec JSON (default: config [ensemble])")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="score CSV to write")
    p.add_argument("--vocab", help="tokenizer vocabulary file")
    p.add_argument("--tune-weights", action="store_true",
                   help="grid-search weights on the corpus labels")
    _add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--divergence", type=float, required=True,
                   help="class separation in [0, 1]")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LlmdetectError as exc:
        print(f"llmdetect: error[{exc.code}]: {exc}".translate(_LINE_BREAKS),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
