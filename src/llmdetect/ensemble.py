"""Weighted soft voting over internal classifiers plus blending of
externally produced per-document scores.

Combination happens in exact rational arithmetic (weights and scores are
binary floats, hence exact rationals), so rescaling every weight by the
same representable factor provably changes no output bit, and the weighted
mean can never escape [min voter score, max voter score].  The rank_mean
combiner replaces each voter's scores with tie-averaged fractional ranks
first, making it invariant to any strictly monotone miscalibration.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from .errors import EnsembleError
from .metrics import roc_auc

COMBINE_PROBABILITY_MEAN = "probability_mean"
COMBINE_RANK_MEAN = "rank_mean"
COMBINERS = (COMBINE_PROBABILITY_MEAN, COMBINE_RANK_MEAN)

SCORE_HEADER = ["id", "score"]


@dataclass
class ExternalScores:
    """Document id -> score in [0, 1], parsed from a score file."""

    scores: dict[str, float]

    def aligned(self, ids: list[str]) -> np.ndarray:
        missing = [i for i in ids if i not in self.scores]
        if missing:
            shown = ", ".join(missing[:10])
            suffix = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
            raise EnsembleError(f"external scores missing {len(missing)} "
                                f"document ids: {shown}{suffix}")
        return np.array([self.scores[i] for i in ids])


def parse_weight(raw, where: str, error=EnsembleError) -> float:
    """A voter weight read from outside: a finite number >= 0."""
    try:
        weight = float(raw)
    except (TypeError, ValueError, OverflowError):
        weight = math.nan
    if not (math.isfinite(weight) and weight >= 0.0):
        raise error(f"{where}: weight must be a finite number >= 0, "
                    f"got {raw!r}")
    return weight


@dataclass
class Voter:
    """One ensemble member: an internal model bundle or an external file."""

    weight: float
    bundle: object | None = None          # models.ModelBundle
    external: ExternalScores | None = None
    name: str = ""

    def __post_init__(self):
        if self.weight < 0:
            raise EnsembleError(f"voter weight must be >= 0, got {self.weight}")
        if (self.bundle is None) == (self.external is None):
            raise EnsembleError("voter must hold exactly one of a model "
                                "bundle or external scores")


@dataclass
class EnsembleSpec:
    voters: list[Voter]
    combine: str = COMBINE_PROBABILITY_MEAN

    def __post_init__(self):
        if self.combine not in COMBINERS:
            raise EnsembleError(f"combine must be one of {COMBINERS}, "
                                f"got {self.combine!r}")
        if not self.voters:
            raise EnsembleError("ensemble needs at least one voter")
        if not any(v.weight > 0 for v in self.voters):
            raise EnsembleError("at least one voter weight must be positive")


def _check_vote_inputs(per_voter_scores, weights) -> int:
    if len(per_voter_scores) != len(weights):
        raise EnsembleError(f"{len(per_voter_scores)} score lists but "
                            f"{len(weights)} weights")
    if not per_voter_scores:
        raise EnsembleError("need at least one voter")
    lengths = {len(s) for s in per_voter_scores}
    if len(lengths) != 1:
        raise EnsembleError(f"voters scored different document counts: "
                            f"{sorted(lengths)}")
    for w in weights:
        if w < 0:
            raise EnsembleError(f"weights must be >= 0, got {w}")
    if not any(w > 0 for w in weights):
        raise EnsembleError("all voter weights are zero")
    return lengths.pop()


def soft_vote(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter probabilities, document by document."""
    n_docs = _check_vote_inputs(per_voter_scores, weights)
    frac_weights = [Fraction(float(w)) for w in weights]
    total = sum(frac_weights)
    out = np.empty(n_docs)
    for d in range(n_docs):
        acc = Fraction(0)
        for scores, w in zip(per_voter_scores, frac_weights):
            if w:
                acc += w * Fraction(float(scores[d]))
        out[d] = float(acc / total)
    return out


def _combiner(name: str):
    """The combine function for a COMBINERS name.

    Resolved through the module globals on every call, so a caller that
    rebinds ``soft_vote`` or ``rank_average`` (to trace them, say) is
    honoured.
    """
    return soft_vote if name == COMBINE_PROBABILITY_MEAN else rank_average


def _fractional_ranks(scores) -> list[Fraction]:
    """Tie-averaged ranks scaled into [0, 1] (exact rationals)."""
    n = len(scores)
    if n < 2:
        raise EnsembleError("rank averaging needs at least 2 documents")
    order = sorted(range(n), key=lambda i: scores[i])
    ranks: list[Fraction] = [Fraction(0)] * n
    i = 0
    while i < n:
        j = i
        while j < n and scores[order[j]] == scores[order[i]]:
            j += 1
        mid_rank = Fraction(i + j - 1, 2)  # average of ranks i .. j-1
        for k in range(i, j):
            ranks[order[k]] = mid_rank / (n - 1)
        i = j
    return ranks


def rank_average(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter fractional ranks."""
    n_docs = _check_vote_inputs(per_voter_scores, weights)
    frac_weights = [Fraction(float(w)) for w in weights]
    total = sum(frac_weights)
    voter_ranks = [_fractional_ranks([float(s) for s in scores])
                   for scores in per_voter_scores]
    out = np.empty(n_docs)
    for d in range(n_docs):
        acc = Fraction(0)
        for ranks, w in zip(voter_ranks, frac_weights):
            if w:
                acc += w * ranks[d]
        out[d] = float(acc / total)
    return out


def parse_external_scores(text: str, source: str = "<scores>") -> ExternalScores:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EnsembleError(f"{source}: missing header row")
    if header != SCORE_HEADER:
        raise EnsembleError(f"{source}: header must be {','.join(SCORE_HEADER)}, "
                            f"got {','.join(header)}")
    scores: dict[str, float] = {}
    for row in reader:
        line_num = reader.line_num
        if len(row) != 2:
            raise EnsembleError(f"{source}: expected 2 fields, got {len(row)} "
                                f"at line {line_num}")
        doc_id, raw = row
        if not doc_id:
            raise EnsembleError(f"{source}: empty id at line {line_num}")
        if doc_id in scores:
            raise EnsembleError(f"{source}: duplicate id {doc_id!r} "
                                f"at line {line_num}")
        try:
            value = float(raw)
        except ValueError:
            raise EnsembleError(f"{source}: score {raw!r} is not a number "
                                f"at line {line_num}")
        if not 0.0 <= value <= 1.0:
            raise EnsembleError(f"{source}: score {value} outside [0, 1] "
                                f"at line {line_num}")
        scores[doc_id] = value
    return ExternalScores(scores=scores)


def load_external_scores(path) -> ExternalScores:
    try:
        text = Path(path).read_bytes().decode("utf-8", errors="strict")
    except FileNotFoundError:
        raise EnsembleError(f"no such score file: {path}")
    except UnicodeDecodeError as exc:
        raise EnsembleError(f"undecodable bytes in {path}: {exc}")
    return parse_external_scores(text, source=str(path))


def dump_scores(ids: list[str], scores) -> str:
    """Render the id,score CSV consumed by load_external_scores."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_HEADER)
    for doc_id, score in zip(ids, scores):
        writer.writerow([doc_id, repr(float(score))])
    return buf.getvalue()


def collect_voter_scores(spec: EnsembleSpec, documents,
                         bpe_vocab=None) -> list[np.ndarray]:
    """Per-voter score arrays over the documents, in spec order.

    Internal voters must agree on their vocabulary reference; external
    voters must cover every document id.  Token sequences are computed once
    and shared across internal voters.
    """
    from .pipeline import score_texts  # local import to avoid a cycle

    ids = documents.ids
    texts = documents.texts
    refs = {v.bundle.vocab_ref for v in spec.voters if v.bundle is not None}
    if len(refs) > 1:
        raise EnsembleError(f"internal voters disagree on vocabulary hash: "
                            f"{sorted(refs)}")

    per_voter: list[np.ndarray] = []
    sequences = None
    for voter in spec.voters:
        if voter.external is not None:
            per_voter.append(voter.external.aligned(ids))
        else:
            scores, sequences = score_texts(voter.bundle, texts, bpe_vocab,
                                            sequences=sequences)
            per_voter.append(scores)
    return per_voter


def run_ensemble(spec: EnsembleSpec, documents, bpe_vocab=None) -> np.ndarray:
    """Score documents with every voter and combine.

    ``documents`` is a LabeledCorpus or any object with ``ids`` and
    ``texts``; labels are not consulted.
    """
    per_voter = collect_voter_scores(spec, documents, bpe_vocab)
    return _combiner(spec.combine)(per_voter, [v.weight for v in spec.voters])


def weight_grid(n_voters: int, step: float = 0.1) -> list[tuple[float, ...]]:
    """All weight vectors on the step-grid simplex (sum 1, not all zero)."""
    if n_voters > 4:
        raise EnsembleError("weight grid search supports at most 4 voters")
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9 or units < 1:
        raise EnsembleError(f"grid step {step} must evenly divide 1.0")
    grid = []
    for combo in product(range(units + 1), repeat=n_voters):
        if sum(combo) == units:
            grid.append(tuple(c * step for c in combo))
    return grid


def tune_weights(per_voter_scores, labels, combine: str = COMBINE_PROBABILITY_MEAN,
                 step: float = 0.1) -> tuple[tuple[float, ...], float]:
    """Grid-search voter weights maximizing validation AUC.

    Returns (weights, auc); ties keep the first grid point, so results are
    deterministic.
    """
    combiner = _combiner(combine)
    best_weights = None
    best_auc = -1.0
    for weights in weight_grid(len(per_voter_scores), step):
        if not any(w > 0 for w in weights):
            continue
        auc = roc_auc(combiner(per_voter_scores, weights), labels)
        if auc > best_auc:
            best_weights, best_auc = weights, auc
    return best_weights, best_auc
