"""Weighted soft voting over internal classifiers plus blending of
externally produced per-document scores.

Weights and scores are binary floats, hence exact rationals over powers of
two, so each weighted mean is computed exactly in integers and rounded once:
rescaling every weight by a representable factor changes no output bit, and
the mean never escapes [min voter score, max voter score].  The rank_mean
combiner first replaces each voter's scores with tie-averaged ranks, making
it invariant to any strictly monotone miscalibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .corpus import id_csv, id_rows
from .errors import EnsembleError
from .features import same_transform
from .files import read_text
from .metrics import roc_auc, tie_groups

COMBINE_PROBABILITY_MEAN = "probability_mean"
COMBINE_RANK_MEAN = "rank_mean"
COMBINERS = (COMBINE_PROBABILITY_MEAN, COMBINE_RANK_MEAN)
DEFAULT_GRID_STEP = 0.1  # weight step of tune_weights
# Admits step 0.01 with 4 voters (176,851 points); a finer grid is refused
# before it is enumerated.
MAX_GRID_POINTS = 200_000
# Combined scores tune_weights holds at once: on small validation sets the
# whole grid is one chunk, on large ones memory stays flat.
_CHUNK_SCORES = 1 << 20

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


def _is_weight(weight: float) -> bool:
    """Whether a voter weight is valid: a finite number >= 0."""
    return math.isfinite(weight) and weight >= 0.0


def parse_weight(raw, where: str, error=EnsembleError) -> float:
    """A voter weight read from outside: a finite number >= 0."""
    try:
        weight = float(raw)
    except (TypeError, ValueError, OverflowError):
        weight = math.nan
    if not _is_weight(weight):
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
        if not _is_weight(self.weight):
            raise EnsembleError(f"voter weight must be a finite number >= 0, "
                                f"got {self.weight!r}")
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


def _weight_rows(weights) -> tuple[list, bool]:
    """``weights`` as a list of weight vectors, and whether it was a grid
    (a sequence of vectors) rather than one vector."""
    if not any(np.ndim(w) for w in weights):
        return [weights], False
    try:
        return [list(row) for row in weights], True
    except TypeError:
        raise EnsembleError("a weight grid must hold only weight vectors")


def _check_vote_inputs(per_voter_scores, weights) -> tuple[np.ndarray, list, bool]:
    """The scores as a (voters, documents) float array, checked, plus the
    weight vectors and whether they came as a grid (``_weight_rows``)."""
    rows, grid = _weight_rows(weights)
    for row in rows:
        if len(per_voter_scores) != len(row):
            raise EnsembleError(f"{len(per_voter_scores)} score lists but "
                                f"{len(row)} weights")
    if not per_voter_scores:
        raise EnsembleError("need at least one voter")
    lengths = {len(s) for s in per_voter_scores}
    if len(lengths) != 1:
        raise EnsembleError(f"voters scored different document counts: "
                            f"{sorted(lengths)}")
    for row in rows:
        for w in row:
            if not _is_weight(w):
                raise EnsembleError(f"weights must be finite and >= 0, got {w}")
        if not any(w > 0 for w in row):
            raise EnsembleError("all voter weights are zero")
    scores = np.array(per_voter_scores, dtype=np.float64)
    finite = np.isfinite(scores)
    if not finite.all():
        v, d = np.argwhere(~finite)[0]
        raise EnsembleError(f"voter {v} scored document {d} as "
                            f"{scores[v, d]}; scores must be finite")
    return scores, rows, grid


def _weighted_mean(numerators, denominator: int, weights) -> np.ndarray:
    """Per document, sum_v w_v * numerators[v] / (denominator * sum_v w_v),
    as one correctly rounded int / int division, as ``float(Fraction)``.
    ``numerators`` is a (voters, documents) object array of Python ints;
    the quotients come back as an object array of Python floats."""
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max(q for _, q in ratios)  # a power of two, as every q is
    int_weights = [p * (scale // q) for p, q in ratios]
    total = denominator * sum(int_weights)
    acc = sum(w * n for w, n in zip(int_weights, numerators) if w)
    return acc / total


def _vote(numerators, denominator: int, rows, grid: bool) -> np.ndarray:
    """``_weighted_mean`` for each weight vector: one row of scores per
    vector of a grid, else the scores of the one vector."""
    out = np.empty((len(rows), numerators.shape[1]))
    for r, weights in enumerate(rows):
        out[r] = _weighted_mean(numerators, denominator, weights)
    return out if grid else out[0]


def soft_vote(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter probabilities, document by document.

    ``weights`` holds one weight per voter, or is a grid of such vectors;
    a grid gives a (vectors, documents) array, one row per vector, and
    decomposes the scores once for all of them.
    """
    scores, rows, grid = _check_vote_inputs(per_voter_scores, weights)
    # score = mantissa * 2**exponent with an integer mantissa of 53 bits
    mantissas, exponents = np.frexp(scores)
    exponents = exponents.astype(np.int64) - 53
    low = int(exponents.min(initial=0))
    numerators = ((mantissas * 2.0 ** 53).astype(np.int64).astype(object)
                  << (exponents - low).astype(object))
    return _vote(numerators, 1 << -low, rows, grid)


def combiner(name: str):
    """The combine function for a COMBINERS name.

    Resolved through the module globals on every call, so a caller that
    rebinds ``soft_vote`` or ``rank_average`` (to trace them, say) is
    honoured.
    """
    return soft_vote if name == COMBINE_PROBABILITY_MEAN else rank_average


def rank_average(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter tie-averaged ranks scaled into [0, 1].

    A tie group covering sorted positions i .. j-1 shares the mean rank
    (i + j - 1) / 2, scaled by 1 / (n - 1).  ``weights`` is one vector or
    a grid, as in ``soft_vote``; each voter is ranked once either way.
    """
    scores, rows, grid = _check_vote_inputs(per_voter_scores, weights)
    n_docs = scores.shape[1]
    if n_docs < 2:
        raise EnsembleError("rank averaging needs at least 2 documents")
    numerators = []
    for row in scores:
        _, group, sizes = tie_groups(row)
        ends = np.cumsum(sizes)
        numerators.append((2 * ends - sizes - 1)[group])
    return _vote(np.array(numerators).astype(object), 2 * (n_docs - 1),
                 rows, grid)


def parse_external_scores(text: str, source: str = "<scores>") -> ExternalScores:
    scores: dict[str, float] = {}
    for line_num, (doc_id, raw) in id_rows(text, source, SCORE_HEADER,
                                           EnsembleError):
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
    text = read_text(path, "score file", EnsembleError)
    return parse_external_scores(text, source=str(path))


def dump_scores(ids: list[str], scores) -> str:
    """Render the id,score CSV consumed by load_external_scores."""
    return id_csv(SCORE_HEADER, ([doc_id, repr(float(score))]
                                 for doc_id, score in zip(ids, scores)))


def collect_voter_scores(spec: EnsembleSpec, documents,
                         bpe_vocab=None) -> list[np.ndarray]:
    """Per-voter score arrays over the documents, in spec order.

    BPE voters must agree on their vocabulary reference; external voters
    must cover every document id.  The texts are tokenized once per token
    scheme (BPE, or one whitespace word table) and featurized once per
    distinct TF-IDF model of a scheme (``same_transform``), each on first
    use, so errors still come out in spec order.
    """
    ids = documents.ids
    texts = documents.texts
    refs = {v.bundle.vocab_ref for v in spec.voters
            if v.bundle is not None and v.bundle.tfidf.word_vocab is None}
    if len(refs) > 1:
        raise EnsembleError(f"BPE voters disagree on vocabulary hash: "
                            f"{sorted(refs)}")

    # per token scheme: its word table, token sequences, and the
    # (TF-IDF model, matrix) pairs featurized from them
    schemes: list[tuple] = []
    per_voter: list[np.ndarray] = []
    for voter in spec.voters:
        if voter.external is not None:
            per_voter.append(voter.external.aligned(ids))
            continue
        tfidf = voter.bundle.tfidf
        scheme = next((s for s in schemes if s[0] == tfidf.word_vocab), None)
        if scheme is None:
            scheme = (tfidf.word_vocab, pipeline.tokenize_texts(
                texts, tfidf.word_vocab, bpe_vocab), [])
            schemes.append(scheme)
        _, sequences, matrices = scheme
        X = next((X for model, X in matrices if same_transform(model, tfidf)),
                 None)
        if X is None:
            X = pipeline.transform_corpus(tfidf, sequences)
            matrices.append((tfidf, X))
        per_voter.append(voter.bundle.predict_proba(X))
    return per_voter


def run_ensemble(spec: EnsembleSpec, documents, bpe_vocab=None) -> np.ndarray:
    """Score documents with every voter and combine.

    ``documents`` is a LabeledCorpus or any object with ``ids`` and
    ``texts``; labels are not consulted.
    """
    per_voter = collect_voter_scores(spec, documents, bpe_vocab)
    return combiner(spec.combine)(per_voter, [v.weight for v in spec.voters])


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of ``parts`` naturals summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        return [(total,)]
    return [(first, *rest) for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


def grid_units(n_voters: int, step: float = DEFAULT_GRID_STEP) -> int:
    """The number of steps in a weight of 1.0, once the grid of ``n_voters``
    and ``step`` is known to be admissible: 1 to 4 voters, a step that
    evenly divides 1.0 and at most MAX_GRID_POINTS weight vectors.  Needs
    no enumeration, so a caller can refuse a grid before any scoring."""
    if n_voters < 1:
        raise EnsembleError("weight grid search needs at least one voter")
    if n_voters > 4:
        raise EnsembleError("weight grid search supports at most 4 voters")
    if not 0.0 < step <= 1.0:
        raise EnsembleError(f"grid step must be in (0, 1], got {step}")
    inverse = 1.0 / step
    if not math.isfinite(inverse):
        raise EnsembleError(f"grid step {step} is too small: 1 / step "
                            f"overflows")
    units = round(inverse)
    if abs(units * step - 1.0) > 1e-9:
        raise EnsembleError(f"grid step {step} must evenly divide 1.0")
    if math.comb(units + n_voters - 1, n_voters - 1) > MAX_GRID_POINTS:
        raise EnsembleError(f"grid step {step} with {n_voters} voters gives "
                            f"more than {MAX_GRID_POINTS} weight vectors")
    return units


def weight_grid(n_voters: int,
                step: float = DEFAULT_GRID_STEP) -> list[tuple[float, ...]]:
    """All weight vectors on the step-grid simplex (sum 1, not all zero),
    in lexicographic order of their step counts; at most MAX_GRID_POINTS."""
    return [tuple(c * step for c in combo)
            for combo in _compositions(grid_units(n_voters, step), n_voters)]


def tune_weights(per_voter_scores, labels, combine: str = COMBINE_PROBABILITY_MEAN,
                 step: float = DEFAULT_GRID_STEP) -> tuple[tuple[float, ...], float]:
    """Grid-search voter weights maximizing validation AUC.

    Returns (weights, auc); ties keep the first grid point, so results are
    deterministic.  The combiner takes the grid a chunk at a time, so each
    voter's scores are checked and decomposed once per chunk, and one
    ``roc_auc`` call scores the chunk's rows.
    """
    grid = weight_grid(len(per_voter_scores), step)
    rows = max(1, _CHUNK_SCORES // max(1, len(per_voter_scores[0])))
    best_weights = None
    best_auc = -1.0
    for start in range(0, len(grid), rows):
        chunk = grid[start:start + rows]
        aucs = roc_auc(combiner(combine)(per_voter_scores, chunk), labels)
        best = int(np.argmax(aucs))  # the first of equal maxima
        if aucs[best] > best_auc:
            best_weights, best_auc = chunk[best], float(aucs[best])
    return best_weights, best_auc
