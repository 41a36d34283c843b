"""Weighted soft voting over internal classifiers plus blending of
externally produced per-document scores.

Weights and scores are binary floats, hence exact rationals, and each
weighted mean is its exact rational rounded once, as ``float(Fraction)``
would: rescaling every weight by a representable factor changes no output
bit, and the mean never escapes [min voter score, max voter score].  One
numpy kernel computes every (weight vector, document) cell of a call in
double-double arithmetic with a proven error bound, built from error-free
steps (``_two_sum``, ``_fast_two_sum``, ``_split``, ``_two_product``), and
keeps a cell's float only where that bound settles its rounding.  The
other cells (ties between two floats, numerators lost to cancellation,
and every cell of a call with a weight or score outside
[2**-256, 2**256]) are recomputed exactly as ratios of Python integers.
The rank_mean combiner first replaces each voter's scores with
tie-averaged ranks, making it invariant to any strictly monotone
miscalibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .corpus import id_csv_blocks, id_rows
from .errors import EnsembleError
from .features import same_transform
from .files import read_text
from .metrics import roc_auc, tie_groups
from .schema import Rule

COMBINE_PROBABILITY_MEAN = "probability_mean"
COMBINE_RANK_MEAN = "rank_mean"
COMBINERS = (COMBINE_PROBABILITY_MEAN, COMBINE_RANK_MEAN)
DEFAULT_GRID_STEP = 0.1  # weight step of tune_weights
# Admits step 0.01 with 4 voters (176,851 points); a finer grid is refused
# before it is enumerated.
MAX_GRID_POINTS = 200_000
# Combined scores tune_weights holds at once: on small validation sets the
# whole grid is one chunk, on large ones memory stays flat.
_CHUNK_SCORES = 1 << 18
# (Weight vector, document) cells the vote kernel takes at once, so its
# temporaries stay small whatever the grid.
_BLOCK_CELLS = 1 << 12
# Nonzero weights and scores within [2**-256, 2**256] keep every product
# and quotient of the vote kernel clear of under- and overflow.
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -256, 2.0 ** 256
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's constant for 53-bit floats
_MANTISSA = (1 << 52) - 1  # the fraction bits of a float64

SCORE_HEADER = ["id", "score"]


@dataclass
class ExternalScores:
    """Each document id's score in [0, 1], parsed from a score file."""

    scores: dict[str, float]

    def aligned(self, ids: list[str]) -> np.ndarray:
        missing = [i for i in ids if i not in self.scores]
        if missing:
            shown = ", ".join(missing[:10])
            suffix = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
            raise EnsembleError(f"external scores missing {len(missing)} "
                                f"document ids: {shown}{suffix}")
        return np.array([self.scores[i] for i in ids])


# A voter's weight and the combiner, from a spec, a config file or a caller.
WEIGHT = Rule(float, 0)
COMBINE = Rule(COMBINERS)


def parse_weight(raw: str, where: str, error=EnsembleError) -> float:
    """A voter weight written as text: a finite number >= 0."""
    try:
        weight = float(raw)
    except ValueError:
        weight = None
    if not WEIGHT.admits(weight):
        # the rule refuses the text as it refused the value, so this
        # raises, quoting the text as written
        WEIGHT.check(f"{where}: weight", raw, error)
    return weight


@dataclass
class Voter:
    """One ensemble member: an internal model bundle or an external file."""

    weight: float
    bundle: object | None = None          # models.ModelBundle
    external: ExternalScores | None = None
    name: str = ""

    def __post_init__(self):
        WEIGHT.check("voter weight", self.weight, EnsembleError)
        if (self.bundle is None) == (self.external is None):
            raise EnsembleError("voter must hold exactly one of a model "
                                "bundle or external scores")


@dataclass
class EnsembleSpec:
    voters: list[Voter]
    combine: str = COMBINE_PROBABILITY_MEAN

    def __post_init__(self):
        COMBINE.check("combine", self.combine, EnsembleError)
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


def _check_vote_inputs(per_voter_scores, weights
                       ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The scores as a (voters, documents) float array, checked, the
    weight vectors as a (vectors, voters) float array, and whether they
    came as a grid (``_weight_rows``)."""
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
    try:
        matrix = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise EnsembleError("weights must be finite numbers >= 0")
    bad = ~(np.isfinite(matrix) & (matrix >= 0.0))
    failing = np.flatnonzero(bad.any(axis=1) | ~(matrix > 0.0).any(axis=1))
    if failing.size:  # the first bad vector, as a loop over them finds it
        r = failing[0]
        if bad[r].any():
            raise EnsembleError(f"weights must be finite and >= 0, "
                                f"got {rows[r][np.argmax(bad[r])]}")
        raise EnsembleError("all voter weights are zero")
    scores = np.array(per_voter_scores, dtype=np.float64)
    finite = np.isfinite(scores)
    if not finite.all():
        v, d = np.argwhere(~finite)[0]
        raise EnsembleError(f"voter {v} scored document {d} as "
                            f"{scores[v, d]}; scores must be finite")
    return scores, matrix, grid


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """(hi, lo): a = hi + lo exactly, each of at most 26 significant bits
    (Veltkamp's split)."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, a_halves, b, b_halves):
    """(p, e): p = fl(a * b) and p + e = a * b exactly (Dekker's
    TwoProduct, from the ``_split`` halves of a and b)."""
    (ah, al), (bh, bl) = a_halves, b_halves
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fast_two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly, given |a| >= |b|
    (Dekker's FastTwoSum)."""
    s = a + b
    return s, b - (s - a)


def _half_gaps(y):
    """(up, down): half the gap from |y| to the next float above it and
    to the next float below it, read from the exponent and fraction bits
    of |y|; below a power of two the gap is half as wide.  Exact for
    normal |y| >= 2**-968, whose half-gaps are normal floats."""
    bits = np.abs(y).view(np.int64)
    up = np.maximum(bits >> 52, 55) - 53
    down = up - ((bits & _MANTISSA) == 0)
    return (up << 52).view(np.float64), (down << 52).view(np.float64)


def _in_window(values) -> bool:
    """Whether every nonzero value has a magnitude in the kernel's safe
    window [2**-256, 2**256]."""
    size = np.abs(values)
    return bool(np.all((size == 0.0)
                       | ((size >= _SAFE_LOW) & (size <= _SAFE_HIGH))))


def _denominators(weights, k: float):
    """k * (the sum of each weight vector) as a double-double (hi, lo),
    within (V**2 + 4) u**2 of it relatively (``_kernel_vote``)."""
    hi, lo = weights[:, 0], np.zeros(len(weights))
    for column in weights.T[1:]:
        hi, error = _two_sum(hi, column)
        lo += error
    hi, lo = _two_sum(hi, lo)
    hi, error = _two_product(hi, _split(hi), k, _split(k))
    return _two_sum(hi, error + k * lo)


def _kernel_vote(scores, k: float, weights, out) -> tuple:
    """Fill ``out`` with sum_v w_v * scores[v] / (k * sum_v w_v) for every
    weight vector (row) and document, computed in double-double; return
    the rows and documents of the cells whose rounding it cannot certify,
    which the caller recomputes exactly.

    The bound, per cell, with u = 2**-53, V voters, N = sum_v w_v a_v,
    T = k sum_v w_v and P = sum_v |w_v a_v|:

    * Each product splits exactly into p_v + e_v with |e_v| <= u |p_v|
      (``_two_product``), once per distinct weight of a voter and
      document.
    * s adds up the p_v by ``_two_sum``, whose errors t_v are exact, and
      c adds the 2V - 1 terms e_v, t_v in order.  Those total at most
      V u (1 + Vu) P, so s + c = Nh + Nl (``_two_sum(s, c)``) is within
      2 V**2 u**2 P of N.
    * T, formed the same way per row (``_denominators``) as Th + Tl, is
      within (V**2 + 4) u**2 T of T.
    * q1 = fl(Nh / Th).  Nh - fl(q1 Th) is exact (Sterbenz), and so is
      the rest of q1 Th (``_two_product``).  Taking that rest off, adding
      Nl and taking off q1 Tl cost four roundings of values below
      3.1u |Nh|; dividing by Th gives q2, and y + z = q1 + q2 exactly
      (``_fast_two_sum``).  This step adds at most 16 u**2 |Nh| / Th.

    So |N / T - (y + z)| <= (3 V**2 + 21) u**2 P / Th.  No weight or
    score is negative, so P = N, P / Th is within 3u of y, and the kernel
    takes delta = (6 V**2 + 42) u**2 y: the factor 2 covers these
    roundings.  Every nonzero weight and score lies in [2**-256, 2**256]
    (``_in_window``), so no product or quotient comes near overflow,
    every value of the numerator is a multiple of 2**-616, and what an
    underflowing low word loses (2**-1075) is far below u**2 P / Th.

    A cell keeps y when [y + z - delta, y + z + delta] lies strictly
    inside the reals that round to y: half a gap on either side of y
    (``_half_gaps``), where the gap below a power of two is half the gap
    above.  Both comparisons are exact, as rounding is monotone and the
    half-gaps are floats.  A cell whose exact value is a tie between two
    floats is never certified, nor one whose numerator cancels to about
    delta.
    """
    n_rows, n_voters = weights.shape
    n_docs = scores.shape[1]
    bound = (6 * n_voters ** 2 + 42) * 2.0 ** -106
    score_hi, score_lo = _split(scores)
    block_rows = min(n_rows, _BLOCK_CELLS)
    block_docs = max(1, _BLOCK_CELLS // block_rows)
    left = []
    for r0 in range(0, n_rows, block_rows):
        block = weights[r0:r0 + block_rows]
        # each voter with a nonzero weight in the block: its distinct
        # weights, their halves and the row -> distinct weight index
        uniques = (np.unique(column, return_inverse=True)
                   for column in block.T)
        voters = [(v, w[:, None], _split(w[:, None]), inv)
                  for v, (w, inv) in enumerate(uniques) if w[-1]]
        th, tl = (x[:, None] for x in _denominators(block, k))
        th_halves = _split(th)
        for d0 in range(0, n_docs, block_docs):
            docs = slice(d0, d0 + block_docs)
            # per voter, one TwoProduct per distinct weight and document,
            # gathered per row
            terms = ([x.take(inv, axis=0) for x in _two_product(
                         w, halves, scores[v, docs],
                         (score_hi[v, docs], score_lo[v, docs]))]
                     for v, w, halves, inv in voters)
            # each intermediate is released at its last use, so a block
            # holds few (rows, docs) arrays at once
            s, c = next(terms)
            for p, e in terms:
                s, t = _two_sum(s, p)
                del p
                c += t
                c += e
                del t, e
            nh, nl = _two_sum(s, c)
            del s, c
            q1 = nh / th
            p, e = _two_product(q1, _split(q1), th, th_halves)
            q2 = ((nh - p) + nl - e - q1 * tl) / th
            del nh, nl, p, e
            y, z = _fast_two_sum(q1, q2)
            del q1, q2
            delta = y * bound
            half_up, half_down = _half_gaps(y)
            certified = (z + delta < half_up) & (delta - z < half_down)
            del z, delta, half_up, half_down
            out[r0:r0 + block_rows, docs] = y + 0.0  # no -0.0
            del y
            rows, cols = np.nonzero(~certified)
            left.append((rows + r0, cols + d0))
    return (np.concatenate([r for r, _ in left]),
            np.concatenate([c for _, c in left]))


def _as_integers(values):
    """(ints, low): an object array of Python integers with
    values == ints * 2**low exactly, one low <= 0 for all of them."""
    # value = mantissa * 2**exponent with an integer mantissa of 53 bits
    mantissas, exponents = np.frexp(values)
    exponents = exponents.astype(np.int64) - 53
    low = int(exponents.min(initial=0))
    return ((mantissas * 2.0 ** 53).astype(np.int64).astype(object)
            << (exponents - low).astype(object)), low


def _exact_vote(scores, k: int, weights, out, rows, docs) -> None:
    """Set out[rows[i], docs[i]] to the correctly rounded quotient of
    sum_v w_v * scores[v] and k * sum_v w_v, as ``float(Fraction)``: the
    scores of those documents and the weight vectors become Python
    integers, each over one common power of two, and every cell is one
    int / int division.  Scaling all of a row's weights by the same power
    of two scales its numerator and denominator together."""
    if not len(rows):
        return
    cols, col_of = np.unique(docs, return_inverse=True)
    vectors, row_of = np.unique(rows, return_inverse=True)
    numerators, low = _as_integers(scores[:, cols])
    int_weights, _ = _as_integers(weights[vectors])
    totals = (k << -low) * int_weights.sum(axis=1)
    sums = sum(int_weights[row_of, v] * numerators[v, col_of]
               for v in range(len(numerators)))
    out[rows, docs] = sums / totals[row_of]


def _vote(scores, k: int, weights) -> np.ndarray:
    """Per weight vector (row of ``weights``) and document, the correctly
    rounded sum_v w_v * scores[v] / (k * sum_v w_v): the double-double
    kernel's value where it is certified, else the exact one.  Weights
    are never negative; negative scores take the exact path."""
    out = np.empty((len(weights), scores.shape[1]))
    if _in_window(scores) and _in_window(weights) and (scores >= 0.0).all():
        rows, docs = _kernel_vote(scores, float(k), weights, out)
    else:
        rows, docs = (i.ravel() for i in np.indices(out.shape))
    _exact_vote(scores, k, weights, out, rows, docs)
    return out


def soft_vote(per_voter_scores, weights) -> np.ndarray:
    """Weighted mean of per-voter probabilities, document by document.

    ``weights`` holds one weight per voter, or is a grid of such vectors;
    a grid gives a (vectors, documents) array, one row per vector, and
    checks the scores once for all of them.
    """
    scores, weights, grid = _check_vote_inputs(per_voter_scores, weights)
    out = _vote(scores, 1, weights)
    return out if grid else out[0]


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
    scores, weights, grid = _check_vote_inputs(per_voter_scores, weights)
    n_docs = scores.shape[1]
    if n_docs < 2:
        raise EnsembleError("rank averaging needs at least 2 documents")
    numerators = np.empty_like(scores)
    for row, numerator in zip(scores, numerators):
        _, group, sizes = tie_groups(row)
        ends = np.cumsum(sizes)
        numerator[:] = (2 * ends - sizes - 1)[group]
    out = _vote(numerators, 2 * (n_docs - 1), weights)
    return out if grid else out[0]


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
    return "".join(score_csv_blocks(ids, scores))


def score_csv_blocks(ids: list[str], scores):
    """``dump_scores``'s text in pieces: the header, then the rows of
    DUMP_BLOCK_DOCS documents at a time."""
    return id_csv_blocks(SCORE_HEADER, ([doc_id, repr(float(score))]
                                        for doc_id, score in zip(ids, scores)))


def collect_voter_scores(spec: EnsembleSpec, documents,
                         bpe_vocab=None) -> list[np.ndarray]:
    """Per-voter score arrays over the documents, in spec order.

    BPE voters must agree on their vocabulary reference; external voters
    must cover every document id.  The texts are tokenized once per token
    scheme (BPE, or one whitespace word table) and featurized once per
    distinct TF-IDF model of a scheme, each on first use, so errors still
    come out in spec order.  Bundles loaded from equal payloads hold one
    model (``tfidf_from_dict``), matched by identity before
    ``same_transform`` compares bytes.
    """
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
            per_voter.append(voter.external.aligned(documents.ids))
            continue
        tfidf = voter.bundle.tfidf
        scheme = next((s for s in schemes if s[0] == tfidf.word_vocab), None)
        if scheme is None:
            scheme = (tfidf.word_vocab, pipeline.tokenize_texts(
                documents.texts, tfidf.word_vocab, bpe_vocab), [])
            schemes.append(scheme)
        _, sequences, matrices = scheme
        X = next((X for model, X in matrices
                  if model is tfidf or same_transform(model, tfidf)), None)
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


def grid_units(n_voters: int, step: float = DEFAULT_GRID_STEP) -> int:
    """The number of steps in a weight of 1.0, once the grid of ``n_voters``
    and ``step`` is known to be admissible: 1 to 4 voters, a step that
    evenly divides 1.0 and at most MAX_GRID_POINTS weight vectors.  Needs
    no enumeration, so a caller can refuse a grid before any scoring."""
    if n_voters < 1:
        raise EnsembleError("weight grid search needs at least one voter")
    if n_voters > 4:
        raise EnsembleError("weight grid search supports at most 4 voters")
    Rule(float, 0, 1, low_open=True).check("grid step", step, EnsembleError)
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
    in lexicographic order of their step counts; at most MAX_GRID_POINTS.

    Built one voter at a time: each prefix, with the steps it leaves,
    grows by every count that fits, in increasing order, and the last
    voter takes what is left.  Weight c is ``c * step``, computed once per c.
    A one-voter grid is its one vector, however fine the step.
    """
    units = grid_units(n_voters, step)
    if n_voters == 1:
        return [(units * step,)]
    values = [c * step for c in range(units + 1)]
    prefixes = [((), units)]
    for _ in range(n_voters - 1):
        prefixes = [(prefix + (values[c],), left - c)
                    for prefix, left in prefixes for c in range(left + 1)]
    return [prefix + (values[left],) for prefix, left in prefixes]


def tune_weights(per_voter_scores, labels, combine: str = COMBINE_PROBABILITY_MEAN,
                 step: float = DEFAULT_GRID_STEP) -> tuple[tuple[float, ...], float]:
    """Grid-search voter weights maximizing validation AUC.

    Returns (weights, auc); ties keep the first grid point, so results are
    deterministic.  The combiner takes the grid a chunk at a time, so each
    voter's scores are checked (and ranked) once per chunk, and one
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
