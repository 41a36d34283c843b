"""Dataset ingestion, deterministic stratified splitting, and a synthetic
human-vs-machine corpus generator for desk-scale experiments.

Label convention, fixed package-wide: 1 = machine-generated (the positive
class every classifier scores), 0 = human.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .errors import CorpusError
from .files import read_text, write_bytes
from .schema import Rule, binary_labels, object_with
from .seeds import stream_rng

CSV_HEADER = ["id", "text", "label"]
# A JSONL row holds exactly these keys: string id and text, integer label.
JSONL_KEYS = ("id", "text", "label")
_STRING, _INTEGER = Rule(str), Rule(int)
SHOWN_HEADER_CHARS = 80  # of a bad CSV header, quoted in the error

LEXICON_SIZE = 2000
ZIPF_EXPONENT = 1.1
DOC_LENGTH_RANGE = (50, 200)
# synth builds the whole corpus in memory, then writes it a block of rows
# at a time.  A document takes about 0.87 KB (1.0 KB at the peak of the
# draw) and 6 us to draw, and 17 us with its CSV row written (10,000 a
# class, Python 3.11 on a 2-CPU x86-64 machine), so about 0.2 GB and 3.4 s
# at this bound, 125 times the 800 a class of the hard corpus
# synth_corpus(800, 1, 0.0004).  Ids keep their five digits.
MAX_N_PER_CLASS = 100_000
# synth_corpus draws this many documents' words at once: about 1 MB of
# arrays at a time, where all of a 2,000-document class would take 13 MB.
SYNTH_BLOCK_DOCS = 128
# save_corpus and the CLI's score writer encode and write this many
# documents' rows at a time.
DUMP_BLOCK_DOCS = 256
# Buckets of the guide table through which synth_corpus picks each word.
# Every Zipf weight spans at least 0.64 buckets, so a bucket holds at most
# two cumulative weights and a pick steps forward at most twice; 2**16
# buckets were no faster once their build is counted.
GUIDE_BUCKETS = 2**14

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class LabeledCorpus:
    """Parallel columns: unique document ids, texts and 0/1 labels."""

    ids: list[str]
    texts: list[str]
    labels: list[int]

    def __post_init__(self):
        if not len(self.ids) == len(self.texts) == len(self.labels):
            raise CorpusError(f"{len(self.ids)} ids, {len(self.texts)} texts "
                              f"and {len(self.labels)} labels")
        seen: set[str] = set()
        for doc_id in self.ids:
            if not doc_id:
                raise CorpusError("document id must be non-empty")
            if doc_id in seen:
                raise CorpusError(f"duplicate id {doc_id!r}")
            seen.add(doc_id)
        binary_labels(self.labels, CorpusError)

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices: list[int]) -> "LabeledCorpus":
        return LabeledCorpus(ids=[self.ids[i] for i in indices],
                             texts=[self.texts[i] for i in indices],
                             labels=[self.labels[i] for i in indices])


@dataclass(frozen=True)
class SplitSpec:
    """Test fraction in (0, 1) and the seed driving the shuffle."""

    test_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise CorpusError(
                f"test_fraction must lie in (0, 1), got {self.test_fraction}")


def _parse_label(raw, line_num: int) -> int:
    try:
        label = int(raw)
    except (TypeError, ValueError):
        raise CorpusError(f"label {raw!r} is not an integer at line {line_num}")
    if label not in (0, 1):
        raise CorpusError(f"label out of range at line {line_num}")
    return label


def load_corpus(path, format: str) -> LabeledCorpus:
    """Read a labeled dataset from a csv or jsonl file.

    Row order is preserved.  Malformed rows, duplicate ids, labels outside
    {0, 1}, and non-UTF-8 bytes are hard errors, never repaired.
    """
    raw = read_text(path, "file", CorpusError)
    if format == "csv":
        rows = id_rows(raw, path, CSV_HEADER, CorpusError)
    elif format == "jsonl":
        rows = _unique_ids(_jsonl_rows(raw, path), path, len(JSONL_KEYS),
                           CorpusError)
    else:
        raise CorpusError(
            f"unknown corpus format {format!r} (expected csv or jsonl)")
    ids, texts, labels = [], [], []
    for line_num, (doc_id, text, raw_label) in rows:
        ids.append(doc_id)
        texts.append(text)
        labels.append(_parse_label(raw_label, line_num))
    return LabeledCorpus(ids=ids, texts=texts, labels=labels)


def id_rows(text: str, source, header: list[str], error):
    """(line number, fields) per data row of an id-keyed CSV file, such as
    a corpus or a score file.

    The first row must equal ``header`` (a wrong one is quoted up to
    SHOWN_HEADER_CHARS characters, as the first line of a file read in the
    wrong format can be megabytes long), each row must hold as many fields,
    and each id, its first field, must be non-empty and unseen.  Every
    fault, a csv.Error such as a field over ``csv.field_size_limit()``
    too, is raised as ``error`` naming ``source`` and the line.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
        if first is None:
            raise error(f"{source}: missing header row")
        if first != header:
            shown = ",".join(first)
            if len(shown) > SHOWN_HEADER_CHARS:
                shown = (f"{shown[:SHOWN_HEADER_CHARS]}... "
                         f"({len(shown)} characters)")
            raise error(f"{source}: header must be {','.join(header)}, "
                        f"got {shown}")
        yield from _unique_ids(((reader.line_num, row) for row in reader),
                               source, len(header), error)
    except csv.Error as exc:
        raise error(f"{source}: {exc} at line {reader.line_num}")


def _unique_ids(rows, source, width: int, error):
    """``rows`` unchanged, each checked to hold ``width`` fields and a
    non-empty id not seen before."""
    seen: set[str] = set()
    for line_num, row in rows:
        if len(row) != width:
            raise error(f"{source}: expected {width} fields, got {len(row)} "
                        f"at line {line_num}")
        doc_id = row[0]
        if not doc_id:
            raise error(f"{source}: empty id at line {line_num}")
        if doc_id in seen:
            raise error(f"{source}: duplicate id {doc_id!r} at line {line_num}")
        seen.add(doc_id)
        yield line_num, row


def _jsonl_rows(raw: str, path):
    """(line number, [id, text, label]) per non-blank JSONL line.

    Lines end at "\n" alone (a "\r" before it is JSON whitespace):
    ``str.splitlines`` would also break at U+2028, U+2029 and U+0085,
    which JSON strings may hold unescaped."""
    id_name, text_name, label_name = (f"{path}: {key}" for key in JSONL_KEYS)
    for line_num, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = object_with(json.loads(line), JSONL_KEYS, path, CorpusError)
            row = [obj["id"], obj["text"], obj["label"]]
            _STRING.check(id_name, row[0], CorpusError)
            _STRING.check(text_name, row[1], CorpusError)
            _INTEGER.check(label_name, row[2], CorpusError)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: invalid JSON at line {line_num}: {exc.msg}")
        except CorpusError as exc:
            raise CorpusError(f"{exc} at line {line_num}") from None
        yield line_num, row


def id_csv_blocks(header: list[str], rows):
    """An id-keyed CSV file as ``id_rows`` reads it, in pieces: the
    ``header`` line, then the RFC-4180 lines of DUMP_BLOCK_DOCS rows of
    fields at a time."""
    return chain([_csv_lines([header])], _in_blocks(rows, _csv_lines))


def _in_blocks(rows, render):
    """``render`` of each run of DUMP_BLOCK_DOCS rows, the last shorter.
    Each run reaches ``render`` as an iterator, so a row is freed once it
    is rendered, as a one-pass rendering frees it: holding a block of rows
    at once triggers garbage collections that one pass does not."""
    rows = iter(rows)
    for first in rows:
        yield render(chain([first], islice(rows, DUMP_BLOCK_DOCS - 1)))


def _csv_lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def dump_corpus(corpus: LabeledCorpus, format: str) -> str:
    """Serialize to the csv or jsonl dataset schema (round-trip exact)."""
    return "".join(_dump_blocks(corpus, format))


def save_corpus(corpus: LabeledCorpus, path, format: str) -> None:
    """Write ``dump_corpus``'s text as UTF-8, encoding one block of rows at
    a time, so the file's whole text is never held at once."""
    write_bytes(path, (block.encode("utf-8")
                       for block in _dump_blocks(corpus, format)), CorpusError)


def _dump_blocks(corpus: LabeledCorpus, format: str):
    """``dump_corpus``'s text in pieces: a CSV file's header, then the rows
    of DUMP_BLOCK_DOCS documents at a time."""
    rows = zip(corpus.ids, corpus.texts, corpus.labels)
    if format == "csv":
        return id_csv_blocks(CSV_HEADER, rows)
    if format == "jsonl":
        return _in_blocks(rows, _jsonl_lines)
    raise CorpusError(
        f"unknown corpus format {format!r} (expected csv or jsonl)")


def _jsonl_lines(rows) -> str:
    return "".join(json.dumps({"id": doc_id, "text": text, "label": label},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for doc_id, text, label in rows)


def split_corpus(corpus: LabeledCorpus,
                 spec: SplitSpec) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic stratified train/test partition.

    Per class, round(test_fraction * class size) documents go to test; the
    shuffle is driven by the spec seed's "split" sub-stream.  Row order
    within each part follows the input corpus.
    """
    if len(corpus) < 2:
        raise CorpusError("cannot split a corpus with fewer than 2 documents")
    rng = stream_rng(spec.seed, "split")
    test_idx: list[int] = []
    for cls in (0, 1):
        members = [i for i, y in enumerate(corpus.labels) if y == cls]
        if not members:
            continue
        rng.shuffle(members)
        n_test = round(spec.test_fraction * len(members))
        test_idx.extend(members[:n_test])
    test_set = set(test_idx)
    train_idx = [i for i in range(len(corpus)) if i not in test_set]
    if not test_idx or not train_idx:
        raise CorpusError(
            f"corpus of {len(corpus)} documents is too small to place at least "
            f"one document in each part at test_fraction={spec.test_fraction}")
    return corpus.subset(train_idx), corpus.subset(sorted(test_idx))


def _lexicon() -> list[str]:
    """2,000 distinct two-syllable pseudo-words over a 19-letter alphabet."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    return [syllables[i // len(syllables)] + syllables[i % len(syllables)]
            for i in range(LEXICON_SIZE)]


def _zipf_cumulative(ranks: list[float]) -> list[float]:
    weights = [(r + 1.0) ** -ZIPF_EXPONENT for r in ranks]
    return list(accumulate(weights))


def synth_corpus(n_per_class: int, seed: int, divergence: float) -> LabeledCorpus:
    """Generate n_per_class human and n_per_class machine documents.

    Both classes draw words from Zipf-weighted distributions over a shared
    lexicon.  The machine class's rank of word i is interpolated between i
    (divergence 0, identical distributions) and its mirror position
    (divergence 1, disjoint high-frequency vocabularies).  Deterministic in
    the seed; document length is uniform over 50-200 words.

    The corpus is the one that ``rng.randint(*DOC_LENGTH_RANGE)`` and then
    ``rng.choices(lexicon, cum_weights=..., k=length)`` per document, human
    documents first, draw from the seed's "synth" stream ``rng``.
    """
    Rule(int, 1, MAX_N_PER_CLASS).check("n_per_class", n_per_class,
                                        CorpusError)
    Rule(float, 0, 1).check("divergence", divergence, CorpusError)
    lexicon = _lexicon()
    top = LEXICON_SIZE - 1
    human_cum = _zipf_cumulative([float(i) for i in range(LEXICON_SIZE)])
    machine_cum = _zipf_cumulative(
        [(1.0 - divergence) * i + divergence * (top - i)
         for i in range(LEXICON_SIZE)])
    # Every lexicon word is two consonant-vowel syllables, so each row of
    # the table is one word and the space after it.
    table = np.frombuffer("".join(w + " " for w in lexicon).encode("ascii"),
                          np.uint8).reshape(LEXICON_SIZE, -1)
    bits = _mt19937(stream_rng(seed, "synth"))
    ids, texts, labels = [], [], []
    for label, prefix, cum in ((0, "human", human_cum), (1, "machine", machine_cum)):
        ids += [f"{prefix}-{i:05d}" for i in range(n_per_class)]
        texts += _synth_texts(bits, n_per_class, cum, table)
        labels += [label] * n_per_class
    return LabeledCorpus(ids=ids, texts=texts, labels=labels)


def _mt19937(rng: random.Random) -> np.random.MT19937:
    """A numpy Mersenne Twister whose ``random_raw`` gives the 32-bit words
    that ``rng`` would draw next."""
    words = rng.getstate()[1]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(words[:-1], dtype=np.uint32),
                            "pos": words[-1]}}
    return bits


def _synth_texts(bits: np.random.MT19937, n_docs: int, cum: list[float],
                 table: np.ndarray) -> list[str]:
    """The texts of n_docs documents whose words are drawn by cumulative
    weights ``cum`` from the lexicon whose rows, each a word and a space,
    are ``table``, a block of SYNTH_BLOCK_DOCS at a time.

    CPython's definitions, replayed on the same words: ``randint(lo, hi)``
    takes the top ``(hi - lo + 1).bit_length()`` bits of a word until they
    are below ``hi - lo + 1``; ``random()`` is ``((a >> 5) * 2**26 +
    (b >> 6)) / 2**53`` for the next words a, b; ``choices`` picks the
    ``bisect_right`` of ``random() * cum[-1]`` in ``cum[:-1]``.
    """
    low, high = DOC_LENGTH_RANGE
    span = high - low + 1
    shift = 32 - span.bit_length()
    total = cum[-1] + 0.0
    pick = _guide_picker(cum[:-1], total)
    texts: list[str] = []
    for start in range(0, n_docs, SYNTH_BLOCK_DOCS):
        lengths: list[int] = []
        draws: list[np.ndarray] = []
        for _ in range(min(SYNTH_BLOCK_DOCS, n_docs - start)):
            r = bits.random_raw() >> shift
            while r >= span:
                r = bits.random_raw() >> shift
            lengths.append(low + r)
            draws.append(bits.random_raw(2 * (low + r)))
        words = np.concatenate(draws)
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
            * (1.0 / 9007199254740992.0)
        picks = pick(u * total)
        block = table.take(picks, axis=0).tobytes().decode("ascii")
        end = 0
        for length in lengths:
            begin, end = end, end + length * table.shape[1]
            texts.append(block[begin:end - 1])
    return texts


def _guide_picker(bounds: list[float], total: float):
    """The function that maps an array of x in [0, total] to
    ``np.searchsorted(bounds, x, side="right")`` for the ascending
    ``bounds``, each below ``total``, through a guide table (Chen and Asau
    1974; Devroye 1986, section III.2.4).

    x lies in bucket ``min(int(x * (GUIDE_BUCKETS / total)),
    GUIDE_BUCKETS - 1)``, and ``guide[j]`` counts the bounds whose own
    bucket lies below j.  The bucket is monotone in x, so ``guide`` of x's
    bucket counts only bounds below x and never exceeds the answer; a pick
    steps forward from it while the next bound is at most x.
    """
    padded = np.array(bounds + [math.inf])
    scale = GUIDE_BUCKETS / total

    def bucket(x: np.ndarray) -> np.ndarray:
        return np.minimum((x * scale).astype(np.intp), GUIDE_BUCKETS - 1)

    guide = np.zeros(GUIDE_BUCKETS, np.intp)
    np.cumsum(np.bincount(bucket(padded[:-1]), minlength=GUIDE_BUCKETS)[:-1],
              out=guide[1:])

    def pick(x: np.ndarray) -> np.ndarray:
        c = guide[bucket(x)]
        behind = np.flatnonzero(padded[c] <= x)
        while behind.size:
            c[behind] += 1
            behind = behind[padded[c[behind]] <= x[behind]]
        return c

    return pick
