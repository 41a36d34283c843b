import json
import os
import signal
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# subprocesses (python -m llmdetect, the demos) import the package from
# this checkout, as the test process does through pyproject's pythonpath
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

from llmdetect.files import canonical_json, pack, unpack
from oracles import sparse_from_dense

# Packed bundle arrays are int64 under these keys and float64 elsewhere.
_INT64_KEYS = {"ngram_ids", "ngram_lengths", "df"}


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {outcome}", flush=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_sparse(rng, n_rows, n_cols, density=0.4, max_distinct=0):
    """Nonnegative random CSR matrix; max_distinct > 0 snaps values to a
    small grid so every column has few distinct values."""
    dense = rng.random((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    if max_distinct:
        dense = np.round(dense * max_distinct) / max_distinct
    return sparse_from_dense(dense), dense


def _dtype(key: str) -> str:
    return "<i8" if key in _INT64_KEYS else "<f8"


def unpacked(doc: dict, key: str) -> np.ndarray:
    """The array packed at doc[key] in a bundle document."""
    return unpack(doc[key], _dtype(key), key, ValueError)


def repack(doc: dict, key: str, edit) -> None:
    """Replace the packed array at doc[key] by edit(array), packed again;
    an edit that returns None has changed the array in place."""
    array = unpacked(doc, key)
    edited = edit(array)
    doc[key] = pack(array if edited is None else edited, _dtype(key))


def set_payload_ngrams(payload: dict, ngrams) -> None:
    """Pack the n-grams into a tfidf payload's ngram_ids and ngram_lengths."""
    for key, values in (("ngram_ids", [i for ngram in ngrams for i in ngram]),
                        ("ngram_lengths", list(map(len, ngrams)))):
        payload[key] = pack(np.array(values, dtype=np.int64), "<i8")


def v1_rendering(data: bytes) -> bytes:
    """A format-2 bundle as format 1 wrote it: every packed array back as a
    JSON list (the n-grams as one list of ids each, naive Bayes likelihoods
    as two rows) under format_version 1, in canonical JSON."""
    payload = json.loads(data)
    tfidf = payload["tfidf"]
    ids = unpacked(tfidf, "ngram_ids").tolist()
    ends = np.cumsum(unpacked(tfidf, "ngram_lengths")).tolist()
    starts = [0, *ends[:-1]]
    tfidf["ngrams"] = [ids[lo:hi] for lo, hi in zip(starts, ends)]
    del tfidf["ngram_ids"], tfidf["ngram_lengths"]
    for key in ("df", "idf"):
        tfidf[key] = unpacked(tfidf, key).tolist()
    parameters = payload["parameters"]
    if "log_likelihood" in parameters:
        parameters["log_likelihood"] = unpacked(
            parameters, "log_likelihood").reshape(2, -1).tolist()
    if "theta" in parameters:
        parameters["theta"] = unpacked(parameters, "theta").tolist()
    payload["format_version"] = 1
    return canonical_json(payload)


def traced_peak(fn) -> int:
    """Peak traced allocation, in bytes above the start, while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def time_bound():
    """Context manager: raise TimeoutError if the block outlives seconds."""
    @contextmanager
    def bound(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return bound
