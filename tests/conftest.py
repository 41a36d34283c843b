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

from oracles import sparse_from_dense


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
