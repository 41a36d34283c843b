"""In-memory span tracer for the benchmark.

A span records a name, start, end, parent span, run id, phase ("setup" or
"round") and round index.  Spans stay in memory and are written out once,
when the run ends.  With ``enabled`` false every span is a no-op, so the
untraced rounds that give the end-to-end metrics pay only for a function
call per layer boundary.

Per-call peak memory comes from ``tracemalloc``, which slows Python-heavy
layers several-fold.  It is therefore switched on only for designated
memory passes (``memory = True``), whose times are never used.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.memory = False
        self.phase = "setup"
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "run": self.run_id, "phase": self.phase,
               "round": self.round, "memory": self.memory,
               "parent": parent["id"] if parent else None,
               "id": len(self.spans)}
        self.spans.append(rec)
        self._stack.append(rec)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if self.memory:
                _, peak = tracemalloc.get_traced_memory()
                rec["_peak"] = max(rec["_peak"], peak)
                # peak above the footprint the call started from
                rec["peak_mb"] = (rec["_peak"] - rec["_base"]) / MIB
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], rec["_peak"])
                tracemalloc.reset_peak()

    @contextmanager
    def memory_pass(self):
        """Run the body with tracemalloc on; its spans carry ``peak_mb``."""
        if not self.enabled:
            yield
            return
        tracemalloc.start()
        self.memory = True
        try:
            yield
        finally:
            self.memory = False
            tracemalloc.stop()

    # -- aggregation --------------------------------------------------------

    def timed_spans(self):
        return [s for s in self.spans if not s["memory"] and "end" in s]

    def _per_group(self, phase: str, name: str, value) -> list:
        """Per setup or round of ``phase`` that recorded any span, the sum
        of ``value(span)`` over the spans called ``name``."""
        groups: dict[int, float] = {}
        for s in self.timed_spans():
            if s["phase"] == phase:
                groups.setdefault(s["round"], 0.0)
                if s["name"] == name:
                    groups[s["round"]] += value(s)
        return list(groups.values())

    def _median(self, name: str, value) -> float:
        """Median over traced rounds; over set-ups if no round ran it."""
        for phase in ("round", "setup"):
            totals = self._per_group(phase, name, value)
            if any(totals):
                return statistics.median(totals)
        return 0.0

    def seconds(self, name: str) -> float:
        return self._median(name, lambda s: s["end"] - s["start"])

    def calls(self, name: str) -> float:
        return self._median(name, lambda s: 1)

    def peak_mb(self, name: str) -> float:
        peaks = [s["peak_mb"] for s in self.spans
                 if s["memory"] and s["name"] == name and "peak_mb" in s]
        return max(peaks) if peaks else 0.0

    def coverage(self) -> dict[str, float]:
        """Per command span name, the lowest share of its wall time that
        its direct child spans cover."""
        spans = self.timed_spans()
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            if s["name"].startswith("command."):
                wall = s["end"] - s["start"]
                share = children[s["id"]] / wall if wall > 0 else 1.0
                out[s["name"]] = min(out.get(s["name"], 1.0), share)
        return out

    def dump(self, path) -> None:
        records = [{k: v for k, v in s.items() if not k.startswith("_")}
                   for s in self.spans]
        path.write_text(json.dumps({"run": self.run_id, "spans": records},
                                   separators=(",", ":")) + "\n")


@contextmanager
def inner_spans(tracer: Tracer, patches):
    """Span library calls made inside a call the benchmark makes whole.

    ``patches`` lists (owner, attribute, span_name) triples; span_name is a
    string or a function of the call's first argument.  Applied only while
    tracing, and always undone.
    """
    if not tracer.enabled:
        yield
        return
    saved = []
    for owner, attr, name in patches:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrap(tracer: Tracer, fn, name):
    def wrapper(*args, **kwargs):
        label = name(args[0]) if callable(name) else name
        with tracer.span(label):
            return fn(*args, **kwargs)
    return wrapper
