"""Benchmark runner for llmdetect.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

``perfbench/repeat.py`` runs every workload over several seeds.

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run fails without a result if that is missing.

Load is a closed loop: one caller in this single-threaded process runs a
round of commands (see ``workloads.py``), checks their outputs, and starts
the next round only if it can finish within ``--seconds``.  Set-up (synth,
split, tokenize-train) is repeated ``SETUP_REPEATS`` times and its median
reported, so work moved into set-up shows.

``--trace 0`` prints the end-to-end metrics with no spans recorded.
``--trace 1`` prints the per-layer metrics instead: the first set-up and
the first round run with tracemalloc on, for per-call peak memory only;
later rounds alternate untraced and traced, which gives the tracing
overhead.  Spans are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# A fixed string-hash seed: with a random one, dict and set layouts change
# from process to process and move single-process timings by up to 10%.
HASH_SEED = "0"
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACED_MIN_ROUNDS = 3       # memory pass, one untraced and one traced round

# Spans whose per-round seconds are reported as ``<name>.s``.
TIMED_SPANS = [
    "corpus.synth_corpus", "corpus.split_corpus",
    "tokenizer.train_bpe", "tokenizer.load_vocab", "tokenizer.encode",
    "features.fit_tfidf", "features.transform_corpus",
    "models.naive_bayes.train", "models.sgd.train",
    "models.gbdt.leaf_wise.train", "models.gbdt.symmetric.train",
    "models.naive_bayes.predict", "models.sgd.predict",
    "models.gbdt.leaf_wise.predict", "models.gbdt.symmetric.predict",
    "models.save_model", "models.load_model",
    "ensemble.run_ensemble", "ensemble.collect_voter_scores",
    "ensemble.load_external_scores", "ensemble.dump_scores",
    "ensemble.soft_vote", "ensemble.rank_average",
    "metrics.roc_auc", "metrics.evaluation_report",
]
# Spans whose largest per-call peak memory is reported as ``<name>.peak_mb``.
PEAK_SPANS = [
    "tokenizer.train_bpe", "tokenizer.encode", "features.fit_tfidf",
    "features.transform_corpus", "models.naive_bayes.train",
    "models.sgd.train", "models.gbdt.leaf_wise.train",
    "models.gbdt.symmetric.train", "ensemble.run_ensemble",
    "ensemble.tune_weights.probability_mean",
    "ensemble.tune_weights.rank_mean",
]


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(session, setup_times) -> dict:
    med = statistics.median

    def docs_per_s(op_name):
        return len(session.stream) / med(session.seconds(op_name))

    attempted = len(session.ops)
    failed = sum(op.error is not None for op in session.ops)
    return {
        "setup_s": ("s", med(setup_times)),
        "peak_rss_mb": ("MB", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "ok_frac": ("ratio", (attempted - failed) / attempted),
        "holdout_auc": ("ratio", session.holdout_auc()),
        "train_nb_s": ("s", med(session.seconds("train.naive_bayes"))),
        "train_sgd_s": ("s", med(session.seconds("train.sgd"))),
        "train_gbdt_leaf_wise_s": (
            "s", med(session.seconds("train.gbdt.leaf_wise"))),
        "train_gbdt_symmetric_s": (
            "s", med(session.seconds("train.gbdt.symmetric"))),
        "predict_docs_per_s": ("docs/s", docs_per_s("predict")),
        "ensemble_docs_per_s": ("docs/s", docs_per_s("ensemble")),
        "tune_probability_mean_s": (
            "s", med(session.seconds("tune.probability_mean"))),
        "tune_rank_mean_s": ("s", med(session.seconds("tune.rank_mean"))),
    }


def per_layer(session, tracer, round_walls) -> dict:
    t = tracer
    m = {f"{name}.s": ("s", t.seconds(name)) for name in TIMED_SPANS}
    m.update({f"{name}.peak_mb": ("MB", t.peak_mb(name))
              for name in PEAK_SPANS})
    m.update(session.properties())
    m["features.transform_corpus.calls"] = (
        "count", t.calls("features.transform_corpus"))
    m["models.sgd.us_per_step"] = (
        "us", 1e6 * t.seconds("models.sgd.train") / m["models.sgd.steps"][1])
    for variant in ("leaf_wise", "symmetric"):
        m[f"models.gbdt.{variant}.s_per_tree"] = (
            "s", t.seconds(f"models.gbdt.{variant}.train")
            / session.shape.gbdt_trees)
    grid = m["ensemble.grid_points"][1]
    for combine in ("probability_mean", "rank_mean"):
        m[f"ensemble.tune_weights.{combine}.s_per_grid_point"] = (
            "s", t.seconds(f"ensemble.tune_weights.{combine}") / grid)
    m["trace.overhead_frac"] = ("ratio", statistics.median(
        round_walls["traced"]) / statistics.median(round_walls["untraced"]) - 1)
    coverage = t.coverage()
    for name, share in sorted(coverage.items()):
        log(f"span coverage {name}: {share:.4f}")
    m["trace.span_coverage"] = ("ratio", min(coverage.values()))
    return m


def run(args, tmpdir: Path) -> tuple[dict, int]:
    from spans import Tracer
    from workloads import KERNEL_NOMINAL_S, SHAPES, Session, reference_kernel

    if args.workload not in SHAPES:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(SHAPES)}")
    traced = bool(args.trace)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}",
                    enabled=traced)
    session = Session(args.workload, args.seed, tmpdir, tracer, log)

    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.round = rep
        memory = tracer.memory_pass() if traced and rep == 0 else nullcontext()
        kernel = statistics.median(reference_kernel() for _ in range(5))
        start = time.perf_counter()
        with memory:
            session.setup()
        setup_times.append((time.perf_counter() - start)
                           * KERNEL_NOMINAL_S / kernel)
    # Keep set-up state out of the collections the commands trigger.
    gc.collect()
    gc.freeze()

    tracer.phase = "round"
    round_walls: dict[str, list[float]] = {"memory": [], "untraced": [],
                                           "traced": []}
    min_rounds = TRACED_MIN_ROUNDS if traced else 1
    deadline = time.perf_counter() + args.seconds
    r = 0
    while True:
        mode = ("untraced" if not traced else "memory" if r == 0 else
                "untraced" if r % 2 else "traced")
        tracer.enabled = mode != "untraced"
        tracer.round = session.round = r
        n_ops = len(session.ops)
        start = time.perf_counter()
        out = None
        try:
            with tracer.memory_pass() if mode == "memory" else nullcontext():
                out = session.run_round()
        except Exception:
            log(f"round {r} raised:\n{traceback.format_exc()}")
        tracer.enabled = False
        if out is not None:
            try:
                session.check_round(out)
            except Exception:
                session.fail_all(n_ops, f"output check raised:\n"
                                        f"{traceback.format_exc()}")
        del out
        round_walls[mode].append(sum(op.seconds for op in session.ops[n_ops:]))
        r += 1
        took = time.perf_counter() - start
        if r >= min_rounds and time.perf_counter() + took > deadline:
            break
    log(f"{r} rounds in {args.seconds - (deadline - time.perf_counter()):.1f} s")

    if not session.first_ops:
        log("no round completed")
        return {}, 1
    try:
        session.mirror_check()
    except Exception:
        session.fail_all(0, f"mirror check raised:\n{traceback.format_exc()}")
    failed = sum(op.error is not None for op in session.ops)
    for op in session.ops:
        if op.error is not None:
            log(f"failed: round {op.round} {op.name}: {op.error}")
    for model, sha in session.bundle_sha.items():
        print(f"bundle sha256 {model} {sha}")
    print(f"best single-model holdout auc {session.best_single_auc()!r}")

    if traced:
        metrics = per_layer(session, tracer, round_walls)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(session, setup_times)
    for name, (unit, value) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if traced else "end_to_end"]
    if {d["name"]: d["unit"] for d in declared} != {
            name: unit for name, (unit, _) in metrics.items()}:
        log("metrics differ from those BENCHMARK.json declares")
        return {}, 1
    result = {
        "correct": failed == 0,
        "attempted": len(session.ops),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    return result, 0


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child is left behind) with one whose
        # hash seed and thread counts are fixed before the interpreter starts.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **SINGLE_THREAD)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  env)
    args = parse_args(argv)
    if not (SRC / "llmdetect" / "__init__.py").is_file():
        log(f"no llmdetect sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import llmdetect
    if Path(llmdetect.__file__).resolve().parent != SRC / "llmdetect":
        log(f"imported llmdetect from {llmdetect.__file__}, not {SRC}")
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        result, status = run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    if status == 0:
        print(json.dumps(result, separators=(",", ":")))
    return status


if __name__ == "__main__":
    sys.exit(main())
