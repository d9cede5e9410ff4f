"""One benchmark process: set up, then measure or trace one workload.

Started by run.py, never by hand.  Set-up is the interpreter, ``import
metaform.cli``, writing the corpus and the untimed warm-up ops; it ends
at the first timed op, whose monotonic clock reading is reported so
that run.py can time set-up from the moment it started this process.
The last stdout line is one JSON object.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --out DIR
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metaform.cli  # noqa: E402  (set-up cost, timed on purpose)
import numpy  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
from tracing import TARGETS, Tracer, count_under, summarize  # noqa: E402


def run_op(op) -> tuple[float, bool]:
    """Time one CLI call; check its output outside the timed region."""
    out = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = metaform.cli.main(op.argv())
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception:  # any crash is a failed op, never a crashed run
        code = None
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return elapsed, code is not None and corpus.check(op, code, report)


def write_corpus(ops, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        op.paths = []
        for j, doc in enumerate(op.files):
            path = directory / f"op{i:03d}-{j}.json"
            path.write_text(json.dumps(doc))
            op.paths.append(str(path))


def run_pass(ops, times, tally) -> tuple[float, float]:
    """One closed-loop pass over the corpus.

    The reference work is timed before the first op and after each op.
    Each op time is scaled by NOMINAL_S over the mean of the reference
    times on either side of it, and appended to ``times``.  Returns the
    unscaled and the scaled seconds spent inside ``cli.main``.
    """
    raw = scaled = 0.0
    before = reference.timed()
    for i, op in enumerate(ops):
        elapsed, ok = run_op(op)
        after = reference.timed()
        times[i].append(elapsed * reference.NOMINAL_S * 2 / (before + after))
        raw += elapsed
        scaled += times[i][-1]
        before = after
        tally["attempted"] += 1
        tally["failed"] += not ok
    return raw, scaled


def measure(ops, seconds: float) -> dict:
    times = [[] for _ in ops]
    tally = {"attempted": 0, "failed": 0}
    raw = 0.0
    passes = 0
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        raw += run_pass(ops, times, tally)[0]
        passes += 1
        if passes == 1:
            # Later passes only add allocator fragmentation, which would
            # make the peak depend on how many passes fit in the run.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Whole passes only, so every run times the same mix of ops.
        if time.monotonic() - begin + (time.monotonic() - start) > seconds:
            break
    per_op = [statistics.median(t) for t in times]
    q, tail, beyond = stats.tail_percentile(per_op)
    busy = sum(sum(t) for t in times)
    ok = tally["attempted"] - tally["failed"]
    metrics = {
        "verdicts_per_s": (ok / busy, "1/s"),
        "verdict_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "verdict_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": (ok / tally["attempted"], "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {
        "passes": passes,
        "ops_per_pass": len(ops),
        "tail_percentile": q,
        "tail_samples": len(per_op),
        "tail_samples_beyond": beyond,
        "host_speed_scale": busy / raw,
        "unscaled_verdicts_per_s": ok / raw,
    }
    return {**tally, "metrics": metrics, "info": info}


ENTRY = {
    "check-rigidity": "rigidity.check_rigidity",
    "check-persistence": "persistence.is_persistent",
    "plan-merge": "planner.verify_plan",
}


def trace(ops, seconds: float, spans_prefix: Path) -> dict:
    """Alternate untraced and traced passes; report per-layer metrics per pass."""
    times = [[] for _ in ops]
    tally = {"attempted": 0, "failed": 0}
    plain = traced = 0.0
    tracers, scales = [], []
    begin = time.monotonic()
    while True:
        plain += run_pass(ops, times, tally)[1]
        tracer = Tracer()
        tracer.install()
        start = time.monotonic()
        try:
            busy, scaled = run_pass(ops, times, tally)
        finally:
            tracer.uninstall()
        last = time.monotonic() - start
        traced += scaled
        tracers.append(tracer)
        scales.append(scaled / busy)
        # At least two traced passes, so their call counts can be compared.
        if len(tracers) >= 2 and time.monotonic() - begin + 2 * last > seconds:
            break

    summaries = []
    for tracer in tracers:
        spans = tracer.spans()
        calls, self_s = summarize(spans)
        summaries.append((calls, self_s, tracer.notes, count_under(
            spans, "rigidity.generic_rank_oracle", "planner.plan_pair")))
    for i, tracer in enumerate(tracers):
        tracer.write(f"{spans_prefix}-pass{i}.jsonl.gz")

    passes = len(summaries)
    repeat = all(s[0] == summaries[0][0] and s[2] == summaries[0][2] for s in summaries)
    calls, _, notes, leaves = summaries[0]
    self_s = {k: sum(s[1][k] * f for s, f in zip(summaries, scales)) / passes for k, *_ in TARGETS}
    metrics = {}
    for name, *_ in TARGETS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    oracles = calls["rigidity.generic_rank_oracle"]
    trials = calls["rigidity.rigidity_rank_once"]
    metrics.update({
        "rigidity.rank_mod_p.cells": (notes["cells"], "cells"),
        "rigidity.trials_per_oracle": (trials / oracles if oracles else 0.0, "ratio"),
        "rigidity.oracle_full_rank_ratio": (notes["full_rank_trials"] / trials if trials else 0.0, "ratio"),
        "persistence.terminals": (notes["terminals"], "count"),
        "persistence.is_persistent.per_op": (calls["persistence.is_persistent"] / len(ops), "calls/op"),
        "planner.head_leaves": (leaves, "count"),
        "planner.leaf_hit_ratio": (calls["planner.plan_pair"] / leaves if leaves else 0.0, "ratio"),
        "trace_overhead_ratio": (traced / plain, "ratio"),
    })
    expected_terminals = sum(op.terminals for op in ops)
    # The function each command reaches through a name cli imported with
    # ``from .x import f``; seeing it once per op (per feasible merge)
    # shows that those names were rebound too.
    entry = ENTRY[ops[0].command]
    entered = sum(op.expect.get("feasible", True) for op in ops)
    checks = {
        "call_counts_repeat": repeat,
        "cli_main_once_per_op": calls["cli.main"] == len(ops),
        f"{entry}_once_per_op": calls[entry] == entered,
    }
    if ops[0].command == "check-persistence":
        checks["terminals_match_formula"] = notes["terminals"] == expected_terminals
    info = {
        "passes": passes,
        "ops_per_pass": len(ops),
        "per_layer_basis": "per traced corpus pass",
        "host_speed_scales": scales,
        "expected_terminals": expected_terminals,
        "checks": checks,
    }
    return {**tally, "metrics": metrics, "info": info, "checks_ok": all(checks.values())}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    work = args.out / f"corpus-{os.getpid()}"
    try:
        ops = corpus.build(args.workload, args.seed)
        write_corpus(ops, work / "ops")
        warm = corpus.warmup_ops(args.workload)
        write_corpus(warm, work / "warm")
        warm_ok = all(run_op(op)[1] for op in warm)
        first_op = time.monotonic()
        # Host speed right after set-up, to scale this process's set-up time.
        speed = reference.NOMINAL_S / statistics.median(reference.timed() for _ in range(3))
        result = {
            "first_op": first_op,
            "setup_scale": speed,
            "warmup_ok": warm_ok,
            "numpy": numpy.__version__,
        }
        if args.mode == "measure":
            result.update(measure(ops, args.seconds))
        elif args.mode == "trace":
            spans = args.out / f"spans-{args.workload}-seed{args.seed}"
            result.update(trace(ops, args.seconds, spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
