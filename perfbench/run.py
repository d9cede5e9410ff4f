#!/usr/bin/env python3
"""metaform benchmark: known-answer CLI verdicts, end to end and per layer.

    python3 perfbench/run.py --workload rigidity-3d --seed 1 --seconds 24 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the traced pass pairs and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the provenance.  Results and spans are also written
under ``.perfbench-out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed this many times per run (each in a fresh process);
# setup_s is the median.
SETUP_REPEATS = 7
# One BLAS/OpenMP thread: the load is one client in one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A run must end within 180 s: set-up processes get 15 s each, the
# measuring or tracing process the rest.
SETUP_TIMEOUT_S = 15
WORK_TIMEOUT_S = 60


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, mode: str, out: Path) -> tuple[float, dict]:
    """Run one worker process; return (its set-up seconds, its result).

    Set-up runs from starting the process to its first timed op, scaled
    by the host speed the worker measured right after it.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", str(out),
    ]
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic()
    timeout = SETUP_TIMEOUT_S if mode == "setup" else WORK_TIMEOUT_S + 2 * args.seconds
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result["first_op"] - started) * result["setup_scale"], result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    try:
        if args.trace:
            setup = []
            _, result = spawn(args, "trace", out)
        else:
            setup = [spawn(args, "setup", out)[0] for _ in range(SETUP_REPEATS - 1)]
            first, result = spawn(args, "measure", out)
            setup.append(first)
            result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = result["failed"] == 0 and result["warmup_ok"] and result.get("checks_ok", True)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "setup_s_samples": setup,
        **result["info"],
    }
    final = {
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, **final}, indent=2))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
