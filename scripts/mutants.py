"""Mutation checks: each listed mutant of ``src/metaform`` must fail its tests.

A mutant names a module under ``src/metaform``, an exact source snippet
that occurs once in it, the snippet's replacement, and the test files
that must kill it.  For each mutant the script copies ``src/`` to a
temporary directory, makes the one replacement there, and runs those
test files with ``pytest -x -q`` with ``PYTHONPATH`` at the copy.  The
mutant is killed when pytest fails and survives when it passes.  First
it runs every named test file once on an unmutated copy: a failure there
would make every mutant look killed, so it stops the run.

Exit status: 0 when every mutant is killed, 1 when one survives or is
misplaced (its snippet does not occur exactly once, or a test file it
names is missing), 2 when the unmutated run fails.

Run from the repository root:

    python scripts/mutants.py             # every mutant
    python scripts/mutants.py NAME ...    # the named ones
    python scripts/mutants.py --check     # only the placement check

The kill run takes minutes; ``--check`` takes well under a second and is
what the tests run, so a change that moves mutated code must re-point
the mutant it moved.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/metaform
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # file names under tests/


PEEL_TESTS = (
    "test_peel_differential.py",
    "test_rank_at_differential.py",
    "test_rank_certificate_differential.py",
)
FAN_TESTS = ("test_fan_certificate_differential.py",)
PERSISTENCE_TESTS = (
    "test_persistence.py",
    "test_persistence_2d_differential.py",
    "test_batch_rank_differential.py",
)
MERGE_2D_TESTS = ("test_merge_2d_differential.py", "test_body_bar_rank_2d.py")
HEAD_TESTS = ("test_head_screen_differential.py",)

MUTANTS = (
    Mutant(
        "peel-determinant-sign",
        "rigidity.py",
        "- b * (d * i - f * g)",
        "+ b * (d * i - f * g)",
        PEEL_TESTS,
    ),
    Mutant(
        "peel-determinant-not-reduced",
        "rigidity.py",
        "return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % m != 0",
        "return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) != 0",
        PEEL_TESTS,
    ),
    Mutant(
        "peel-returns-with-vertices-left",
        "rigidity.py",
        "    if not adj:\n        return rank\n",
        "    if not stack:\n        return rank\n",
        PEEL_TESTS,
    ),
    Mutant(
        "placement-accepts-the-range",
        "rigidity.py",
        "        while r >= span:\n",
        "        while r > span:\n",
        ("test_placements_differential.py",),
    ),
    Mutant(
        "certificate-budget-one-too-large",
        "rigidity.py",
        "        if dropped > budget:\n",
        "        if dropped > budget + 1:\n",
        PEEL_TESTS,
    ),
    Mutant(
        "certificate-keeps-rows-untested",
        "rigidity.py",
        "if len(kept) < len(pv) and _independent_at(pv, kept + [q]):",
        "if len(kept) < len(pv):",
        PEEL_TESTS,
    ),
    Mutant(
        "fan-sink-arc-not-unit",
        "rigidity.py",
        "if in_s[y] and prv[y] < 0:",
        "if in_s[y]:",
        FAN_TESTS,
    ),
    Mutant(
        "fan-reverse-inner-arc-dropped",
        "rigidity.py",
        "if prv[x] >= 0 and par[node - 1] < 0:",
        "if False:",
        FAN_TESTS,
    ),
    Mutant(
        "k4-without-the-u-y-edge",
        "rigidity.py",
        "if both[y] == w and near[y] == u:",
        "if both[y] == w:",
        FAN_TESTS,
    ),
    Mutant(
        "fan-closure-at-two-neighbours",
        "rigidity.py",
        "if hits[w] == 3 and not in_s[w]:",
        "if hits[w] == 2 and not in_s[w]:",
        FAN_TESTS,
    ),
    Mutant(
        "walk-2d-without-reset",
        "persistence.py",
        "        choices[b] = 0\n        return False\n",
        "        return False\n",
        PERSISTENCE_TESTS,
    ),
    Mutant(
        "batch-numbering-in-f-order",
        "persistence.py",
        "np.unravel_index(np.arange(start, stop), radices)",
        'np.unravel_index(np.arange(start, stop), radices, order="F")',
        PERSISTENCE_TESTS,
    ),
    Mutant(
        "witness-choice-0-in-core-blocks",
        "persistence.py",
        "for e in block[next(core_choice) if from_core else 0]",
        "for e in block[0]",
        PERSISTENCE_TESTS,
    ),
    Mutant(
        "merge-2d-skips-search-after-rejection",
        "meta.py",
        "witness = None if accepted_all else _smallest_violating_subset(meta, 2)",
        "witness = None",
        MERGE_2D_TESTS,
    ),
    Mutant(
        "pebble-bars-rank-off-by-one",
        "rigidity.py",
        "        rank = game.rank()\n        for e in kept:\n",
        "        rank = game.rank() - 1\n        for e in kept:\n",
        MERGE_2D_TESTS,
    ),
    Mutant(
        "head-screen-three-tails",
        "planner.py",
        "if dim == 3 and len(cand) <= 2 and all(",
        "if dim == 3 and len(cand) <= 3 and all(",
        HEAD_TESTS,
    ),
    Mutant(
        "head-screen-any-side",
        "planner.py",
        "if dim == 3 and len(cand) <= 2 and all(",
        "if dim == 3 and len(cand) <= 2 and any(",
        HEAD_TESTS,
    ),
    Mutant(
        "edge-list-head-unchecked",
        "graph.py",
        " or type(e[0]) is not int or type(e[1]) is not int:",
        " or type(e[0]) is not int:",
        ("test_graph.py",),
    ),
    Mutant(
        "undirected-view-keeps-direction",
        "graph.py",
        "norm = tuple([(a, b) if a < b else (b, a) for a, b in self.edges])",
        "norm = tuple([(a, b) for a, b in self.edges])",
        ("test_graph.py",),
    ),
)


def misplaced(mutant: Mutant) -> str | None:
    """Why the mutant cannot run as listed, or None."""
    k = (SRC / "metaform" / mutant.module).read_text().count(mutant.snippet)
    if k != 1:
        return f"snippet occurs {k} times in src/metaform/{mutant.module}"
    missing = [name for name in mutant.tests if not (ROOT / "tests" / name).is_file()]
    if missing:
        return f"no test file {', '.join(missing)}"
    return None


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [str(ROOT / "tests" / name) for name in tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def summary(done: subprocess.CompletedProcess) -> str:
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else f"exit {done.returncode}"


def copy_of_src(into: Path, mutant: Mutant | None = None) -> Path:
    copy = into / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = copy / "metaform" / mutant.module
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
    return copy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--check", action="store_true", help="only check where each mutant applies")
    args = parser.parse_args(argv)

    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)

    faults = [(m, why) for m in chosen if (why := misplaced(m))]
    for m, why in faults:
        print(f"{m.name}: {why}")
    if faults or args.check:
        if not faults:
            print(f"{len(chosen)} mutants, each snippet found once")
        return 1 if faults else 0

    tests = sorted({name for m in chosen for name in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        done = run_tests(copy_of_src(Path(tmp)), tests)
    if done.returncode != 0:
        print(f"unmutated source fails its tests: {summary(done)}")
        print(done.stdout[-4000:])
        return 2
    print(f"unmutated: {summary(done)}")

    survivors = []
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            done = run_tests(copy_of_src(Path(tmp), m), m.tests)
        killed = done.returncode != 0
        print(f"{m.name}: {'killed' if killed else 'SURVIVED'} ({summary(done)})", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
