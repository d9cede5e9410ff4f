"""The demo scripts run end to end against the library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_banana_anatomy():
    done = run_script("banana_anatomy.py")
    assert done.returncode == 0, done.stderr
    assert "rigid: False" in done.stdout


@pytest.mark.parametrize("dim", ["2", "3"])
def test_merge_survey(dim):
    done = run_script("merge_survey.py", "--rounds", "3", "--dim", dim)
    assert done.returncode == 0, done.stderr
    assert "3 planned, 3 verified" in done.stdout


def test_code_lines():
    done = run_script("code_lines.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "metaform").glob("*.py"))
    assert [name for name, _ in rows] == modules + ["total"]
    counts = [int(count) for _, count in rows]
    assert all(counts) and counts[-1] == sum(counts[:-1])


def test_mutant_snippets_occur_once():
    """Each mutant's snippet is in its module exactly once and its test
    files exist; the kill run itself (``python scripts/mutants.py``) takes
    minutes and is not run here."""
    done = run_script("mutants.py", "--check")
    assert done.returncode == 0, done.stdout + done.stderr
