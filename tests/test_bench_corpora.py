"""Every op of the benchmark corpora gets its known answer from the CLI.

``perfbench/corpus.py`` builds each workload's ops with the answer known
by construction, and ``corpus.check`` reads a report against it.  A
benchmark run that finds a wrong answer fails as ``outputs_incorrect``;
this runs the same check on the seed-1 corpora, so such a change fails
here first.  Only ``corpus.py`` is imported from ``perfbench``.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from metaform import rigidity
from metaform.cli import main

from conftest import count_calls

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


corpus = load_corpus()


def run_ops(workload, seed, tmp_path, raw=False):
    """Run each op of a workload's corpus through ``main``; yield the op,
    its exit code and its parsed report (None when stdout is no JSON), or
    with ``raw`` its stdout text in place of the report."""
    for i, op in enumerate(corpus.build(workload, seed)):
        op.paths = []
        for j, doc in enumerate(op.files):
            path = tmp_path / f"op{i:03d}-{j}.json"
            path.write_text(json.dumps(doc))
            op.paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(op.argv())
        if raw:
            yield op, code, out.getvalue()
            continue
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        yield op, code, report


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_every_corpus_op_gets_its_known_answer(workload, tmp_path):
    wrong = [
        f"{i}: {op.label}"
        for i, (op, code, report) in enumerate(run_ops(workload, 1, tmp_path))
        if not corpus.check(op, code, report)
    ]
    assert wrong == []


def test_rigidity_3d_pass_trial_count(monkeypatch, tmp_path):
    """A seed-1 ``rigidity-3d`` pass runs 42 rank-oracle trials: one per
    rigid graph, one per four-bar graph (its K5 core's full rank is the
    oracle's ceiling) and three for the double banana.  A count, so it
    does not depend on timing."""
    calls = count_calls(monkeypatch, "rigidity_rank_once", rigidity.rigidity_rank_once)
    for _ in run_ops("rigidity-3d", 1, tmp_path):
        pass
    assert len(calls) == 42


@pytest.mark.parametrize(
    "workload, eliminations",
    [("merge-3d", 0), ("persist-2d", 0), ("persist-3d", 0), ("rigidity-3d", 3)],
)
def test_pass_rank_mod_p_count(workload, eliminations, monkeypatch, tmp_path):
    """``rank_mod_p`` calls per seed-1 pass.  Every remainder a rank-oracle
    trial or a member's ranking leaves is certified at its ceiling, except
    the double banana's, which is eliminated at each of its three trials.
    A count, so a change that turns the certificate off fails here."""
    calls = count_calls(monkeypatch, "rank_mod_p", rigidity.rank_mod_p)
    for _ in run_ops(workload, 1, tmp_path):
        pass
    assert len(calls) == eliminations


# sha256 over every seed-1 op's exit code and stdout, workload by workload
# in sorted order.  An intended change to any report updates it and says
# why in CHANGES.md.
CORPORA_DIGEST = "e7eb9d795bcf695688c5ac960df84dae575163a9886056da93286106e205e2bd"


def test_seed_1_corpora_output_is_byte_stable(tmp_path):
    digest = hashlib.sha256()
    for workload in sorted(corpus.WORKLOADS):
        for _, code, out in run_ops(workload, 1, tmp_path, raw=True):
            digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == CORPORA_DIGEST
