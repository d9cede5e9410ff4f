"""Tests of the benchmark's own helpers: gadgets, percentiles, spans.

    python3 -m pytest -q perfbench

The gadgets are checked against brute force that shares no code with
metaform: exhaustive Laman counts in 2D, rigidity-matrix rank at random
real positions in 3D, and terminal subgraphs enumerated by the deletion
definition.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ------------------------------------------------------------ brute force

def laman_sparse(vertices, edges) -> bool:
    """Every vertex subset W of size >= 2 spans at most 2|W| - 3 edges."""
    for size in range(2, len(vertices) + 1):
        for w in itertools.combinations(vertices, size):
            ws = set(w)
            if sum(a in ws and b in ws for a, b in edges) > 2 * size - 3:
                return False
    return True


def laman_rigid(vertices, edges) -> bool:
    """Some 2n-3 edges form a Laman-sparse spanning set."""
    target = 2 * len(vertices) - 3
    return any(laman_sparse(vertices, sub) for sub in itertools.combinations(edges, target))


def float_rank(vertices, edges, dim, seed=0) -> int:
    rng = np.random.default_rng(seed)
    pos = {v: rng.standard_normal(dim) for v in vertices}
    col = {v: i for i, v in enumerate(vertices)}
    m = np.zeros((len(edges), dim * len(vertices)))
    for r, (a, b) in enumerate(edges):
        d = pos[a] - pos[b]
        m[r, dim * col[a] : dim * col[a] + dim] = d
        m[r, dim * col[b] : dim * col[b] + dim] = -d
    return int(np.linalg.matrix_rank(m))


def three_connected(vertices, edges) -> bool:
    for removed in itertools.combinations(vertices, 2):
        rest = [v for v in vertices if v not in removed]
        seen, stack = {rest[0]}, [rest[0]]
        while stack:
            x = stack.pop()
            for a, b in edges:
                for y, z in ((a, b), (b, a)):
                    if y == x and z not in removed and z not in seen:
                        seen.add(z)
                        stack.append(z)
        if len(seen) != len(rest):
            return False
    return True


def terminals_by_deletion(edges, dim) -> set[frozenset]:
    """Delete out-edges at any over-braced vertex, in every order."""
    start = frozenset(edges)
    seen, stack, found = {start}, [start], set()
    while stack:
        s = stack.pop()
        deg = Counter(t for t, _ in s)
        if all(d <= dim for d in deg.values()):
            found.add(s)
            continue
        for e in s:
            nxt = s - {e}
            if deg[e[0]] > dim and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return found


# ---------------------------------------------------------------- gadgets

@pytest.mark.parametrize("seed", range(4))
def test_grown_is_laman_rigid_in_2d(seed):
    vs, es = corpus.grown(7, 2, random.Random(seed))
    assert len(es) == 2 * 7 - 3
    assert laman_sparse(vs, es)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_four_bar_2d_has_tight_count_and_is_not_laman_rigid(n):
    for seed in range(3):
        vs, es = corpus.four_bar(n, 2, random.Random(seed))
        assert len(vs) == n and len(es) == 2 * n - 3
        assert not laman_rigid(vs, es)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_four_bar_3d_is_tight_three_connected_and_rank_deficient(n):
    vs, es = corpus.four_bar(n, 3, random.Random(n))
    assert len(es) == 3 * n - 6
    assert three_connected(vs, es)
    assert float_rank(vs, es, 3) == 3 * n - 7
    gv, ge = corpus.grown(n, 3, random.Random(n))
    assert float_rank(gv, ge, 3) == 3 * n - 6


def test_banana_is_tight_and_rank_deficient():
    vs, es = corpus.banana()
    assert len(es) == 3 * len(vs) - 6
    assert not three_connected(vs, es)
    assert float_rank(vs, es, 3) == 3 * len(vs) - 7


@pytest.mark.parametrize("core_n", [4, 5])
def test_dangler_2d_is_rigid_with_a_non_rigid_terminal(core_n):
    rng = random.Random(core_n)
    vs, es = corpus.dangler(corpus.complete(core_n), 2, rng)
    assert laman_rigid(vs, es)
    terms = terminals_by_deletion(es, 2)
    assert len(terms) == corpus.terminal_count((vs, es), 2)
    assert any(not laman_rigid(vs, sorted(t)) for t in terms)


def test_dangler_3d_is_rigid_with_a_non_rigid_terminal():
    vs, es = corpus.dangler(corpus.complete(6), 3, random.Random(1))
    assert float_rank(vs, es, 3) == 3 * len(vs) - 6
    terms = terminals_by_deletion(es, 3)
    assert len(terms) == corpus.terminal_count((vs, es), 3)
    assert any(float_rank(vs, sorted(t), 3) < 3 * len(vs) - 6 for t in terms)


@pytest.mark.parametrize("dim,n,extra", [(2, 7, 3), (3, 8, 2)])
def test_acyclic_dense_terminals_are_all_rigid(dim, n, extra):
    vs, es = corpus.acyclic_dense(n, dim, extra, random.Random(n))
    terms = terminals_by_deletion(es, dim)
    assert len(terms) == corpus.terminal_count((vs, es), dim) == (dim + 1) ** extra
    for t in terms:
        if dim == 2:
            assert laman_rigid(vs, sorted(t))
        else:
            assert float_rank(vs, sorted(t), 3) == 3 * n - 6


def test_complete_graph_terminal_count():
    assert corpus.terminal_count(corpus.complete(7), 2) == 3 * 6 * 10 * 15
    assert corpus.terminal_count(corpus.complete(7), 3) == 1 * 4 * 10 * 20


@pytest.mark.parametrize("size,k", [(5, 1), (6, 2), (7, 3)])
def test_leader_braced_member_misses_k_dofs(size, k):
    vs, es = corpus.leader_braced(size, k, random.Random(size), base=10)
    out = Counter(t for t, _ in es)
    assert max(out.values()) <= 3 and out[10] == k
    dofs = sum(max(0, 3 - out[v]) for v in vs)
    assert 6 - dofs == k
    assert float_rank(vs, es, 3) == 3 * size - 6


def test_corpora_are_seeded_and_mix_answers():
    for name in corpus.WORKLOADS:
        ops = corpus.build(name, 7)
        again = corpus.build(name, 7)
        assert [op.files for op in ops] == [op.files for op in again]
        assert [op.files for op in ops] != [op.files for op in corpus.build(name, 8)]
        assert len(ops) >= 40
        assert len({op.expect["exit"] for op in ops}) == 2


def test_check_rejects_wrong_verdicts():
    op = corpus.build("rigidity-3d", 1)[0]
    rigid = op.expect["rigid"]
    good = {"rigid": rigid, "minimallyRigid": rigid}
    assert corpus.check(op, op.expect["exit"], good)
    assert not corpus.check(op, op.expect["exit"], {**good, "rigid": not rigid})
    assert not corpus.check(op, 2, good)
    assert not corpus.check(op, op.expect["exit"], None)


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n,q", [(20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    samples = list(range(n, 0, -1))
    got_q, value, beyond = stats.tail_percentile(samples)
    assert got_q == q
    assert beyond >= 10
    assert sum(s > value for s in samples) == beyond


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(15))


# ------------------------------------------------------------------ spans

def test_self_time_subtracts_child_spans():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 5.0, 9.0),
        ("b", 2, 6.0, 7.0),
        ("d", -1, 11.0, 12.5),
    ]
    calls, self_s = tracing.summarize(spans)
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert self_s["a"] == pytest.approx(3.0)
    assert self_s["b"] == pytest.approx(4.0)
    assert self_s["c"] == pytest.approx(3.0)
    assert self_s["d"] == pytest.approx(1.5)
    assert tracing.count_under(spans, "b", "c") == 1
    assert tracing.count_under(spans, "b", "a") == 2


def test_tracer_sees_calls_through_rebound_names(tmp_path):
    import metaform.cli
    import metaform.persistence

    g = corpus.dangler(corpus.complete(5), 2, random.Random(0))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(corpus.doc(g)))
    original = metaform.cli.is_persistent
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert metaform.cli.is_persistent is metaform.persistence.is_persistent
        assert metaform.cli.is_persistent is not original
        code = metaform.cli.main(["check-persistence", str(path), "--dim", "2"])
    finally:
        tracer.uninstall()
    assert metaform.cli.is_persistent is original
    assert code == 1
    calls, _ = tracing.summarize(tracer.spans())
    assert calls["cli.main"] == calls["persistence.is_persistent"] == 1
    assert tracer.notes["terminals"] == corpus.terminal_count(g, 2)
    assert calls["rigidity.laman_check_2d"] >= tracer.notes["terminals"]
