"""Batched GF(p) rank tests against one elimination per matrix.

``batch_rank_mod_p`` ranks a whole (B, r, c) stack in one vectorized
elimination; the reference is ``rank_mod_p`` on each matrix.  3D
``is_persistent`` ranks terminals in batches: per trial, one
``reduce_mod_p`` call eliminates the base (the single-choice blocks) and
reduces the other blocks' edges against it, and each terminal ranks its
reduced edges.  A formation with one terminal goes to the rank oracle.
The reference is the earlier loop, one ``check_rigidity`` per terminal
in product order, stopping at the first that is not rigid.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaform import persistence, rigidity
from metaform.graph import Formation, UndirectedView
from metaform.persistence import (
    PersistenceVerdict,
    is_persistent,
    ledger,
    terminal_subgraphs,
)
from metaform.rigidity import (
    RANK_MODULUS,
    batch_rank_mod_p,
    check_rigidity,
    rank_mod_p,
    reduce_mod_p,
)

import persistence_reference
from conftest import back_braced, complete, count_calls, pair, singleton

P = RANK_MODULUS


@st.composite
def stacks(draw):
    """(B, r, c) int64 stacks with zero columns and planted dependent rows."""
    batch = draw(st.integers(0, 5))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    entries = st.one_of(
        st.integers(-3, 3), st.integers(0, P - 1), st.integers(-(2**40), 2**40)
    )
    a = np.array(
        draw(st.lists(entries, min_size=batch * rows * cols, max_size=batch * rows * cols)),
        dtype=np.int64,
    ).reshape(batch, rows, cols)
    for col in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=3)) if cols else []:
        a[:, :, col] = 0
    if rows >= 3:
        # Rows equal to combinations of two earlier rows, mod p.
        for _ in range(draw(st.integers(0, rows - 2))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            k = draw(st.integers(0, rows - 1))
            x, y = draw(st.integers(0, P - 1)), draw(st.integers(0, P - 1))
            a[:, k] = (x * (a[:, i] % P) % P + y * (a[:, j] % P) % P) % P
    return a


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_batch_rank_equals_rank_mod_p(a):
    got = batch_rank_mod_p(a)
    assert got.shape == (a.shape[0],)
    assert list(got) == [rank_mod_p(m) for m in a]


@settings(max_examples=200, deadline=None)
@given(stacks(), st.integers(0, 9))
def test_reduced_rows_add_their_rank_to_the_base(a, split):
    """Any subset of ``reduce_mod_p``'s reduced rows adds its own rank to
    the base's."""
    for m in a:
        base, extra = m[: min(split, len(m))], m[min(split, len(m)) :]
        rank, reduced = reduce_mod_p(base, extra)
        assert rank == rank_mod_p(base)
        assert reduced.shape == (len(extra), m.shape[1] - rank)
        for subset in (slice(None), slice(None, None, 2), slice(1, 3)):
            whole = np.concatenate((base, extra[subset]))
            assert rank + rank_mod_p(reduced[subset]) == rank_mod_p(whole)


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((0, 3, 4), dtype=np.int64),
        np.zeros((2, 0, 4), dtype=np.int64),
        np.zeros((2, 4, 0), dtype=np.int64),
        np.zeros((1, 3, 3), dtype=np.int64),
        np.eye(5, dtype=np.int64)[None],
        # Entries of p - 1 keep both products of the cross-multiplication
        # next to p^2.
        np.full((3, 6, 4), P - 1, dtype=np.int64) - np.eye(6, 4, dtype=np.int64),
        np.array([[[1, 2], [2, 4], [3, 6]], [[0, 1], [1, 0], [1, 1]]], dtype=np.int64),
    ],
)
def test_batch_rank_on_named_stacks(a):
    assert list(batch_rank_mod_p(a)) == [rank_mod_p(m) for m in a]


@pytest.mark.parametrize("shape", [(4, 3, 4), (4, 4, 3)])
def test_batch_rank_leaves_its_input_alone(shape):
    a = np.arange(48, dtype=np.int64).reshape(shape)
    before = a.copy()
    batch_rank_mod_p(a)
    assert (a == before).all()


def test_batch_rank_on_short_stacks_and_large_matrices():
    # One vectorized pass also ranks stacks of one matrix, and matrices
    # the size of an n = 80 rigidity matrix.
    rng = np.random.default_rng(0)
    for shape in ((1, 6, 6), (3, 6, 6), (2, 234, 240), (1, 240, 234)):
        a = rng.integers(-5, 5, size=shape)
        a[:, -1] = a[:, 0] + a[:, 1]
        assert list(batch_rank_mod_p(a)) == [rank_mod_p(m) for m in a]


def reference_is_persistent(f, dim, seed=0, trials=3):
    """One ``check_rigidity`` per terminal, in product order."""
    led = ledger(f, dim)
    witness = None
    for term in terminal_subgraphs(f, dim):
        view = UndirectedView(vertices=f.vertices, edges=term)
        if not check_rigidity(view, dim, seed=seed, trials=trials).rigid:
            witness = term
            break
    persistent = witness is None
    structurally = persistent and (dim == 2 or len(led.leaders) <= 1)
    minimally = persistent and check_rigidity(
        f.underlying(), dim, seed=seed, trials=trials
    ).minimally_rigid
    return PersistenceVerdict(
        persistent=persistent,
        structurally_persistent=structurally,
        minimally_persistent=minimally,
        ledger=led,
        witness_terminal=witness,
        witness_leaders=led.leaders if persistent and not structurally else None,
        seed=seed if dim == 3 else None,
    )


def digraph(n, edges):
    return Formation(vertices=tuple(range(1, n + 1)), edges=tuple(edges))


# Not persistent in 3D with enough edges in every terminal, so the rank
# oracle decides; found by random search.  The comment gives the witness
# index among the terminals.
FIRST_FAILS = digraph(7, [  # witness 0 of 16
    (1, 2), (3, 2), (1, 7), (5, 3), (1, 5), (1, 3), (4, 1), (4, 6), (4, 2),
    (6, 1), (6, 7), (2, 6), (6, 5), (4, 3), (3, 6), (2, 7), (5, 2),
])
SIXTH_FAILS = digraph(7, [  # witness 5 of 40
    (6, 2), (5, 2), (2, 4), (1, 4), (6, 5), (2, 1), (4, 7), (6, 3), (4, 5),
    (7, 3), (6, 4), (7, 6), (2, 3), (5, 7), (4, 3), (6, 1), (7, 2), (7, 1),
])
LAST_FAILS = digraph(7, [  # witness 15 of 16
    (4, 5), (4, 3), (2, 6), (5, 6), (7, 4), (5, 3), (5, 2), (6, 4), (3, 6),
    (4, 2), (6, 7), (5, 1), (7, 2), (1, 2), (4, 1), (1, 7), (3, 7), (2, 3),
])
# Two multi-choice blocks: in product order (last block fastest) the
# first failing terminal is the third; numbered with the first block
# fastest, it would be the thirteenth.
THIRD_FAILS = digraph(7, [  # witness 2 of 16
    (4, 6), (5, 7), (1, 4), (1, 6), (5, 6), (1, 5), (1, 2), (7, 4), (4, 5),
    (3, 5), (6, 2), (4, 3), (3, 7), (3, 2), (3, 1), (7, 6), (7, 1),
])
# Cyclic: peels nothing, so all 160 terminals are the core's.
LATE_FAILS = digraph(8, [  # witness 57 of 160
    (1, 2), (1, 5), (1, 8), (2, 4), (2, 5), (2, 8), (3, 1), (3, 2), (4, 1),
    (4, 3), (4, 5), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8), (6, 1), (6, 3),
    (6, 4), (6, 7), (7, 1), (7, 2), (7, 3), (7, 8), (8, 6),
])
# K5 plus a vertex w with two edges into it and a vertex u with three
# edges into K5 and one to w: every terminal is one edge short.
EDGE_COUNT_SHORT = Formation(
    vertices=tuple(range(1, 8)),
    edges=tuple((j, i) for i in range(1, 6) for j in range(1, 6) if j > i)
    + ((6, 1), (6, 2), (7, 3), (7, 4), (7, 5), (7, 6)),
)

def vertex_addition(n, braced, seed):
    """K4, then vertices with three out-edges to earlier ones (``braced`` with four).

    Persistent in 3D, with 4 ** braced terminals.
    """
    rng = random.Random(seed)
    edges = [(j, i) for i in range(1, 5) for j in range(1, 5) if j > i]
    for v, k in zip(range(5, n + 1), [4] * braced + [3] * n):
        edges += [(v, t) for t in sorted(rng.sample(range(1, v), k))]
    return digraph(n, edges)


def braced(f):
    """``f`` under three vertices with out-edges to its three highest ids,
    then back-braced: persistent, and nothing peels, so the core keeps
    every vertex and ``f``'s terminals."""
    vertices, edges = list(f.vertices), list(f.edges)
    for v in range(max(vertices) + 1, max(vertices) + 4):
        edges += [(v, h) for h in sorted(vertices)[-3:]]
        vertices.append(v)
    return back_braced(Formation(vertices=tuple(vertices), edges=tuple(edges)), 3)


# (formation, terminals per batch, witness index or None)
CASES = {
    "first-fails": (FIRST_FAILS, None, 0),
    "first-fails-batch-1": (FIRST_FAILS, 1, 0),
    "sixth-fails-last-of-batch": (SIXTH_FAILS, 6, 5),
    "sixth-fails-first-of-batch": (SIXTH_FAILS, 5, 5),
    "sixth-fails-one-batch": (SIXTH_FAILS, None, 5),
    "last-fails-last-of-batch": (LAST_FAILS, 4, 15),
    "last-fails-first-of-batch": (LAST_FAILS, 15, 15),
    "last-fails-one-batch": (LAST_FAILS, None, 15),
    "third-fails-one-batch": (THIRD_FAILS, None, 2),
    "third-fails-mid-batch": (THIRD_FAILS, 4, 2),
    "edge-count-short": (EDGE_COUNT_SHORT, 2, 0),
    "late-fails-mid-batch": (LATE_FAILS, 8, 57),
    "late-fails-first-of-batch": (LATE_FAILS, 57, 57),
    "late-fails-one-batch": (LATE_FAILS, None, 57),
    "K6": (complete(6), 7, None),
    "K6-one-batch": (complete(6), None, None),
    "K4": (complete(4), None, None),
    "singleton": (singleton(1), None, None),
    "pair": (pair(1, 2), None, None),
    "two-apart": (Formation(vertices=(1, 2)), None, 0),
    # Large terminals: the one goes to the rank oracle, the sixteen share
    # one base.
    "one-terminal-n30": (vertex_addition(30, 0, 1), None, None),
    "sixteen-terminals-n24": (vertex_addition(24, 2, 2), None, None),
    # The five cases above peel to a triangle; braced, their cores keep
    # the lone terminal and split many terminals across batches.
    "K4-braced": (braced(complete(4)), None, None),
    "K6-braced": (braced(complete(6)), 7, None),
    "K6-braced-one-batch": (braced(complete(6)), None, None),
    "one-terminal-n30-braced": (back_braced(vertex_addition(30, 0, 1), 3), None, None),
    "sixteen-terminals-n24-braced": (back_braced(vertex_addition(24, 2, 2), 3), 5, None),
}

# Case: (vertices left after the peel, terminals).
KEPT_CORES = {
    "late-fails-mid-batch": (8, 160),
    "K4-braced": (7, 1),
    "K6-braced": (9, 40),
    "one-terminal-n30-braced": (26, 1),
    "sixteen-terminals-n24-braced": (18, 16),
}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_is_persistent_3d_matches_per_terminal_loop(monkeypatch, name, seed, trials):
    f, per_batch, witness = CASES[name]
    terminals = terminal_subgraphs(f, 3)
    if per_batch is not None:
        monkeypatch.setattr(persistence, "TERMINAL_BATCH_SIZE", per_batch)
    expected = reference_is_persistent(f, 3, seed=seed, trials=trials)
    index = None
    if expected.witness_terminal is not None:
        index = list(terminals).index(expected.witness_terminal)
    assert index == witness
    assert is_persistent(f, 3, seed=seed, trials=trials).to_dict() == expected.to_dict()


@pytest.mark.parametrize("name", sorted(KEPT_CORES))
def test_cores_are_kept_and_split_across_batches(name):
    f, per_batch, _ = CASES[name]
    assert (len(f.vertices) - len(persistence._peeled(f, 3)), len(terminal_subgraphs(f, 3))) == (
        KEPT_CORES[name]
    )
    # A many-terminal core is split across several batches.
    assert per_batch is None or len(terminal_subgraphs(f, 3)) > 2 * per_batch


def test_one_terminal_formation_goes_to_the_rank_oracle(monkeypatch):
    # Back-braced, it peels to a 26-vertex core, whose one terminal is
    # far from complete.
    f = CASES["one-terminal-n30-braced"][0]
    assert len(terminal_subgraphs(f, 3)) == 1
    expected = reference_is_persistent(f, 3).to_dict()
    oracle = count_calls(monkeypatch, "generic_rank_oracle", rigidity.generic_rank_oracle)

    def refuse(a):
        raise AssertionError("batched elimination of a lone terminal")

    for module in (rigidity, persistence):
        monkeypatch.setattr(module, "batch_rank_mod_p", refuse)
    assert is_persistent(f, 3).to_dict() == expected
    assert len(oracle) == 1
    assert len(oracle[0][0].vertices) == 26


def test_3d_terminals_are_not_checked_one_by_one(monkeypatch):
    checked = count_calls(monkeypatch, "check_rigidity", rigidity.check_rigidity)
    oracle = count_calls(monkeypatch, "generic_rank_oracle", rigidity.generic_rank_oracle)
    # K6: vertices 6, 5 and 4 peel away as vertex additions, and the
    # 3-vertex core is a complete triangle, rigid without the rank
    # oracle.  K6 braced: nothing peels, and the 40 terminals are ranked
    # in batches against one reduced base.  Neither checks the whole formation:
    # minimal persistence is its edge count.
    assert is_persistent(complete(6), 3).persistent
    assert is_persistent(CASES["K6-braced"][0], 3).persistent
    assert checked == []
    assert oracle == []


def under_additions(f, count=3):
    """``f`` under ``count`` vertices, each with 4 out-edges to the
    vertices before it: they peel away, and ``f`` is the core."""
    vertices, edges = list(f.vertices), list(f.edges)
    for v in range(max(vertices) + 1, max(vertices) + 1 + count):
        edges += [(v, h) for h in sorted(vertices)[-4:]]
        vertices.append(v)
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


# K4 oriented so that every vertex has an in-edge: nothing peels.
CYCLIC_K4 = digraph(4, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (4, 3)])
# The same without the pair {2, 4}: 5 edges, one short of 3n - 6.
CYCLIC_K4_LESS_ONE = digraph(4, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 3)])
# K4 less the pair {1, 2}, oriented high to low: 4 peels, and the core
# 1, 2, 3 keeps 2 edges.
K4_LESS_ONE = digraph(4, [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])

# Case: (formation, core size, witness index or None).
SMALL_CORES = {
    "singleton": (singleton(1), 1, None),
    "pair": (pair(1, 2), 2, None),
    "two-apart": (Formation(vertices=(1, 2)), 2, 0),
    "K3": (complete(3), 3, None),
    "K6": (complete(6), 3, None),
    "K4-less-one": (K4_LESS_ONE, 3, 0),
    "K4-less-one-under-additions": (under_additions(K4_LESS_ONE), 3, 0),
    "cyclic-K4": (CYCLIC_K4, 4, None),
    "cyclic-K4-under-additions": (under_additions(CYCLIC_K4), 4, None),
    "cyclic-K4-less-one": (CYCLIC_K4_LESS_ONE, 4, 0),
    "cyclic-K4-less-one-under-additions": (under_additions(CYCLIC_K4_LESS_ONE), 4, 0),
}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(SMALL_CORES))
def test_small_cores_are_decided_without_the_rank_oracle(monkeypatch, name, seed, trials):
    """A 3D core of at most 4 vertices is complete, and rigid, when it has
    3n - 6 edges, and short of them otherwise.  The reports equal both
    references: the whole-product walk and one ``check_rigidity`` per
    terminal, which run the rank oracle on the whole formation."""
    f, core, witness = SMALL_CORES[name]
    assert len(f.vertices) - len(persistence._peeled(f, 3)) == core
    expected = reference_is_persistent(f, 3, seed=seed, trials=trials)
    index = None
    if expected.witness_terminal is not None:
        index = list(terminal_subgraphs(f, 3)).index(expected.witness_terminal)
    assert index == witness
    walked = persistence_reference.reference_is_persistent(f, 3, seed=seed, trials=trials)
    assert walked.to_dict() == expected.to_dict()
    oracle = count_calls(monkeypatch, "generic_rank_oracle", rigidity.generic_rank_oracle)
    reduced = count_calls(monkeypatch, "reduce_mod_p", rigidity.reduce_mod_p)
    assert is_persistent(f, 3, seed=seed, trials=trials).to_dict() == expected.to_dict()
    assert oracle == [] and reduced == []
