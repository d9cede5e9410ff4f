"""Peeled rank-oracle trials against the whole rigidity matrix.

``rigidity_rank_once`` first peels each vertex of degree at most dim
whose own rows, restricted to its own columns, are independent mod p,
certifies what is left at its ceiling when it can, and ranks it with
``rank_mod_p`` only when it cannot.  The reference ranks
the whole matrix at each trial's placement (``Placements``, the
same draws).  The two must agree on every trial, not only on the
oracle's maximum.  Coordinates from {1..k} with k in 2..5 make singular
blocks common, so the path that keeps a vertex in the remainder runs
too.  The graphs include remainders the certificate decides
(vertex-addition graphs braced at their leader, K_n, four-bar graphs)
and ones where it gives up (the banana, two K5s on a hinge, random
dense graphs); a wrong certificate would report the ceiling where the
rank is lower.
"""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaform import rigidity
from metaform.generate import banana
from metaform.graph import UndirectedView
from metaform.rigidity import (
    RANK_MODULUS,
    Placements,
    _independent_at,
    generic_rank_oracle,
    rank_mod_p,
    required_rank,
    rigidity_matrix_rows,
    rigidity_rank_once,
)

from test_rigidity_differential import four_bar, grown, random_dense, two_k5_hinge, view

P = RANK_MODULUS
TRIALS = 3
COORD_RANGES = [2, 3, 4, 5, 2**20]


def reference_ranks(g, dim, seed):
    """Rank of the whole matrix at each trial's placement, no peeling."""
    col_of = {v: i for i, v in enumerate(g.vertices)}
    return [
        rank_mod_p(rigidity_matrix_rows(g.edges, positions, col_of, dim))
        for positions in Placements(seed, TRIALS).of(g.vertices, dim)
    ]


def peeled_ranks(g, dim, seed):
    placements = Placements(seed, TRIALS).of(g.vertices, dim)
    return [rigidity_rank_once(g, dim, positions) for positions in placements]


def grown_2d(n, rng):
    """2D vertex addition from one edge: each new vertex takes 2 edges."""
    vs = [1, 2]
    edges = [(1, 2)]
    for v in range(3, n + 1):
        edges += [(t, v) for t in rng.sample(vs, 2)]
        vs.append(v)
    return vs, edges


def braced(n, k, dim, rng):
    """A vertex-addition graph whose leader, vertex 1, gets k <= n - dim - 1
    more edges: rigid, and every vertex from the first braced one on
    stays in the peel's remainder.  Vertices past the first dim + 1 join
    dim earlier ones other than the leader, which leaves it free
    vertices to brace."""
    vs = list(range(1, dim + 2))
    edges = list(itertools.combinations(vs, 2))
    for v in range(dim + 2, n + 1):
        edges += [(t, v) for t in rng.sample(vs[1:], dim)]
        vs.append(v)
    return vs, edges + [(1, w) for w in rng.sample(vs[dim + 1 :], k)]


def dense(n, density, rng):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return range(1, n + 1), [e for e in pairs if rng.random() < density]


def shuffled(vs, edges, rng):
    vs = list(vs)
    rng.shuffle(vs)
    return vs, edges


def cases():
    rng = random.Random(19851001)
    graphs = {
        "single-vertex": ((7,), ()),
        "isolated-vertices": (range(1, 6), ()),
        "one-edge-and-isolated": (range(1, 5), [(2, 3)]),
        "path": (range(1, 9), [(i, i + 1) for i in range(1, 8)]),
        "star": (range(1, 9), [(1, i) for i in range(2, 9)]),
        "banana": (banana().vertices, banana().underlying().edges),
        "two-k5-hinge": two_k5_hinge(),
    }
    for n in range(4, 13):
        graphs[f"k{n}"] = (range(1, n + 1), itertools.combinations(range(1, n + 1), 2))
    k6 = list(itertools.combinations(range(1, 7), 2))
    graphs["k6-with-pendants-and-isolated"] = (
        range(1, 11), k6 + [(1, 7), (7, 8), (2, 9), (3, 9)]
    )
    for n in (4, 20, 60, 120):
        graphs[f"grown-{n}"] = grown(n, rng)
    graphs["grown-40-shuffled"] = shuffled(*grown(40, rng), rng)
    for n in (5, 30, 120):
        graphs[f"grown-2d-{n}"] = grown_2d(n, rng)
    for n in (8, 13, 24, 56):
        graphs[f"four-bar-{n}"] = four_bar(n, rng)
    vs, edges = grown(30, rng)
    graphs["grown-30-with-k6-core"] = (vs, sorted(set(edges) | set(k6)))
    rng = random.Random(1985)
    for dim, n, k in itertools.product((2, 3), (8, 12, 20), (1, 2, 3, 4)):
        graphs[f"braced-{dim}d-{n}-{k}"] = braced(n, k, dim, rng)
    for i in range(6):
        graphs[f"random-dense-{i}"] = random_dense(rng.randint(6, 12), rng)
    for i, density in enumerate((0.5, 0.7, 0.9)):
        graphs[f"dense-{density}"] = dense(9 + 3 * i, density, rng)
    return {name: view(*g) for name, g in graphs.items()}


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("coord_range", COORD_RANGES)
def test_every_trial_matches_the_whole_matrix(name, coord_range, monkeypatch):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    g = CASES[name]
    for dim, seed in itertools.product((2, 3), (0, 11)):
        assert peeled_ranks(g, dim, seed) == reference_ranks(g, dim, seed)


@st.composite
def graphs(draw):
    """Up to 40 vertices in a random order: a braced vertex-addition graph,
    or a random graph from sparse to dense, so that some graphs peel
    away, some peel only in part and some not at all."""
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if n >= 8 and draw(st.booleans()):
        vs, edges = braced(n, draw(st.integers(1, 4)), draw(st.sampled_from([2, 3])), rng)
    else:
        vs, edges = dense(n, draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.9])), rng)
    vertices = tuple(draw(st.permutations(list(vs))))
    return UndirectedView(vertices, tuple(sorted({(min(e), max(e)) for e in edges})))


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(),
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    coord_range=st.sampled_from(COORD_RANGES),
)
def test_random_graphs_match_the_whole_matrix(g, dim, seed, coord_range):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "COORD_RANGE", coord_range)
        assert peeled_ranks(g, dim, seed) == reference_ranks(g, dim, seed)


@pytest.mark.parametrize("coord_range", [2, 3, 4, 5])
def test_small_coordinates_reach_singular_blocks(coord_range, monkeypatch):
    """Some low-degree vertices stay in the remainder, and ranks still match.

    The 3D closed form for three neighbours, the 3x3 determinant, answers
    both ways."""
    verdicts = []

    def spy(p, qs):
        verdict = _independent_at(p, qs)
        if len(p) == 3 and len(qs) == 3:
            verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    monkeypatch.setattr(rigidity, "_independent_at", spy)
    rng = random.Random(coord_range)
    for seed in range(40):
        n = rng.randint(4, 12)
        dim = rng.choice((2, 3))
        pairs = list(itertools.combinations(range(n), 2))
        g = view(range(n), rng.sample(pairs, rng.randint(n - 1, len(pairs))))
        assert peeled_ranks(g, dim, seed) == reference_ranks(g, dim, seed)
    assert True in verdicts and False in verdicts


def test_vertex_addition_peels_away_without_elimination(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a vertex-addition graph reached rank_mod_p")

    monkeypatch.setattr(rigidity, "rank_mod_p", forbidden)
    g = view(*grown(80, random.Random(80)))
    assert generic_rank_oracle(g, 3) == required_rank(3, 80)
    g2 = view(*grown_2d(80, random.Random(80)))
    assert generic_rank_oracle(g2, 2) == required_rank(2, 80)


def eliminated_shapes(monkeypatch):
    """The shape of every matrix ``rank_at`` hands to ``rank_mod_p``."""
    shapes = []

    def spy(matrix):
        shapes.append(matrix.shape)
        return rank_mod_p(matrix)

    monkeypatch.setattr(rigidity, "rank_mod_p", spy)
    return shapes


@pytest.mark.parametrize("n", [5, 8, 12])
def test_complete_graph_does_not_peel(n, monkeypatch):
    """K_n peels nothing (every degree is n - 1 > 3), and the certificate
    drops n - 4, n - 5, ..., 1 rows, as many as |E| exceeds 3n - 6: its
    whole matrix reaches the ceiling with no ``rank_mod_p`` call."""
    shapes = eliminated_shapes(monkeypatch)
    g = view(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))
    assert generic_rank_oracle(g, 3) == required_rank(3, n)
    assert shapes == []


def test_banana_sends_its_whole_matrix_at_every_trial(monkeypatch):
    """The double banana has 18 = 3n - 6 edges, so the certificate may
    drop no row, and every vertex has 4 or more: it gives up at its first
    vertex, and each of the three trials, all short of rank 18, ranks the
    whole (18, 24) matrix."""
    shapes = eliminated_shapes(monkeypatch)
    g = CASES["banana"]
    assert generic_rank_oracle(g, 3) == 17
    assert shapes == [(18, 24)] * 3


def independent(p, rows):
    """``_independent_at`` on the rows ``rows``, given as the vertex's
    point ``p`` and the points p - row."""
    return _independent_at(tuple(p), [tuple(x - r for x, r in zip(p, row)) for row in rows])


@pytest.mark.parametrize(
    "rows, independent_rows",
    [
        ([], True),
        ([[0, 0]], False),
        ([[P, -P, 2 * P]], False),
        ([[0, 0, 1]], True),
        ([[1, 2], [2, 4]], False),
        ([[1, 0], [0, P]], False),
        ([[1, 0], [0, 1]], True),
        ([[1, 2, 3], [2, 4, 6 + P]], False),
        ([[1, 2, 3], [2, 4, 7]], True),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], False),
        ([[1, 0, 0], [0, 1, 0], [0, 0, P]], False),
        ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], True),
    ],
)
def test_block_independence_cases(rows, independent_rows):
    for dim, at in itertools.product({len(row) for row in rows} or (2, 3), (0, 5, -P)):
        assert independent((at,) * dim, rows) is independent_rows


@st.composite
def blocks(draw):
    """A vertex's point and up to dim rows on its columns."""
    dim = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(0, dim))
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**20), 2**20),
        st.integers(-3, 3).map(lambda k: k * P),
    )
    p = draw(st.lists(entry, min_size=dim, max_size=dim))
    return p, [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in range(d)]


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_block_independence_matches_rank_mod_p(block):
    p, rows = block
    expected = not rows or rank_mod_p(np.array(rows, dtype=np.int64)) == len(rows)
    assert independent(p, rows) is expected
