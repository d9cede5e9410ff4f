"""3D ``minimally_rigid_spanning`` against its earlier trial loop.

The spanning set is the pivot columns of one ``_eliminate`` call per
trial on the transposed rigidity matrix.  Before that it kept rows
greedily in edge order, one numpy ``IncrementalRank`` per trial, and
before that it read the edges each trial's ``FixedBaseRank`` basis
kept.  The reference is the earlier loop, kept here on
``incremental_rank_reference``'s copy of that ``IncrementalRank``: per
trial, it takes the fixed edges, failing at the first dependent one,
then the rest greedily until full rank.  Both must return the same
edges, or raise the same exception with the same message, also at
coordinate ranges small enough that placements are often degenerate,
on small random graphs and on grown, over-braced, back-braced,
banana-grown and four-bar graphs up to n = 120.
Fixed edge sets are no longer a parameter (a merge decision keeps its
gadgets with ``BodyBarRank``), so the cases with them run against
``merge_reference``'s copy of the earlier ``minimally_rigid_spanning``.
"""
import itertools
import random

import pytest

from metaform import rigidity
from metaform.errors import InputError, NotRigidError
from metaform.graph import UndirectedView
from metaform.rigidity import (
    minimally_rigid_spanning,
    required_rank,
    rigidity_matrix_rows,
)

import merge_reference
from incremental_rank_reference import IncrementalRank
from test_rigidity_metamorphic import KINDS, build


def reference_spanning(g, fixed=(), seed=0, trials=3):
    """The earlier 3D loop of ``minimally_rigid_spanning``."""
    edges = set(g.edges)
    fixed_edges = []
    for group in fixed:
        for e in group:
            ne = (min(e), max(e))
            if ne not in edges:
                raise InputError(f"fixed edge {e} not in graph")
            fixed_edges.append(ne)
    target = required_rank(3, len(g.vertices))
    rest = [e for e in g.edges if e not in set(fixed_edges)]
    if trials < 1:
        raise InputError("trials must be >= 1")
    col_of = {v: i for i, v in enumerate(g.vertices)}
    last_error = None
    placements = merge_reference.trial_placements(g.vertices, 3, seed)
    for positions in itertools.islice(placements, trials):
        inc = IncrementalRank(3 * len(g.vertices))
        chosen = []
        ok = True
        for e in fixed_edges:
            if not inc.try_add(rigidity_matrix_rows([e], positions, col_of, 3)[0]):
                ok = False
                last_error = f"fixed edge sets are not independent (at {e})"
                break
            chosen.append(e)
        if not ok:
            continue
        for e in rest:
            if inc.rank == target:
                break
            if inc.try_add(rigidity_matrix_rows([e], positions, col_of, 3)[0]):
                chosen.append(e)
        if inc.rank == target:
            return tuple(chosen)
        last_error = "graph is not rigid in 3D"
    if "independent" in last_error:
        raise InputError(last_error)
    raise NotRigidError(last_error)


def outcome(spanning, *args, **kwargs):
    try:
        return "spanning", spanning(*args, **kwargs)
    except (InputError, NotRigidError) as exc:
        return type(exc), str(exc)


def random_case(rng):
    """A random graph on n <= 9 vertices, and fixed edge sets for it: the
    edges induced on some disjoint vertex groups, which may be dependent."""
    n = rng.randint(1, 9)
    vertices = tuple(rng.sample(range(1, 30), n))
    pairs = list(itertools.combinations(vertices, 2))
    g = UndirectedView(vertices, tuple(rng.sample(pairs, rng.randint(0, len(pairs)))))
    order = list(vertices)
    rng.shuffle(order)
    groups, start = [], 0
    while start < n:
        size = rng.randint(2, 5)
        group = set(order[start : start + size])
        groups.append(tuple(e for e in g.edges if e[0] in group and e[1] in group))
        start += size
    return g, tuple(grp for grp in groups if grp and rng.random() < 0.7)


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
def test_spanning_matches_trial_loop(monkeypatch, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    rng = random.Random(coord_range)
    kinds = set()
    for _ in range(200):
        g, fixed = random_case(rng)
        for trials in (1, 3):
            expected = outcome(reference_spanning, g, trials=trials)
            assert outcome(minimally_rigid_spanning, g, 3, trials=trials) == expected, g
            kinds.add(expected[0])
            expected = outcome(reference_spanning, g, fixed, trials=trials)
            got = outcome(merge_reference.minimally_rigid_spanning, g, 3, fixed, trials=trials)
            assert got == expected, (g, fixed, trials)
            kinds.add(expected[0])
    assert kinds == {"spanning", InputError, NotRigidError}


@pytest.mark.parametrize("trials", [1, 3])
def test_repeated_fixed_edge_is_dependent(trials):
    g = UndirectedView((1, 2, 3, 4), tuple(itertools.combinations((1, 2, 3, 4), 2)))
    fixed = (((1, 2), (1, 3)), ((2, 1),))
    expected = outcome(reference_spanning, g, fixed, trials=trials)
    assert expected == (InputError, "fixed edge sets are not independent (at (1, 2))")
    got = outcome(merge_reference.minimally_rigid_spanning, g, 3, fixed=fixed, trials=trials)
    assert got == expected


def over_braced(n, rng):
    """Grown, then n // 4 more edges, each at a random place in the edge
    list, so redundant rows come before some of the rows they depend on."""
    vs, edges = build("grown", n, rng)
    joined = {frozenset(e) for e in edges}
    free = [p for p in itertools.combinations(vs, 2) if frozenset(p) not in joined]
    for e in rng.sample(free, n // 4):
        edges.insert(rng.randrange(len(edges) + 1), e)
    return vs, edges


def large_graphs():
    """Rigid (grown, over-braced, back-braced) and not rigid (banana-grown,
    four-bar) graphs up to n = 120, with the seed of their trials."""
    rng = random.Random(20261019)
    graphs = {}
    for n in (20, 60, 120):
        graphs[f"over-braced-{n}"] = over_braced(n, rng)
        for kind in KINDS:
            graphs[f"{kind}-{n}"] = build(kind, n, rng)
    return {
        name: (UndirectedView(tuple(vs), tuple((min(e), max(e)) for e in edges)), rng.randrange(100))
        for name, (vs, edges) in graphs.items()
    }


LARGE = large_graphs()


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
def test_large_spanning_matches_trial_loop(monkeypatch, coord_range):
    """The pivot columns of the transposed matrix are the greedy edges, on
    graphs too large for the random cases; not-rigid graphs raise the same
    ``NotRigidError``."""
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    kinds = set()
    for name, (g, seed) in LARGE.items():
        expected = outcome(reference_spanning, g, seed=seed)
        assert outcome(minimally_rigid_spanning, g, 3, seed=seed) == expected, name
        kinds.add(expected[0])
    assert NotRigidError in kinds
    if coord_range == 2**20:
        assert "spanning" in kinds
