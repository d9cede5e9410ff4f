"""Oracle-first 3D rigidity against the screen-first reference.

``rigid_3d_check`` lets the rank oracle decide and runs the necessary
screens only to name the witness of a not-rigid verdict, and
``generic_rank_oracle`` stops once a trial reaches the rank ceiling
(``test_rank_ceiling_differential.py`` checks where it stops).
The reference implementations below are the earlier screen-first check
and the all-trials oracle; both must give the same reports.  The
reference check runs the earlier screens too, from
``test_screens_differential.py``, and the reference oracle ranks the
whole matrix of each trial, so neither compares the module's screens or
its peeling with themselves.
"""
import itertools
import random

import pytest

from metaform import rigidity
from metaform.generate import banana
from metaform.graph import UndirectedView
from metaform.rigidity import (
    SPARSITY_3D_VERTEX_CAP,
    Placements,
    RigidityVerdict,
    SparsityParams,
    generic_rank_oracle,
    rank_mod_p,
    rigid_3d_check,
    rigidity_matrix_rows,
    rigidity_rank_once,
)

from test_screens_differential import (
    reference_sparsity_violation,
    reference_three_connectivity,
)


def reference_oracle(g, dim, seed=0, trials=3):
    """Max rank over every trial, with no early stop and no peeling: the
    whole rigidity matrix at each trial's placement."""
    col_of = {v: i for i, v in enumerate(g.vertices)}
    placements = Placements(seed, trials).of(g.vertices, dim)
    return max(
        rank_mod_p(rigidity_matrix_rows(g.edges, positions, col_of, dim))
        for positions in placements
    )


def reference_rigid_3d_check(g, seed=0, trials=3):
    """Screens first (3-connectivity, tight-count sparsity), then the oracle."""
    n = len(g.vertices)
    if n == 1:
        return RigidityVerdict(rigid=True, minimally_rigid=True)
    if n == 2:
        if len(g.edges) == 1:
            return RigidityVerdict(rigid=True, minimally_rigid=True)
        return RigidityVerdict(rigid=False, minimally_rigid=False, rank_deficit=(0, 1))
    target = 3 * n - 6
    if len(g.edges) < target:
        return RigidityVerdict(
            rigid=False,
            minimally_rigid=False,
            rank_deficit=(min(len(g.edges), target), target),
        )
    ok3, pair = reference_three_connectivity(g)
    if not ok3:
        return RigidityVerdict(rigid=False, minimally_rigid=False, separating_pair=pair)
    if len(g.edges) == target and n <= SPARSITY_3D_VERTEX_CAP:
        violation = reference_sparsity_violation(g, SparsityParams(3, 6))
        if violation is not None:
            return RigidityVerdict(
                rigid=False, minimally_rigid=False, violating_edges=violation
            )
    rank = reference_oracle(g, 3, seed=seed, trials=trials)
    rigid = rank == target
    minimally = rigid and len(g.edges) == target
    deficit = (rank, target) if (not rigid or not minimally) else None
    return RigidityVerdict(rigid=rigid, minimally_rigid=minimally, rank_deficit=deficit)


def view(vertices, edges):
    return UndirectedView(
        vertices=tuple(vertices),
        edges=tuple(sorted({(min(e), max(e)) for e in edges})),
    )


def grown(n, rng, base=1):
    """Vertex addition from a triangle: rigid, 3n-6 edges."""
    vs = list(range(base, base + 3))
    edges = list(itertools.combinations(vs, 2))
    for v in range(base + 3, base + n):
        edges += [(t, v) for t in rng.sample(vs, 3)]
        vs.append(v)
    return vs, edges


def four_bar(n, rng):
    """Tight count and 3-connected, but one edge is redundant: not rigid.

    A vertex-addition core on n-2 vertices gains the one edge that makes
    vertices 1-5 a K5; a hinge pair u, w is braced by two edges each
    plus u-w.
    """
    vs, edges = grown(n - 2, rng)
    have = {e for e in edges if 5 in e}
    edges += [(t, 5) for t in range(1, 5) if (t, 5) not in have][:1]
    u, w = n - 1, n
    targets = rng.sample(vs, 4)
    edges += [(t, u) for t in targets[:2]] + [(t, w) for t in targets[2:]]
    edges.append((u, w))
    return vs + [u, w], edges


def two_k5_hinge():
    """Two K5s sharing vertices 1 and 2: 19 >= 3n-6 edges, a 2-cut, not rigid."""
    left = itertools.combinations((1, 2, 3, 4, 5), 2)
    right = itertools.combinations((1, 2, 6, 7, 8), 2)
    return range(1, 9), set(left) | set(right)


def over_braced(n, extra, rng):
    vs, edges = grown(n, rng)
    missing = [p for p in itertools.combinations(vs, 2) if p not in set(edges)]
    return vs, edges + rng.sample(missing, extra)


def under_count(n, rng):
    vs, edges = grown(n, rng)
    return vs, rng.sample(edges, len(edges) - rng.randint(1, 3))


def random_dense(n, rng):
    """Random graph at 3n-6 +- 2 edges: a mix of every verdict kind."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m = min(len(pairs), 3 * n - 6 + rng.randint(-2, 2))
    return range(1, n + 1), rng.sample(pairs, m)


def corpus():
    rng = random.Random(20071017)
    graphs = {}
    for n in (4, 6, 9, 12, 14):
        graphs[f"grown-{n}"] = grown(n, rng)
    for n in (21, 25, 33):
        graphs[f"grown-{n}"] = grown(n, rng)
    for n in (8, 10, 13, 24):
        graphs[f"four-bar-{n}"] = four_bar(n, rng)
    b = banana()
    graphs["banana"] = (b.vertices, b.underlying().edges)
    graphs["two-k5-hinge"] = two_k5_hinge()
    for n, extra in ((5, 1), (9, 3), (14, 2), (22, 4)):
        graphs[f"over-braced-{n}"] = over_braced(n, extra, rng)
    fb = four_bar(11, rng)
    graphs["over-braced-four-bar-11"] = (fb[0], fb[1] + [(1, 10)])
    for n in (3, 7, 12, 23):
        graphs[f"under-count-{n}"] = under_count(n, rng)
    for i in range(12):
        graphs[f"random-{i}"] = random_dense(rng.randint(5, 9), rng)
    return {k: view(*g) for k, g in graphs.items()}


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verdict_matches_screen_first_reference(name):
    g = CORPUS[name]
    for seed in (0, 7):
        new = rigid_3d_check(g, seed=seed, trials=3)
        old = reference_rigid_3d_check(g, seed=seed, trials=3)
        assert new.to_dict() == old.to_dict()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_oracle_matches_all_trials_reference(name):
    g = CORPUS[name]
    for dim, seed, trials in itertools.product((2, 3), (0, 5), (1, 2, 3)):
        assert generic_rank_oracle(g, dim, seed=seed, trials=trials) == reference_oracle(
            g, dim, seed=seed, trials=trials
        )


def test_corpus_covers_every_verdict_kind():
    kinds = set()
    for g in CORPUS.values():
        d = rigid_3d_check(g).to_dict()
        kinds.add((d["rigid"], d["minimallyRigid"]) + tuple(sorted(set(d) - {"rigid", "minimallyRigid"})))
    assert (True, True) in kinds
    assert (True, False, "rankDeficit") in kinds
    assert (False, False, "separatingPair") in kinds
    assert (False, False, "violatingEdges") in kinds
    assert (False, False, "rankDeficit") in kinds


def test_rigid_verdict_runs_no_screen(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("screen ran on a rigid graph")

    monkeypatch.setattr(rigidity, "three_connectivity", forbidden)
    monkeypatch.setattr(rigidity, "sparsity_violation", forbidden)
    for name in ("grown-12", "grown-25", "over-braced-14"):
        assert rigid_3d_check(CORPUS[name]).rigid


def test_full_rank_stops_after_one_trial(monkeypatch):
    calls = []

    def counted(g, dim, positions, *adj):
        calls.append(dim)
        return rigidity_rank_once(g, dim, positions, *adj)

    monkeypatch.setattr(rigidity, "rigidity_rank_once", counted)
    assert generic_rank_oracle(CORPUS["grown-21"], 3, trials=3) == 3 * 21 - 6
    assert len(calls) == 1
    # Four-bar graphs peel to a K5 core, whose full rank is the ceiling;
    # the banana has no vertex to peel and keeps its hinge from it.
    calls.clear()
    assert generic_rank_oracle(CORPUS["four-bar-24"], 3, trials=3) == 3 * 24 - 7
    assert len(calls) == 1
    calls.clear()
    assert generic_rank_oracle(CORPUS["banana"], 3, trials=3) == 17
    assert len(calls) == 3
