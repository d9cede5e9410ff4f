"""``BodyBarRank`` against the earlier fixed-base leaf test and merge greedy.

The 3D head search ranks a leaf (an inter-edge set between two rigid
members) with a two-body ``BodyBarRank``: each member is ranked once per
trial, and the leaf hits when all its bars are kept, that is when its
Plücker lines are independent mod p.  The reference,
``fixed_base_reference.ReferenceRank``, reduces both members' rows
into one basis per trial and ranks each leaf's reduced rows; it gives the
rank oracle's verdict on the merged graph.  Both, and
``merge_reference.TwoBodyRank`` (the earlier two-body test), must name
the same first full-rank leaf on every case.

With k bodies, the bars ``BodyBarRank`` keeps are those the earlier
merge decision selected: ``merge_reference.minimally_rigid_spanning``
with each body's edges as a fixed set, at the first trial where every
fixed edge and the full rank are kept.  Its bars are kept by one
``IncrementalRank`` per trial, and they are the bars the earlier
list-based ``_greedy_independent`` kept at the same trials.

Members are singletons, pairs, vertex-addition members of 3-7 vertices,
K5, leader-braced members, and folded members, two members joined by
their pair plan's inter-edges as ``plan_collection``'s fold builds them.  Leaves are random
sets of exactly the pair's required number of inter-edges, in either
direction.  Coordinates from a small range place a member degenerately at
some trials, where the reference's base falls short of full rank and
every leaf is skipped; some leaf reaches full rank only at a later trial.
"""
import random

import pytest

from metaform import rigidity
from metaform.errors import InfeasibleMergeError, InputError, NotRigidError
from metaform.graph import Formation, UndirectedView
from metaform.planner import _required_pair_edges, plan_pair
from metaform.rigidity import BodyBarRank, minimally_rigid_spanning

import merge_reference
from fixed_base_reference import ReferenceRank
from incremental_rank_reference import _greedy_independent
from test_head_screen_differential import MEMBER_KINDS, member


def folded(rng, base):
    """Two members joined by their pair plan, as ``plan_collection``'s fold
    builds its partial result, on ids base, base + 1, ..."""
    while True:
        ga = member(rng, base)
        gb = member(rng, base + len(ga.vertices))
        try:
            plan = plan_pair(ga, gb, 3)
        except InfeasibleMergeError:
            continue
        return Formation(
            vertices=ga.vertices + gb.vertices,
            edges=ga.edges + gb.edges + plan.edge_pairs(),
        )


def random_leaves(rng, ga, gb, count):
    """``count`` sets of the required number of distinct inter-edges, each
    edge pointing either way."""
    required = _required_pair_edges(len(ga.vertices), len(gb.vertices), 3)
    pairs = [(a, b) for a in ga.vertices for b in gb.vertices]
    return [
        [(a, b) if rng.random() < 0.5 else (b, a) for a, b in rng.sample(pairs, required)]
        for _ in range(count)
    ]


def cases(count):
    """Every kind of first member against every kind of second, in turn."""
    out = []
    for i in range(count):
        rng = random.Random(f"two-body:{i}")
        kind_a = (MEMBER_KINDS + ("folded",))[i % 6]
        ga = folded(rng, 1) if kind_a == "folded" else member(rng, 1, kind_a)
        gb = member(rng, len(ga.vertices) + 1, MEMBER_KINDS[i // 6 % 5])
        out.append((ga, gb, random_leaves(rng, ga, gb, 6), i, rng.randint(1, 3)))
    return out


CASES = cases(120)


@pytest.mark.parametrize("coord_range", [2, 3, 4, 7, 2**20])
def test_two_body_rank_matches_the_reference(monkeypatch, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    skipped = hits = later_only = 0
    for ga, gb, leaves, seed, trials in CASES:
        merged = Formation(vertices=ga.vertices + gb.vertices, edges=ga.edges + gb.edges)
        ref = ReferenceRank(merged.underlying(), 3, seed=seed, trials=trials)
        expected = ref.first_full_rank(leaves)
        got = BodyBarRank((ga.underlying(), gb.underlying()), 3, seed=seed, trials=trials)
        kept = [got.independent_bars(leaf) for leaf in leaves]
        assert next((k for k, bars in enumerate(kept) if bars), None) == expected
        assert all(bars in (None, tuple(leaf)) for bars, leaf in zip(kept, leaves))
        two = merge_reference.TwoBodyRank(ga.underlying(), gb.underlying(), seed, trials)
        assert two.first_full_rank(leaves) == expected
        required = len(leaves[0])
        skipped += sum(
            ref.trial(t).basis.rank < ref.target - required for t in range(trials)
        )
        if expected is not None:
            hits += 1
            first = ReferenceRank(merged.underlying(), 3, seed=seed, trials=1)
            later_only += first.first_full_rank([leaves[expected]]) is None
    assert hits >= 1
    if coord_range < 2**20:
        # Degenerate placements: some trial skips every leaf, and some hit
        # comes only from a later trial.
        assert skipped >= 1 and later_only >= 1


def gadget(f):
    """A member as ``check-meta`` ranks it: a minimally rigid spanning
    subgraph of its edges from 3 vertices up, its edges below."""
    g = f.underlying()
    return g if len(g.vertices) < 3 else UndirectedView(g.vertices, minimally_rigid_spanning(g, 3))


def reference_bars(bodies, bars, seed, trials):
    """The bars the earlier merge decision kept, or None where it found no
    trial with every fixed edge kept and full rank."""
    vertices = tuple(v for g in bodies for v in g.vertices)
    fixed = tuple(g.edges for g in bodies)
    g = UndirectedView(vertices, tuple(e for f in fixed for e in f) + tuple(bars))
    try:
        spanning = set(merge_reference.minimally_rigid_spanning(g, 3, fixed, seed, trials))
    except (InputError, NotRigidError):
        return None
    return tuple(e for e in bars if (min(e), max(e)) in spanning)


def k_body_cases(count):
    """Two to four bodies, built at the default coordinate range, and bars
    between them around the merge bound, in random order and direction."""
    out = []
    for i in range(count):
        rng = random.Random(f"k-bodies:{i}")
        members, base = [], 1
        for _ in range(rng.randint(2, 4)):
            members.append(member(rng, base, MEMBER_KINDS[rng.randrange(5)]))
            base += len(members[-1].vertices)
        bodies = [gadget(f) for f in members]
        pairs = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for j, ga in enumerate(bodies)
            for gb in bodies[j + 1 :]
            for a in ga.vertices
            for b in gb.vertices
        ]
        target = BodyBarRank(bodies, 3).target
        bars = rng.sample(pairs, min(len(pairs), max(1, target + rng.randint(-2, 4))))
        out.append((bodies, bars, i, rng.randint(1, 3)))
    return out


K_BODY_CASES = k_body_cases(150)


@pytest.mark.parametrize("coord_range", [2, 3, 2**20])
def test_k_bodies_keep_the_merge_greedy_subset(monkeypatch, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    found = set()
    for bodies, bars, seed, trials in K_BODY_CASES:
        got = BodyBarRank(bodies, 3, seed=seed, trials=trials).independent_bars(bars)
        assert got == reference_bars(bodies, bars, seed, trials)
        found.add(got is not None)
    assert found == {True, False}


def list_greedy_bars(ranker, bars):
    """``independent_bars`` as it was, on the earlier list-based greedy."""
    bars = tuple(bars)
    for positions in ranker._trials():
        rows = (ranker._row(positions, e) for e in bars)
        kept = _greedy_independent(rows, ranker.target)
        if len(kept) == ranker.target:
            return tuple(bars[k] for k in kept)
    return None


@pytest.mark.parametrize("coord_range", [2, 3, 2**20])
def test_k_bodies_keep_the_list_greedy_bars(monkeypatch, coord_range):
    """One ``IncrementalRank`` per trial keeps the bars the earlier
    ``_greedy_independent`` kept, on two to four bodies."""
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    found = set()
    for bodies, bars, seed, trials in K_BODY_CASES:
        expected = list_greedy_bars(BodyBarRank(bodies, 3, seed=seed, trials=trials), bars)
        assert BodyBarRank(bodies, 3, seed=seed, trials=trials).independent_bars(bars) == expected
        found.add(expected is not None)
    assert found == {True, False}
