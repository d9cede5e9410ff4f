"""The 2D merge decision against the one that re-checked it.

``meta._decide_merge`` now takes a not-rigid 2D verdict's rank deficit
from the merge's one pebble game, and names no counting witness when
that game accepted every inter-edge.  The reference,
``merge_reference._decide_merge_rechecked``, ran ``check_rigidity`` on
the gadget-substituted graph for the deficit and searched the
inter-edges' subsets for the witness whatever the game had done.  Both
must give the same ``MetaVerdict.to_dict()``, byte for byte.

Metas have singletons, rods, triangles, over-braced members (K4 to K6)
and vertex-addition members, joined by inter-edges near the merge bound;
some draw their inter-edges from a few vertices per member, so that a
bar is rejected.  Others have more inter-edges than ``SUBSET_SEARCH_CAP``.
The 8-triangle chain, with 17 and 18 inter-edges, is not rigid with
every inter-edge accepted, the largest search the reference runs.
"""
import json
import random

import pytest

import merge_reference
from metaform import meta, rigidity
from metaform.generate import gen
from metaform.graph import Formation, MetaFormation, UndirectedView
from metaform.meta import (
    SUBSET_SEARCH_CAP,
    _member_gadgets,
    merge_bound,
    meta_rigid,
    size_classes,
)

from conftest import complete, count_calls, pair, shift, singleton, triangle


def member(rng, kind: str, base: int) -> Formation:
    if kind == "singleton":
        return singleton(base)
    if kind == "rod":
        return pair(base, base + 1)
    if kind == "triangle":
        return triangle(base)
    if kind == "over-braced":
        return complete(rng.randint(4, 6), base)
    return shift(gen("min-persistent-2d", rng.randint(4, 9), rng.randint(0, 999)), base - 1)


def random_meta(rng, kinds, members: tuple[int, int], inter: tuple[int, int]) -> MetaFormation:
    """Members of the given kinds; inter-edges near the merge bound, in the
    range ``inter``, from two or three vertices per member in one meta of
    three."""
    while True:
        formations, base = [], 1
        for _ in range(rng.randint(*members)):
            formations.append(member(rng, rng.choice(kinds), base))
            base += len(formations[-1].vertices)
        if base - 1 < 2:
            continue
        pools = [f.vertices for f in formations]
        if rng.random() < 1 / 3:
            pools = [rng.sample(vs, min(len(vs), rng.randint(2, 3))) for vs in pools]
        cross = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for i, pa in enumerate(pools)
            for pb in pools[i + 1 :]
            for a in pa
            for b in pb
        ]
        bound = merge_bound(size_classes(MetaFormation(meta_vertices=tuple(formations)), 2))
        k = min(len(cross), inter[1], max(inter[0], bound + rng.randint(-3, 1)))
        if k < inter[0]:
            continue
        return MetaFormation(
            meta_vertices=tuple(formations), inter_edges=tuple(rng.sample(cross, k))
        )


def triangle_chain(inter: int) -> MetaFormation:
    """8 triangles in a row, neighbours joined by 3 or 2 parallel
    inter-edges: ``inter`` of them, under the bound of 21."""
    members = tuple(triangle(1 + 3 * k) for k in range(8))
    edges = []
    for k in range(7):
        per = 3 if k < inter - 14 else 2
        edges += [(4 + 3 * k + j, 1 + 3 * k + j) for j in range(per)]
    return MetaFormation(meta_vertices=members, inter_edges=tuple(edges))


# Two triangles joined by three inter-edges into vertex 4: the third is
# rejected, and the smallest violating subset is all three.
TRIANGLES_INTO_4 = MetaFormation(
    meta_vertices=(triangle(1), triangle(4)), inter_edges=((1, 4), (2, 4), (3, 4))
)

KINDS = ("singleton", "rod", "triangle", "over-braced", "grown")
WIDE = (SUBSET_SEARCH_CAP + 1, 30)
SETS = {
    "mixed": [
        random_meta(random.Random(f"2d-merge:{i}"), KINDS, (2, 4), (1, 12)) for i in range(300)
    ],
    "above-cap": [
        random_meta(random.Random(f"2d-merge-wide:{i}"), KINDS[:3], (8, 11), WIDE)
        for i in range(60)
    ],
    "named": [TRIANGLES_INTO_4, triangle_chain(17), triangle_chain(18)],
}


def game_outcome(m: MetaFormation) -> tuple[bool, bool]:
    """Whether the merge is rigid, and whether its game accepted every inter-edge."""
    _, kept = _member_gadgets(m, 2, 0, 3)
    bodies = (UndirectedView(mv.vertices, edges) for mv, edges in zip(m.meta_vertices, kept))
    selected, _, accepted_all = rigidity.BodyBarRank(bodies, 2).pebble_bars(m.inter_edges)
    return selected is not None, accepted_all


@pytest.mark.parametrize("name", SETS)
def test_verdict_matches_the_rechecked_reference(name):
    outcomes = {}
    for m in SETS[name]:
        args = (m, *_member_gadgets(m, 2, 0, 3), 0, 3)
        expected = json.dumps(merge_reference._decide_merge_rechecked(*args).to_dict())
        assert json.dumps(meta_rigid(m, 2).to_dict()) == expected, m
        assert (len(m.inter_edges) > SUBSET_SEARCH_CAP) == (name == "above-cap")
        rigid, accepted_all = game_outcome(m)
        key = "rigid" if rigid else "accepted" if accepted_all else "rejected"
        outcomes[key] = outcomes.get(key, 0) + 1
    # Not rigid with every inter-edge accepted, and with one rejected; and,
    # in the random sets, rigid.
    assert outcomes.get("accepted", 0) >= 1 and outcomes.get("rejected", 0) >= 1
    if name != "named":
        assert len(outcomes) == 3 and min(outcomes.values()) >= 5


@pytest.mark.parametrize(
    "m", [TRIANGLES_INTO_4, triangle_chain(18)], ids=["triangles-into-4", "chain-18"]
)
def test_not_rigid_verdict_plays_one_pebble_game(m, monkeypatch):
    """No second rigidity check and no circuit for a deficit; no subset
    search after a game that accepted every inter-edge."""
    checks = count_calls(monkeypatch, "check_rigidity", rigidity.check_rigidity)
    lamans = count_calls(monkeypatch, "laman_check_2d", rigidity.laman_check_2d)
    searches = count_calls(
        monkeypatch, "_smallest_violating_subset", meta._smallest_violating_subset
    )
    regions = []
    blocked_region = rigidity.PebbleGame2D.blocked_region

    def counted(game, edge):
        regions.append(edge)
        return blocked_region(game, edge)

    monkeypatch.setattr(rigidity.PebbleGame2D, "blocked_region", counted)
    verdict = meta_rigid(m, 2)
    assert not verdict.rigid
    assert (len(checks), len(lamans), len(regions)) == (0, 0, 0)
    rejected = m is TRIANGLES_INTO_4
    assert len(searches) == rejected
    assert (verdict.witness_subset is not None) == rejected
