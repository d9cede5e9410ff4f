"""The 3D head search's two-tail screen and its leaf-by-leaf test, against
ranking every leaf of a candidate in one call.

``planner._assign_heads`` refuses a 3D consumption vector with at most two
tails when each side has a vertex that is not a tail, before it builds or
ranks a leaf: every inter-edge then meets the line through the tails, so
turning one side about that line while the other stays still is a
non-trivial infinitesimal motion of every merged graph (White and
Whiteley, 1987, on bars that all meet one line).  Each other candidate's
leaves are tested by a two-body ``BodyBarRank`` one at a time, as
``_covered_leaves`` yields them, and none is built past the first hit.
The reference below is the search without the screen, with every leaf up
to ``HEAD_SEARCH_LEAF_CAP`` ranked by one call of the earlier fixed-base
query (``fixed_base_reference.ReferenceRank``).  Both must pick the same
set for every candidate, and no leaf of a screened candidate may reach
full rank.
"""
import functools
import itertools
import random

import pytest

from metaform import planner, rigidity
from metaform.errors import MetaformError
from metaform.graph import Formation
from metaform.persistence import ledger
from metaform.planner import HEAD_SEARCH_LEAF_CAP, plan_pair
from metaform.rigidity import DEFAULT_SEED, DEFAULT_TRIALS, BodyBarRank

from conftest import complete, pair, shift, singleton
from fixed_base_reference import ReferenceRank
from test_bench_corpora import corpus


def reference_assign_heads(ga, gb, cand, dim, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Every leaf up to the cap ranked in one chunk by the reference, with
    no screen."""
    leaves = list(itertools.islice(planner._covered_leaves(ga, gb, cand, 3), HEAD_SEARCH_LEAF_CAP))
    if not leaves:
        return None
    hit = member_rows_of(ga, gb, seed, trials, reference=True)().first_full_rank(leaves)
    return None if hit is None else leaves[hit]


def lined(ga, gb, cand):
    """At most two tails, and a vertex that is not a tail on each side."""
    tails = set(cand)
    return len(tails) <= 2 and not set(ga.vertices) <= tails and not set(gb.vertices) <= tails


def formation(graph) -> Formation:
    vertices, edges = graph
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


MEMBER_KINDS = ("singleton", "pair", "grown", "K5", "leader-braced")


def member(rng, base, kind=None):
    """A persistent 3D member on ids base, base + 1, ...: a singleton, a
    pair, a vertex-addition member of 3-7 vertices, K5, or one whose
    leader is braced by 1-3 out-edges; of the given kind, or at random."""
    kind = kind or rng.choice(MEMBER_KINDS)
    if kind == "singleton":
        return singleton(base)
    if kind == "pair":
        return pair(base, base + 1)
    if kind == "grown":
        return formation(corpus.grown(rng.randint(3, 7), 3, rng, base))
    if kind == "K5":
        return complete(5, base)
    size = rng.randint(5, 7)
    return formation(corpus.leader_braced(size, rng.randint(1, min(3, size - 4)), rng, base))


def random_pairs(count, overlap=False):
    """Seeded 3D member pairs on disjoint ids, or sharing 1+ ids."""
    pairs = []
    for i in range(count):
        rng = random.Random(f"screen:{overlap}:{i}")
        ga = member(rng, 1)
        gb = member(rng, 1)
        shared = rng.randint(1, min(len(ga.vertices), len(gb.vertices))) if overlap else 0
        pairs.append((ga, shift(gb, len(ga.vertices) - shared)))
    return pairs


def candidates(ga, gb):
    required = planner._required_pair_edges(len(ga.vertices), len(gb.vertices), 3)
    return planner._consumption_vectors(ga, gb, ledger(ga, 3), ledger(gb, 3), required)


def member_rows_of(ga, gb, seed, trials, reference=False):
    """``plan_pair``'s ``member_rows``, or the same built on the reference.

    The merged formation is built first, so members that share an id fail
    in either.
    """
    @functools.cache
    def member_rows():
        members = Formation(
            vertices=tuple(ga.vertices) + tuple(gb.vertices),
            edges=tuple(ga.edges) + tuple(gb.edges),
        )
        if reference:
            return ReferenceRank(members.underlying(), 3, seed=seed, trials=trials)
        return BodyBarRank((ga.underlying(), gb.underlying()), 3, seed=seed, trials=trials)

    return member_rows


PAIRS = random_pairs(300)


def unreached(*args):
    raise AssertionError("a screened candidate built a leaf or the members' rows")


@pytest.mark.parametrize("coord_range", [2**20, 3])
@pytest.mark.parametrize("trials", [1, 3])
def test_screened_candidates_reach_no_full_rank(monkeypatch, trials, coord_range):
    """Every leaf of a screened candidate is rank-deficient, whatever the
    placement: the motion makes every full-rank minor vanish identically.
    Coordinates from {1, 2, 3} place vertices degenerately."""
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    screened = with_leaves = deficient = 0
    for i, (ga, gb) in enumerate(PAIRS):
        rows = member_rows_of(ga, gb, i, trials, reference=True)
        for cand in candidates(ga, gb):
            if not lined(ga, gb, cand):
                continue
            # Decided before any leaf is built or ranked.
            with monkeypatch.context() as m:
                m.setattr(planner, "_covered_leaves", unreached)
                assert planner._assign_heads(ga, gb, cand, 3, unreached) is None
            leaves = list(
                itertools.islice(planner._covered_leaves(ga, gb, cand, 3), HEAD_SEARCH_LEAF_CAP)
            )
            screened += 1
            if leaves:
                with_leaves += 1
                deficient += len(leaves)
                assert rows().first_full_rank(leaves) is None
    # The screen decides candidates with and without leaves, and those
    # leaves are ranked.
    assert screened >= 150 and with_leaves >= 30 and deficient >= 1000


def counting_built(monkeypatch):
    """Leaves ``_covered_leaves`` yields to the search, one entry per call."""
    built = []
    original = planner._covered_leaves

    def counted(*args):
        built.append(0)
        for leaf in original(*args):
            built[-1] += 1
            yield leaf

    monkeypatch.setattr(planner, "_covered_leaves", counted)
    return built


@pytest.mark.parametrize("trials", [1, 3])
def test_lazy_search_picks_the_reference_set(monkeypatch, trials):
    """On the first candidates of each pair, the search picks the set the
    reference picks from every leaf at once, and builds no leaf past it.
    Degenerate placements make early leaves miss, so hits fall far into
    the search."""
    hits = []
    for coord_range in (2**20, 3):
        monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
        for i, (ga, gb) in enumerate(PAIRS[:40]):
            rows = member_rows_of(ga, gb, i, trials)
            for cand in itertools.islice(candidates(ga, gb), 6):
                with monkeypatch.context() as m:
                    built = counting_built(m)
                    got = planner._assign_heads(ga, gb, cand, 3, rows)
                if lined(ga, gb, cand):
                    continue
                expected = reference_assign_heads(ga, gb, cand, 3, i, trials)
                assert got == expected
                leaves = list(
                    itertools.islice(planner._covered_leaves(ga, gb, cand, 3), HEAD_SEARCH_LEAF_CAP)
                )
                if expected is None:
                    assert built == [len(leaves)]
                else:
                    hits.append(leaves.index(expected))
                    assert built == [hits[-1] + 1]
    assert sum(k >= 3 for k in hits) >= 10
    assert max(hits) >= 64


def outcome(ga, gb):
    try:
        return plan_pair(ga, gb, 3).to_dict()
    except MetaformError as exc:
        return (type(exc).__name__, str(exc))


def test_shared_vertex_ids_fail_as_before(monkeypatch):
    """Members that share an id fail where the first leaf is ranked, since
    the members' rows are built there; a search with no leaf to rank
    ends in a catalog miss.  The screen keeps both outcomes."""
    pairs = random_pairs(60, overlap=True)
    got = [outcome(ga, gb) for ga, gb in pairs]
    monkeypatch.setattr(
        planner,
        "_assign_heads",
        lambda ga, gb, cand, dim, member_rows: reference_assign_heads(ga, gb, cand, dim),
    )
    assert got == [outcome(ga, gb) for ga, gb in pairs]
    kinds = {g[0] if isinstance(g, tuple) else "plan" for g in got}
    assert kinds == {"InputError", "InfeasibleMergeError"}
