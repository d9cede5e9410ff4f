"""3D head search against the per-leaf rank-oracle reference.

Every 3D head-search leaf is validated by ``FixedBaseRank.full_rank``:
the members' internal rows are reduced once per rank-oracle trial and
only the leaf's few inter-edge rows are eliminated.  The reference below
is the earlier search, which built the merged formation and ran
``generic_rank_oracle`` on it at every leaf; both must emit the same
plans, after visiting the same leaves.
"""
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metaform import planner, rigidity
from metaform.errors import InfeasibleMergeError
from metaform.generate import gen
from metaform.graph import Formation, UndirectedView
from metaform.planner import HEAD_SEARCH_LEAF_CAP, plan_collection, plan_pair
from metaform.rigidity import FixedBaseRank, generic_rank_oracle, required_rank

from conftest import (
    complete,
    lone_leader_3d,
    pair,
    shift,
    singleton,
    zero_dof_3d,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def reference_assign_heads(ga, gb, tails, dim, seed, trials, leaves):
    """Backtracking head search with one full rank-oracle call per leaf.

    Each leaf that reaches the rank oracle is appended to ``leaves``.
    """
    side_of = {v: 0 for v in ga.vertices} | {v: 1 for v in gb.vertices}
    side_verts = (ga.vertices, gb.vertices)
    need_cover = (min(len(ga.vertices), dim), min(len(gb.vertices), dim))
    internal_edges = tuple(ga.edges) + tuple(gb.edges)
    all_vertices = tuple(ga.vertices) + tuple(gb.vertices)
    target = required_rank(dim, len(all_vertices))
    cap = 3 if dim == 3 else len(tails)
    budget = [HEAD_SEARCH_LEAF_CAP]

    def rigid(pairs) -> bool:
        leaves.append(pairs)
        flat = Formation(vertices=all_vertices, edges=internal_edges + tuple(pairs))
        if dim == 2:
            return rigidity.laman_check_2d(flat.underlying()).rigid
        return (
            generic_rank_oracle(flat.underlying(), 3, seed=seed, trials=trials)
            == target
        )

    def search(i, chosen, used_pairs, incidence):
        if budget[0] <= 0:
            return None
        if i == len(tails):
            covered = (
                len({v for e in chosen for v in e if side_of[v] == 0}),
                len({v for e in chosen for v in e if side_of[v] == 1}),
            )
            if covered[0] < need_cover[0] or covered[1] < need_cover[1]:
                return None
            budget[0] -= 1
            if rigid(chosen):
                return list(chosen)
            return None
        t = tails[i]
        for h in side_verts[1 - side_of[t]]:
            pair_ = (min(t, h), max(t, h))
            if pair_ in used_pairs:
                continue
            if incidence.get(h, 0) + 1 > cap or incidence.get(t, 0) + 1 > cap:
                continue
            used_pairs.add(pair_)
            incidence[h] = incidence.get(h, 0) + 1
            incidence[t] = incidence.get(t, 0) + 1
            result = search(i + 1, chosen + [(t, h)], used_pairs, incidence)
            if result is not None:
                return result
            used_pairs.discard(pair_)
            incidence[h] -= 1
            incidence[t] -= 1
        return None

    return search(0, [], set(), {})


def outcome(plan, *args, **kwargs):
    """A plan's report, or the reason and message it was refused with."""
    try:
        return plan(*args, **kwargs).to_dict()
    except InfeasibleMergeError as exc:
        return {"reason": exc.reason, "message": str(exc)}


def counting(monkeypatch, owner, name):
    """Count the calls made to ``owner.name`` while the test runs."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def both(monkeypatch, plan, *args, seed, trials, **kwargs):
    """New and reference outcomes of one planning call, and their leaf counts."""
    with monkeypatch.context() as m:
        leaves = counting(m, FixedBaseRank, "full_rank")
        new = outcome(plan, *args, seed=seed, trials=trials, **kwargs)
    ref_leaves = []
    with monkeypatch.context() as m:
        m.setattr(
            planner,
            "_assign_heads",
            lambda ga, gb, tails, dim, member_rows: reference_assign_heads(
                ga, gb, tails, dim, seed, trials, ref_leaves
            ),
        )
        old = outcome(plan, *args, seed=seed, trials=trials, **kwargs)
    return new, old, len(leaves), len(ref_leaves)


def survey_collections(count):
    """Collections drawn by ``scripts/merge_survey.py``'s generator."""
    spec = importlib.util.spec_from_file_location("merge_survey", SCRIPTS / "merge_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    rng = random.Random(20070703)
    return [survey.random_collection(rng, 3) for _ in range(count)]


def five(seed, base):
    return shift(gen("min-persistent-3d", 5, seed), base - 1)


COLLECTIONS = {f"survey-{i}": c for i, c in enumerate(survey_collections(6))}
COLLECTIONS.update(
    {
        "five-five-five": [five(5, 1), five(8, 6), five(13, 11)],
        # Members with redundant internal edges (K5, K6, 15 edges on 6
        # vertices, 21 on 7).
        "K5-K5": [complete(5, 1), complete(5, 6)],
        "K6-tetra": [complete(6, 1), complete(4, 7)],
        "lone-leader-K5": [lone_leader_3d(1), complete(5, 7)],
        "K5-zero-dof": [complete(5, 1), shift(zero_dof_3d(), 5)],
        # Singletons and two-vertex members.
        "singleton-singleton": [singleton(1), singleton(2)],
        "singleton-pair": [singleton(1), pair(2, 3)],
        "pair-pair": [pair(1, 2), pair(3, 4)],
        "singleton-five": [singleton(1), five(7, 2)],
        "pair-five": [pair(1, 2), five(9, 3)],
        "pairs-and-singleton": [pair(1, 2), singleton(3), pair(4, 5), complete(4, 6)],
    }
)

# plan_collection reaches plan_pair on every two-member collection above;
# these pairs are planned as given, in declared order and unchecked.
PAIRS = {
    "five-five": [five(3, 1), five(11, 6)],
    "pair-five": COLLECTIONS["pair-five"],
    "singleton-pair": COLLECTIONS["singleton-pair"],
    "survey-2-first-two": COLLECTIONS["survey-2"][:2],
}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_plan_pair_matches_reference(monkeypatch, name, seed, trials):
    ga, gb = PAIRS[name]
    new, old, leaves, ref_leaves = both(
        monkeypatch, plan_pair, ga, gb, 3, seed=seed, trials=trials, check=False
    )
    assert new == old
    assert leaves == ref_leaves


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_plan_collection_matches_reference(monkeypatch, name, seed, trials):
    new, old, leaves, ref_leaves = both(
        monkeypatch, plan_collection, COLLECTIONS[name], 3, seed=seed, trials=trials
    )
    assert new == old
    assert leaves == ref_leaves


def test_corpus_reaches_failing_leaves_and_refusals(monkeypatch):
    """The corpus holds rank-deficient leaves, plans and refused merges."""
    leaves = counting(monkeypatch, FixedBaseRank, "full_rank")
    outcomes = [outcome(plan_collection, c, 3) for c in COLLECTIONS.values()]
    planned = sum("edges" in o for o in outcomes)
    assert planned >= 12 and len(outcomes) - planned >= 1
    assert len(leaves) > 2 * planned


def test_five_five_pair_never_rebuilds_the_whole_matrix(monkeypatch):
    ga, gb = PAIRS["five-five"]
    expected = both(monkeypatch, plan_pair, ga, gb, 3, seed=0, trials=3, check=False)[1]

    def forbidden(*args, **kwargs):
        raise AssertionError("a head-search leaf rebuilt the whole rigidity matrix")

    monkeypatch.setattr(rigidity, "rigidity_rank_once", forbidden)
    assert "edges" in expected
    assert plan_pair(ga, gb, 3, check=False).to_dict() == expected


@st.composite
def base_and_extras(draw):
    """A graph split into base edges and several queries of extra edges."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 8))
    vertices = tuple(draw(st.permutations(range(n))))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    flags = draw(
        st.lists(
            st.sampled_from(["base", "extra", "none"]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    base = [e for e, f in zip(pairs, flags) if f == "base"]
    pool = [e for e, f in zip(pairs, flags) if f == "extra"]
    queries = draw(
        st.lists(st.lists(st.sampled_from(pool), unique=True, max_size=6), max_size=5)
        if pool
        else st.just([[]])
    )
    # Reversed pairs name the same undirected edge.
    queries = [[(b, a) if (a + b) % 2 else (a, b) for a, b in q] for q in queries]
    return dim, vertices, base, queries


@settings(max_examples=150, deadline=None)
@given(case=base_and_extras(), seed=st.integers(0, 50), trials=st.integers(1, 3))
def test_full_rank_equals_the_rank_oracle(case, seed, trials):
    dim, vertices, base, queries = case
    oracle = FixedBaseRank(UndirectedView(vertices, tuple(base)), dim, seed=seed, trials=trials)
    target = required_rank(dim, len(vertices))
    for extra in queries:
        merged = UndirectedView(vertices, tuple(base) + tuple(extra))
        expected = generic_rank_oracle(merged, dim, seed=seed, trials=trials) == target
        assert oracle.full_rank(extra) == expected


@pytest.mark.parametrize(
    "base, extra, expected",
    [
        # Empty base.
        ((), ((1, 2), (2, 3), (1, 3)), True),
        ((), ((1, 2), (2, 3)), False),
        # Dependent base rows (K5 in 3D has one redundant edge).
        (tuple((a, b) for a in range(1, 6) for b in range(a + 1, 6)), ((5, 6), (4, 6), (3, 6)), True),
        (tuple((a, b) for a in range(1, 6) for b in range(a + 1, 6)), ((5, 6), (4, 6)), False),
        # Fewer edges than the required rank.
        (((1, 2), (1, 3), (2, 3)), ((3, 4), (2, 4)), False),
    ],
)
def test_full_rank_on_named_cases(base, extra, expected):
    vertices = tuple(sorted({v for e in base + extra for v in e}))
    g = UndirectedView(vertices, base)
    oracle = FixedBaseRank(g, 3)
    merged = UndirectedView(vertices, base + extra)
    assert oracle.full_rank(extra) == expected
    assert (generic_rank_oracle(merged, 3) == required_rank(3, len(vertices))) == expected
