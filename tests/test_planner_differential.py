"""Head search and plan verification against their earlier references.

The head search yields each inter-edge set of a consumption vector once,
and validates sets one at a time by ``BodyBarRank.independent_bars``: in
2D on one pebble game that holds the members' edges, in 3D with each
member ranked once per rank-oracle trial, so that a set needs only the
independence of its inter-edges' Plücker lines.  The reference below is
the earlier search, which walked head sequences (one set in every order
of each tail's heads), built the merged formation and ran
``laman_check_2d`` or ``generic_rank_oracle`` on it at every leaf.  Both
must emit the same plans, the new search after using at most as many
leaves from the search budget.

``verify_plan`` takes its members as proved persistent once and decides
edge-optimality from the persistence verdict and the size classes.  Its
reference is the earlier body, which re-proved every member and asked a
gadget-substituted ``meta_rigid`` verdict; both must give the same report.
"""
import importlib.util
import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metaform import planner, rigidity
from metaform.errors import InfeasibleMergeError
from metaform.generate import gen
from metaform.graph import Formation, UndirectedView
from metaform.meta import edge_optimal_persistent
from metaform.persistence import ledger, local_dof_compliance
from metaform.planner import (
    HEAD_SEARCH_LEAF_CAP,
    MergePlan,
    PlanEdge,
    PlanReport,
    plan_collection,
    plan_pair,
    prove_members,
    verify_plan,
)
from metaform.rigidity import (
    BodyBarRank,
    dof_constant,
    generic_rank_oracle,
    required_rank,
)

from check_meta_reference import merged_persistence, meta_rigid
from fixed_base_reference import ReferenceRank
from conftest import (
    complete,
    lone_leader_3d,
    pair,
    shift,
    singleton,
    triangle,
    zero_dof_3d,
)
from test_head_screen_differential import lined

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


def tails_of(cand):
    """The reference's tails list: each tail once per DOF it consumes."""
    return [v for v in sorted(cand, key=lambda v: (-cand[v], v)) for _ in range(cand[v])]


def outcome(plan, *args, **kwargs):
    """A plan's report, or the reason and message it was refused with."""
    try:
        return plan(*args, **kwargs).to_dict()
    except InfeasibleMergeError as exc:
        return {"reason": exc.reason, "message": str(exc)}


def counting_leaves(monkeypatch):
    """Leaves ``BodyBarRank.independent_bars`` is asked about, one per call.

    The search asks about one leaf at a time and stops at its first
    full-rank leaf.  That is what the reference counts: every leaf it
    tested, stopping at the first hit.  The patch is on the ranker the
    planner calls, so a plan with no leaf counted means the counter no
    longer sees the search.
    """
    used = []
    original = BodyBarRank.independent_bars

    def counted(self, bars):
        used.append(bars)
        return original(self, bars)

    monkeypatch.setattr(BodyBarRank, "independent_bars", counted)
    return used


def both(monkeypatch, plan, *args, seed, trials, **kwargs):
    """New and reference outcomes of one planning call, and their leaf counts."""
    with monkeypatch.context() as m:
        leaves = counting_leaves(m)
        new = outcome(plan, *args, seed=seed, trials=trials, **kwargs)
    ref_leaves = []
    with monkeypatch.context() as m:
        m.setattr(
            planner,
            "_assign_heads",
            lambda ga, gb, cand, dim, member_rows: reference_assign_heads(
                ga, gb, tails_of(cand), dim, seed, trials, ref_leaves
            ),
        )
        old = outcome(plan, *args, seed=seed, trials=trials, **kwargs)
    return new, old, len(leaves), len(ref_leaves)


def survey_collections(count, dim=3):
    """Collections drawn by ``scripts/merge_survey.py``'s generator."""
    spec = importlib.util.spec_from_file_location("merge_survey", SCRIPTS / "merge_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    rng = random.Random(20070703)
    return [survey.random_collection(rng, dim) for _ in range(count)]


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

COLLECTIONS_2D = {f"survey-2d-{i}": c for i, c in enumerate(survey_collections(4, dim=2))}
COLLECTIONS_2D.update(
    {
        "triangle-triangle": [triangle(1), triangle(4)],
        "K4-triangle-singleton": [complete(4, 1), triangle(5), singleton(8)],
        "singleton-singleton": [singleton(1), singleton(2)],
        "pair-singleton": [pair(1, 2), singleton(3)],
        "triangles-and-pair": [triangle(1), triangle(4), triangle(7), pair(10, 11)],
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
PAIRS_2D = {
    f"survey-2d-{i}-first-two": c[:2] for i, c in enumerate(survey_collections(6, dim=2))
}
PLAN_PAIR_CASES = [(3, name) for name in sorted(PAIRS)] + [
    (2, name) for name in sorted(PAIRS_2D)
]
PLAN_COLLECTION_CASES = [(3, name) for name in sorted(COLLECTIONS)] + [
    (2, name) for name in sorted(COLLECTIONS_2D)
]


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim, name", PLAN_PAIR_CASES)
def test_plan_pair_matches_reference(monkeypatch, dim, name, seed, trials):
    ga, gb = (PAIRS if dim == 3 else PAIRS_2D)[name]
    new, old, leaves, ref_leaves = both(
        monkeypatch, plan_pair, ga, gb, dim, seed=seed, trials=trials
    )
    assert new == old
    assert leaves <= ref_leaves
    assert leaves > 0 or "edges" not in new


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim, name", PLAN_COLLECTION_CASES)
def test_plan_collection_matches_reference(monkeypatch, dim, name, seed, trials):
    coll = (COLLECTIONS if dim == 3 else COLLECTIONS_2D)[name]
    new, old, leaves, ref_leaves = both(
        monkeypatch, plan_collection, coll, dim, seed=seed, trials=trials
    )
    assert new == old
    assert leaves <= ref_leaves
    assert leaves > 0 or "edges" not in new


def consumption_vectors(ga, gb, dim):
    """The candidates ``plan_pair`` searches, in its order."""
    required = planner._required_pair_edges(len(ga.vertices), len(gb.vertices), dim)
    return planner._consumption_vectors(ga, gb, ledger(ga, dim), ledger(gb, dim), required)


def reference_sequences(monkeypatch, ga, gb, cand, dim):
    """Every head sequence the reference visits for ``cand``, with the leaf
    cap lifted and no leaf found rigid."""
    leaves = []
    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "HEAD_SEARCH_LEAF_CAP", 10**9)
        m.setattr(sys.modules[__name__], "generic_rank_oracle", lambda *a, **k: -1)
        m.setattr(rigidity, "laman_check_2d", lambda g: types.SimpleNamespace(rigid=False))
        reference_assign_heads(ga, gb, tails_of(cand), dim, 0, 1, leaves)
    return leaves


def random_member(rng, dim, size, base):
    """A persistent formation on ids base, base + 1, ..."""
    if size == 1:
        return singleton(base)
    if size < dim:
        return pair(base, base + 1)
    return shift(gen(f"min-persistent-{dim}d", size, rng.randint(0, 10**6)), base - 1)


def random_pair(rng, dim):
    """Two small persistent formations on disjoint ids."""
    members, base = [], 1
    for _ in range(2):
        size = rng.randint(1, 4)
        members.append(random_member(rng, dim, size, base))
        base += size
    return members


RANDOM_PAIRS = {
    f"{dim}d-{i}": (dim, random_pair(random.Random(f"{dim}:{i}"), dim))
    for dim in (2, 3)
    for i in range(10)
}


def reference_consumption_vectors(ga, gb, led_a, led_b, required):
    """The earlier candidate list: every candidate built, then stably
    sorted residual-safe first, with the bound re-summed at every node."""
    opp_size = (len(gb.vertices), len(ga.vertices))
    dofs = [
        (v, d, 0) for v, d in sorted(led_a.dof.items()) if d > 0
    ] + [(v, d, 1) for v, d in sorted(led_b.dof.items()) if d > 0]
    dofs.sort(key=lambda x: (-x[1], x[2], x[0]))

    candidates = []

    def recurse(i, remaining, current):
        if remaining == 0:
            candidates.append(dict(current))
            return
        if i == len(dofs):
            return
        if sum(min(d, opp_size[s]) for _, d, s in dofs[i:]) < remaining:
            return
        v, d, s = dofs[i]
        top = min(d, remaining, opp_size[s])
        for take in range(top, -1, -1):
            if take:
                current[v] = take
            recurse(i + 1, remaining - take, current)
            current.pop(v, None)

    recurse(0, required, {})

    sides = ((ga, ga.vertex_set, led_a), (gb, gb.vertex_set, led_b))

    def residual_bad(cand):
        for f, verts, led in sides:
            consumed = sum(c for v, c in cand.items() if v in verts)
            residual = led.total_dof - consumed
            if residual not in (3, 6):
                continue
            holders = [
                v for v in f.vertices if led.dof[v] - cand.get(v, 0) > 0
            ]
            if all(led.dof[v] == 3 and v not in cand for v in holders):
                return True
        return False

    candidates.sort(key=residual_bad)
    return candidates


WIDER_PAIRS = {
    f"{dim}d-wide-{i}": (dim, [
        random_member(rng, dim, a, 1), random_member(rng, dim, b, 1 + a)
    ])
    for dim in (2, 3)
    for i in range(8)
    for rng in [random.Random(f"wide:{dim}:{i}")]
    for a, b in [(rng.randint(1, 7), rng.randint(1, 7))]
}


@pytest.mark.parametrize("name", sorted(RANDOM_PAIRS | WIDER_PAIRS))
def test_consumption_vectors_yield_the_sorted_list(name):
    """The generator yields the earlier sorted list, in its order, for every
    pair edge count up to both sides' DOFs."""
    dim, (ga, gb) = (RANDOM_PAIRS | WIDER_PAIRS)[name]
    led_a, led_b = ledger(ga, dim), ledger(gb, dim)
    for required in range(led_a.total_dof + led_b.total_dof + 1):
        got = list(planner._consumption_vectors(ga, gb, led_a, led_b, required))
        assert got == reference_consumption_vectors(ga, gb, led_a, led_b, required)


def test_consumption_vectors_defer_residual_bad_candidates():
    """Some pair has a candidate deferred behind a later safe one, so the
    order above is not just greedy order: largest take first, tails in
    descending-DOF order."""
    deferred = 0
    for dim, (ga, gb) in (RANDOM_PAIRS | WIDER_PAIRS).values():
        led_a, led_b = ledger(ga, dim), ledger(gb, dim)
        tails = sorted(
            (v for led in (led_a, led_b) for v, d in led.dof.items() if d > 0),
            key=lambda v: (-(led_a.dof | led_b.dof)[v], v not in led_a.dof, v),
        )
        for required in range(led_a.total_dof + led_b.total_dof + 1):
            got = list(planner._consumption_vectors(ga, gb, led_a, led_b, required))
            greedy = sorted(got, key=lambda c: [-c.get(v, 0) for v in tails])
            deferred += got != greedy
    assert deferred >= 5


@pytest.mark.parametrize("name", sorted(RANDOM_PAIRS))
def test_each_set_once_in_first_occurrence_order(monkeypatch, name):
    """Over every consumption vector, the set search yields each inter-edge
    set once, as the first head sequence of the reference that reaches it."""
    dim, (ga, gb) = RANDOM_PAIRS[name]
    for cand in consumption_vectors(ga, gb, dim):
        sets = list(planner._covered_leaves(ga, gb, cand, dim))
        assert len({frozenset(s) for s in sets}) == len(sets)
        first = {}
        for seq in reference_sequences(monkeypatch, ga, gb, cand, dim):
            first.setdefault(frozenset(seq), seq)
        assert sets == list(first.values())


def test_random_pairs_reach_tails_with_several_heads():
    """Some covered set gives one tail several heads, so the reference
    meets that set in several orders."""
    several = 0
    for dim, (ga, gb) in RANDOM_PAIRS.values():
        for cand in consumption_vectors(ga, gb, dim):
            if max(cand.values()) > 1:
                several += next(planner._covered_leaves(ga, gb, cand, dim), None) is not None
    assert several >= 10


@pytest.mark.parametrize("name", ["five-five", "K5-K5"])
def test_plan_unchanged_where_the_reference_spends_its_leaf_cap(monkeypatch, name):
    """On some consumption vector the reference ranks ``HEAD_SEARCH_LEAF_CAP``
    head sequences without a hit.  Those hold fewer distinct sets, so the
    set search ranks sets the reference never reached, and still emits the
    same plan."""
    ga, gb = (PAIRS | COLLECTIONS)[name]
    seed, trials = rigidity.DEFAULT_SEED, rigidity.DEFAULT_TRIALS
    capped = []
    for cand in consumption_vectors(ga, gb, 3):
        leaves = []
        if reference_assign_heads(ga, gb, tails_of(cand), 3, seed, trials, leaves):
            break
        if len(leaves) == HEAD_SEARCH_LEAF_CAP:
            capped.append(len({frozenset(x) for x in leaves}))
    assert capped and all(n < HEAD_SEARCH_LEAF_CAP for n in capped)
    new, old, _, _ = both(monkeypatch, plan_pair, ga, gb, 3, seed=seed, trials=trials)
    assert "edges" in new and new == old
    new, old, _, _ = both(monkeypatch, plan_collection, [ga, gb], 3, seed=seed, trials=trials)
    assert "edges" in new and new == old


def test_corpus_reaches_screened_candidates_and_refusals(monkeypatch):
    """The corpus holds plans, refused merges and candidates the two-tail
    screen decides.  Every leaf it ranks reaches full rank, so
    ``test_head_screen_differential.py`` ranks rank-deficient leaves, on
    random pairs."""
    screened = []
    search = planner._assign_heads

    def counted(ga, gb, cand, dim, member_rows):
        screened.append(lined(ga, gb, cand))
        return search(ga, gb, cand, dim, member_rows)

    monkeypatch.setattr(planner, "_assign_heads", counted)
    outcomes = [outcome(plan_collection, c, 3) for c in COLLECTIONS.values()]
    planned = sum("edges" in o for o in outcomes)
    assert planned >= 12 and len(outcomes) - planned >= 1
    assert sum(screened) >= 10


def test_five_five_pair_never_rebuilds_the_whole_matrix(monkeypatch):
    ga, gb = PAIRS["five-five"]
    expected = both(monkeypatch, plan_pair, ga, gb, 3, seed=0, trials=3)[1]

    def forbidden(*args, **kwargs):
        raise AssertionError("a head-search leaf rebuilt the whole rigidity matrix")

    monkeypatch.setattr(rigidity, "rigidity_rank_once", forbidden)
    assert "edges" in expected
    assert plan_pair(ga, gb, 3).to_dict() == expected


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
    oracle = ReferenceRank(UndirectedView(vertices, tuple(base)), dim, seed=seed, trials=trials)
    target = required_rank(dim, len(vertices))
    expected = []
    for extra in queries:
        merged = UndirectedView(vertices, tuple(base) + tuple(extra))
        expected.append(generic_rank_oracle(merged, dim, seed=seed, trials=trials) == target)
        assert (oracle.first_full_rank([extra]) == 0) == expected[-1]
    first = ReferenceRank(UndirectedView(vertices, tuple(base)), dim, seed=seed, trials=trials)
    assert first.first_full_rank(queries) == next(
        (i for i, ok in enumerate(expected) if ok), None
    )


def test_first_full_rank_takes_the_earliest_hit_over_all_trials(monkeypatch):
    """A leaf that only a later trial finds full rank still wins over a
    later leaf that trial 0 finds full rank.

    Coordinates from {1, 2, 3} make many placements degenerate, so verdicts
    differ between trials; the reference is one rank oracle per leaf.
    """
    monkeypatch.setattr(rigidity, "COORD_RANGE", 3)
    vertices = tuple(range(1, 7))
    base = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    pool = [(a, b) for a in vertices for b in vertices if a < b and (a, b) not in base]
    rng = random.Random(3)
    target = required_rank(3, len(vertices))
    later_trial_wins = 0
    for seed in range(40):
        leaves = [rng.sample(pool, 6) for _ in range(12)]
        full = [
            generic_rank_oracle(UndirectedView(vertices, base + tuple(x)), 3, seed=seed) == target
            for x in leaves
        ]
        trial0 = [
            generic_rank_oracle(UndirectedView(vertices, base + tuple(x)), 3, seed=seed, trials=1)
            == target
            for x in leaves
        ]
        expected = next((i for i, ok in enumerate(full) if ok), None)
        got = ReferenceRank(UndirectedView(vertices, base), 3, seed=seed).first_full_rank(leaves)
        assert got == expected
        later_trial_wins += expected is not None and not trial0[expected] and any(trial0)
    assert later_trial_wins >= 1


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
    oracle = ReferenceRank(g, 3)
    merged = UndirectedView(vertices, base + extra)
    assert (oracle.first_full_rank([extra]) == 0) == expected
    assert (generic_rank_oracle(merged, 3) == required_rank(3, len(vertices))) == expected


def reference_verify_plan(collection, plan, dim, seed, trials):
    """``verify_plan`` as it was: ``merged_persistence`` re-proves every
    member, and edge-optimality comes from a ``meta_rigid`` verdict."""
    meta = plan.apply(collection)
    verdict = merged_persistence(meta, dim, seed=seed, trials=trials)
    flat = meta.flatten()
    optimal = False
    if verdict.persistent:
        if dim == 3 and len(flat.vertices) < 3 and len(collection) == 2:
            compliant, _ = local_dof_compliance(meta, dim)
            required = planner._required_pair_edges(
                len(collection[0].vertices), len(collection[1].vertices), 3
            )
            optimal = compliant and len(plan.edges) == required
        else:
            optimal = edge_optimal_persistent(
                meta, meta_rigid(meta, dim, seed=seed, trials=trials)
            )

    def missing(f):
        return dof_constant(dim, len(f.vertices)) - ledger(f, dim).total_dof

    return PlanReport(
        persistent=verdict.persistent,
        structurally_persistent=verdict.structurally_persistent,
        edge_optimal_persistent=optimal,
        missing_dof_conserved=missing(flat) == sum(missing(f) for f in collection),
        ledger=verdict.ledger,
    )


def widened(plan, collection, dim):
    """The plan plus one new inter-edge from a vertex with a spare local
    DOF, or None when no vertex has one."""
    spare = {}
    for f in collection:
        spare.update(ledger(f, dim).dof)
    for e in plan.edges:
        spare[e.tail] -= 1
    present = {frozenset(e.pair()) for e in plan.edges}
    for t in sorted(v for v, d in spare.items() if d > 0):
        owner = next(i for i, f in enumerate(collection) if t in f.vertex_set)
        heads = [h for i, f in enumerate(collection) if i != owner for h in f.vertices]
        for h in heads:
            if frozenset((t, h)) not in present:
                extra = PlanEdge(tail=t, head=h, rule="extra")
                return MergePlan(edges=plan.edges + (extra,), merge_order=plan.merge_order)
    return None


VERIFY_CASES = [(3, name) for name in sorted(COLLECTIONS)] + [
    (2, name) for name in sorted(COLLECTIONS_2D)
]


def plans_to_verify(coll, dim, seed=rigidity.DEFAULT_SEED, trials=rigidity.DEFAULT_TRIALS):
    """The collection's plan, that plan widened by one compliant edge,
    without its last edge, and with its last edge reversed (which may
    break compliance).  A refused collection gets no edges, and one edge
    between its first two members."""
    try:
        plan = plan_collection(coll, dim, seed=seed, trials=trials)
    except InfeasibleMergeError:
        bridge = (PlanEdge(coll[0].vertices[0], coll[1].vertices[0], "bridge"),)
        return [MergePlan(edges=()), MergePlan(edges=bridge)]
    plans = [plan, widened(plan, coll, dim)]
    if plan.edges:
        *rest, last = plan.edges
        reversed_last = PlanEdge(tail=last.head, head=last.tail, rule="reversed")
        plans += [MergePlan(edges=tuple(rest)), MergePlan(edges=(*rest, reversed_last))]
    return [p for p in plans if p is not None]


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim, name", VERIFY_CASES)
def test_verify_plan_matches_reference(dim, name, seed, trials):
    coll = (COLLECTIONS if dim == 3 else COLLECTIONS_2D)[name]
    members = prove_members(coll, dim, seed=seed, trials=trials)
    for p in plans_to_verify(coll, dim, seed, trials):
        expected = reference_verify_plan(coll, p, dim, seed, trials).to_dict()
        assert verify_plan(coll, p, dim, seed=seed, trials=trials).to_dict() == expected
        assert verify_plan(members, p, dim, seed=seed, trials=trials).to_dict() == expected


def test_verify_corpus_reaches_every_verdict():
    """Edge-optimal persistent, persistent but not edge-optimal, and not
    persistent merges, with and without local-DOF compliance."""
    seen = set()
    for dim, name in VERIFY_CASES:
        coll = (COLLECTIONS if dim == 3 else COLLECTIONS_2D)[name]
        for p in plans_to_verify(coll, dim):
            report = verify_plan(coll, p, dim)
            compliant, _ = local_dof_compliance(p.apply(coll), dim)
            seen.add((report.persistent, report.edge_optimal_persistent, compliant))
    assert {(True, True, True), (True, False, True), (False, False, True)} <= seen
    assert (False, False, False) in seen
