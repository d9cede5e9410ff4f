"""Oracle-first 3D meta-rigidity against the counting-first reference.

``meta_rigid_3d`` lets the rank oracle on the gadget-substituted graph
decide and runs the bitmask counting search only to report the screen
and a violating subset after a not-rigid verdict; a rigid verdict
reports the screen as passed (or skipped above the subset-search cap)
without searching.  The reference below is the earlier check, which ran
the search first on every call; both must give the same reports.
"""
import json
import random

import pytest

from metaform import meta, persistence
from metaform.cli import main
from metaform.generate import gen
from metaform.graph import MetaFormation
from metaform.meta import (
    SUBSET_SEARCH_CAP,
    MetaVerdict,
    classify,
    merge_bound,
    meta_count_violation,
    meta_rigid_3d,
)
from metaform.planner import MergePlan, PlanEdge, plan_collection, verify_plan
from metaform.rigidity import rigid_3d_check

import check_meta_reference
from merge_reference import minimally_rigid_spanning
from conftest import complete, count_calls, pair, shift, singleton, triangle, zero_dof_3d


def reference_counting_screen(m_meta, bound):
    """Subset DP over bitmasks; a set is bad if it or a subset violates the count."""
    edges = m_meta.inter_edges
    m = len(edges)
    if m > SUBSET_SEARCH_CAP:
        return None, None
    if bound > m or bound < 0:
        return False, None
    bad = [False] * (1 << m)
    first_violation = None
    for mask in range(1, 1 << m):
        subset = tuple(edges[i] for i in range(m) if mask >> i & 1)
        if any(bad[mask & ~(1 << i)] for i in range(m) if mask >> i & 1):
            bad[mask] = True
            continue
        if meta_count_violation(m_meta, subset, 3) is not None:
            bad[mask] = True
            if first_violation is None:
                first_violation = subset
    for mask in range(1 << m):
        if bin(mask).count("1") == bound and not bad[mask]:
            return True, None
    return False, first_violation


def reference_meta_rigid_3d(m_meta, seed=0, trials=3):
    """Counting search first on every call, then the rank oracle."""
    cls = classify(m_meta, 3, seed=seed, trials=trials)
    flat = m_meta.flatten()
    if len(flat.vertices) < 3:
        raise AssertionError("corpus metas have at least three vertices")
    bound = merge_bound(cls)
    counting_ok, count_witness = reference_counting_screen(m_meta, bound)
    substituted, fixed = check_meta_reference._gadget_substitute(m_meta, 3, seed, trials)
    sub_flat = substituted.flatten()
    verdict = rigid_3d_check(sub_flat.underlying(), seed=seed, trials=trials)
    rigid = verdict.rigid
    if counting_ok is False:
        rigid = False
    selected = None
    if rigid:
        spanning = minimally_rigid_spanning(
            sub_flat.underlying(), 3, fixed=fixed, seed=seed, trials=trials
        )
        inter_pairs = {(min(e), max(e)): e for e in m_meta.inter_edges}
        selected = tuple(inter_pairs[e] for e in spanning if e in inter_pairs)
    return MetaVerdict(
        rigid=rigid,
        edge_optimal=rigid and len(m_meta.inter_edges) == bound,
        dim=3,
        classes=cls,
        bound=bound,
        selected_subset=selected,
        witness_subset=count_witness if not rigid else None,
        rank_deficit=verdict.rank_deficit if not rigid else None,
        separating_pair=verdict.separating_pair,
        counting_ok=counting_ok,
    )


def cross_pairs(members):
    return [
        (a, b)
        for i, ga in enumerate(members)
        for gb in members[i + 1:]
        for a in ga.vertices
        for b in gb.vertices
    ]


def random_members(rng):
    """Two to four members: singletons, two-vertex D members, rigid 4-5 vertex ones."""
    while True:
        members, base = [], 1
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.25:
                members.append(singleton(base))
                base += 1
            elif roll < 0.45:
                members.append(pair(base, base + 1))
                base += 2
            else:
                size = rng.randint(4, 5)
                members.append(shift(gen("min-persistent-3d", size, rng.randint(0, 999)), base - 1))
                base += size
        if base > 3:
            return members


def random_meta(rng, max_edges=10):
    """Inter-edges near the merge bound, so both verdicts are common."""
    members = random_members(rng)
    cross = cross_pairs(members)
    bound = merge_bound(classify(MetaFormation(meta_vertices=tuple(members)), 3))
    k = min(len(cross), max_edges, rng.randint(max(1, bound - 2), bound + 1))
    chosen = rng.sample(cross, k)
    inter = tuple((t, h) if rng.random() < 0.5 else (h, t) for t, h in chosen)
    return MetaFormation(meta_vertices=tuple(members), inter_edges=inter)


def merge_collections(rng, count):
    """Seeded 3D collections like the acceptance merge test's."""
    out = []
    while len(out) < count:
        members, base = [], 1
        for _ in range(rng.randint(2, 3)):
            roll = rng.random()
            if roll < 0.2:
                members.append(singleton(base))
                base += 1
            elif roll < 0.4:
                members.append(pair(base, base + 1))
                base += 2
            else:
                size = rng.randint(4, 6)
                members.append(shift(gen("min-persistent-3d", size, rng.randint(0, 999)), base - 1))
                base += size
        if rng.random() < 0.3:
            members.append(shift(zero_dof_3d(), base - 1))
        if base > 3:
            out.append(members)
    return out


def tetrahedra(count, inter):
    return MetaFormation(
        meta_vertices=tuple(complete(4, 1 + 4 * i) for i in range(count)),
        inter_edges=tuple(inter),
    )


def corpus():
    rng = random.Random(20070703)
    metas = {}
    for i in range(40):
        metas[f"random-{i}"] = random_meta(rng)
    for i, coll in enumerate(merge_collections(rng, 5)):
        plan = plan_collection(coll, 3)
        metas[f"plan-{i}"] = plan.apply(coll)
        present = set(plan.edge_pairs()) | {(h, t) for t, h in plan.edge_pairs()}
        extra = next(e for e in cross_pairs(coll) if e not in present)
        widened = MergePlan(
            edges=plan.edges + (PlanEdge(extra[0], extra[1], "extra"),),
            merge_order=plan.merge_order,
        )
        metas[f"plan-{i}-widened"] = widened.apply(coll)
    good_6 = ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5))
    metas["two-tetrahedra-good-6"] = tetrahedra(2, good_6)
    metas["two-tetrahedra-connected-pair"] = tetrahedra(
        2, ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7))
    )
    metas["two-tetrahedra-one-contact"] = tetrahedra(
        2, ((1, 5), (2, 5), (3, 5), (4, 5), (1, 6), (1, 7))
    )
    metas["two-tetrahedra-five-edges"] = tetrahedra(2, good_6[:5])
    metas["banana-from-triangles"] = MetaFormation(
        meta_vertices=(triangle(3), triangle(6), singleton(1), singleton(2)),
        inter_edges=tuple((v, axis) for v in (3, 4, 5, 6, 7, 8) for axis in (1, 2)),
    )
    # Above the subset-search cap: every cross pair of two tetrahedra plus
    # six well-spread edges to a third is rigid; with three it is not.
    full = cross_pairs([complete(4, 1), complete(4, 5)])
    to_third = [(9, 1), (9, 2), (9, 3), (10, 1), (10, 2), (11, 1)]
    metas["three-tetrahedra-22-rigid"] = tetrahedra(3, full + to_third)
    metas["three-tetrahedra-19-loose"] = tetrahedra(3, full + to_third[:3])
    return metas


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verdict_matches_counting_first_reference(name):
    m_meta = CORPUS[name]
    for seed in (0, 7):
        new = meta_rigid_3d(m_meta, seed=seed)
        old = reference_meta_rigid_3d(m_meta, seed=seed)
        assert new.to_dict() == old.to_dict()


def test_corpus_covers_every_verdict_kind():
    kinds = set()
    for m_meta in CORPUS.values():
        d = meta_rigid_3d(m_meta).to_dict()
        kinds.add((d["rigid"], d["countingOk"], "witnessSubset" in d))
    assert kinds >= {
        (True, True, False),
        (True, None, False),
        (False, True, False),
        (False, False, True),
        (False, False, False),
        (False, None, False),
    }
    assert any(
        len(mv.vertices) == 2 for m in CORPUS.values() for mv in m.meta_vertices
    )


def test_rigid_verdict_runs_no_counting_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("counting search ran on a rigid merge")

    rigid = [m for m in CORPUS.values() if meta_rigid_3d(m).rigid]
    monkeypatch.setattr(meta, "_counting_screen_3d", forbidden)
    assert len(rigid) >= 10
    for m_meta in rigid:
        assert meta_rigid_3d(m_meta).rigid


def test_check_meta_builds_the_verdict_once(tmp_path, monkeypatch, capsys):
    p = tmp_path / "meta.json"
    p.write_text(json.dumps(CORPUS["two-tetrahedra-good-6"].to_dict()))
    members = count_calls(monkeypatch, "_member_gadgets", meta._member_gadgets)
    merges = count_calls(monkeypatch, "_decide_merge", meta._decide_merge)
    assert main(["check-meta", str(p), "--dim", "3"]) == 0
    capsys.readouterr()
    assert (len(members), len(merges)) == (1, 1)


def test_verify_plan_checks_each_member_once(monkeypatch):
    members = [complete(4, 1), complete(4, 5)]
    plan = MergePlan(
        edges=tuple(
            PlanEdge(t, h, "op-v")
            for t, h in ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5))
        )
    )
    calls = count_calls(monkeypatch, "is_persistent", persistence.is_persistent)
    report = verify_plan(members, plan, 3)
    assert report.persistent and report.edge_optimal_persistent
    assert [args[0] for args in calls] == members
