"""``check-meta`` against its earlier path, kept in ``check_meta_reference``.

``check-meta`` now builds each meta-vertex's gadget once, and that build
is the member's rigidity proof; it proves each member persistent before
one rigidity check of the substituted graph decides the merge in both
dimensions; and ``merged_persistence`` reads the merge's rigidity from
that verdict.  The reference proved each member rigid, rebuilt it as a
gadget, decided the merge, proved the members persistent only then, and
decided the merge's rigidity again on the flattened graph.  Both must
print the same stdout and stderr and exit with the same code.
"""
import contextlib
import io
import itertools
import json
import math
import random

import pytest

import check_meta_reference as reference
from metaform import cli, meta, persistence, rigidity
from metaform.cli import main
from metaform.errors import NotRigidError
from metaform.generate import gen
from metaform.graph import Formation, MetaFormation
from metaform.meta import merge_bound, size_classes
from metaform.planner import MergePlan, PlanEdge, verify_plan
from metaform.persistence import ledger

from conftest import complete, count_calls, pair, shift, singleton, triangle

SEEDS = (0, 7)


def path_member(n: int, base: int) -> Formation:
    """A path: not rigid in either dimension once n >= 3."""
    vs = tuple(range(base, base + n))
    return Formation(vertices=vs, edges=tuple(zip(vs[1:], vs)))


def dangler(dim: int, base: int) -> Formation:
    """K_{dim+1} plus a vertex w with dim - 1 out-edges and one in-edge from
    the top vertex: rigid, not persistent (the top vertex may drop it)."""
    core = complete(dim + 1, base)
    w = base + dim + 1
    top = core.vertices[-1]
    extra = tuple((w, v) for v in core.vertices[: dim - 1]) + ((top, w),)
    return Formation(vertices=core.vertices + (w,), edges=core.edges + extra)


def reoriented(f: Formation, rng) -> Formation:
    return Formation(
        vertices=f.vertices,
        edges=tuple(e if rng.random() < 0.5 else (e[1], e[0]) for e in f.edges),
    )


def random_member(rng, dim: int, base: int) -> Formation:
    roll = rng.random()
    if roll < 0.15:
        return singleton(base)
    if roll < 0.3:
        if dim == 3 and rng.random() < 0.1:
            return Formation(vertices=(base, base + 1))
        return pair(base, base + 1)
    if roll < 0.55:
        size = rng.randint(dim + 1, dim + 3)
        return shift(gen(f"min-persistent-{dim}d", size, rng.randint(0, 999)), base - 1)
    if roll < 0.85:
        # Over-braced: K5 to K7, oriented high to low or at random.
        k = complete(rng.randint(5, 7), base)
        return k if rng.random() < 0.85 else reoriented(k, rng)
    if roll < 0.92:
        return dangler(dim, base)
    return path_member(rng.randint(3, 4), base)


def terminal_count(f: Formation, dim: int) -> int:
    return math.prod(
        math.comb(d, dim) for d in f.out_degrees().values() if d > dim
    )


def orient(members, chosen, dim: int, rng, compliant: bool):
    """Orient cross pairs at random, or from the endpoint with more local
    DOF left, which keeps the inter-edges compliant while DOF lasts."""
    spare = {}
    for mv in members:
        spare.update(ledger(mv, dim).dof)
    out = []
    for a, b in chosen:
        if compliant:
            t, h = (a, b) if spare[a] >= spare[b] else (b, a)
            spare[t] -= 1
        else:
            t, h = (a, b) if rng.random() < 0.5 else (b, a)
        out.append((t, h))
    return tuple(out)


def random_meta(rng, dim: int) -> MetaFormation:
    """Two to four members; inter-edges near the merge bound."""
    while True:
        members, base = [], 1
        for _ in range(rng.randint(2, 4)):
            members.append(random_member(rng, dim, base))
            base += len(members[-1].vertices)
        if base - 1 < dim:
            continue
        cross = [
            (a, b)
            for i, ga in enumerate(members)
            for gb in members[i + 1:]
            for a in ga.vertices
            for b in gb.vertices
        ]
        bound = merge_bound(size_classes(MetaFormation(meta_vertices=tuple(members)), dim))
        k = min(len(cross), max(0, bound + rng.randint(-2, 1)))
        chosen = rng.sample(cross, k)
        m = MetaFormation(
            meta_vertices=tuple(members),
            inter_edges=orient(members, chosen, dim, rng, rng.random() < 0.6),
        )
        # The non-compliant fallback walks the flattened graph's terminals.
        if terminal_count(m.flatten(), dim) <= 3000:
            return m


def rigid_non_persistent_5() -> Formation:
    """Rigid in 3D, not persistent: 13 may drop 13 -> 14 and leave 14 on two edges."""
    edges = ((11, 10), (12, 10), (12, 11), (13, 10), (13, 11), (13, 12), (13, 14),
             (14, 10), (14, 11))
    return Formation(vertices=(10, 11, 12, 13, 14), edges=edges)


def middle_not_persistent(middle: Formation) -> MetaFormation:
    """Two K4s joined by all 16 pairs, and ``middle`` hung on two inter-edges:
    a not-rigid merge whose 3D counting search runs for seconds."""
    k4s = (complete(4, 0), complete(4, 20))
    inter = tuple((a, b) for a in k4s[0].vertices for b in k4s[1].vertices)
    return MetaFormation(
        meta_vertices=(k4s[0], middle, k4s[1]), inter_edges=inter + ((0, 10), (1, 11))
    )


def named_metas():
    k4 = [complete(4, 1 + 4 * i) for i in range(3)]
    good_6 = ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5))
    return {
        ("not-persistent-middle", 3): middle_not_persistent(rigid_non_persistent_5()),
        ("not-persistent-middle", 2): middle_not_persistent(dangler(2, 10)),
        ("two-K4-good-6", 3): MetaFormation(meta_vertices=tuple(k4[:2]), inter_edges=good_6),
        ("two-K4-five", 3): MetaFormation(meta_vertices=tuple(k4[:2]), inter_edges=good_6[:5]),
        ("two-triangles-3", 2): MetaFormation(
            meta_vertices=(triangle(1), triangle(4)), inter_edges=((1, 4), (1, 5), (2, 4))
        ),
        ("K7-K5-over-braced", 3): MetaFormation(
            meta_vertices=(complete(7, 1), complete(5, 8)),
            inter_edges=((1, 8), (1, 9), (1, 10), (2, 8), (2, 9), (3, 8)),
        ),
        ("K6-K5-over-braced", 2): MetaFormation(
            meta_vertices=(complete(6, 1), complete(5, 7)),
            inter_edges=((1, 7), (1, 8), (2, 7)),
        ),
        ("not-rigid-member", 2): MetaFormation(
            meta_vertices=(triangle(1), path_member(3, 4)), inter_edges=((1, 4),)
        ),
        ("not-rigid-member", 3): MetaFormation(
            meta_vertices=(complete(4, 1), path_member(4, 5)), inter_edges=((1, 5),)
        ),
        ("not-persistent-member", 3): MetaFormation(
            meta_vertices=(complete(4, 1), dangler(3, 5)), inter_edges=good_6
        ),
        ("pair-without-edge", 3): MetaFormation(
            meta_vertices=(complete(4, 1), Formation(vertices=(5, 6))),
            inter_edges=((1, 5), (2, 5), (1, 6)),
        ),
        ("singletons", 3): MetaFormation(
            meta_vertices=(singleton(1), singleton(2), singleton(3)),
            inter_edges=((1, 2), (1, 3), (2, 3)),
        ),
        ("two-singletons", 2): MetaFormation(
            meta_vertices=(singleton(1), singleton(2)), inter_edges=((1, 2),)
        ),
        ("two-singletons-apart", 2): MetaFormation(meta_vertices=(singleton(1), singleton(2))),
        ("pair-and-singleton", 3): MetaFormation(
            meta_vertices=(pair(1, 2), singleton(3)), inter_edges=((3, 1), (3, 2))
        ),
        ("too-few-vertices", 3): MetaFormation(meta_vertices=(singleton(1), singleton(2))),
        ("no-members", 2): MetaFormation(meta_vertices=()),
        ("non-compliant", 2): MetaFormation(
            meta_vertices=(triangle(1), triangle(4)), inter_edges=((3, 4), (3, 5), (2, 4))
        ),
    }


def corpus():
    ops = {}
    for (name, dim), m in named_metas().items():
        ops[f"{name}-{dim}d"] = (m, dim)
    rng = random.Random(20071017)
    for dim in (2, 3):
        for i in range(30):
            ops[f"random-{dim}d-{i}"] = (random_meta(rng, dim), dim)
    return ops


CORPUS = corpus()


def check_meta(tmp_path, m, dim, seed):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps(m.to_dict()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-meta", str(path), "--dim", str(dim), "--seed", str(seed)])
    return out.getvalue(), err.getvalue(), code


def reference_check_meta(tmp_path, monkeypatch, m, dim, seed):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "check_meta", reference.check_meta)
        return check_meta(tmp_path, m, dim, seed)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_check_meta_matches_reference(name, tmp_path, monkeypatch):
    m, dim = CORPUS[name]
    for seed in SEEDS:
        assert check_meta(tmp_path, m, dim, seed) == reference_check_meta(
            tmp_path, monkeypatch, m, dim, seed
        )


def outcome(out, err, code):
    if code == 2:
        return ("error", err)
    doc = json.loads(out)
    merged = doc["mergedPersistence"]
    return (doc["rigid"], merged["persistent"], doc["edgeOptimalPersistent"])


def test_corpus_covers_every_outcome(tmp_path):
    seen = {dim: set() for dim in (2, 3)}
    errors = set()
    for m, dim in CORPUS.values():
        kind = outcome(*check_meta(tmp_path, m, dim, 0))
        if kind[0] == "error":
            errors.add(kind[1])
        else:
            seen[dim].add(kind)
    for dim in (2, 3):
        assert {(True, True, True), (True, True, False), (True, False, False),
                (False, False, False)} <= seen[dim]
    assert any("not rigid" in e for e in errors)
    assert any("not persistent" in e for e in errors)
    assert any("two vertices but no edge" in e for e in errors)
    members = [mv for m, _ in CORPUS.values() for mv in m.meta_vertices]
    assert {1, 2} <= {len(mv.vertices) for mv in members}
    assert any(len(mv.edges) > 3 * len(mv.vertices) - 6 >= 9 for mv in members)


def three_k4():
    """Three K4s joined by 12 inter-edges that leave local DOFs: an
    edge-optimal persistent merge."""
    members = [complete(4, 1 + 4 * i) for i in range(3)]
    inter = (
        (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5),
        (9, 1), (9, 2), (9, 5), (10, 1), (10, 6), (11, 2),
    )
    return MetaFormation(meta_vertices=tuple(members), inter_edges=inter)


def test_three_k4_proves_each_fact_once(tmp_path, monkeypatch):
    m = three_k4()
    checks = count_calls(monkeypatch, "rigid_3d_check", rigidity.rigid_3d_check)
    spans = count_calls(
        monkeypatch, "minimally_rigid_spanning", rigidity.minimally_rigid_spanning
    )
    proved = count_calls(monkeypatch, "is_persistent", persistence.is_persistent)
    compliance = count_calls(
        monkeypatch, "local_dof_compliance", persistence.local_dof_compliance
    )
    out, err, code = check_meta(tmp_path, m, 3, 0)
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["edgeOptimalPersistent"] and doc["mergedPersistence"]["persistent"]
    # No rigidity check of the substituted graph on a rigid merge, whose
    # selected subset comes from the merge's one greedy pass; each K4's
    # gadget; each member's persistence; one compliance check for both
    # the merge's persistence and edgeOptimalPersistent.
    assert (len(checks), len(spans), len(proved), len(compliance)) == (0, 3, 3, 1)
    assert [args[0] for args in proved] == list(m.meta_vertices)


def test_member_gadget_is_the_rigidity_proof():
    """The gadget build fails exactly where the member check says not rigid."""
    rng = random.Random(5)
    for dim in (2, 3):
        for _ in range(40):
            n = rng.randint(dim + 1, 7)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = rng.sample(pairs, rng.randint(n, len(pairs)))
            f = Formation(vertices=tuple(range(1, n + 1)), edges=tuple(edges))
            for trials in (1, 3):
                rigid = rigidity.check_rigidity(f.underlying(), dim, trials=trials).rigid
                try:
                    rigidity.minimally_rigid_spanning(f.underlying(), dim, trials=trials)
                    built = True
                except NotRigidError:
                    built = False
                assert built == rigid


@pytest.mark.parametrize("dim", [2, 3])
def test_non_persistent_member_fails_before_the_witness_search(dim, tmp_path, monkeypatch):
    m, _ = CORPUS[f"not-persistent-middle-{dim}d"]
    screens = count_calls(monkeypatch, "_counting_screen_3d", meta._counting_screen_3d)
    subsets = count_calls(
        monkeypatch, "_smallest_violating_subset", meta._smallest_violating_subset
    )
    out, err, code = check_meta(tmp_path, m, dim, 0)
    assert (out, err, code) == ("", f"error: meta-vertex 1 is not persistent in {dim}D\n", 2)
    assert (screens, subsets) == ([], [])


def test_verify_plan_ranks_only_a_compliant_merge(monkeypatch):
    checks = count_calls(monkeypatch, "check_rigidity", rigidity.check_rigidity)
    seen = []
    for edges in (((3, 4), (3, 5), (2, 4)), ((1, 4), (1, 5), (2, 4))):
        plan = MergePlan(edges=tuple(PlanEdge(t, h, "op") for t, h in edges))
        report = verify_plan([triangle(1), triangle(4)], plan, 2)
        seen.append((report.persistent, len(checks)))
    # Vertex 3 has no local DOF, so the first plan is decided by the full
    # criterion alone; the compliant one by one check of the flattened graph.
    assert seen == [(False, 0), (True, 1)]
