"""``check-meta`` under an order-preserving relabel.

Every id is mapped by v -> 3v + 7, which keeps the order, and each
meta-vertex's vertex and edge lists are shuffled; the members and the
inter-edges keep their order.  The report of the mapped meta must be
the mapped report: the selected and witness subsets (inter-edges in
their declared order), the separating pair (the smallest, and the map
keeps the order) and the merged persistence report.  Member indices,
classes, bounds and counts stay.

In 2D the pebble game and the persistence walk are exact, whatever the
order.  In 3D the shuffle moves every trial placement, since vertices
are placed in list order, and a member's gadget depends on its edge
order; the verdicts and ranks are the generic ones at both, except with
negligible probability.

With every member rigid, the merge verdict ``check-meta`` prints
(``meta_rigid``) must be ``check_rigidity``'s on the flattened graph,
and a not-rigid 2D verdict must carry ``laman_check_2d``'s rank deficit:
each member's gadget spans the closure of the member's edges, so the
gadget-substituted graph and the flattened one have the same rank.
"""
import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metaform.cli import main
from metaform.graph import Formation, MetaFormation
from metaform.meta import SUBSET_SEARCH_CAP, merge_bound, meta_rigid, size_classes
from metaform.rigidity import check_rigidity, laman_check_2d

from conftest import complete, pair, singleton
from test_bench_corpora import corpus
from test_merge_differential import random_meta
from test_persistence_metamorphic import relabel, relabeled_report


def relabeled_meta_report(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out["mergedPersistence"] = relabeled_report(out["mergedPersistence"])
    for key in ("selectedSubset", "witnessSubset"):
        if key in out:
            out[key] = [[relabel(t), relabel(h)] for t, h in out[key]]
    if "separatingPair" in out:
        out["separatingPair"] = [relabel(v) for v in out["separatingPair"]]
    return out


def check_meta(tmp: Path, m: MetaFormation, dim: int):
    path = tmp / "meta.json"
    path.write_text(json.dumps(m.to_dict()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-meta", str(path), "--dim", str(dim)])
    return code, json.loads(out.getvalue()) if out.getvalue() else err.getvalue()


def relabeled(m: MetaFormation, shuffle: random.Random) -> MetaFormation:
    members = []
    for mv in m.meta_vertices:
        vertices = [relabel(v) for v in mv.vertices]
        edges = [(relabel(t), relabel(h)) for t, h in mv.edges]
        shuffle.shuffle(vertices)
        shuffle.shuffle(edges)
        members.append(Formation(vertices=tuple(vertices), edges=tuple(edges)))
    inter = tuple((relabel(t), relabel(h)) for t, h in m.inter_edges)
    return MetaFormation(meta_vertices=tuple(members), inter_edges=inter)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    shuffle=st.randoms(use_true_random=False),
)
def test_relabeled_meta_gets_the_relabeled_report(dim, seed, shuffle):
    m = random_meta(random.Random(seed), dim)
    with tempfile.TemporaryDirectory() as tmp:
        code, report = check_meta(Path(tmp), m, dim)
        got = check_meta(Path(tmp), relabeled(m, shuffle), dim)
    if code == 2:
        assert got == (code, report)
    else:
        assert got == (code, relabeled_meta_report(report))


def rigid_members_meta(rng: random.Random, dim: int) -> MetaFormation:
    """Two to six rigid members, up to 120 vertices in all: singletons,
    rods, K4-K6 and vertex-addition members of up to 40 vertices, joined
    by inter-edges near the merge bound, drawn from two or three vertices
    per member in one meta of three.  A 3D meta gets at most 12 inter-edges
    or more than ``SUBSET_SEARCH_CAP``: a not-rigid verdict runs the
    counting screen's bitmask search, which takes seconds at 15 to 18."""
    count, members, base = rng.randint(2, 6), [], 1
    while len(members) < count or base - 1 < dim:
        roll = rng.random()
        if roll < 0.15:
            f = singleton(base)
        elif roll < 0.3:
            f = pair(base, base + 1)
        elif roll < 0.5:
            f = complete(rng.randint(4, 6), base)
        else:
            vertices, edges = corpus.grown(rng.randint(dim + 1, 40), dim, rng, base)
            f = Formation(vertices=tuple(vertices), edges=tuple(edges))
        if base - 1 + len(f.vertices) > 120:
            break
        members.append(f)
        base += len(f.vertices)
    pools = [f.vertices for f in members]
    if rng.random() < 1 / 3:
        pools = [rng.sample(vs, min(len(vs), rng.randint(2, 3))) for vs in pools]
    cross = [(a, b) for i, pa in enumerate(pools) for pb in pools[i + 1 :] for a in pa for b in pb]
    bound = merge_bound(size_classes(MetaFormation(meta_vertices=tuple(members)), dim))
    k = min(len(cross), max(1, bound + rng.randint(-3, 2)))
    if dim == 3 and 12 < k <= SUBSET_SEARCH_CAP:
        k = 12
    return MetaFormation(meta_vertices=tuple(members), inter_edges=tuple(rng.sample(cross, k)))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 10**6))
def test_merge_verdict_is_the_flattened_graphs(dim, seed):
    m = rigid_members_meta(random.Random(seed), dim)
    verdict = meta_rigid(m, dim)
    flat = m.flatten().underlying()
    assert verdict.rigid == check_rigidity(flat, dim).rigid
    if dim == 2 and not verdict.rigid:
        assert verdict.rank_deficit == laman_check_2d(flat).rank_deficit
