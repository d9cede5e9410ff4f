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
