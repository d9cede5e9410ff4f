"""``plan-merge`` and ``verify-plan`` under an order-preserving relabel.

The planner orders tails, heads and candidates by vertex id, and the rank
oracle places vertices by their position, not their id.  So mapping every
id by v -> 3v + 7, which keeps the order, must map the whole ``plan-merge``
report, plan included; and ``verify-plan`` must accept the relabeled
report.  No reference is needed, so members need not be small.
"""
import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metaform.cli import main
from metaform.graph import Formation

from conftest import pair, singleton
from test_bench_corpora import corpus
from test_head_screen_differential import formation


def relabel(v: int) -> int:
    return 3 * v + 7


def relabeled(f: Formation) -> Formation:
    return Formation(
        vertices=tuple(map(relabel, f.vertices)),
        edges=tuple((relabel(t), relabel(h)) for t, h in f.edges),
    )


def relabeled_report(report: dict) -> dict:
    """The report with every vertex id mapped; counts and indices stay."""
    out = json.loads(json.dumps(report))
    out["collection"] = [relabeled(Formation.from_dict(d)).to_dict() for d in report["collection"]]
    for e in out.get("plan", {}).get("edges", []):
        e["tail"], e["head"] = relabel(e["tail"]), relabel(e["head"])
    if "verification" in out:
        led = out["verification"]["ledger"]
        for key in ("outDegree", "dof"):
            led[key] = {str(relabel(int(v))): d for v, d in led[key].items()}
        led["leaders"] = [relabel(v) for v in led["leaders"]]
    return out


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def plan_merge(tmp: Path, tag: str, collection):
    paths = []
    for i, f in enumerate(collection):
        path = tmp / f"{tag}-{i}.json"
        path.write_text(json.dumps(f.to_dict()))
        paths.append(str(path))
    return run(["plan-merge", *paths, "--dim", "3"])


@st.composite
def collections(draw):
    """2-4 persistent 3D members on consecutive ids: singletons, pairs,
    vertex-addition members of 3-7 vertices and leader-braced members."""
    members, base = [], 1
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["singleton", "pair", "grown", "grown", "leader-braced"]))
        rng = random.Random(draw(st.integers(0, 10**6)))
        if kind == "singleton":
            f = singleton(base)
        elif kind == "pair":
            f = pair(base, base + 1)
        elif kind == "grown":
            f = formation(corpus.grown(draw(st.integers(3, 7)), 3, rng, base))
        else:
            f = formation(corpus.leader_braced(draw(st.integers(5, 7)), 1, rng, base))
        members.append(f)
        base += len(f.vertices)
    return members


@settings(max_examples=50, deadline=None)
@given(collection=collections())
def test_relabeled_collection_gets_the_relabeled_plan(collection):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, report = plan_merge(tmp, "a", collection)
        assert plan_merge(tmp, "b", [relabeled(f) for f in collection]) == (
            code,
            relabeled_report(report),
        )
        if code:
            return
        path = tmp / "plan.json"
        path.write_text(json.dumps(relabeled_report(report)))
        code, verdict = run(["verify-plan", str(path)])
    assert code == 0
    assert [verdict[k] for k in (
        "persistent", "structurallyPersistent", "edgeOptimalPersistent", "missingDofConserved"
    )] == [True] * 4
