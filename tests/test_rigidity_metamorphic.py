"""Vertex addition leaves the rigidity verdict as it was.

A vertex joined to exactly dim distinct vertices adds dim independent
rows at a generic placement (Tay and Whiteley, 1985), so
``check-rigidity`` must keep ``rigid``, and where both reports carry a
``rankDeficit``, its ``observed`` and ``required`` each grow by dim.  No
reference is needed, so the relation is checked at n = 20-120, where the
differential references are too slow.  In 3D: on grown (rigid),
four-bar (not rigid, a K5 core), back-braced (rigid with redundant
edges) and banana-based (not rigid, a core whose flex the rank ceiling
cannot see) graphs.  In 2D, where the pebble game decides exactly: on
grown (minimally rigid), braced (rigid with redundant edges), hinged
(two grown bodies sharing one vertex: not rigid, no circuit) and hinged
and braced (not rigid, with a circuit) graphs.
"""
import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metaform.cli import main
from metaform.graph import Formation

from conftest import back_braced
from test_bench_corpora import corpus
from test_rank_ceiling_differential import banana_grown
from test_screens_differential import four_bar, grown

KINDS = ("grown", "four-bar", "back-braced", "banana")


def build(kind, n, rng):
    if kind == "grown":
        return grown(n, rng)
    if kind == "four-bar":
        return four_bar(n, rng)
    if kind == "banana":
        return banana_grown(n, rng)
    # Vertex addition oriented toward earlier vertices, then the three
    # smallest ids braced back to the largest.
    vs, edges = grown(n, rng)
    f = Formation(vertices=tuple(vs), edges=tuple((max(e), min(e)) for e in edges))
    f = back_braced(f, 3)
    return list(f.vertices), list(f.edges)


KINDS_2D = ("grown", "braced", "hinged", "hinged+braced")


def build_2d(kind, n, rng):
    """A 2D graph on n vertices, grown by vertex addition as one body, or
    as two sharing one vertex (a hinge), and then ``braced`` with 3 more
    edges inside the first body."""
    if kind.startswith("hinged"):
        k = n // 2
        body, edges = corpus.grown(k, 2, rng)
        # The second body starts at vertex k, the first body's last.
        more, more_edges = corpus.grown(n - k + 1, 2, rng, base=k)
        vs, edges = body + more[1:], edges + more_edges
    else:
        vs, edges = corpus.grown(n, 2, rng)
        body = vs
    if kind.endswith("braced"):
        joined = {frozenset(e) for e in edges}
        free = [p for p in itertools.combinations(body, 2) if frozenset(p) not in joined]
        edges = edges + rng.sample(free, 3)
    return vs, edges


def check_rigidity(path, vs, edges, dim=3):
    """The report of ``check-rigidity`` on the graph, and its exit code."""
    path.write_text(json.dumps({"vertices": vs, "edges": [list(e) for e in edges]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-rigidity", str(path), "--dim", str(dim)])
    report = json.loads(out.getvalue())
    assert code == (0 if report["rigid"] else 1)
    return report


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.integers(20, 120), st.randoms(use_true_random=False))
def test_vertex_addition_keeps_the_verdict(kind, n, rng):
    vs, edges = build(kind, n, rng)
    v = max(vs) + 1
    added = edges + [(v, t) for t in rng.sample(vs, 3)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "g.json"
        before = check_rigidity(path, vs, edges)
        after = check_rigidity(path, vs + [v], added)
    assert after["rigid"] == before["rigid"] == (kind in ("grown", "back-braced"))
    if "rankDeficit" in before and "rankDeficit" in after:
        assert after["rankDeficit"] == {
            "observed": before["rankDeficit"]["observed"] + 3,
            "required": before["rankDeficit"]["required"] + 3,
        }


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS_2D), st.integers(20, 120), st.randoms(use_true_random=False))
def test_vertex_addition_keeps_the_2d_verdict(kind, n, rng):
    vs, edges = build_2d(kind, n, rng)
    v = max(vs) + 1
    added = edges + [(v, t) for t in rng.sample(vs, 2)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "g.json"
        before = check_rigidity(path, vs, edges, dim=2)
        after = check_rigidity(path, vs + [v], added, dim=2)
    assert after["rigid"] == before["rigid"] == (kind in ("grown", "braced"))
    assert ("violatingEdges" in before) == ("violatingEdges" in after) == (kind == "hinged+braced")
    if "rankDeficit" in before and "rankDeficit" in after:
        assert after["rankDeficit"] == {
            "observed": before["rankDeficit"]["observed"] + 2,
            "required": before["rankDeficit"]["required"] + 2,
        }
