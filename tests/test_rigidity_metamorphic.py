"""Vertex addition leaves the 3D rigidity verdict as it was.

A vertex joined to exactly 3 distinct vertices adds 3 independent rows
at a generic placement (Tay and Whiteley, 1985), so ``check-rigidity
--dim 3`` must keep ``rigid``, and where both reports carry a
``rankDeficit``, its ``observed`` and ``required`` each grow by 3.  No
reference is needed, so the relation is checked at n = 20-120, where the
differential references are too slow: on grown (rigid), four-bar (not
rigid, a K5 core), back-braced (rigid with redundant edges) and
banana-based (not rigid, a core whose flex the rank ceiling cannot see)
graphs.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metaform.cli import main
from metaform.graph import Formation

from conftest import back_braced
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


def check_rigidity(path, vs, edges):
    """The report of ``check-rigidity --dim 3`` on the graph, and its exit code."""
    path.write_text(json.dumps({"vertices": vs, "edges": [list(e) for e in edges]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-rigidity", str(path), "--dim", "3"])
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
