"""``check-persistence`` under an order-preserving relabel, and under
vertex addition.

Mapping every id by v -> 3v + 7, which keeps the order, and shuffling the
vertex and edge lists must map the whole report: the ledger, the leaders
and the witness terminal, whose blocks come from the sorted edges, so the
smallest failing terminal maps to the smallest.  No reference is needed,
so formations need not be small.

Adding a vertex with no in-edges and at least dim out-edges to distinct
vertices keeps the verdict: each terminal gains the vertex with dim of
its edges, a vertex addition, which keeps rigidity either way.  Changing
the vertex's choice never makes a failing terminal pass, so the smallest
failing one keeps its first choice: a witness gains the vertex's first
dim out-edges, in sorted position.

Spending the spare DOFs of the ``dim`` smallest ids of a persistent
acyclic formation on edges back to the largest ids (``back_braced``)
keeps it persistent, with the same terminal count; the braced formation
is cyclic, so a large core is left after the peel.  A dangler, a vertex
w with dim - 1 edges into the formation and a vertex u with dim edges
into it and one to w, keeps ``check-rigidity``'s rigid verdict and makes
every terminal fail: w has dim - 1 edges there.  The three relations are
also driven as one chain, brace, then dangler, then vertex addition, on
one formation.

In 2D the verdict is combinatorial and the relation is exact.  In 3D the
shuffle moves every trial placement, since vertices are placed in list
order; the observed rank is the generic one at both, except with
negligible probability.
"""
import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from metaform.cli import main
from metaform.graph import Formation
from metaform.persistence import terminal_subgraphs

from conftest import back_braced, nonstructural_3d
from test_bench_corpora import corpus
from test_persistence_peel_differential import acyclic_dense, dangler, random_digraph
from test_rigidity_metamorphic import check_rigidity


def relabel(v: int) -> int:
    return 3 * v + 7


def relabeled_report(report: dict) -> dict:
    """The report with every vertex id mapped; counts and flags stay."""
    out = json.loads(json.dumps(report))
    led = out.get("ledger")
    if led is not None:
        for key in ("outDegree", "dof"):
            led[key] = {str(relabel(int(v))): d for v, d in led[key].items()}
        led["leaders"] = [relabel(v) for v in led["leaders"]]
    if "witnessTerminal" in out:
        out["witnessTerminal"] = [[relabel(t), relabel(h)] for t, h in out["witnessTerminal"]]
    if "witnessLeaders" in out:
        out["witnessLeaders"] = [relabel(v) for v in out["witnessLeaders"]]
    return out


def check_persistence(tmp: Path, f: Formation, dim: int):
    path = tmp / "f.json"
    path.write_text(json.dumps(f.to_dict()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-persistence", str(path), "--dim", str(dim)])
    return code, json.loads(out.getvalue()) if out.getvalue() else err.getvalue()


def formation(graph) -> Formation:
    vertices, edges = graph
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


@st.composite
def formations(draw):
    """A 2D or 3D formation: grown by vertex addition (n = 20-120), acyclic
    with over-braced vertices and so several terminals, either with a
    dangler (not persistent), back-braced so that a cyclic core keeps its
    terminals, a small random digraph, or, in 3D, one with two leaders."""
    dim = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(
        ["grown", "dense", "dense+dangler", "back-braced", "back-braced+dangler", "random"]
        + (["two-leaders"] if dim == 3 else [])
    ))
    if kind == "grown":
        return dim, formation(corpus.grown(draw(st.integers(20, 120)), dim, rng))
    if kind == "two-leaders":
        return dim, nonstructural_3d(draw(st.integers(1, 50)))
    if kind == "random":
        return dim, random_digraph(rng, draw(st.integers(3, 9)))
    n = draw(st.integers(20, 120)) if kind.startswith("dense") else draw(st.integers(8, 24))
    core = corpus.acyclic_dense(n, dim, draw(st.integers(0, 3)), rng)
    if kind.startswith("back-braced"):
        core = back_braced(formation(core), dim)
        core = (list(core.vertices), list(core.edges))
    if kind.endswith("+dangler"):
        core = corpus.dangler(core, dim, rng)
    return dim, formation(core)


@settings(max_examples=150, deadline=None)
@given(case=formations(), shuffle=st.randoms(use_true_random=False))
def test_relabeled_formation_gets_the_relabeled_report(case, shuffle):
    dim, f = case
    # A dense random digraph can have up to millions of terminals.
    assume(len(terminal_subgraphs(f, dim, cap=10**9)) <= 2000)
    vertices = [relabel(v) for v in f.vertices]
    edges = [(relabel(t), relabel(h)) for t, h in f.edges]
    shuffle.shuffle(vertices)
    shuffle.shuffle(edges)
    g = Formation(vertices=tuple(vertices), edges=tuple(edges))
    with tempfile.TemporaryDirectory() as tmp:
        code, report = check_persistence(Path(tmp), f, dim)
        assert code in (0, 1)
        assert check_persistence(Path(tmp), g, dim) == (code, relabeled_report(report))


@settings(max_examples=100, deadline=None)
@given(
    case=formations(),
    added=st.randoms(use_true_random=False),
    extra=st.integers(0, 2),
)
def test_vertex_addition_keeps_the_verdict_and_extends_the_witness(case, added, extra):
    dim, f = case
    assume(len(terminal_subgraphs(f, dim, cap=10**9)) <= 2000)
    w = added.choice([v for v in range(max(f.vertices) + 2) if v not in f.vertex_set])
    heads = sorted(added.sample(f.vertices, min(len(f.vertices), dim + extra)))
    assume(len(heads) >= dim)
    g = Formation(vertices=f.vertices + (w,), edges=f.edges + tuple((w, h) for h in heads))
    with tempfile.TemporaryDirectory() as tmp:
        code, report = check_persistence(Path(tmp), f, dim)
        assert code in (0, 1)
        added_code, added_report = check_persistence(Path(tmp), g, dim)
    assert (added_code, added_report["persistent"]) == (code, report["persistent"])
    if "witnessTerminal" in report:
        witness = sorted(report["witnessTerminal"] + [[w, h] for h in heads[:dim]])
        assert added_report["witnessTerminal"] == witness
    else:
        assert "witnessTerminal" not in added_report


@st.composite
def dense_persistent(draw):
    """A persistent acyclic formation on n = 20-120 vertices, each vertex
    with dim out-edges to earlier ones and some with dim + 1; a dangler
    keeps its terminal count at most 2,000."""
    dim = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    extra = draw(st.integers(1, 4 if dim == 3 else 5))
    return dim, acyclic_dense(draw(st.integers(20, 120)), dim, extra, rng), rng


@settings(max_examples=40, deadline=None)
@given(case=dense_persistent())
def test_spare_dof_brace_keeps_persistence(case):
    dim, f, _ = case
    braced = back_braced(f, dim)
    assert len(braced.edges) > len(f.edges)
    assert len(terminal_subgraphs(braced, dim)) == len(terminal_subgraphs(f, dim))
    with tempfile.TemporaryDirectory() as tmp:
        code, report = check_persistence(Path(tmp), f, dim)
        braced_code, braced_report = check_persistence(Path(tmp), braced, dim)
    assert code == braced_code == 0
    assert report["persistent"] and braced_report["persistent"]


@settings(max_examples=40, deadline=None)
@given(case=dense_persistent(), brace=st.booleans())
def test_dangler_keeps_rigidity_and_breaks_persistence(case, brace):
    dim, f, rng = case
    if brace:
        f = back_braced(f, dim)
    g = dangler(f, dim, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        for h in (f, g):
            assert check_rigidity(path, list(h.vertices), list(h.edges), dim)["rigid"]
        assert check_persistence(Path(tmp), f, dim)[1]["persistent"]
        code, report = check_persistence(Path(tmp), g, dim)
    assert (code, report["persistent"]) == (1, False)


def brace_dangler_vertex_addition(dim, n, extra, rng, added):
    """Brace, then dangler, then vertex addition on one acyclic dense
    formation, each step checked by its single-step relation."""
    f = acyclic_dense(n, dim, extra, rng)
    braced = back_braced(f, dim)
    assert len(terminal_subgraphs(braced, dim)) == len(terminal_subgraphs(f, dim)) <= 2000
    g = dangler(braced, dim, rng)
    w = max(g.vertices) + 1
    heads = sorted(added.sample(g.vertices, dim + added.randint(0, 2)))
    h = Formation(vertices=g.vertices + (w,), edges=g.edges + tuple((w, x) for x in heads))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert check_persistence(tmp, f, dim)[0] == 0
        assert check_persistence(tmp, braced, dim)[0] == 0
        for x in (braced, g, h):
            assert check_rigidity(tmp / "x.json", list(x.vertices), list(x.edges), dim)["rigid"]
        code, report = check_persistence(tmp, g, dim)
        assert (code, report["persistent"]) == (1, False)
        added_code, added_report = check_persistence(tmp, h, dim)
    assert (added_code, added_report["persistent"]) == (1, False)
    witness = sorted(report["witnessTerminal"] + [[w, x] for x in heads[:dim]])
    assert added_report["witnessTerminal"] == witness


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(20, 60),
    extra=st.integers(1, 6),
    rng=st.randoms(use_true_random=False),
    added=st.randoms(use_true_random=False),
)
def test_brace_dangler_vertex_addition_chain_2d(n, extra, rng, added):
    brace_dangler_vertex_addition(2, n, extra, rng, added)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(20, 60),
    extra=st.integers(1, 5),
    rng=st.randoms(use_true_random=False),
    added=st.randoms(use_true_random=False),
)
def test_brace_dangler_vertex_addition_chain_3d(n, extra, rng, added):
    brace_dangler_vertex_addition(3, n, extra, rng, added)
