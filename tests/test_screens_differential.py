"""The 3D witness screens against the searches they replaced.

``three_connectivity`` reads every separating pair (a, b) off one
cut-vertex search of G - a, and ``sparsity_violation`` searches only the
4-core from size 5.  The references below are the earlier versions: a
reachability search after removing each vertex pair, and the (3,6)
search over every induced subset from size 3.  Both pairs must agree on
the verdict and on the witness, which is the lexicographically first
one.  ``test_rigidity_differential.py`` uses these references too.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import octahedron_edges

from metaform import rigidity
from metaform.errors import ResourceLimitError
from metaform.generate import banana
from metaform.graph import UndirectedView
from metaform.rigidity import (
    SPARSITY_3D_VERTEX_CAP,
    SparsityParams,
    sparsity_violation,
    three_connectivity,
)


def reference_three_connectivity(g):
    """Whole-graph 3-connectivity by vertex-pair removal + reachability."""
    verts = sorted(g.vertices)
    n = len(verts)
    if n < 4:
        return True, None
    adj = g.adjacency()

    def connected_without(removed):
        remaining = [v for v in verts if v not in removed]
        start = remaining[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    for a, b in itertools.combinations(verts, 2):
        if not connected_without({a, b}):
            return False, (a, b)
    return True, None


def reference_sparsity_violation(
    g, params=SparsityParams(3, 6), cap=SPARSITY_3D_VERTEX_CAP
):
    """Exhaustive (3,6) search over every induced subset from size 3, in
    ``combinations`` order of the sorted ids; the witness edges sorted."""
    n = len(g.vertices)
    if n > cap:
        raise ResourceLimitError(
            f"(3,6) sparsity search capped at {cap} vertices, got {n}"
        )
    verts = sorted(g.vertices)
    for size in range(3, n + 1):
        for subset in itertools.combinations(verts, size):
            sub = set(subset)
            induced = [e for e in g.edges if e[0] in sub and e[1] in sub]
            if len(induced) > 3 * size - 6:
                return tuple(sorted(induced))
    return None


def view(vertices, edges):
    return UndirectedView(
        vertices=tuple(vertices),
        edges=tuple(sorted({(min(e), max(e)) for e in edges})),
    )


def random_graph(n, density, rng, labels=None):
    """G(n, p) on the given labels (default 1..n), vertices in label order."""
    vs = list(labels) if labels is not None else list(range(1, n + 1))
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < density]
    return view(vs, edges)


def grown(n, rng, base=1):
    """Vertex addition from a triangle: rigid, 3n-6 edges."""
    vs = list(range(base, base + 3))
    edges = list(itertools.combinations(vs, 2))
    for v in range(base + 3, base + n):
        edges += [(t, v) for t in rng.sample(vs, 3)]
        vs.append(v)
    return vs, edges


def four_bar(n, rng):
    """Grown core on n-2 vertices plus the edge closing a K5, and a hinge pair."""
    vs, edges = grown(n - 2, rng)
    have = {e for e in edges if 5 in e}
    edges += [(t, 5) for t in range(1, 5) if (t, 5) not in have][:1]
    u, w = n - 1, n
    targets = rng.sample(vs, 4)
    edges += [(t, u) for t in targets[:2]] + [(t, w) for t in targets[2:]]
    edges.append((u, w))
    return vs + [u, w], edges


def pendant_at_cut(core, rng):
    """G - 1 has two components, one of them the lone vertex 2.

    Vertex 1 is joined to every vertex of a random connected core on
    3.., and to 2, whose only neighbour it is.  So (1, 2) is not a
    separating pair, but (1, b) is for every core vertex b.
    """
    vs = list(range(3, 3 + core))
    edges = [(vs[i], vs[rng.randrange(i)]) for i in range(1, core)]
    edges += [e for e in itertools.combinations(vs, 2) if rng.random() < 0.4]
    edges += [(1, v) for v in vs] + [(1, 2)]
    return view([1, 2] + vs, edges)


def hub_of_components(sizes, rng):
    """G - 1 has one component per size: vertex 1 joins random blocks."""
    vs, edges, nxt = [1], [], 2
    for size in sizes:
        block = list(range(nxt, nxt + size))
        nxt += size
        edges += [e for e in itertools.combinations(block, 2) if rng.random() < 0.7]
        edges += [(1, v) for v in block]
        vs += block
    return view(vs, edges)


def components_without(g, a):
    """Number of components of G - a."""
    adj = g.adjacency()
    seen, count = {a}, 0
    for v in g.vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


# Vertex 1 on top, 2..6 around it, 7..11 around 12 below.
ICOSAHEDRON = (
    [(1, v) for v in range(2, 7)]
    + [(v, v % 5 + 2) for v in range(2, 7)]
    + [(v, v + 5) for v in range(2, 7)]
    + [(v, (v - 1) % 5 + 7) for v in range(2, 7)]
    + [(v, v % 5 + 7) for v in range(7, 12)]
    + [(v, 12) for v in range(7, 12)]
)


def corpus():
    rng = random.Random(19730601)
    graphs = {}
    for n in range(1, 15):
        for density in (0.15, 0.35, 0.6, 0.9):
            for k in range(2):
                graphs[f"random-{n}-{density}-{k}"] = random_graph(n, density, rng)
    for n in (6, 9, 12):
        labels = rng.sample(range(1, 60), n)
        graphs[f"unsorted-{n}"] = random_graph(n, 0.5, rng, labels)
        graphs[f"unsorted-dense-{n}"] = random_graph(n, 0.85, rng, labels)
    for core in (3, 5, 8):
        graphs[f"pendant-at-cut-{core}"] = pendant_at_cut(core, rng)
    for sizes in ((1, 1, 1), (1, 2, 3), (4, 1, 4), (2, 2, 2, 2)):
        graphs[f"hub-{'-'.join(map(str, sizes))}"] = hub_of_components(sizes, rng)
    for n in (4, 8, 12, 20, 33, 60):
        graphs[f"grown-{n}"] = view(*grown(n, rng))
    for n in (8, 13, 16, 20, 30, 60):
        graphs[f"four-bar-{n}"] = view(*four_bar(n, rng))
    # Whole graph in the 4-core: the core search runs to the end with no
    # hit (octahedron, K4,4, icosahedron) or hits only at size n (K5,5).
    graphs["octahedron"] = view(*octahedron_edges())
    for k in (4, 5):
        graphs[f"k{k}{k}"] = view(
            range(1, 2 * k + 1),
            itertools.product(range(1, k + 1), range(k + 1, 2 * k + 1)),
        )
    graphs["icosahedron"] = view(range(1, 13), ICOSAHEDRON)
    b = banana()
    graphs["banana"] = b.underlying()
    # Vertex order is not label order: both witnesses follow sorted
    # labels, whatever the order of ``g.vertices``.
    vs, edges = four_bar(11, rng)
    graphs["four-bar-11-shuffled"] = view(rng.sample(vs, len(vs)), edges)
    graphs["banana-reversed"] = view(tuple(reversed(b.vertices)), b.underlying().edges)
    return graphs


CORPUS = corpus()

# The reference sparsity search visits every subset of a graph with no
# violation.  Larger graphs are compared only where it finds one early:
# four-bar graphs, whose K5 on 1..5 is its first subset of size 5.
SPARSITY_REFERENCE_MAX_N = 14


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_three_connectivity_matches_pair_removal(name):
    g = CORPUS[name]
    assert three_connectivity(g) == reference_three_connectivity(g)


@pytest.mark.parametrize(
    "name",
    sorted(
        k for k, g in CORPUS.items()
        if len(g.vertices) <= SPARSITY_REFERENCE_MAX_N
        or (k.startswith("four-bar") and len(g.vertices) <= SPARSITY_3D_VERTEX_CAP)
    ),
)
def test_sparsity_matches_all_sizes_search(name):
    g = CORPUS[name]
    assert sparsity_violation(g) == reference_sparsity_violation(g)


@pytest.mark.parametrize("n", (4, 5))
def test_every_graph_on_few_vertices(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        g = view(range(1, n + 1), [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert three_connectivity(g) == reference_three_connectivity(g)
        assert sparsity_violation(g) == reference_sparsity_violation(g)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 99), min_size=1, max_size=9, unique=True),
    st.data(),
)
def test_hypothesis_graphs(labels, data):
    pairs = list(itertools.combinations(labels, 2))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = view(labels, [p for p, keep in zip(pairs, chosen) if keep])
    assert three_connectivity(g) == reference_three_connectivity(g)
    assert sparsity_violation(g) == reference_sparsity_violation(g)


def test_corpus_covers_each_branch():
    """Some G - a is split in two around a lone vertex, some in three or more."""
    assert components_without(CORPUS["pendant-at-cut-5"], 1) == 2
    assert three_connectivity(CORPUS["pendant-at-cut-5"]) == (False, (1, 3))
    assert components_without(CORPUS["hub-1-1-1"], 1) == 3
    assert three_connectivity(CORPUS["hub-1-1-1"]) == (False, (1, 2))
    verdicts = [three_connectivity(g) for g in CORPUS.values()]
    assert any(ok for ok, _ in verdicts) and any(not ok for ok, _ in verdicts)
    found = [sparsity_violation(CORPUS[k]) for k in ("four-bar-16", "four-bar-20")]
    assert all(v is not None and len(v) == 10 for v in found)


def test_cap_raises_on_n_even_with_a_small_core(monkeypatch):
    # The 4-core is the K5 on 1..5, a violation the core search would
    # find at once; the cap is on n, so it raises first.  The cap is read
    # when the search is called.
    rng = random.Random(5)
    g = view(*four_bar(SPARSITY_3D_VERTEX_CAP + 1, rng))
    with pytest.raises(ResourceLimitError):
        sparsity_violation(g)
    monkeypatch.setattr(rigidity, "SPARSITY_3D_VERTEX_CAP", 7)
    with pytest.raises(ResourceLimitError):
        sparsity_violation(CORPUS["banana"])
    monkeypatch.setattr(rigidity, "SPARSITY_3D_VERTEX_CAP", 8)
    assert sparsity_violation(CORPUS["banana"]) is None
