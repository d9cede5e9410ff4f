"""The flat-array 3-connectivity scan against the scan it replaced, on
large graphs, and under relabelling.

``reference_three_connectivity`` (``three_connectivity_reference.py``)
is the same O(n(n + m)) scan over dicts and sets, so unlike the
pair-removal reference it can check graphs of n = 40-120: four-bar
gadgets (3-connected, so every G - a is searched), separating pairs
planted at the two highest ids, disconnected graphs, G - a split in two
around a lone vertex, and all of these under a random relabelling with
the vertex tuple shuffled.  The metamorphic test maps v -> 3v + 7, which
keeps the order of the ids, and shuffles the vertex and edge lists; the
separating pair and the 3D verdict must be the mapped ones.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metaform.graph import UndirectedView
from metaform.rigidity import (
    SPARSITY_3D_VERTEX_CAP,
    RigidityVerdict,
    check_rigidity,
    three_connectivity,
)

from test_screens_differential import components_without, four_bar, grown, view
from three_connectivity_reference import reference_three_connectivity


def planted_pair(core, block, rng):
    """A grown core on 1..core, and a grown block on the next ``block`` ids
    hanging off the core's two highest vertices only.

    The core and the block are 3-connected and each hinge meets the block
    at two vertices of its own, so no G - a with a off the hinge has a cut
    vertex, and the first separating pair is the hinge (core - 1, core).
    """
    vs, edges = grown(core, rng)
    bvs, bedges = grown(block, rng, base=core + 1)
    edges += bedges + [(core - 1, bvs[0]), (core - 1, bvs[1])]
    edges += [(core, bvs[2]), (core, bvs[3])]
    return vs + bvs, edges


def hinge_moved(vs, edges, hinge, to_top=True):
    """The graph relabelled so that the two ``hinge`` vertices take the two
    highest ids (or the two lowest), every other vertex keeping its order.

    On the lowest ids, the hinge is the DFS root of G - a for a = 1, and
    must be found as a root cut vertex."""
    others = [v for v in vs if v not in hinge]
    order = others + list(hinge) if to_top else list(hinge) + others
    label = {v: i for i, v in enumerate(order, start=1)}
    return relabel(vs, edges, label.__getitem__)


def disjoint(sizes, rng):
    """Grown graphs side by side, on interleaved ids."""
    vs, edges, labels = [], [], list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    for size in sizes:
        part, part_edges = grown(size, rng)
        label = dict(zip(part, labels[: len(part)]))
        del labels[: len(part)]
        vs += [label[v] for v in part]
        edges += [(label[a], label[b]) for a, b in part_edges]
    return vs, edges


def isolated_at(core, lone, rng):
    """A grown graph on every id in 1..core+1 but ``lone``, which is isolated."""
    labels = [v for v in range(1, core + 2) if v != lone]
    vs, edges = relabel(*grown(core, rng), lambda v: labels[v - 1])
    return vs + [lone], edges


def pendant_at_hub(core, rng):
    """Vertex 1 joins every vertex of a grown core on 3.., and 2, whose only
    neighbour it is: G - 1 is the core and the lone vertex 2."""
    vs, edges = grown(core, rng, base=3)
    return [1, 2] + vs, edges + [(1, v) for v in vs] + [(1, 2)]


def relabel(vs, edges, f):
    return [f(v) for v in vs], [(f(a), f(b)) for a, b in edges]


def scrambled(vs, edges, rng):
    """The graph on random ids up to 10**6, with the vertex tuple shuffled."""
    label = dict(zip(vs, rng.sample(range(10**6), len(vs))))
    new_vs, new_edges = relabel(vs, edges, label.__getitem__)
    rng.shuffle(new_vs)
    return new_vs, new_edges


def corpus():
    rng = random.Random(19730602)
    graphs = {}
    for n in (40, 56, 80, 120):
        graphs[f"four-bar-{n}"] = four_bar(n, rng)
    for core, block in ((36, 4), (60, 8), (112, 8)):
        graphs[f"planted-{core}+{block}"] = planted_pair(core, block, rng)
        hinge = (core - 1, core)
        graphs[f"hinge-on-top-{core}+{block}"] = hinge_moved(
            *planted_pair(core, block, rng), hinge
        )
        graphs[f"hinge-at-bottom-{core}+{block}"] = hinge_moved(
            *planted_pair(core, block, rng), hinge, to_top=False
        )
    for sizes in ((20, 20), (50, 30), (40, 40, 40)):
        graphs[f"disjoint-{'-'.join(map(str, sizes))}"] = disjoint(sizes, rng)
    for core, lone in ((40, 2), (80, 2), (80, 81), (119, 60)):
        graphs[f"isolated-{lone}-of-{core + 1}"] = isolated_at(core, lone, rng)
    for core in (40, 118):
        graphs[f"pendant-at-hub-{core}"] = pendant_at_hub(core, rng)
    for name, (vs, edges) in list(graphs.items()):
        graphs[f"{name}-scrambled"] = scrambled(vs, edges, rng)
    return {name: view(vs, edges) for name, (vs, edges) in graphs.items()}


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_matches_reference(name):
    g = CORPUS[name]
    assert three_connectivity(g) == reference_three_connectivity(g)


def test_corpus_reaches_each_case():
    """The scan runs deep, through every branch, on unsorted tuples."""
    assert all(40 <= len(g.vertices) <= 120 for g in CORPUS.values())
    for name in ("four-bar-56", "four-bar-120", "four-bar-120-scrambled"):
        assert three_connectivity(CORPUS[name]) == (True, None)
    # The hinge is found only after every lower G - a was searched.
    assert three_connectivity(CORPUS["planted-112+8"]) == (False, (111, 112))
    assert three_connectivity(CORPUS["hinge-on-top-112+8"]) == (False, (119, 120))
    # Vertex 2 is the root of the search of G - 1, and a cut vertex.
    assert three_connectivity(CORPUS["hinge-at-bottom-112+8"]) == (False, (1, 2))
    # G - 1 has 3 components.
    assert components_without(CORPUS["disjoint-40-40-40"], 1) == 3
    # G - 1 has 2 components and b = 2 is one by itself, so b = 3 is the pair.
    for name in ("isolated-2-of-81", "pendant-at-hub-118"):
        assert components_without(CORPUS[name], 1) == 2
        assert three_connectivity(CORPUS[name]) == (False, (1, 3))
    # A lone vertex at the top id: G - 1 is split around it.
    assert three_connectivity(CORPUS["isolated-81-of-81"]) == (False, (1, 2))
    g = CORPUS["hinge-on-top-112+8-scrambled"]
    assert list(g.vertices) != sorted(g.vertices)
    assert max(g.vertices) - min(g.vertices) >= len(g.vertices)


# ---------------------------------------------------------------------------
# Metamorphic: an order-preserving relabelling maps every answer.

KINDS = ("four-bar", "grown", "planted", "hinge-on-top", "disjoint", "isolated", "sparse")


def braced(vs, edges, part, rng):
    """The graph with random edges added inside ``part`` up to 3n - 6 to
    3n - 3 edges, so that ``check_rigidity`` gets past the edge count."""
    have = {(min(e), max(e)) for e in edges}
    new = [e for e in itertools.combinations(sorted(part), 2) if e not in have]
    need = 3 * len(vs) - 6 + rng.randint(0, 3) - len(edges)
    return vs, edges + rng.sample(new, max(need, 0))


def build(kind, n, rng):
    if kind == "four-bar":
        return four_bar(n, rng)
    if kind == "grown":
        return grown(n, rng)
    if kind in ("planted", "hinge-on-top"):
        vs, edges = braced(*planted_pair(n - 5, 5, rng), range(1, n - 4), rng)
        return hinge_moved(vs, edges, (n - 6, n - 5)) if kind == "hinge-on-top" else (vs, edges)
    if kind == "disjoint":
        vs, edges = disjoint((n // 2, n - n // 2), rng)
        return braced(vs, edges, vs[: n // 2], rng)
    if kind == "isolated":
        vs, edges = isolated_at(n - 1, rng.randint(1, n), rng)
        return braced(vs, edges, vs[:-1], rng)
    # Near 3n - 6 edges, at random.  Not exactly 3n - 6 at n <= 20, where
    # a 3-connected graph would reach the (3,6) search, exponential in the
    # 4-core (four-bar graphs reach it with a K5 the search finds early).
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    extra = rng.choice((-2, -1, 1, 2, 4) if n <= SPARSITY_3D_VERTEX_CAP else (-2, 0, 2, 4))
    return list(range(1, n + 1)), rng.sample(pairs, 3 * n - 6 + extra)


def mapped(verdict, f):
    """``verdict`` with every vertex id mapped by f.  The violating edges
    come sorted whatever the input order, and f preserves their order."""
    def edges(es):
        return None if es is None else tuple((f(a), f(b)) for a, b in es)

    pair = verdict.separating_pair
    return RigidityVerdict(
        rigid=verdict.rigid,
        minimally_rigid=verdict.minimally_rigid,
        violating_edges=edges(verdict.violating_edges),
        separating_pair=None if pair is None else (f(pair[0]), f(pair[1])),
        rank_deficit=verdict.rank_deficit,
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.integers(20, 120), st.randoms(use_true_random=False))
def test_order_preserving_relabel_maps_the_answer(kind, n, rng):
    vs, edges = build(kind, n, rng)
    g = view(vs, edges)

    def f(v):
        return 3 * v + 7

    new_vs, new_edges = relabel(vs, edges, f)
    rng.shuffle(new_vs)
    rng.shuffle(new_edges)
    h = UndirectedView(vertices=tuple(new_vs), edges=tuple(new_edges))

    ok, pair = three_connectivity(g)
    assert three_connectivity(h) == (ok, None if pair is None else (f(pair[0]), f(pair[1])))
    # The shuffle moves every trial placement; the observed rank is the
    # generic one at both, except with negligible probability.
    assert mapped(check_rigidity(h, 3), lambda v: v) == mapped(check_rigidity(g, 3), f)
