"""The fan-lemma certificate in front of the 3-connectivity scan.

``three_connectivity`` first asks ``_fan_certificate`` for a proof that
the graph is 3-connected and runs the cut-vertex scan only without one.
The certificate must never prove a graph that is not 3-connected, and
certificate-or-scan must return what the scan alone returns
(``reference_three_connectivity``), pair included.  Checked here:

- ``_has_fan``, the max-flow step, against a brute-force fan test by
  Menger's theorem, on small random graphs, sets S and vertices v, and on
  hand-built graphs where the flow must reroute an earlier path or where
  two paths could only end at one shared vertex of S;
- ``_fan_certificate`` and ``three_connectivity`` against the reference
  on seeded random graphs (n = 4-30, dense and near 3n - 6 edges), the
  double banana, the four-bar family and the planted-pair, hinge and
  relabelled graphs of ``test_three_connectivity_differential.py``;
- that the scan is skipped where the certificate holds (four-bar graphs)
  and still runs where it cannot (the banana), by counting
  ``_cut_vertices`` calls;
- that ``rigid_3d_check`` reports on every ``rigidity-3d`` benchmark op
  at seeds 1 and 1001 are byte-identical to the scan-only reports.
"""
import itertools
import json
import random

import pytest

from metaform import rigidity
from metaform.generate import banana
from metaform.graph import Formation
from metaform.rigidity import (
    _fan_certificate,
    _has_fan,
    _k4,
    rigid_3d_check,
    three_connectivity,
)

from test_bench_corpora import corpus
from test_screens_differential import four_bar, view
from test_three_connectivity_differential import CORPUS as SCAN_CORPUS
from three_connectivity_reference import reference_three_connectivity


def index_lists(g):
    """The sorted vertices' neighbour lists by index, as ``three_connectivity``
    builds them."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[] for _ in verts]
    for u, w in g.edges:
        nbrs[index[u]].append(index[w])
        nbrs[index[w]].append(index[u])
    return nbrs


def brute_has_fan(nbrs, in_s, v):
    """Menger: v has three paths to S sharing only v, with distinct ends in
    S, exactly when |S| >= 3 and no set X of at most two vertices other
    than v cuts v off from S - X."""
    n = len(nbrs)
    if sum(in_s) < 3:
        return False
    for size in (0, 1, 2):
        for x in itertools.combinations([u for u in range(n) if u != v], size):
            seen, stack = {v, *x}, [v]
            reached = False
            while stack and not reached:
                for w in nbrs[stack.pop()]:
                    if w not in seen:
                        if in_s[w]:
                            reached = True
                            break
                        seen.add(w)
                        stack.append(w)
            if not reached:
                return False
    return True


def lists(n, edges):
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def random_graph(n, m, rng):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return view(range(1, n + 1), rng.sample(pairs, min(m, len(pairs))))


# ---------------------------------------------------------------------------
# The flow step.

@pytest.mark.parametrize("seed", range(6))
def test_has_fan_matches_menger(seed):
    rng = random.Random(seed)
    found = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(5, 11)
        nbrs = index_lists(random_graph(n, rng.randint(n, 3 * n), rng))
        v = rng.randrange(n)
        in_s = [u != v and rng.random() < 0.4 for u in range(n)]
        expected = brute_has_fan(nbrs, in_s, v)
        assert _has_fan(nbrs, in_s, v) == expected
        found[expected] += 1
    assert min(found.values()) >= 10


# Vertices: v = 0; a, b, c = 1, 2, 3; S = {4, 5, 6}.
S3 = [False] * 4 + [True] * 3


def test_fan_reroutes_a_path_at_a_vertex_of_s():
    """The first path v-a-4 takes the only end b has; the flow moves a onto
    its longer way to 6, through d = 7, so that b can end at 4."""
    nbrs = lists(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 7), (7, 6), (2, 4), (3, 5)])
    assert _has_fan(nbrs, S3 + [False], 0)
    assert brute_has_fan(nbrs, S3 + [False], 0)
    # Without a's way round, a and b can only end at 4.
    nbrs = lists(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5)])
    assert not _has_fan(nbrs, S3, 0)


def test_fan_reroutes_a_path_through_an_inner_vertex():
    """a and b both reach x = 7 first; x -> 4 is one path, a's other way is
    through y = 8 to 5, and c goes the long way round to 6."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 7), (2, 7), (7, 4), (1, 8), (8, 5)]
    edges += [(3, 9), (9, 10), (10, 11), (11, 6)]
    in_s = S3 + [False] * 5
    nbrs = lists(12, edges)
    assert _has_fan(nbrs, in_s, 0)
    # Without y, a and b share x: two paths at most.
    nbrs = lists(12, [e for e in edges if 8 not in e])
    assert not _has_fan(nbrs, in_s, 0)


def test_fan_takes_an_inner_vertex_off_a_path():
    """The second path v-p-x-y-4 holds y, the only way q = 2 has to S, and
    x has no other way on; the flow takes x off it (x_out back to x_in),
    and p goes the long way round to 5."""
    edges = [(0, 1), (0, 2), (0, 3), (3, 6), (1, 7), (7, 8), (8, 4), (2, 9), (9, 8)]
    chain = [(1, 10), (10, 11), (11, 12), (12, 5)]
    in_s = S3 + [False] * 6
    assert _has_fan(lists(13, edges + chain), in_s, 0)
    assert not _has_fan(lists(13, edges), in_s, 0)


def test_two_paths_to_one_shared_end_are_no_fan():
    """In the double banana, S = {1, 2, 3, 4, 5} holds the K4 {1, 3, 4, 5}
    and 2; vertex 6 reaches S at 1 and 2 only.  Three paths exist (6-1,
    6-2, 6-7-1), but two of them end at 1."""
    g = banana().underlying()
    nbrs = index_lists(g)
    in_s = [True] * 5 + [False] * 3
    assert not _has_fan(nbrs, in_s, 5)
    assert not brute_has_fan(nbrs, in_s, 5)
    assert not _fan_certificate(nbrs)


@pytest.mark.parametrize("seed", range(3))
def test_k4_is_a_clique(seed):
    """Whatever ``_k4`` returns is four mutually adjacent vertices in
    ascending order; on graphs of more than n^2 / 3 edges, which all hold
    one (Turan), it finds one."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(4, 16)
        dense = rng.random() < 0.3
        g = random_graph(n, n * n // 3 + 1 if dense else rng.randint(n, 3 * n), rng)
        nbrs = index_lists(g)
        k4 = _k4(nbrs)
        if k4 is None:
            assert not dense
            continue
        assert list(k4) == sorted(set(k4))
        assert all(b in nbrs[a] for a, b in itertools.combinations(k4, 2))


# ---------------------------------------------------------------------------
# Certificate, and certificate-or-scan, against the scan.

def random_corpus():
    rng = random.Random(20260)
    graphs = {}
    for i in range(240):
        n = rng.randint(4, 30)
        # Dense, and near 3n - 6 edges, where most 3-connected graphs are
        # only just so.
        m = rng.randint(n, 4 * n) if i % 2 else 3 * n - 6 + rng.randint(-3, 3)
        graphs[f"random-{i}-n{n}"] = random_graph(n, m, rng)
    for n in (16, 20, 56, 120):
        graphs[f"four-bar-{n}"] = view(*four_bar(n, rng))
    graphs["banana"] = banana().underlying()
    return graphs


CORPUS = {**random_corpus(), **{f"scan-{k}": g for k, g in SCAN_CORPUS.items()}}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_certificate_or_scan_matches_the_scan(name):
    g = CORPUS[name]
    expected = reference_three_connectivity(g)
    assert three_connectivity(g) == expected
    if len(g.vertices) >= 4 and _fan_certificate(index_lists(g)):
        assert expected == (True, None)


def test_certificate_is_sound_on_small_random_graphs():
    """Over many small graphs, the certificate proves most 3-connected ones
    and never one that is not."""
    rng = random.Random(7)
    proved = connected = 0
    for _ in range(1500):
        n = rng.randint(4, 14)
        g = random_graph(n, rng.randint(n, 4 * n), rng)
        ok, _ = reference_three_connectivity(g)
        cert = _fan_certificate(index_lists(g))
        assert ok or not cert
        proved += cert
        connected += ok
    assert connected >= 500
    assert proved >= 0.8 * connected


def test_corpus_covers_both_outcomes():
    certified = sum(
        len(g.vertices) >= 4 and _fan_certificate(index_lists(g)) for g in CORPUS.values()
    )
    connected = sum(reference_three_connectivity(g)[0] for g in CORPUS.values())
    assert 50 <= certified < connected < len(CORPUS) - 50


# ---------------------------------------------------------------------------
# The fast path is taken.

@pytest.fixture
def cut_vertex_calls(monkeypatch):
    calls = []
    original = rigidity._cut_vertices

    def counted(nbrs, removed):
        calls.append(removed)
        return original(nbrs, removed)

    monkeypatch.setattr(rigidity, "_cut_vertices", counted)
    return calls


@pytest.mark.parametrize("n", [20, 56, 120])
def test_four_bar_skips_the_scan(cut_vertex_calls, n):
    g = view(*four_bar(n, random.Random(n)))
    assert three_connectivity(g) == (True, None)
    assert cut_vertex_calls == []


def test_banana_falls_back_to_the_scan(cut_vertex_calls):
    assert three_connectivity(banana().underlying()) == (False, (1, 2))
    assert len(cut_vertex_calls) >= 1


@pytest.mark.parametrize("seed", [1, 1001])
def test_rigidity_3d_corpus_verdicts_unchanged(monkeypatch, cut_vertex_calls, seed):
    """Each op's ``rigid_3d_check`` report, with the certificate and with
    the scan alone, serialized the same way; the four-bar ops, the only
    3-connected graphs that reach the screen, never scan."""
    graphs = []
    for op in corpus.build("rigidity-3d", seed):
        (doc,) = op.files
        f = Formation(vertices=tuple(doc["vertices"]), edges=tuple(map(tuple, doc["edges"])))
        graphs.append((op.label, f.underlying()))
    assert len(graphs) == 40
    with_certificate = [json.dumps(rigid_3d_check(g).to_dict()) for _, g in graphs]
    # One search, the banana's: 2 is a cut vertex of G - 1.
    assert len(cut_vertex_calls) == 1
    monkeypatch.setattr(rigidity, "_fan_certificate", lambda nbrs: False)
    scan_only = [json.dumps(rigid_3d_check(g).to_dict()) for _, g in graphs]
    assert with_certificate == scan_only
    assert sum(label.startswith("four-bar") for label, _ in graphs) == 8
