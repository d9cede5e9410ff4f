"""Persistence decided on the core left by peeling vertex additions,
against the whole-product walk.

``is_persistent`` peels every vertex with in-degree 0 and out-degree
>= dim among the vertices left, decides the terminals of the core that
remains, and maps the core's first failing terminal back into the whole
product with choice 0 in every peeled block.  The reference,
``persistence_reference.reference_is_persistent``, is the earlier
function, which walks (2D) or ranks (3D) the terminals of the whole
formation.  Reports must be equal, and errors equal in type and message.

3D verdicts rest on random placements, and the core's trials place only
the core's vertices.  With coordinates drawn from a range of 2 or 3,
placements are often degenerate, so there the reports can differ on a
formation that peels; where they do, the checked property is the
one-sided one: a "persistent" verdict is never wrong.
"""
import math
import random

import pytest

from metaform import persistence, rigidity
from metaform.errors import MetaformError
from metaform.graph import Formation
from metaform.persistence import _peeled, is_persistent, terminal_subgraphs

import incremental_rank_reference
from conftest import back_braced, complete, count_calls
from persistence_reference import reference_is_persistent
from test_batch_rank_differential import vertex_addition
from test_bench_corpora import corpus

REFERENCE_CAP = 2000


def outcome(check, f, dim, **kwargs):
    """The report's dict, or the error's type and message."""
    try:
        return check(f, dim, **kwargs).to_dict()
    except MetaformError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_reference(f, dim, **kwargs):
    got = outcome(is_persistent, f, dim, **kwargs)
    assert got == outcome(reference_is_persistent, f, dim, **kwargs)
    return got


def random_digraph(rng: random.Random, n: int) -> Formation:
    """Each pair joined with one density per graph, in a random direction,
    with ids and edges in random order."""
    vertices = rng.sample(range(n + 5), n)
    density = rng.random()
    edges = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if rng.random() < density
    ]
    rng.shuffle(edges)
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


def acyclic_dense(n: int, dim: int, extra: int, rng: random.Random) -> Formation:
    """A clique on dim + 1 vertices oriented high to low, then each later
    vertex with dim out-edges to earlier ones, ``extra`` of them with
    dim + 1: persistent, with (dim + 1) ** extra terminals."""
    braced = set(rng.sample(range(dim + 2, n + 1), extra))
    edges = [(j, i) for i in range(1, dim + 2) for j in range(1, dim + 2) if j > i]
    for v in range(dim + 2, n + 1):
        k = dim + 1 if v in braced else dim
        edges += [(v, t) for t in sorted(rng.sample(range(1, v), k))]
    return Formation(vertices=tuple(range(1, n + 1)), edges=tuple(edges))


def dangler(f: Formation, dim: int, rng: random.Random) -> Formation:
    """Add w with dim - 1 braces into ``f``, and u with dim out-edges into
    ``f`` and one to w: rigid if ``f`` is, never persistent.  u peels
    away; w stays in the core with dim - 1 edges."""
    w, u = max(f.vertices) + 1, max(f.vertices) + 2
    targets = rng.sample(sorted(f.vertices), 2 * dim - 1)
    edges = f.edges + tuple((w, t) for t in targets[: dim - 1])
    edges += tuple((u, t) for t in targets[dim - 1 :]) + ((u, w),)
    return Formation(vertices=f.vertices + (w, u), edges=edges)


def under_peeled(f: Formation, dim: int, rng: random.Random, count: int = 3) -> Formation:
    """``f`` with ids v -> 10 v, under ``count`` added vertices with ids
    between its own, each with dim + 1 out-edges to vertices already
    there.  The added vertices peel away, and their blocks, dim + 1
    choices each, sit between the core's in product order."""
    vertices = [10 * v for v in f.vertices]
    edges = [(10 * t, 10 * h) for t, h in f.edges]
    for k in range(count):
        v = 10 * rng.choice(f.vertices) + 5 + k % 5
        while v in vertices:
            v += 1
        edges += [(v, h) for h in rng.sample(vertices, dim + 1)]
        vertices.append(v)
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


CORPUS = [
    (f"{workload}-{seed}-{i}-{op.label}", op.label, Formation.from_dict(op.files[0]), op.dim)
    for workload in ("persist-2d", "persist-3d")
    for seed in (1, 1001)
    for i, op in enumerate(corpus.build(workload, seed))
]
CORPUS_OPS = [pytest.param(f, dim, id=name) for name, _, f, dim in CORPUS]


@pytest.mark.parametrize("f, dim", CORPUS_OPS)
def test_corpus_ops_match_reference(f, dim):
    assert_same_as_reference(f, dim)


def test_corpus_ops_peel_to_small_cores():
    """The acyclic corpus ops peel down to ``dim`` vertices; a dangler
    keeps its w, and what w braces, in the core."""
    for name, label, f, dim in CORPUS:
        core = len(f.vertices) - len(_peeled(f, dim))
        if label.endswith("+dangler"):
            assert dim < core < len(f.vertices), name
        else:
            assert core == dim, name


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_random_digraphs_match_reference(monkeypatch, dim, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    rng = random.Random(f"{dim}:{coord_range}")
    peeled = failing_under_peel = persistent_under_peel = one_sided = 0
    for _ in range(400):
        f = random_digraph(rng, rng.randint(1, 10))
        kwargs = {"cap": REFERENCE_CAP, "seed": rng.randint(0, 9), "trials": rng.randint(0, 3)}
        got = outcome(is_persistent, f, dim, **kwargs)
        expected = outcome(reference_is_persistent, f, dim, **kwargs)
        if got != expected:
            # Only where 3D trials place different vertices at degenerate
            # placements.  These err only toward "not persistent", and the
            # peeled part rests on no placement.
            assert dim == 3 and coord_range < 2**20 and _peeled(f, dim)
            monkeypatch.setattr(rigidity, "COORD_RANGE", 2**20)
            truth = outcome(reference_is_persistent, f, dim, **kwargs)
            monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
            assert not got["persistent"] or got == truth
            one_sided += 1
        if isinstance(got, dict) and _peeled(f, dim):
            peeled += 1
            failing_under_peel += not got["persistent"]
            persistent_under_peel += got["persistent"]
    assert peeled >= 30 and failing_under_peel >= 20 and persistent_under_peel >= 3
    # At a range of 2 or 3, 3D placements are degenerate often enough
    # that the two functions differ on some formation that peels.
    assert one_sided > 0 or dim == 2 or coord_range == 2**20


BACK_BRACED = {
    f"dense-{n}x{extra}-{dim}d-{seed}": (acyclic_dense(n, dim, extra, random.Random(seed)), dim)
    for n, dim, extra, seed in [
        (10, 2, 7, 0), (16, 2, 8, 0), (12, 2, 6, 2), (12, 3, 4, 0), (11, 3, 3, 1), (14, 3, 6, 1),
    ]
} | {
    # Large 3D cores: one terminal for the rank oracle, sixteen on one
    # fixed base.
    "one-terminal-n30": (vertex_addition(30, 0, 1), 3),
    "sixteen-terminals-n24": (vertex_addition(24, 2, 2), 3),
}


@pytest.mark.parametrize("name", sorted(BACK_BRACED))
def test_back_braced_match_reference(name):
    f, dim = BACK_BRACED[name]
    braced = back_braced(f, dim)
    assert len(braced.edges) > len(f.edges)
    assert len(terminal_subgraphs(braced, dim)) == len(terminal_subgraphs(f, dim))
    assert len(_peeled(braced, dim)) < len(_peeled(f, dim))
    assert assert_same_as_reference(braced, dim)["persistent"]
    with_dangler = dangler(braced, dim, random.Random(name))
    w, u = with_dangler.vertices[-2:]
    assert u in _peeled(with_dangler, dim) and w not in _peeled(with_dangler, dim)
    assert not assert_same_as_reference(with_dangler, dim)["persistent"]


def failing_cores(dim: int, count: int):
    """Seeded random formations that peel nothing and whose first failing
    terminal is not the first terminal."""
    rng = random.Random(f"failing-core:{dim}")
    found = []
    while len(found) < count:
        f = random_digraph(rng, rng.randint(dim + 2, 7))
        if _peeled(f, dim) or len(terminal_subgraphs(f, dim)) > REFERENCE_CAP:
            continue
        witness = reference_is_persistent(f, dim).witness_terminal
        if witness is not None and witness != terminal_subgraphs(f, dim)[0]:
            found.append(f)
    return found


@pytest.mark.parametrize("dim", [2, 3])
def test_witness_carries_peeled_blocks(dim):
    rng = random.Random(dim)
    for core in failing_cores(dim, 6):
        f = under_peeled(core, dim, rng)
        peeled = _peeled(f, dim)
        assert peeled == set(f.vertices) - {10 * v for v in core.vertices}
        terminals = terminal_subgraphs(f, dim)
        witness = assert_same_as_reference(f, dim)["witnessTerminal"]
        index = [list(map(list, t)) for t in terminals].index(witness)
        # The witness is not the first terminal, a peeled block precedes a
        # core block, and each peeled block keeps its first choice.
        assert index > 0
        tails = {block[0][0][0]: block for block in terminals.blocks}
        assert min(peeled) < max(tails.keys() - peeled)
        for v in peeled:
            assert len(tails[v]) == dim + 1
            assert {tuple(e) for e in witness} >= set(tails[v][0])


def test_vertex_addition_n80_builds_no_fixed_base(monkeypatch):
    """The reference reduces the whole formation's base, row by row, with
    ``fixed_base_reference``'s copy of the earlier ranker, on
    ``incremental_rank_reference``'s numpy ``IncrementalRank``; the peel
    leaves a core with nothing to reduce."""
    f = vertex_addition(80, 1, 80)
    assert len(terminal_subgraphs(f, 3)) == 4
    added = []
    try_add = incremental_rank_reference.IncrementalRank.try_add

    def counted(self, row):
        added.append(1)
        return try_add(self, row)

    monkeypatch.setattr(incremental_rank_reference.IncrementalRank, "try_add", counted)
    expected = reference_is_persistent(f, 3).to_dict()
    assert expected["persistent"] and added
    added.clear()
    reduced = count_calls(monkeypatch, "reduce_mod_p", rigidity.reduce_mod_p)
    assert is_persistent(f, 3).to_dict() == expected
    assert added == [] and reduced == []


TRACED = [
    *(pytest.param(f, dim, id=p.id) for p in CORPUS_OPS[::7] for f, dim in [p.values]),
    *(pytest.param(back_braced(f, dim), dim, id=name) for name, (f, dim) in BACK_BRACED.items()),
]


@pytest.mark.parametrize("f, dim", TRACED)
def test_one_terminal_product_per_call_over_the_whole_formation(monkeypatch, f, dim):
    """The benchmark's trace sums the length of every ``terminal_subgraphs``
    result and checks it against the product formula; a second call, on
    the core, would break that check."""
    calls = count_calls(monkeypatch, "terminal_subgraphs", persistence.terminal_subgraphs)
    is_persistent(f, dim)
    assert len(calls) == 1 and calls[0][0] is f and calls[0][1] == dim
    out = f.out_degrees().values()
    formula = math.prod(math.comb(d, dim) for d in out if d > dim)
    assert len(persistence.terminal_subgraphs(f, dim)) == formula
