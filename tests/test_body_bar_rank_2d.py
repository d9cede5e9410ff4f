"""The 2D ``BodyBarRank`` against ``laman_check_2d`` and a fresh pebble game.

In 2D the ranker holds one ``PebbleGame2D`` with every body edge
inserted.  A query inserts its bars while the game is short of
required_rank(2, n), keeps the ones it accepts and removes them again.
So each query must answer as a fresh game would: rigid exactly when
``laman_check_2d`` says bodies plus bars are rigid, with the bars a
fresh game accepts greedily in order, however many queries came before
it on the same ranker.

Bodies are one to four rigid 2D members on disjoint ids: singletons,
rods, triangles, K4s (rigid with one redundant edge) and grown
vertex-addition members.  Bars join different bodies, in either
direction.
"""
from hypothesis import given, settings, strategies as st

from metaform.generate import gen
from metaform.graph import UndirectedView
from metaform.rigidity import BodyBarRank, PebbleGame2D, laman_check_2d, required_rank

from conftest import complete, pair, shift, singleton, triangle

KINDS = ("singleton", "rod", "triangle", "K4", "grown")


@st.composite
def bodies_and_queries(draw):
    """Rigid bodies on ids 1, 2, ..., and one to four bar lists between them."""
    bodies, base = [], 1
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4)):
        if kind == "singleton":
            f = singleton(base)
        elif kind == "rod":
            f = pair(base, base + 1)
        elif kind == "triangle":
            f = triangle(base)
        elif kind == "K4":
            f = complete(4, base)
        else:
            size, seed = draw(st.integers(4, 8)), draw(st.integers(0, 10**6))
            f = shift(gen("min-persistent-2d", size, seed), base - 1)
        bodies.append(f.underlying())
        base += len(f.vertices)
    cross = [
        (a, b)
        for i, g in enumerate(bodies)
        for h in bodies[i + 1 :]
        for a in g.vertices
        for b in h.vertices
    ]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        bars = draw(st.lists(st.sampled_from(cross), unique=True, max_size=12)) if cross else []
        flips = draw(st.lists(st.booleans(), min_size=len(bars), max_size=len(bars)))
        queries.append([(b, a) if flip else (a, b) for (a, b), flip in zip(bars, flips)])
    return bodies, queries


def fresh_greedy(bodies, bars):
    """The bars a new game on the body edges accepts, in order, until it
    reaches required_rank(2, n); None when it never does."""
    vertices = tuple(v for g in bodies for v in g.vertices)
    full = required_rank(2, len(vertices))
    game = PebbleGame2D(vertices)
    for g in bodies:
        for e in g.edges:
            game.insert(e)
    kept = tuple(e for e in bars if game.rank() < full and game.insert(e))
    return kept if game.rank() == full else None


def laman_rigid(bodies, bars):
    vertices = tuple(v for g in bodies for v in g.vertices)
    edges = tuple(e for g in bodies for e in g.edges) + tuple(bars)
    return laman_check_2d(UndirectedView(vertices, edges)).rigid


@settings(max_examples=300, deadline=None)
@given(case=bodies_and_queries())
def test_queries_answer_as_laman_and_a_fresh_game(case):
    bodies, queries = case
    ranker = BodyBarRank(bodies, 2)
    for bars in queries:
        kept = ranker.independent_bars(bars)
        assert (kept is not None) == laman_rigid(bodies, bars)
        assert kept == fresh_greedy(bodies, bars)
        assert kept is None or len(kept) == ranker.target


@settings(max_examples=300, deadline=None)
@given(case=bodies_and_queries(), order=st.randoms(use_true_random=False))
def test_repeated_and_interleaved_queries_answer_as_fresh_rankers(case, order):
    """Every query asked twice, in a shuffled order, on one ranker: the
    answers are those of a new ranker per query, so taking the bars back
    out restores the game."""
    bodies, queries = case
    asked = list(queries) * 2
    order.shuffle(asked)
    shared = BodyBarRank(bodies, 2)
    for bars in asked:
        assert shared.independent_bars(bars) == BodyBarRank(bodies, 2).independent_bars(bars)
