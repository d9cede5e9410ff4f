"""2D persistence as one pebble game over the terminal product, against a
check of every terminal.

For n >= 3, ``is_persistent`` in 2D walks the per-tail choice blocks
depth first on one ``PebbleGame2D``, removing edges on the way back up
and pruning subtrees that cannot reach rank 2n - 3.  The reference is
the earlier loop: ``check_rigidity`` on each materialized terminal in
sorted order, then on the whole formation for minimal persistence.
Every case has at most ``REFERENCE_TERMINALS`` terminals, so the
reference stays cheap.
"""
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from metaform import persistence, rigidity
from metaform.errors import ResourceLimitError
from metaform.graph import Formation, UndirectedView
from metaform.persistence import (
    PersistenceVerdict,
    is_persistent,
    ledger,
    terminal_subgraphs,
)
from metaform.rigidity import PebbleGame2D, check_rigidity

from conftest import complete, count_calls

REFERENCE_TERMINALS = 3000


def reference_is_persistent(f: Formation, cap: int = persistence.TERMINAL_SET_CAP):
    """Check every terminal in sorted order; the first non-rigid one is the witness."""
    led = ledger(f, 2)
    for term in list(terminal_subgraphs(f, 2, cap=cap)):
        view = UndirectedView(vertices=f.vertices, edges=term)
        if not check_rigidity(view, 2).rigid:
            return PersistenceVerdict(False, False, False, led, witness_terminal=term)
    minimally = check_rigidity(f.underlying(), 2).minimally_rigid
    return PersistenceVerdict(True, True, minimally, led)


def assert_same_as_reference(f: Formation):
    assert len(terminal_subgraphs(f, 2)) <= REFERENCE_TERMINALS
    assert is_persistent(f, 2).to_dict() == reference_is_persistent(f).to_dict()


def witness_index(f: Formation) -> int:
    verdict = is_persistent(f, 2)
    assert not verdict.persistent
    terms = terminal_subgraphs(f, 2)
    return list(terms).index(verdict.witness_terminal)


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vertices = tuple(range(1, n + 1))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((b, a) if f else (a, b) for (a, b), f in zip(chosen, flips))
    return Formation(vertices=vertices, edges=edges)


def acyclic_dense(n: int, extra: int, rng: random.Random) -> Formation:
    """A triangle, then each later vertex with 2 out-edges to earlier ones,
    ``extra`` of them with 3: persistent, with 3 ** extra terminals."""
    braced = set(rng.sample(range(4, n + 1), extra))
    edges = [(2, 1), (3, 1), (3, 2)]
    for v in range(4, n + 1):
        k = 3 if v in braced else 2
        edges += [(v, t) for t in sorted(rng.sample(range(1, v), k))]
    return Formation(vertices=tuple(range(1, n + 1)), edges=tuple(edges))


def with_dangler(f: Formation) -> Formation:
    """Add w braced to vertex 1, and u with out-edges to 2, 3 and w."""
    w, u = max(f.vertices) + 1, max(f.vertices) + 2
    edges = f.edges + ((w, 1), (u, 2), (u, 3), (u, w))
    return Formation(vertices=f.vertices + (w, u), edges=edges)


def recorded_walk(monkeypatch, f: Formation) -> list:
    """Every edge the walk's pebble game was asked to insert, in order."""
    log = []

    class RecordingGame(PebbleGame2D):
        def insert(self, edge):
            log.append(edge)
            return super().insert(edge)

    monkeypatch.setattr(persistence, "PebbleGame2D", RecordingGame)
    is_persistent(f, 2)
    return log


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_random_digraphs(self, f):
        assume(len(terminal_subgraphs(f, 2)) <= REFERENCE_TERMINALS)
        assert_same_as_reference(f)

    @pytest.mark.parametrize("n", [6, 7])
    def test_complete_high_to_low(self, n):
        assert_same_as_reference(complete(n))

    @pytest.mark.parametrize("n", [5, 6])
    def test_complete_with_dangler(self, n):
        assert_same_as_reference(with_dangler(complete(n)))

    @pytest.mark.parametrize("n, extra", [(8, 5), (9, 6), (10, 7)])
    def test_acyclic_dense(self, n, extra):
        f = acyclic_dense(n, extra, random.Random(n))
        assert len(terminal_subgraphs(f, 2)) == 3**extra
        assert_same_as_reference(f)

    @pytest.mark.parametrize("n, extra", [(8, 5), (9, 6)])
    def test_acyclic_dense_with_dangler(self, n, extra):
        assert_same_as_reference(with_dangler(acyclic_dense(n, extra, random.Random(n))))

    def test_no_edges(self):
        f = Formation(vertices=(1, 2, 3, 4))
        assert is_persistent(f, 2).witness_terminal == ()
        assert_same_as_reference(f)

    @pytest.mark.parametrize(
        "f",
        [
            Formation(vertices=(1,)),
            Formation(vertices=(1, 2)),
            Formation(vertices=(1, 2), edges=((2, 1),)),
        ],
    )
    def test_one_and_two_vertices(self, f):
        assert_same_as_reference(f)


class TestWitnessPlaces:
    def test_first_terminal(self):
        f = Formation(
            vertices=(1, 2, 3, 4, 5),
            edges=((2, 1), (2, 4), (2, 5), (3, 1), (3, 2), (3, 4), (5, 3)),
        )
        assert witness_index(f) == 0
        assert_same_as_reference(f)

    def test_last_terminal(self):
        f = Formation(
            vertices=(1, 2, 3, 4, 5),
            edges=(
                (2, 1), (2, 3), (2, 5), (3, 1), (4, 2),
                (4, 3), (5, 1), (5, 3), (5, 4),
            ),
        )
        assert witness_index(f) == len(terminal_subgraphs(f, 2)) - 1
        assert_same_as_reference(f)

    def test_prune_at_the_first_block(self, monkeypatch):
        f = Formation(
            vertices=(1, 2, 3, 4, 5, 6),
            edges=(
                (1, 3), (1, 5), (2, 1), (2, 5), (3, 2), (3, 5),
                (3, 6), (4, 1), (4, 3), (4, 6), (6, 5),
            ),
        )
        blocks = terminal_subgraphs(f, 2).blocks
        fixed = [e for b in blocks if len(b) == 1 for e in b[0]]
        first_choice = next(b for b in blocks if len(b) > 1)[0]
        assert_same_as_reference(f)
        # Only the fixed edges and the first block's first choice go in.
        assert recorded_walk(monkeypatch, f) == fixed + list(first_choice)

    def test_fail_at_the_leaf_level_only(self, monkeypatch):
        f = Formation(
            vertices=(1, 2, 3, 4, 5),
            edges=(
                (1, 2), (1, 3), (3, 4), (4, 1), (4, 2),
                (4, 5), (5, 1), (5, 2), (5, 3),
            ),
        )
        count = len(terminal_subgraphs(f, 2))
        assert 0 < witness_index(f) < count - 1
        assert_same_as_reference(f)
        last_block = [b for b in terminal_subgraphs(f, 2).blocks if len(b) > 1][-1]
        assert recorded_walk(monkeypatch, f)[-1] in {e for kept in last_block for e in kept}

    def test_cut_after_a_lower_block_ran_through(self):
        # Under one choice of an upper block every terminal passes, with a
        # lower block tried at each of its choices; under the next choice
        # the walk cuts above that lower block, so the witness must keep
        # its choice 0, not the last one tried.
        f = Formation(
            vertices=(1, 4, 5, 6, 7, 9, 11),
            edges=(
                (1, 5), (1, 9), (1, 11), (5, 4), (5, 6), (5, 7), (6, 1), (6, 4),
                (6, 9), (7, 1), (7, 6), (7, 11), (9, 4), (11, 5), (11, 6), (11, 9),
            ),
        )
        assert 0 < witness_index(f) < len(terminal_subgraphs(f, 2)) - 1
        assert_same_as_reference(f)


K6_TERMINALS_2D = math.comb(5, 2) * math.comb(4, 2) * math.comb(3, 2)  # 180


class TestBoundaries:
    def test_one_over_cap_raises_before_the_walk(self, monkeypatch):
        def no_game(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(persistence, "PebbleGame2D", no_game)
        with pytest.raises(ResourceLimitError, match=r"\b180\b.*\b179\b"):
            is_persistent(complete(6), 2, cap=K6_TERMINALS_2D - 1)

    def test_verdict_needs_no_laman_check_from_three_vertices(self, monkeypatch):
        cases = [complete(6), with_dangler(complete(5)), Formation(vertices=(1, 2, 3))]
        expected = [reference_is_persistent(f).to_dict() for f in cases]

        # Counted through every name bound to each check, ``persistence``'s
        # imports included.
        laman = count_calls(monkeypatch, "laman_check_2d", rigidity.laman_check_2d)
        oracle = count_calls(monkeypatch, "generic_rank_oracle", rigidity.generic_rank_oracle)
        assert [is_persistent(f, 2).to_dict() for f in cases] == expected
        assert (laman, oracle) == ([], [])

    def test_verdict_needs_no_laman_check_below_three_vertices(self, monkeypatch):
        # The walk's target 2n - 3 is -1 and 1 here: one vertex is rigid,
        # two are rigid exactly when joined.
        cases = [Formation(vertices=(1,)), Formation(vertices=(1, 2)), complete(2)]
        expected = [reference_is_persistent(f).to_dict() for f in cases]
        laman = count_calls(monkeypatch, "laman_check_2d", rigidity.laman_check_2d)
        assert [is_persistent(f, 2).to_dict() for f in cases] == expected
        assert [v["persistent"] for v in expected] == [True, False, True]
        assert laman == []
