"""Terminal subgraphs as a product of per-vertex choices, against the DFS.

``terminal_subgraphs`` builds every terminal as one choice of ``dim``
kept out-edges per over-constrained vertex and checks the exact count
against the cap first.  The reference below is the earlier depth-first
search over removal orders, memoized on retained-edge sets; both must
give the same retained sets in the same order.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from metaform import persistence
from metaform.errors import ResourceLimitError
from metaform.graph import Formation
from metaform.persistence import TerminalSubgraph, terminal_subgraphs

from conftest import complete


def reference_terminal_subgraphs(f, dim, cap=persistence.TERMINAL_SET_CAP):
    """Depth-first deletion of out-edges at the smallest excess vertex.

    ``cap`` bounds the number of distinct edge sets visited, not the
    number of terminals.
    """
    results: set[frozenset] = set()
    seen: set[frozenset] = set()

    def excess_vertices(edges):
        deg: dict[int, int] = {}
        for t, _ in edges:
            deg[t] = deg.get(t, 0) + 1
        return [v for v, d in deg.items() if d > dim]

    stack = [f.edges]
    seen.add(frozenset(f.edges))
    while stack:
        edges = stack.pop()
        excess = excess_vertices(edges)
        if not excess:
            results.add(frozenset(edges))
            continue
        v = min(excess)
        for e in edges:
            if e[0] != v:
                continue
            rest = tuple(x for x in edges if x != e)
            key = frozenset(rest)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > cap:
                raise ResourceLimitError(
                    f"terminal subgraph enumeration exceeded {cap} states"
                )
            stack.append(rest)
    return [TerminalSubgraph(retained=r) for r in sorted(tuple(sorted(k)) for k in results)]


def assert_same_as_reference(f, dim):
    terms = terminal_subgraphs(f, dim)
    assert [t.retained for t in terms] == [
        t.retained for t in reference_terminal_subgraphs(f, dim)
    ]


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    vertices = tuple(range(1, n + 1))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((b, a) if f else (a, b) for (a, b), f in zip(chosen, flips))
    return Formation(vertices=vertices, edges=edges)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.sampled_from([2, 3]))
    def test_random_digraphs(self, f, dim):
        assert_same_as_reference(f, dim)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_complete_high_to_low(self, n, dim):
        assert_same_as_reference(complete(n), dim)

    def test_no_edges(self):
        f = Formation(vertices=(1, 2))
        assert list(terminal_subgraphs(f, 2)) == [TerminalSubgraph(retained=())]
        assert_same_as_reference(f, 2)


K6_TERMINALS_2D = math.comb(5, 2) * math.comb(4, 2) * math.comb(3, 2)  # 180


class TestCap:
    def test_cap_equal_to_count_passes(self):
        terms = terminal_subgraphs(complete(6), 2, cap=K6_TERMINALS_2D)
        assert len(terms) == K6_TERMINALS_2D

    def test_cap_one_below_count_raises_naming_both(self):
        with pytest.raises(ResourceLimitError, match=r"\b180\b.*\b179\b"):
            terminal_subgraphs(complete(6), 2, cap=K6_TERMINALS_2D - 1)

    def test_k9_raises_before_building_a_terminal(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return TerminalSubgraph(*args, **kwargs)

        monkeypatch.setattr(persistence, "TerminalSubgraph", counting)
        with pytest.raises(ResourceLimitError, match="1587600"):
            persistence.is_persistent(complete(9), 2)
        assert built == []
        # The counter does see terminals when the cap is not hit and
        # they are asked for.
        list(persistence.terminal_subgraphs(complete(4), 2))
        assert len(built) == 3
