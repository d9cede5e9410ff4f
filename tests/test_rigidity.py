"""Rigidity kernels: pebble game, rank oracle, 3D screens."""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaform.errors import InputError
from metaform.generate import banana
from metaform.graph import Formation, UndirectedView
from metaform.rigidity import (
    IncrementalRank,
    PebbleGame2D,
    SparsityParams,
    check_rigidity,
    dof_constant,
    generic_rank_oracle,
    laman_check_2d,
    minimally_rigid_spanning,
    rank_mod_p,
    required_rank,
    rigid_3d_check,
    sparsity_violation,
    three_connectivity,
)

from conftest import complete, triangle


def undirected(vertices, edges):
    return UndirectedView(vertices=tuple(vertices), edges=tuple(edges))


K4_2D = undirected((1, 2, 3, 4), itertools.combinations((1, 2, 3, 4), 2))


class TestRequiredRank:
    def test_dof_constants(self):
        assert dof_constant(2, 1) == 2
        assert dof_constant(2, 2) == 3
        assert dof_constant(3, 1) == 3
        assert dof_constant(3, 2) == 5
        assert dof_constant(3, 5) == 6

    def test_required_rank_examples(self):
        assert required_rank(2, 3) == 3
        assert required_rank(3, 4) == 6


class TestLaman2D:
    def test_triangle_minimally_rigid(self):
        v = laman_check_2d(triangle().underlying())
        assert v.rigid and v.minimally_rigid

    def test_four_cycle_not_rigid(self):
        v = laman_check_2d(undirected((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (1, 4)]))
        assert not v.rigid
        assert v.rank_deficit == (4, 5)

    def test_k4_rigid_not_minimal(self):
        v = laman_check_2d(K4_2D)
        assert v.rigid and not v.minimally_rigid

    def test_base_cases(self):
        assert laman_check_2d(undirected((1,), [])).rigid
        assert laman_check_2d(undirected((1, 2), [(1, 2)])).minimally_rigid
        assert not laman_check_2d(undirected((1, 2), [])).rigid

    def test_overbraced_subgraph_reported(self):
        # K4 plus a pendant vertex: rigid component cannot absorb a 7th edge.
        # 2*5-3 = 7 = |E| but the K4 part carries 6 > 2*4-3 edges.
        g = undirected((1, 2, 3, 4, 5), list(K4_2D.edges) + [(4, 5)])
        v = laman_check_2d(g)
        assert not v.rigid
        assert v.violating_edges is not None
        sub = v.violating_edges
        vs = {x for e in sub for x in e}
        assert len(sub) > 2 * len(vs) - 3

    def test_pebble_game_rank_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            game = PebbleGame2D(tuple(range(1, n + 1)))
            for e in edges:
                game.insert(e)
            g = undirected(range(1, n + 1), edges)
            assert game.rank() == generic_rank_oracle(g, 2, seed=5, trials=3)


class TestPebbleGameRemove:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_remove_leaves_the_game_of_the_remaining_edges(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        vertices = tuple(range(1, n + 1))
        pairs = list(itertools.combinations(vertices, 2))
        game = PebbleGame2D(vertices)

        def fresh():
            other = PebbleGame2D(vertices)
            assert all(other.insert(e) for e in game.accepted)
            return other

        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            if game.accepted and data.draw(st.integers(0, 2)) == 0:
                game.remove(data.draw(st.sampled_from(tuple(game.accepted))))
            else:
                a, b = data.draw(st.sampled_from(pairs))
                edge = (b, a) if data.draw(st.booleans()) else (a, b)
                expected = fresh().insert(edge)
                assert game.insert(edge) == expected
            assert all(game.pebbles[v] + len(game.out[v]) == 2 for v in vertices)
            assert game.rank() == fresh().rank() == len(game.accepted)

    def test_remove_a_reversed_edge(self):
        game = PebbleGame2D((1, 2, 3, 4))
        for e in ((1, 2), (1, 3), (1, 4)):
            assert game.insert(e)
        # Freeing pebbles at 1 turned (1, 2) around.
        assert game.out[2] == {1}
        game.remove((1, 2))
        assert game.out[2] == set() and 2 not in game.out[1]
        assert game.pebbles[2] == 2
        assert game.accepted == [(1, 3), (1, 4)]


class TestSparsity:
    def test_banana_has_no_36_violation(self):
        assert sparsity_violation(banana().underlying()) is None

    def test_k5_violates_36(self):
        bad = sparsity_violation(
            undirected(range(1, 6), itertools.combinations(range(1, 6), 2))
        )
        assert bad is not None and len(bad) == 10 > 3 * 5 - 6

    def test_k4_violates_23(self):
        # The pebble game names a (2,3) violation only for a not-rigid
        # graph, so K4 gets a pendant vertex.
        g = undirected((1, 2, 3, 4, 5), K4_2D.edges + ((4, 5),))
        bad = laman_check_2d(g).violating_edges
        assert bad is not None
        vs = {x for e in bad for x in e}
        assert len(bad) > 2 * len(vs) - 3

    def test_only_36_counts_are_searched(self):
        with pytest.raises(InputError, match="unsupported sparsity parameters"):
            SparsityParams(2, 3)


class TestRankOracle:
    def test_rank_mod_p_identity(self):
        assert rank_mod_p(np.eye(4, dtype=np.int64)) == 4

    def test_rank_mod_p_dependent_rows(self):
        m = np.array([[1, 2], [2, 4], [3, 5]], dtype=np.int64)
        assert rank_mod_p(m) == 2

    def test_tetrahedron_rank_six(self):
        assert generic_rank_oracle(complete(4).underlying(), 3, seed=0, trials=3) == 6

    def test_banana_rank_seventeen(self):
        assert generic_rank_oracle(banana().underlying(), 3, seed=0, trials=3) == 17

    def test_single_edge_ranks(self):
        g = undirected((1, 2), [(1, 2)])
        assert generic_rank_oracle(g, 2, seed=0, trials=1) == 1
        assert generic_rank_oracle(g, 3, seed=0, trials=1) == 1

    def test_seed_determinism(self):
        g = complete(5).underlying()
        a = generic_rank_oracle(g, 3, seed=11, trials=2)
        b = generic_rank_oracle(g, 3, seed=11, trials=2)
        assert a == b


class TestThreeConnectivity:
    def test_banana_fails_on_axis_pair(self):
        ok, pair = three_connectivity(banana().underlying())
        assert not ok and pair == (1, 2)

    def test_octahedron_passes(self):
        from conftest import octahedron_edges

        vs, und = octahedron_edges()
        ok, pair = three_connectivity(undirected(vs, und))
        assert ok and pair is None

    def test_small_graphs_vacuous(self):
        assert three_connectivity(undirected((1, 2, 3), [(1, 2)]))[0]


class TestRigid3D:
    def test_tetrahedron_minimally_rigid(self):
        v = rigid_3d_check(complete(4).underlying())
        assert v.rigid and v.minimally_rigid

    def test_banana_not_rigid(self):
        v = rigid_3d_check(banana().underlying())
        assert not v.rigid
        assert v.separating_pair == (1, 2)

    def test_edge_count_fast_fail(self):
        g = undirected(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        v = rigid_3d_check(g)
        assert not v.rigid and v.rank_deficit is not None

    def test_octahedron_minimally_rigid(self):
        from conftest import octahedron_edges

        vs, und = octahedron_edges()
        v = rigid_3d_check(undirected(vs, und))
        assert v.rigid and v.minimally_rigid

    def test_k5_rigid_not_minimal(self):
        v = rigid_3d_check(undirected(range(1, 6), itertools.combinations(range(1, 6), 2)))
        assert v.rigid and not v.minimally_rigid

    def test_base_cases(self):
        assert check_rigidity(undirected((1,), []), 3).rigid
        assert check_rigidity(undirected((1, 2), [(1, 2)]), 3).minimally_rigid
        assert not check_rigidity(undirected((1, 2, 3), [(1, 2), (1, 3)]), 3).rigid

    @pytest.mark.parametrize(
        "g",
        [
            undirected(range(1, 6), itertools.combinations(range(1, 6), 2)),
            undirected(range(1, 5), [(1, 2), (3, 4)]),
            undirected((1, 2), [(1, 2)]),
            undirected((1,), []),
        ],
        ids=["k5", "edge-count-exit", "pair", "singleton"],
    )
    def test_trials_below_one_rejected_on_every_path(self, g):
        for trials in (0, -1):
            with pytest.raises(InputError, match="trials must be >= 1"):
                rigid_3d_check(g, trials=trials)


class TestMinimallyRigidSpanning:
    def test_2d_extracts_laman_basis(self):
        sub = minimally_rigid_spanning(K4_2D, 2)
        assert len(sub) == 2 * 4 - 3
        assert laman_check_2d(undirected(K4_2D.vertices, sub)).minimally_rigid

    def test_3d_extracts_basis_from_k5(self):
        g = undirected(range(1, 6), itertools.combinations(range(1, 6), 2))
        sub = minimally_rigid_spanning(g, 3)
        assert len(sub) == 3 * 5 - 6
        assert rigid_3d_check(undirected(g.vertices, sub)).minimally_rigid

    def test_fixed_edges_retained(self):
        # Independent edges listed first are kept: a merge keeps its
        # gadgets by putting them first.
        fixed = ((1, 2), (1, 3), (2, 3))
        rest = tuple(e for e in K4_2D.edges if e not in fixed)
        sub = minimally_rigid_spanning(undirected(K4_2D.vertices, fixed + rest), 2)
        assert set(fixed) <= set(sub)

    def test_3d_trials_below_one_rejected(self):
        # A rigid graph, so "not rigid" would be a wrong verdict.
        g = undirected(range(1, 5), itertools.combinations(range(1, 5), 2))
        for trials in (0, -1):
            with pytest.raises(InputError, match="trials must be >= 1"):
                minimally_rigid_spanning(g, 3, trials=trials)


class TestIncrementalRank:
    def test_matches_batch_rank(self):
        rng = random.Random(0)
        for _ in range(10):
            m = np.array(
                [[rng.randint(0, 50) for _ in range(6)] for _ in range(8)],
                dtype=np.int64,
            )
            inc = IncrementalRank()
            for row in m.tolist():
                inc.try_add(row)
            assert inc.rank == rank_mod_p(m)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=0))
    return undirected(range(1, n + 1), edges)


class TestRigidityProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=100))
    def test_rank_monotone_under_edge_addition(self, g, seed):
        pairs = [
            p
            for p in itertools.combinations(g.vertices, 2)
            if p not in set(g.edges)
        ]
        before = generic_rank_oracle(g, 2, seed=seed, trials=2)
        for p in pairs[:2]:
            bigger = undirected(g.vertices, list(g.edges) + [p])
            assert generic_rank_oracle(bigger, 2, seed=seed, trials=2) >= before

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_direction_independence(self, g):
        # Rigidity is a property of the underlying undirected graph.
        flipped = undirected(g.vertices, [(b, a) for a, b in g.edges])
        f = Formation(vertices=g.vertices, edges=flipped.edges)
        assert laman_check_2d(f.underlying()).rigid == laman_check_2d(g).rigid

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_pebble_rank_never_exceeds_bound(self, g):
        game = PebbleGame2D(g.vertices)
        for e in g.edges:
            game.insert(e)
        assert game.rank() <= 2 * len(g.vertices) - 3
