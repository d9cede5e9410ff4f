"""DOF ledger, terminal subgraphs, persistence verdicts, merge fast path."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metaform import rigidity
from metaform.errors import InputError, NotPersistentError
from metaform.graph import Formation, MetaFormation
from metaform.meta import check_meta, meta_rigid
from metaform.persistence import (
    is_persistent,
    ledger,
    local_dof_compliance,
    merged_persistence,
    terminal_subgraphs,
)
from metaform.rigidity import check_rigidity

from check_meta_reference import merged_persistence as reference_merged_persistence
from conftest import complete, count_calls, singleton, triangle


class TestLedger:
    def test_directed_triangle(self):
        led = ledger(triangle(), 2)
        assert led.dof == {1: 2, 2: 1, 3: 0}
        assert led.total_dof == 3
        assert led.leaders == (1,)

    def test_edgeless_singleton_3d(self):
        led = ledger(singleton(1), 3)
        assert led.dof == {1: 3}
        assert led.leaders == (1,)

    def test_oriented_k4_2d(self):
        led = ledger(complete(4), 2)
        assert led.dof == {1: 2, 2: 1, 3: 0, 4: 0}
        assert led.total_dof == 3

    def test_dof_bounded_by_dim(self):
        f = Formation(vertices=(1, 2, 3, 4), edges=((4, 1), (4, 2), (4, 3)))
        assert all(0 <= d <= 2 for d in ledger(f, 2).dof.values())


class TestTerminalSubgraphs:
    def test_no_excess_returns_original(self):
        terms = terminal_subgraphs(triangle(), 2)
        assert len(terms) == 1
        assert set(terms[0]) == set(triangle().edges)

    def test_oriented_k4_has_three(self):
        # Vertex 4 has out-degree 3 > 2; drop one of its three edges.
        terms = terminal_subgraphs(complete(4), 2)
        assert len(terms) == 3
        for t in terms:
            assert len(t) == 5

    def test_out_degree_four_star_gives_six(self):
        f = Formation(
            vertices=(1, 2, 3, 4, 5),
            edges=((1, 2), (1, 3), (1, 4), (1, 5)),
        )
        assert len(terminal_subgraphs(f, 2)) == 6  # C(4, 2)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_outside_0_to_len_raises(self, i):
        terms = terminal_subgraphs(complete(4), 2)
        with pytest.raises(IndexError):
            terms[i]


class TestIsPersistent:
    def test_rigid_but_not_persistent(self):
        # Out-degree 3 at vertex 4 lets it drop the wrong constraint.
        f = Formation(
            vertices=(1, 2, 3, 4),
            edges=((2, 1), (3, 2), (4, 1), (4, 2), (4, 3)),
        )
        v = is_persistent(f, 2)
        assert check_rigidity(f.underlying(), 2).rigid
        assert not v.persistent
        assert v.witness_terminal is not None
        assert len(v.witness_terminal) == 4

    def test_persistent_without_excess(self):
        f = Formation(
            vertices=(1, 2, 3, 4),
            edges=((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)),
        )
        v = is_persistent(f, 2)
        assert v.persistent and v.structurally_persistent and v.minimally_persistent

    def test_oriented_k4_persistent_not_minimal(self):
        v = is_persistent(complete(4), 2)
        assert v.persistent and not v.minimally_persistent

    def test_structural_persistence_2d_equals_persistence(self):
        v = is_persistent(triangle(), 2)
        assert v.structurally_persistent == v.persistent

    def test_two_leaders_3d_not_structural(self):
        from conftest import nonstructural_3d

        v = is_persistent(nonstructural_3d(), 3)
        assert v.persistent and not v.structurally_persistent
        assert v.witness_leaders == (1, 6)

    def test_3d_verdict_records_seed(self):
        assert is_persistent(complete(4), 3, seed=9).seed == 9

    def test_persistent_implies_rigid(self):
        v = is_persistent(complete(4), 3)
        assert v.persistent
        assert check_rigidity(complete(4).underlying(), 3).rigid

    @pytest.mark.parametrize(
        "f",
        [
            complete(5),
            Formation(vertices=(1, 2, 3, 4), edges=((2, 1), (4, 3))),
            singleton(1),
        ],
        ids=["k5", "four-vertices-two-edges", "singleton"],
    )
    @pytest.mark.parametrize("dim", [2, 3])
    def test_trials_below_one_rejected_on_every_path(self, f, dim):
        with pytest.raises(InputError, match="trials must be >= 1"):
            is_persistent(f, dim, trials=0)


class TestLocalDofCompliance:
    def test_compliant_triangle_pair(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), triangle(4)),
            inter_edges=((1, 4), (1, 5), (2, 4)),
        )
        ok, offenders = local_dof_compliance(meta, 2)
        assert ok and offenders == ()

    def test_overdrawn_tail_reported(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), triangle(4)),
            inter_edges=((2, 4), (2, 5)),  # vertex 2 has local dof 1
        )
        ok, offenders = local_dof_compliance(meta, 2)
        assert not ok and offenders == (2,)

    def test_empty_inter_edges_compliant(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), triangle(4)), inter_edges=()
        )
        assert local_dof_compliance(meta, 2) == (True, ())


class TestMergedPersistence:
    def _pair(self, inter):
        return MetaFormation(
            meta_vertices=(triangle(1), triangle(4)), inter_edges=inter
        )

    def _merged(self, meta):
        rigid = meta_rigid(meta, 2).rigid
        compliant = local_dof_compliance(meta, 2)[0]
        return merged_persistence(meta.flatten(), 2, rigid, compliant, 0, 3)

    def test_compliant_rigid_merge_is_persistent(self):
        v = self._merged(self._pair(((1, 4), (1, 5), (2, 4))))
        assert v.persistent and v.minimally_persistent

    def test_single_contact_vertex_not_persistent(self):
        v = self._merged(self._pair(((1, 4), (2, 4))))
        assert not v.persistent

    def test_non_persistent_meta_vertex_raises(self):
        # Rigid, but vertex 9 may drop 9 -> 10 and leave 10 on one edge.
        dangler = Formation(
            vertices=(7, 8, 9, 10), edges=((8, 7), (9, 7), (9, 8), (10, 7), (9, 10))
        )
        meta = MetaFormation(
            meta_vertices=(triangle(1), dangler), inter_edges=((1, 7), (1, 8), (2, 7))
        )
        assert meta_rigid(meta, 2).rigid
        with pytest.raises(NotPersistentError, match="meta-vertex 1 is not persistent"):
            check_meta(meta, 2, 0, 3)
        with pytest.raises(NotPersistentError, match="meta-vertex 1 is not persistent"):
            reference_merged_persistence(meta, 2)

    def test_fast_path_agrees_with_full_criterion(self):
        rng = random.Random(2)
        cross = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
        for _ in range(25):
            k = rng.randint(0, 4)
            chosen = rng.sample(cross, k)
            inter = tuple(
                (t, h) if rng.random() < 0.5 else (h, t) for t, h in chosen
            )
            meta = self._pair(inter)
            flat = meta.flatten()
            v = self._merged(meta)
            assert v.persistent == is_persistent(flat, 2).persistent
            assert v.to_dict() == reference_merged_persistence(meta, 2).to_dict()


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    vertices = tuple(range(1, n + 1))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((b, a) if f else (a, b) for (a, b), f in zip(chosen, flips))
    return Formation(vertices=vertices, edges=edges)


class TestNoWholeFormationCheck:
    @pytest.mark.parametrize(
        "f, dim, minimally, oracle_calls",
        [
            (complete(6), 2, False, 0),
            (triangle(), 2, True, 0),
            (complete(6), 3, False, 0),
            (complete(4), 3, True, 0),
        ],
    )
    def test_persistent_verdict_rests_on_terminals_only(
        self, monkeypatch, f, dim, minimally, oracle_calls
    ):
        # Rigid terminals make the formation rigid, so minimal persistence
        # is its edge count.  In 3D, K6 and K4 peel down to the triangle
        # on 1, 2, 3, complete and so rigid without the rank oracle.
        # The calls are counted through every name bound to each check,
        # ``persistence``'s imports included.
        oracle = count_calls(monkeypatch, "generic_rank_oracle", rigidity.generic_rank_oracle)
        laman = count_calls(monkeypatch, "laman_check_2d", rigidity.laman_check_2d)
        v = is_persistent(f, dim)
        assert v.persistent
        assert v.minimally_persistent is minimally
        assert (len(oracle), len(laman)) == (oracle_calls, 0)


class TestPersistenceProperties:
    @settings(max_examples=50, deadline=None)
    @given(digraphs())
    def test_terminal_sets_order_canonical(self, f):
        # Reversing the edge list must not change the set of terminal sets.
        rev = Formation(vertices=f.vertices, edges=tuple(reversed(f.edges)))
        a = set(map(frozenset, terminal_subgraphs(f, 2)))
        b = set(map(frozenset, terminal_subgraphs(rev, 2)))
        assert a == b

    @settings(max_examples=50, deadline=None)
    @given(digraphs())
    def test_terminal_sets_have_no_excess(self, f):
        for t in terminal_subgraphs(f, 2):
            deg = {}
            for tail, _ in t:
                deg[tail] = deg.get(tail, 0) + 1
            assert all(d <= 2 for d in deg.values())

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_persistent_implies_underlying_rigid(self, f):
        if is_persistent(f, 2).persistent:
            assert check_rigidity(f.underlying(), 2).rigid

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_persistent_total_dof_bound(self, f):
        v = is_persistent(f, 2)
        if v.persistent:
            assert v.ledger.total_dof <= 3

    @settings(max_examples=30, deadline=None)
    @given(digraphs())
    def test_edge_removal_safety(self, f):
        # Removing one outgoing edge at an over-constrained vertex of a
        # persistent formation keeps it persistent.
        if not is_persistent(f, 2).persistent:
            return
        out = f.out_degrees()
        for e in f.edges:
            if out[e[0]] > 2:
                rest = Formation(
                    vertices=f.vertices,
                    edges=tuple(x for x in f.edges if x != e),
                )
                assert is_persistent(rest, 2).persistent
