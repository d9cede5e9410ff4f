"""Feasibility, pairwise plans, collection merging."""
import itertools

import pytest

from metaform import persistence
from metaform.errors import InfeasibleMergeError, NotPersistentError
from metaform.graph import Formation
from metaform.persistence import is_persistent
from metaform.planner import (
    REASON_MISSING_DOF,
    REASON_NONSTRUCTURAL_ZERO,
    REASON_OK,
    REASON_TOO_FEW_VERTICES,
    REASON_TWO_LONE_LEADERS,
    feasibility,
    missing_dof,
    plan_collection,
    plan_pair,
    prove_members,
    verify_plan,
)
from metaform.rigidity import dof_constant

from conftest import (
    complete,
    count_calls,
    dof_allocated_3d,
    lone_leader_3d,
    nonstructural_3d,
    pair,
    shift,
    singleton,
    triangle,
    zero_dof_3d,
)


class TestMissingDof:
    def test_capacities(self):
        assert dof_constant(2, 1) == 2
        assert dof_constant(2, 4) == 3
        assert dof_constant(3, 1) == 3
        assert dof_constant(3, 2) == 5
        assert dof_constant(3, 4) == 6

    def test_full_dof_formations_miss_nothing(self):
        assert missing_dof(triangle(), 2).value == 0
        assert missing_dof(complete(4), 3).value == 0
        assert missing_dof(singleton(1), 3).value == 0
        assert missing_dof(pair(1, 2), 3).value == 0

    def test_zero_dof_misses_everything(self):
        m = missing_dof(zero_dof_3d(), 3)
        assert m.value == 6 and m.total_dof == 0

    def test_non_persistent_rejected(self):
        loose = Formation(vertices=(1, 2, 3), edges=((2, 1),))
        with pytest.raises(NotPersistentError):
            missing_dof(loose, 2)


class TestFeasibility:
    def test_simple_collections_ok(self):
        assert feasibility([triangle(1), triangle(4)], 2).reason == REASON_OK
        assert feasibility([complete(4, 1), complete(4, 5)], 3).reason == REASON_OK

    def test_missing_dof_budget(self):
        zs = [zero_dof_3d(1), zero_dof_3d(10), complete(4, 20)]
        f = feasibility(zs, 3)
        assert not f.feasible and f.reason == REASON_MISSING_DOF
        assert f.total_missing == 12

    def test_two_lone_leaders_rejected(self):
        f = feasibility([lone_leader_3d(1), lone_leader_3d(10)], 3)
        assert not f.feasible and f.reason == REASON_TWO_LONE_LEADERS

    def test_nonstructural_vs_zero_dof_rejected(self):
        f = feasibility([nonstructural_3d(1), zero_dof_3d(10)], 3)
        assert not f.feasible and f.reason == REASON_NONSTRUCTURAL_ZERO

    def test_singletons_are_not_lone_leaders(self):
        # A single vertex carries 3 fresh DOFs; the lone-leader gate must
        # not fire on it.
        f = feasibility([singleton(30), lone_leader_3d(1)], 3)
        assert f.feasible and f.reason == REASON_OK

    def test_too_few_vertices(self):
        f = feasibility([singleton(1), singleton(2)], 3)
        assert not f.feasible and f.reason == REASON_TOO_FEW_VERTICES

    def test_gates_lift_with_a_third_member(self):
        f = feasibility([nonstructural_3d(1), zero_dof_3d(10), complete(4, 20)], 3)
        assert f.feasible


class TestPlanPair2D:
    def test_two_triangles_three_edges(self):
        plan = plan_pair(triangle(1), triangle(4), 2)
        assert len(plan.edges) == 3
        report = verify_plan([triangle(1), triangle(4)], plan, 2)
        assert report.persistent and report.edge_optimal_persistent

    def test_triangle_singleton_two_edges(self):
        plan = plan_pair(triangle(1), singleton(9), 2)
        assert len(plan.edges) == 2

    def test_two_singletons_one_edge(self):
        plan = plan_pair(singleton(1), singleton(2), 2)
        assert len(plan.edges) == 1

    def test_both_sides_touched_twice(self):
        plan = plan_pair(triangle(1), triangle(4), 2)
        a = {v for e in plan.edges for v in (e.tail, e.head) if v <= 3}
        b = {v for e in plan.edges for v in (e.tail, e.head) if v >= 4}
        assert len(a) >= 2 and len(b) >= 2

    def test_tails_consume_local_dofs(self):
        ga = triangle(1)
        plan = plan_pair(ga, triangle(4), 2)
        from metaform.persistence import ledger

        dofs = ledger(ga, 2).dof | ledger(triangle(4), 2).dof
        tails = {}
        for e in plan.edges:
            tails[e.tail] = tails.get(e.tail, 0) + 1
        assert all(cnt <= dofs[t] for t, cnt in tails.items())

    def test_non_persistent_input_rejected(self):
        loose = Formation(vertices=(1, 2, 3), edges=((2, 1),))
        with pytest.raises(NotPersistentError):
            plan_pair(loose, triangle(4), 2)


class TestPlanPair3D:
    def test_table_of_minimal_sizes(self):
        cases = [
            (singleton(1), singleton(2), 1),
            (singleton(1), pair(2, 3), 2),
            (singleton(1), complete(4, 2), 3),
            (pair(1, 2), pair(3, 4), 4),
            (pair(1, 2), complete(4, 3), 5),
            (complete(4, 1), complete(4, 5), 6),
        ]
        for ga, gb, size in cases:
            plan = plan_pair(ga, gb, 3)
            assert len(plan.edges) == size
            report = verify_plan([ga, gb], plan, 3)
            assert report.persistent and report.structurally_persistent
            assert report.edge_optimal_persistent
            assert report.missing_dof_conserved

    def test_six_edge_merge_spreads_incidence(self):
        plan = plan_pair(complete(4, 1), complete(4, 5), 3)
        a = {v for e in plan.edges for v in (e.tail, e.head) if v <= 4}
        b = {v for e in plan.edges for v in (e.tail, e.head) if v >= 5}
        assert len(a) >= 3 and len(b) >= 3
        incid = {}
        for e in plan.edges:
            for v in (e.tail, e.head):
                incid[v] = incid.get(v, 0) + 1
        assert max(incid.values()) <= 3

    def test_impossible_pairs_raise_with_reason(self):
        with pytest.raises(InfeasibleMergeError) as exc:
            plan_pair(lone_leader_3d(1), lone_leader_3d(10), 3)
        assert exc.value.reason == REASON_TWO_LONE_LEADERS
        with pytest.raises(InfeasibleMergeError) as exc:
            plan_pair(nonstructural_3d(1), zero_dof_3d(10), 3)
        assert exc.value.reason == REASON_NONSTRUCTURAL_ZERO

    def test_two_zero_dof_members_lack_the_dofs(self):
        # Six inter-edges are needed and neither member has a local DOF.
        with pytest.raises(InfeasibleMergeError) as exc:
            plan_pair(zero_dof_3d(1), zero_dof_3d(10), 3)
        assert exc.value.reason == REASON_MISSING_DOF

    def test_lone_leader_merges_with_full_dof_partner(self):
        ga, gb = lone_leader_3d(1), complete(4, 10)
        plan = plan_pair(ga, gb, 3)
        report = verify_plan([ga, gb], plan, 3)
        assert report.persistent and report.structurally_persistent

    def test_allocation_tail_degrees(self):
        # A (3,2,1) source against a zero-DOF partner: tail out-degrees
        # must follow the allocation since only side A has DOFs.
        ga, gb = complete(4, 1), zero_dof_3d(10)
        plan = plan_pair(ga, gb, 3)
        outs = {}
        for e in plan.edges:
            outs[e.tail] = outs.get(e.tail, 0) + 1
        assert sorted(outs.values(), reverse=True) == [3, 2, 1]
        assert all(t <= 4 for t in outs)

    def test_rules_tagged(self):
        plan = plan_pair(complete(4, 1), complete(4, 5), 3)
        assert all(e.rule in ("op-v", "op-e") for e in plan.edges)
        plan = plan_pair(pair(1, 2), pair(3, 4), 3)
        assert all(e.rule == "small-graph" for e in plan.edges)


class TestPlanCollection:
    def test_2d_bound_met(self):
        coll = [triangle(1), triangle(4), singleton(9)]
        plan = plan_collection(coll, 2)
        assert len(plan.edges) == 3 * 2 + 2 * 1 - 3
        report = verify_plan(coll, plan, 2)
        assert report.persistent and report.edge_optimal_persistent
        assert report.missing_dof_conserved

    def test_3d_bound_met(self):
        coll = [complete(4, 1), pair(8, 9), singleton(12)]
        plan = plan_collection(coll, 3)
        assert len(plan.edges) == 6 + 5 + 3 - 6
        report = verify_plan(coll, plan, 3)
        assert report.persistent and report.edge_optimal_persistent

    def test_zero_dof_member_merged_last(self):
        coll = [zero_dof_3d(1), complete(4, 10), complete(4, 20)]
        plan = plan_collection(coll, 3)
        assert plan.merge_order[-1] == 0

    def test_lone_leader_member_isolated_last(self):
        coll = [lone_leader_3d(1), complete(4, 10), complete(4, 20)]
        plan = plan_collection(coll, 3)
        assert plan.merge_order[-1] == 0
        report = verify_plan(coll, plan, 3)
        assert report.persistent and report.structurally_persistent

    def test_steps_recorded(self):
        coll = [triangle(1), triangle(4), triangle(7)]
        plan = plan_collection(coll, 2)
        assert {e.step for e in plan.edges} == {1, 2}

    def test_infeasible_collection_raises(self):
        with pytest.raises(InfeasibleMergeError) as exc:
            plan_collection([zero_dof_3d(1), zero_dof_3d(10)], 3)
        assert exc.value.reason == REASON_MISSING_DOF

    def test_single_member_collection(self):
        plan = plan_collection([complete(4, 1)], 3)
        assert plan.edges == ()


class TestProvedMembers:
    def test_a_record_of_the_other_dimension_is_proved_again(self, monkeypatch):
        coll = [triangle(1), triangle(4)]
        in_2d = prove_members(coll, 2)
        proved = count_calls(monkeypatch, "is_persistent", persistence.is_persistent)
        in_3d = prove_members(in_2d, 3)
        assert [args[:2] for args in proved] == [(coll[0], 3), (coll[1], 3)]
        assert in_3d == prove_members(coll, 3)
        assert in_3d.dim == 3 and in_3d != in_2d

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_plan_collection_computes_2k_minus_1_ledgers(self, monkeypatch, dim, k):
        """One ledger per member, from its proof, and one per fold step, from
        the conservation check; no step computes one it already holds."""
        size = dim + 1
        coll = [complete(size, 1 + size * i) for i in range(k)]
        ledgers = count_calls(monkeypatch, "ledger", persistence.ledger)
        plan_collection(coll, dim)
        assert len(ledgers) == 2 * k - 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_plan_pair_computes_the_two_ledgers_of_its_proof(self, monkeypatch, dim):
        ledgers = count_calls(monkeypatch, "ledger", persistence.ledger)
        plan_pair(complete(dim + 1, 1), complete(dim + 1, 10), dim)
        assert [args[0].vertices[0] for args in ledgers] == [1, 10]


class TestVerifyPlan:
    def test_detects_broken_plan(self):
        coll = [triangle(1), triangle(4)]
        plan = plan_pair(*coll, 2)
        # Redirect every head to one vertex: single contact point.
        from metaform.planner import MergePlan, PlanEdge

        bad = MergePlan(
            edges=(
                PlanEdge(1, 4, "2D-pair"),
                PlanEdge(2, 4, "2D-pair"),
                PlanEdge(3, 4, "2D-pair"),
            )
        )
        report = verify_plan(coll, bad, 2)
        assert not report.persistent

    def test_redundant_edge_breaks_optimality(self):
        coll = [triangle(1), triangle(4)]
        plan = plan_pair(*coll, 2)
        from metaform.planner import MergePlan, PlanEdge

        extra = MergePlan(edges=plan.edges + (PlanEdge(2, 6, "extra"),))
        report = verify_plan(coll, extra, 2)
        assert report.persistent and not report.edge_optimal_persistent
