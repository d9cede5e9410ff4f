"""Feasibility analysis and constructive synthesis of persistent mergings.

Pairwise plans place directed inter-edges whose tails consume local DOFs.
2D placement follows the three-edge rule (each side incident to at least
two vertices); correctness is then guaranteed combinatorially.  In 3D the
construction catalog is realized as a deterministic bounded search over
DOF-consumption vectors and head assignments, subject to the incidence
constraints the theory imposes (at least three incident vertices per
side, no vertex carrying more than three of the six edges), with every
candidate validated before being emitted: its few inter-edge rows are
tested against the members' internal rows, reduced once per rank-oracle
trial, which gives exactly the rank oracle's verdict on the merged graph.
Collections are merged pairwise with the special-case ordering rules: a
zero-DOF member is merged last, and when a member with a single 3-DOF
leader and no other DOF exists, one such member is isolated and merged
last into a partial result whose DOFs are not all on one leader.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InfeasibleMergeError, NotPersistentError
from .graph import Edge, Formation, MetaFormation
from .meta import edge_optimal_persistent, meta_rigid
from .persistence import (
    DofLedger,
    is_persistent,
    ledger,
    local_dof_compliance,
    merged_persistence,
)
from .rigidity import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    FixedBaseRank,
    dof_constant,
    laman_check_2d,
)

# Rank evaluations tried per DOF-consumption vector before moving on.
HEAD_SEARCH_LEAF_CAP = 500


@dataclass(frozen=True)
class MissingDof:
    value: int
    capacity: int
    total_dof: int


def missing_dof(
    f: Formation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    check: bool = True,
) -> MissingDof:
    """Capacity of the formation's size class minus its actual total DOFs."""
    if check and not is_persistent(f, dim, seed=seed, trials=trials).persistent:
        raise NotPersistentError("missing DOFs are defined for persistent formations")
    cap = dof_constant(dim, len(f.vertices))
    total = ledger(f, dim).total_dof
    return MissingDof(value=cap - total, capacity=cap, total_dof=total)


REASON_OK = "ok"
REASON_MISSING_DOF = "missing-dof-exceeded"
REASON_NONSTRUCTURAL_ZERO = "3D-nonstructural-vs-zero-dof"
REASON_TWO_LONE_LEADERS = "3D-two-lone-leaders"
REASON_TOO_FEW_VERTICES = "too-few-vertices"


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    reason: str
    total_missing: int = 0

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "reason": self.reason,
            "totalMissingDof": self.total_missing,
        }


def _is_lone_leader(f: Formation, led: DofLedger) -> bool:
    """One leader holding 3 DOFs and no other DOF, on 3+ vertices."""
    return (
        len(f.vertices) >= 3
        and led.total_dof == 3
        and len(led.leaders) == 1
    )


def _is_nonstructural(f: Formation, led: DofLedger) -> bool:
    """Persistent with two leaders (hence 6 DOFs, all on them), 3+ vertices."""
    return len(f.vertices) >= 3 and len(led.leaders) == 2


def feasibility(
    collection,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> Feasibility:
    """Can the collection be merged into a persistent formation?"""
    for i, f in enumerate(collection):
        if not is_persistent(f, dim, seed=seed, trials=trials).persistent:
            raise NotPersistentError(f"collection member {i} is not persistent in {dim}D")
    total_vertices = sum(len(f.vertices) for f in collection)
    if total_vertices < dim:
        return Feasibility(False, REASON_TOO_FEW_VERTICES)
    total_missing = sum(
        missing_dof(f, dim, check=False).value for f in collection
    )
    budget = 3 if dim == 2 else 6
    if total_missing > budget:
        return Feasibility(False, REASON_MISSING_DOF, total_missing)
    if dim == 3 and len(collection) == 2:
        a, b = collection
        la, lb = ledger(a, 3), ledger(b, 3)
        for f1, l1, f2, l2 in ((a, la, b, lb), (b, lb, a, la)):
            if _is_nonstructural(f1, l1) and l2.total_dof == 0:
                return Feasibility(False, REASON_NONSTRUCTURAL_ZERO, total_missing)
        if _is_lone_leader(a, la) and _is_lone_leader(b, lb):
            return Feasibility(False, REASON_TWO_LONE_LEADERS, total_missing)
    return Feasibility(True, REASON_OK, total_missing)


@dataclass(frozen=True)
class PlanEdge:
    tail: int
    head: int
    rule: str
    step: int = 0

    def pair(self) -> Edge:
        return (self.tail, self.head)

    def to_dict(self) -> dict:
        return {
            "tail": self.tail,
            "head": self.head,
            "rule": self.rule,
            "step": self.step,
        }


@dataclass(frozen=True)
class MergePlan:
    """Directed inter-edges with per-edge rule provenance.

    merge_order lists the collection indices in the order they were
    folded into the result (the pairwise merge tree of a sequential
    fold); pair plans have order (0, 1).
    """

    edges: tuple[PlanEdge, ...]
    merge_order: tuple[int, ...] = (0, 1)

    def edge_pairs(self) -> tuple[Edge, ...]:
        return tuple(e.pair() for e in self.edges)

    def apply(self, collection) -> MetaFormation:
        return MetaFormation(
            meta_vertices=tuple(collection), inter_edges=self.edge_pairs()
        )

    def to_dict(self) -> dict:
        return {
            "edges": [e.to_dict() for e in self.edges],
            "mergeOrder": list(self.merge_order),
        }


def _required_pair_edges(na: int, nb: int, dim: int) -> int:
    """Minimal inter-edge count for a rigid pairwise merge."""
    if dim == 2:
        if na == 1 and nb == 1:
            return 1
        if na == 1 or nb == 1:
            return 2
        return 3
    small = sorted((min(na, 3), min(nb, 3)))
    table = {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 2): 4, (2, 3): 5, (3, 3): 6}
    return table[tuple(small)]


def _consumption_vectors(ga, gb, led_a, led_b, required, dim):
    """DOF-consumption candidates, greedy-largest-first, residual-safe first.

    Each candidate maps vertex -> consumed DOFs (sum = required, bounded
    by the vertex's local DOF and by the opposite side's vertex count).
    Candidates leaving a source with 3 or 6 residual DOFs all on leaders
    are sorted last: such residues would make every remaining DOF sit on
    a leader of the merged graph.
    """
    sides = {v: 0 for v in ga.vertices} | {v: 1 for v in gb.vertices}
    opp_size = (len(gb.vertices), len(ga.vertices))
    dofs = [
        (v, d, 0) for v, d in sorted(led_a.dof.items()) if d > 0
    ] + [(v, d, 1) for v, d in sorted(led_b.dof.items()) if d > 0]
    dofs.sort(key=lambda x: (-x[1], x[2], x[0]))

    candidates = []

    def recurse(i, remaining, current):
        if remaining == 0:
            candidates.append(dict(current))
            return
        if i == len(dofs):
            return
        # Bound: the rest cannot cover what's left.
        if sum(min(d, opp_size[s]) for _, d, s in dofs[i:]) < remaining:
            return
        v, d, s = dofs[i]
        top = min(d, remaining, opp_size[s])
        for take in range(top, -1, -1):
            if take:
                current[v] = take
            recurse(i + 1, remaining - take, current)
            current.pop(v, None)

    recurse(0, required, {})

    def residual_bad(cand):
        for f, led in ((ga, led_a), (gb, led_b)):
            consumed = sum(c for v, c in cand.items() if v in f.vertex_set)
            residual = led.total_dof - consumed
            if residual not in (3, 6):
                continue
            holders = [
                v for v in f.vertices if led.dof[v] - cand.get(v, 0) > 0
            ]
            if all(led.dof[v] == 3 and v not in cand for v in holders):
                return True
        return False

    candidates.sort(key=residual_bad)  # stable: greedy order preserved within
    return candidates


def _assign_heads(ga, gb, tails, dim, member_rows):
    """Deterministic backtracking over head choices, rank-validated.

    tails is a list of tail vertices (one entry per edge).  Constraints:
    distinct unordered pairs, per-vertex incidence at most 3 in 3D, and
    each side incident to at least min(|side|, dim) vertices.  The first
    assignment whose merged graph is rigid wins: in 2D by the pebble game,
    in 3D by testing the assignment's rows against ``member_rows()``, the
    members' internal rows reduced once per rank-oracle trial, which gives
    exactly the rank oracle's verdict on the merged graph.
    """
    side_of = {v: 0 for v in ga.vertices} | {v: 1 for v in gb.vertices}
    side_verts = (ga.vertices, gb.vertices)
    need_cover = (min(len(ga.vertices), dim), min(len(gb.vertices), dim))
    internal_edges = tuple(ga.edges) + tuple(gb.edges)
    all_vertices = tuple(ga.vertices) + tuple(gb.vertices)
    cap = 3 if dim == 3 else len(tails)
    budget = [HEAD_SEARCH_LEAF_CAP]

    def rigid(pairs) -> bool:
        if dim == 3:
            return member_rows().full_rank(pairs)
        flat = Formation(
            vertices=all_vertices, edges=internal_edges + tuple(pairs)
        )
        return laman_check_2d(flat.underlying()).rigid

    def search(i, chosen, used_pairs, incidence):
        if budget[0] <= 0:
            return None
        if i == len(tails):
            covered = (
                len({v for e in chosen for v in e if side_of[v] == 0}),
                len({v for e in chosen for v in e if side_of[v] == 1}),
            )
            if covered[0] < need_cover[0] or covered[1] < need_cover[1]:
                return None
            budget[0] -= 1
            if rigid(chosen):
                return list(chosen)
            return None
        t = tails[i]
        for h in side_verts[1 - side_of[t]]:
            pair = (min(t, h), max(t, h))
            if pair in used_pairs:
                continue
            if incidence.get(h, 0) + 1 > cap or incidence.get(t, 0) + 1 > cap:
                continue
            used_pairs.add(pair)
            incidence[h] = incidence.get(h, 0) + 1
            incidence[t] = incidence.get(t, 0) + 1
            result = search(i + 1, chosen + [(t, h)], used_pairs, incidence)
            if result is not None:
                return result
            used_pairs.discard(pair)
            incidence[h] -= 1
            incidence[t] -= 1
        return None

    return search(0, [], set(), {})


def plan_pair(
    ga: Formation,
    gb: Formation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    check: bool = True,
) -> MergePlan:
    """Minimal persistent merge of two formations.

    Emits exactly the dimension- and size-appropriate number of directed
    inter-edges, every tail consuming one local DOF.
    """
    if check:
        for name, f in (("first", ga), ("second", gb)):
            if not is_persistent(f, dim, seed=seed, trials=trials).persistent:
                raise NotPersistentError(f"{name} formation is not persistent in {dim}D")
    led_a, led_b = ledger(ga, dim), ledger(gb, dim)
    na, nb = len(ga.vertices), len(gb.vertices)
    required = _required_pair_edges(na, nb, dim)
    available = led_a.total_dof + led_b.total_dof
    if available < required:
        raise InfeasibleMergeError(
            f"{required} inter-edges needed but only {available} local DOFs available",
            REASON_MISSING_DOF,
        )
    if dim == 3 and na >= 3 and nb >= 3 and available == 6:
        for f1, l1, f2, l2 in ((ga, led_a, gb, led_b), (gb, led_b, ga, led_a)):
            if _is_nonstructural(f1, l1) and l2.total_dof == 0:
                raise InfeasibleMergeError(
                    "one formation is not structurally persistent and the other has no DOF",
                    REASON_NONSTRUCTURAL_ZERO,
                )
        if _is_lone_leader(ga, led_a) and _is_lone_leader(gb, led_b):
            raise InfeasibleMergeError(
                "both formations have a single 3-DOF leader and no other DOF",
                REASON_TWO_LONE_LEADERS,
            )

    @functools.cache
    def member_rows() -> FixedBaseRank:
        # Built at the first 3D leaf, not up front: members that share a
        # vertex id fail there, while a search whose every leaf is pruned
        # still ends in a catalog miss.
        members = Formation(
            vertices=tuple(ga.vertices) + tuple(gb.vertices),
            edges=tuple(ga.edges) + tuple(gb.edges),
        )
        return FixedBaseRank(members.underlying(), 3, seed=seed, trials=trials)

    for cand in _consumption_vectors(ga, gb, led_a, led_b, required, dim):
        tails = []
        for v in sorted(cand, key=lambda v: (-cand[v], v)):
            tails.extend([v] * cand[v])
        assignment = _assign_heads(ga, gb, tails, dim, member_rows)
        if assignment is None:
            continue
        rule = "2D-pair" if dim == 2 else ("small-graph" if min(na, nb) < 3 else "op-v")
        counts: dict[int, int] = {}
        edges = []
        for t, h in assignment:
            counts[t] = counts.get(t, 0) + 1
            tag = rule
            if dim == 3 and min(na, nb) >= 3 and counts[t] < cand[t]:
                tag = "op-v"
            edges.append(PlanEdge(tail=t, head=h, rule=tag))
        return MergePlan(edges=tuple(edges))
    raise InfeasibleMergeError(
        "no rank-validated construction found for this DOF configuration",
        "catalog-miss",
    )


def _merge_order(collection, dim, seed, trials) -> list[int]:
    """Fold order: ascending missing DOF, special 3D members last."""
    infos = []
    for i, f in enumerate(collection):
        led = ledger(f, dim)
        m = missing_dof(f, dim, check=False).value
        infos.append((i, f, led, m))
    last: int | None = None
    if dim == 3:
        zero = [i for i, f, led, _ in infos if led.total_dof == 0]
        lone = [i for i, f, led, _ in infos if _is_lone_leader(f, led)]
        if zero:
            last = zero[0]
        elif lone:
            last = lone[0]
    rest = [x for x in infos if x[0] != last]
    rest.sort(key=lambda x: (x[3], x[0]))
    order = [i for i, *_ in rest]
    if last is not None:
        order.append(last)
    return order


def plan_collection(
    collection,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> MergePlan:
    """Merge a whole collection by recursive pairwise planning.

    Missing DOFs are conserved at every internal step, so the total edge
    count lands exactly on the counting bound of the classified
    collection.
    """
    collection = list(collection)
    feas = feasibility(collection, dim, seed=seed, trials=trials)
    if not feas.feasible:
        raise InfeasibleMergeError(f"collection cannot be merged: {feas.reason}", feas.reason)
    if len(collection) == 1:
        return MergePlan(edges=(), merge_order=(0,))
    order = _merge_order(collection, dim, seed, trials)
    acc = collection[order[0]]
    acc_missing = missing_dof(acc, dim, check=False).value
    edges: list[PlanEdge] = []
    for step, idx in enumerate(order[1:], start=1):
        member = collection[idx]
        pair_plan = plan_pair(acc, member, dim, seed=seed, trials=trials, check=False)
        edges.extend(
            PlanEdge(tail=e.tail, head=e.head, rule=e.rule, step=step)
            for e in pair_plan.edges
        )
        merged = Formation(
            vertices=tuple(acc.vertices) + tuple(member.vertices),
            edges=tuple(acc.edges) + tuple(member.edges) + pair_plan.edge_pairs(),
        )
        member_missing = missing_dof(member, dim, check=False).value
        new_missing = missing_dof(merged, dim, check=False).value
        if new_missing != acc_missing + member_missing:
            raise AssertionError(
                f"missing-DOF conservation broken at step {step}: "
                f"{new_missing} != {acc_missing} + {member_missing}"
            )
        acc, acc_missing = merged, new_missing
    return MergePlan(edges=tuple(edges), merge_order=tuple(order))


@dataclass(frozen=True)
class PlanReport:
    persistent: bool
    structurally_persistent: bool
    edge_optimal_persistent: bool
    missing_dof_conserved: bool
    ledger: DofLedger

    def to_dict(self) -> dict:
        return {
            "persistent": self.persistent,
            "structurallyPersistent": self.structurally_persistent,
            "edgeOptimalPersistent": self.edge_optimal_persistent,
            "missingDofConserved": self.missing_dof_conserved,
            "ledger": self.ledger.to_dict(),
        }


def verify_plan(
    collection,
    plan: MergePlan,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> PlanReport:
    """Closed-loop check of a plan against its collection."""
    meta = plan.apply(collection)
    verdict = merged_persistence(meta, dim, seed=seed, trials=trials)
    flat = meta.flatten()
    optimal = False
    if verdict.persistent:
        if dim == 3 and len(flat.vertices) < 3 and len(collection) == 2:
            # Below three vertices the meta counting formula does not
            # apply; minimality comes from the pairwise size table.
            compliant, _ = local_dof_compliance(meta, dim)
            required = _required_pair_edges(
                len(collection[0].vertices), len(collection[1].vertices), 3
            )
            optimal = compliant and len(plan.edges) == required
        else:
            optimal = edge_optimal_persistent(
                meta, meta_rigid(meta, dim, seed=seed, trials=trials)
            )
    member_missing = sum(
        missing_dof(f, dim, check=False).value for f in collection
    )
    merged_missing = missing_dof(flat, dim, check=False).value
    return PlanReport(
        persistent=verdict.persistent,
        structurally_persistent=verdict.structurally_persistent,
        edge_optimal_persistent=optimal,
        missing_dof_conserved=merged_missing == member_missing,
        ledger=verdict.ledger,
    )
