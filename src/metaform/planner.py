"""Feasibility analysis and constructive synthesis of persistent mergings.

Pairwise plans place directed inter-edges whose tails consume local DOFs.
2D placement follows the three-edge rule (each side incident to at least
two vertices); correctness is then guaranteed combinatorially.  In 3D the
construction catalog is realized as a deterministic bounded search over
DOF-consumption vectors and, for each, the sets of inter-edges whose
tails consume it (each set tried once), subject to the incidence
constraints the theory imposes (at least three incident vertices per
side, no vertex carrying more than three of the six edges), with every
candidate validated before being emitted.  In both dimensions the two
members are the bodies of one ``BodyBarRank``.  In 2D its pebble game
holds the members' edges, and a candidate costs inserting its
inter-edges and taking them back out.  In 3D each member is ranked once
per rank-oracle trial, and at a trial where both reach their generic
rank a candidate costs one independence test of its inter-edges'
Plücker lines, at most 6x6 mod p.  Either is exactly the rigidity
verdict on the merged graph.  A 3D vector with at most two tails,
when each side has a vertex that is not a tail, is refused before any set
is built: every inter-edge meets the line through the tails, and turning
one side about that line is a non-trivial motion, so no placement reaches
full rank.  Candidates are built and tested one at a time, in search
order, and the first full-rank one wins; none is built past it.
Collections are merged pairwise with the special-case ordering rules: a
zero-DOF member is merged last, and when a member with a single 3-DOF
leader and no other DOF exists, one such member is isolated and merged
last into a partial result whose DOFs are not all on one leader.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InfeasibleMergeError, NotPersistentError
from .graph import Edge, Formation, MetaFormation
from .meta import merge_bound, size_classes
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
    BodyBarRank,
    check_rigidity,
    dof_constant,
)

# Distinct inter-edge sets tried per DOF-consumption vector before moving on.
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
) -> MissingDof:
    """Capacity of the formation's size class minus its actual total DOFs."""
    verdict = is_persistent(f, dim, seed=seed, trials=trials)
    if not verdict.persistent:
        raise NotPersistentError("missing DOFs are defined for persistent formations")
    cap = dof_constant(dim, len(f.vertices))
    total = verdict.ledger.total_dof
    return MissingDof(value=cap - total, capacity=cap, total_dof=total)


def _missing(f: Formation, led: DofLedger) -> int:
    """``missing_dof(f).value`` for a formation already proved persistent."""
    return dof_constant(led.dim, len(f.vertices)) - led.total_dof


@dataclass(frozen=True)
class ProvedMembers:
    """A collection proved persistent in ``dim``, with each member's ledger and
    missing DOF; ``feasibility``, ``plan_collection`` and ``verify_plan``
    take it in place of the collection."""

    formations: tuple[Formation, ...]
    dim: int
    ledgers: tuple[DofLedger, ...]
    missing: tuple[int, ...]


def prove_members(
    collection,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> ProvedMembers:
    """Prove each member persistent, once and in order; a record for ``dim`` is kept as is."""
    if isinstance(collection, ProvedMembers):
        if collection.dim == dim:
            return collection
        collection = collection.formations
    formations, ledgers = tuple(collection), []
    for i, f in enumerate(formations):
        verdict = is_persistent(f, dim, seed=seed, trials=trials)
        if not verdict.persistent:
            raise NotPersistentError(f"collection member {i} is not persistent in {dim}D")
        ledgers.append(verdict.ledger)
    missing = tuple(_missing(f, led) for f, led in zip(formations, ledgers))
    return ProvedMembers(formations, dim, tuple(ledgers), missing)


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


def _pair_refusal_3d(ga, led_a, gb, led_b) -> InfeasibleMergeError | None:
    """Why a 3D pair of persistent formations has no persistent merge."""
    for f1, l1, l2 in ((ga, led_a, led_b), (gb, led_b, led_a)):
        # Two leaders on 3+ vertices: persistent, not structurally, with
        # all 6 DOFs on the leaders.
        if len(f1.vertices) >= 3 and len(l1.leaders) == 2 and l2.total_dof == 0:
            return InfeasibleMergeError(
                "one formation is not structurally persistent and the other has no DOF",
                REASON_NONSTRUCTURAL_ZERO,
            )
    if _is_lone_leader(ga, led_a) and _is_lone_leader(gb, led_b):
        return InfeasibleMergeError(
            "both formations have a single 3-DOF leader and no other DOF",
            REASON_TWO_LONE_LEADERS,
        )
    return None


def feasibility(
    collection,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> Feasibility:
    """Can the collection be merged into a persistent formation?"""
    members = prove_members(collection, dim, seed=seed, trials=trials)
    total_vertices = sum(len(f.vertices) for f in members.formations)
    if total_vertices < dim:
        return Feasibility(False, REASON_TOO_FEW_VERTICES)
    total_missing = sum(members.missing)
    if total_missing > dof_constant(dim, total_vertices):
        return Feasibility(False, REASON_MISSING_DOF, total_missing)
    if dim == 3 and len(members.formations) == 2:
        (a, b), (la, lb) = members.formations, members.ledgers
        if refusal := _pair_refusal_3d(a, la, b, lb):
            return Feasibility(False, refusal.reason, total_missing)
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
    """Minimal inter-edge count for a rigid pairwise merge: the DOFs the
    two bodies lose by becoming one."""
    return dof_constant(dim, na) + dof_constant(dim, nb) - dof_constant(dim, na + nb)


def _consumption_vectors(ga, gb, led_a, led_b, required):
    """DOF-consumption candidates, greedy-largest-first, residual-safe first.

    Each candidate maps vertex -> consumed DOFs (sum = required, bounded
    by the vertex's local DOF and by the opposite side's vertex count).
    Candidates leaving a source with 3 or 6 residual DOFs all on leaders
    are yielded last, in greedy order: such residues would make every
    remaining DOF sit on a leader of the merged graph.  A generator,
    because ``plan_pair`` usually stops at one of the first candidates.
    """
    opp_size = (len(gb.vertices), len(ga.vertices))
    dofs = [
        (v, d, 0) for v, d in sorted(led_a.dof.items()) if d > 0
    ] + [(v, d, 1) for v, d in sorted(led_b.dof.items()) if d > 0]
    dofs.sort(key=lambda x: (-x[1], x[2], x[0]))
    # reach[i]: the most that dofs[i:] can consume together.
    reach = [0] * (len(dofs) + 1)
    for i in reversed(range(len(dofs))):
        _, d, s = dofs[i]
        reach[i] = reach[i + 1] + min(d, opp_size[s])

    def recurse(i, remaining, current):
        if remaining == 0:
            yield dict(current)
            return
        # Bound: the rest cannot cover what's left.
        if reach[i] < remaining:
            return
        v, d, s = dofs[i]
        top = min(d, remaining, opp_size[s])
        for take in range(top, -1, -1):
            if take:
                current[v] = take
            yield from recurse(i + 1, remaining - take, current)
            current.pop(v, None)

    sides = ((ga, ga.vertex_set, led_a), (gb, gb.vertex_set, led_b))

    def residual_bad(cand):
        for f, verts, led in sides:
            consumed = sum(c for v, c in cand.items() if v in verts)
            residual = led.total_dof - consumed
            if residual not in (3, 6):
                continue
            holders = [
                v for v in f.vertices if led.dof[v] - cand.get(v, 0) > 0
            ]
            if all(led.dof[v] == 3 and v not in cand for v in holders):
                return True
        return False

    deferred = []
    for cand in recurse(0, required, {}):
        if residual_bad(cand):
            deferred.append(cand)
        else:
            yield cand
    yield from deferred


def _covered_leaves(ga, gb, cand, dim):
    """Inter-edge sets for the consumption vector ``cand``, each once.

    Tails go in ``(-cand[v], v)`` order, and tail v takes one combination
    of ``cand[v]`` heads on the other side.  Constraints: distinct
    unordered pairs, per-vertex incidence at most 3 in 3D, and each side
    incident to at least min(|side|, dim) vertices.  Every set that meets
    them is yielded once, as a list of (tail, head) pairs, in lexicographic
    order of the heads' positions, tail by tail: the order in which a
    search over head sequences (one tail per DOF) first meets each set.
    """
    side_of = {v: 0 for v in ga.vertices} | {v: 1 for v in gb.vertices}
    side_verts = (ga.vertices, gb.vertices)
    need_cover = (min(len(ga.vertices), dim), min(len(gb.vertices), dim))
    cap = 3 if dim == 3 else sum(cand.values())
    tails = sorted(cand, key=lambda v: (-cand[v], v))

    def search(i, chosen, incidence):
        if i == len(tails):
            covered = (
                len({v for e in chosen for v in e if side_of[v] == 0}),
                len({v for e in chosen for v in e if side_of[v] == 1}),
            )
            if covered[0] >= need_cover[0] and covered[1] >= need_cover[1]:
                yield chosen
            return
        t, k = tails[i], cand[tails[i]]
        if incidence.get(t, 0) + k > cap:
            return
        free = [
            h
            for h in side_verts[1 - side_of[t]]
            if (h, t) not in chosen and incidence.get(h, 0) < cap
        ]
        for heads in itertools.combinations(free, k):
            for h in heads:
                incidence[h] = incidence.get(h, 0) + 1
            incidence[t] = incidence.get(t, 0) + k
            yield from search(i + 1, chosen + [(t, h) for h in heads], incidence)
            for h in heads:
                incidence[h] -= 1
            incidence[t] -= k

    return search(0, [], {})


def _assign_heads(ga, gb, cand, dim, member_rows):
    """The first covered inter-edge set for ``cand`` whose merged graph is rigid.

    At most ``HEAD_SEARCH_LEAF_CAP`` sets of ``_covered_leaves`` are
    tested, one at a time as they are built, and none is built past the
    first that hits.  3D first screens out a candidate with at most two
    tails when each side has a vertex that is not a tail: every
    inter-edge then meets the line through the tails, so turning one side
    about that line while the other stays still is a non-trivial motion,
    the merged graph is generically flexible and no placement reaches
    full rank.  Each leaf is tested with ``member_rows()``, a two-body
    ``BodyBarRank`` built when the first leaf is.  A leaf has exactly the
    bars the pair needs, so it hits when all of them are kept: in 2D when
    the pebble game accepts them all, in 3D at the first trial where both
    members reach their generic rank and the leaf's Plücker lines are
    independent.  Either way, that is ``check_rigidity``'s verdict on
    the merged graph.
    """
    if dim == 3 and len(cand) <= 2 and all(
        any(v not in cand for v in f.vertices) for f in (ga, gb)
    ):
        return None
    leaves = itertools.islice(_covered_leaves(ga, gb, cand, dim), HEAD_SEARCH_LEAF_CAP)
    return next(
        (pairs for pairs in leaves if member_rows().independent_bars(pairs) is not None), None
    )


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
        prove_members((ga, gb), dim, seed=seed, trials=trials)
    led_a, led_b = ledger(ga, dim), ledger(gb, dim)
    na, nb = len(ga.vertices), len(gb.vertices)
    required = _required_pair_edges(na, nb, dim)
    available = led_a.total_dof + led_b.total_dof
    if available < required:
        raise InfeasibleMergeError(
            f"{required} inter-edges needed but only {available} local DOFs available",
            REASON_MISSING_DOF,
        )
    if dim == 3 and (refusal := _pair_refusal_3d(ga, led_a, gb, led_b)):
        raise refusal

    @functools.cache
    def member_rows() -> BodyBarRank:
        # Built at the first leaf, not up front: members that share a
        # vertex id fail there, in the merged formation, while a search
        # whose every leaf is pruned still ends in a catalog miss.
        Formation(
            vertices=tuple(ga.vertices) + tuple(gb.vertices),
            edges=tuple(ga.edges) + tuple(gb.edges),
        )
        return BodyBarRank((ga.underlying(), gb.underlying()), dim, seed=seed, trials=trials)

    rule = "2D-pair" if dim == 2 else ("small-graph" if min(na, nb) < 3 else "op-v")
    for cand in _consumption_vectors(ga, gb, led_a, led_b, required):
        assignment = _assign_heads(ga, gb, cand, dim, member_rows)
        if assignment is not None:
            return MergePlan(edges=tuple(PlanEdge(t, h, rule) for t, h in assignment))
    raise InfeasibleMergeError(
        "no rank-validated construction found for this DOF configuration",
        "catalog-miss",
    )


def _merge_order(members: ProvedMembers) -> list[int]:
    """Fold order: ascending missing DOF, special 3D members last."""
    formations, ledgers = members.formations, members.ledgers
    last: int | None = None
    if members.dim == 3:
        zero = [i for i, led in enumerate(ledgers) if led.total_dof == 0]
        lone = [i for i, f in enumerate(formations) if _is_lone_leader(f, ledgers[i])]
        last = (zero or lone or [None])[0]
    return sorted(range(len(formations)), key=lambda i: (i == last, members.missing[i], i))


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
    members = prove_members(collection, dim, seed=seed, trials=trials)
    feas = feasibility(members, dim, seed=seed, trials=trials)
    if not feas.feasible:
        raise InfeasibleMergeError(f"collection cannot be merged: {feas.reason}", feas.reason)
    order = _merge_order(members)
    acc = members.formations[order[0]]
    acc_missing = members.missing[order[0]]
    edges: list[PlanEdge] = []
    for step, idx in enumerate(order[1:], start=1):
        member = members.formations[idx]
        pair_plan = plan_pair(acc, member, dim, seed=seed, trials=trials, check=False)
        edges.extend(
            PlanEdge(tail=e.tail, head=e.head, rule=e.rule, step=step)
            for e in pair_plan.edges
        )
        merged = Formation(
            vertices=tuple(acc.vertices) + tuple(member.vertices),
            edges=tuple(acc.edges) + tuple(member.edges) + pair_plan.edge_pairs(),
        )
        new_missing = _missing(merged, ledger(merged, dim))
        if new_missing != acc_missing + members.missing[idx]:
            raise AssertionError(
                f"missing-DOF conservation broken at step {step}: "
                f"{new_missing} != {acc_missing} + {members.missing[idx]}"
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
    members = prove_members(collection, dim, seed=seed, trials=trials)
    meta = plan.apply(members.formations)
    flat = meta.flatten()
    # Rigidity decides persistence only for a compliant merge.
    compliant, _ = local_dof_compliance(meta, dim)
    rigid = compliant and check_rigidity(flat.underlying(), dim, seed=seed, trials=trials).rigid
    verdict = merged_persistence(flat, dim, rigid, compliant, seed=seed, trials=trials)
    optimal = False
    if verdict.persistent:
        if dim == 3 and len(flat.vertices) < 3 and len(members.formations) == 2:
            # Two singletons: below three vertices the meta counting formula
            # does not apply; minimality comes from the pairwise size table.
            bound = _required_pair_edges(1, 1, 3)
        else:
            bound = merge_bound(size_classes(meta, dim))
        # A persistent merge is rigid, so it is edge-optimal when it meets
        # the bound, and edge-optimal persistent when it is also compliant.
        optimal = compliant and len(plan.edges) == bound
    return PlanReport(
        persistent=verdict.persistent,
        structurally_persistent=verdict.structurally_persistent,
        edge_optimal_persistent=optimal,
        missing_dof_conserved=_missing(flat, verdict.ledger) == sum(members.missing),
        ledger=verdict.ledger,
    )
