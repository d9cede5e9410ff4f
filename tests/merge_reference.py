"""The merge decision's earlier parts, copied unchanged as references.

``check-meta`` decided a merge twice: ``check_rigidity`` on the
gadget-substituted graph gave the verdict, then
``minimally_rigid_spanning(fixed=kept)`` ranked the same graph again,
row by row, for the selected subset.  The merge planner tested each 3D
head-search leaf with ``TwoBodyRank``, whose Plücker-line test used the
general elimination branch of ``_independent_mod_p``.  All of it now goes
through ``rigidity.BodyBarRank``; these copies are what it is compared
with.  ``_decide_merge`` here calls the ``minimally_rigid_spanning``
copy, so no reference runs the code under test.

``_decide_merge_rechecked`` is the one-pass decision that followed: the
``BodyBarRank`` greedy pass, then, on a not-rigid merge, a second
rigidity check of the substituted graph for the rank deficit and, in
2D, the subset search even where the pass had accepted every
inter-edge.  The counting searches and the ``meta_count`` code they
call are copied here too, so neither reference runs ``meta``'s own.
``_decide_merge_rechecked`` still keeps inter-edges with the live
``BodyBarRank``, which ``test_body_bar_rank_2d.py`` checks against
``laman_check_2d`` and a fresh pebble game in 2D.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from metaform.errors import InputError, NotRigidError
from metaform.graph import Edge, MetaClass, MetaFormation, UndirectedView
from metaform.meta import SUBSET_SEARCH_CAP, MetaVerdict, merge_bound
from metaform.rigidity import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    RANK_MODULUS,
    BodyBarRank,
    PebbleGame2D,
    check_rigidity,
    required_rank,
    trial_placements,
)

from fixed_base_reference import FixedBaseRank
from rank_at_reference import rank_at


def _independent_mod_p(rows: list[list[int]], p: int = RANK_MODULUS) -> bool:
    """Are these integer rows, all of one length, independent over GF(p)?

    No rows always are; one row when it is nonzero; two rows when some
    2x2 minor is nonzero (the 2D determinant or a cross-product entry);
    three rows of length 3 when their 3x3 determinant is nonzero.  Closed
    forms on Python ints, because the peel asks once per peeled vertex per
    trial.  Anything else (a head-search leaf's Plücker rows, up to 6 of
    length 6) is eliminated row by row: a row that reduces to zero against
    the pivots of those before it depends on them.
    """
    k = len(rows)
    if k == 3 and len(rows[0]) == 3:
        a, b, c = rows
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        return det % p != 0
    if k == 0:
        return True
    if k == 1:
        return any(x % p for x in rows[0])
    if k == 2:
        a, b = rows
        return any(
            (a[i] * b[j] - a[j] * b[i]) % p
            for i, j in itertools.combinations(range(len(a)), 2)
        )
    pivots = []  # (column, row scaled to 1 there and zero at earlier pivots)
    for row in rows:
        row = [x % p for x in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, p)
        pivots.append((col, [x * inv % p for x in row]))
    return True


def _plucker(pi: tuple[int, ...], pj: tuple[int, ...]) -> list[int]:
    """The line through pi and pj: direction pi - pj, moment pj x pi."""
    x1, y1, z1 = pi
    x2, y2, z2 = pj
    return [x1 - x2, y1 - y2, z1 - z2, y2 * z1 - z2 * y1, z2 * x1 - x2 * z1, x2 * y1 - y2 * x1]


class TwoBodyRank:
    """Full-rank test for two rigid bodies joined by inter-edges, in 3D.

    ``a`` and ``b`` are graphs on disjoint vertex sets, and each leaf is a
    set of dof(n_a) + dof(n_b) - dof(n_a + n_b) edges from a vertex of one
    to a vertex of the other: the inter-edges a pairwise merge needs.
    ``first_full_rank(leaves)`` is the index of the first leaf whose
    merged graph reaches full rank at some trial, where trial t places a's
    and then b's vertices as ``generic_rank_oracle``'s trial t does on
    the merged graph (``trial_placements``); so it is that oracle's
    verdict.

    Each trial ranks each body once (``rank_at``, the frozen copy in
    ``rank_at_reference``).  A body below
    ``required_rank(3, n)`` there leaves the merged graph more rank to
    find than a leaf has edges, so no leaf hits at that trial.  When both
    reach it, each body's kernel is spanned by its trivial motions (rank
    3n - 6 rules out collinear points), so a leaf reaches full rank
    exactly when its bars' Plücker lines (p_i - p_j, p_j x p_i) are
    independent mod p, as bars joining two bodies lock them together
    (White and Whiteley 1987): one test of at most 6 rows of length 6.
    """

    def __init__(
        self,
        a: UndirectedView,
        b: UndirectedView,
        seed: int = DEFAULT_SEED,
        trials: int = DEFAULT_TRIALS,
    ):
        if trials < 1:
            raise InputError("trials must be >= 1")
        self.bodies = (a, b)
        self.trials = trials
        self._placements = trial_placements(a.vertices + b.vertices, 3, seed)
        # Per trial: the placement, or None where a body falls short.
        self._placed: list[dict[int, tuple[int, ...]] | None] = []

    def _trial(self, t: int) -> dict[int, tuple[int, ...]] | None:
        while len(self._placed) <= t:
            positions = next(self._placements)
            generic = all(
                rank_at(g, 3, positions) == required_rank(3, len(g.vertices))
                for g in self.bodies
            )
            self._placed.append(positions if generic else None)
        return self._placed[t]

    def first_full_rank(self, leaves) -> int | None:
        """Index of the first leaf that reaches full rank, or None.

        Each leaf is tried at every trial before the next one, and a trial
        is placed and its bodies ranked when a leaf first reaches it.
        """
        for k, leaf in enumerate(leaves):
            for t in range(self.trials):
                positions = self._trial(t)
                if positions is not None and _independent_mod_p(
                    [_plucker(positions[i], positions[j]) for i, j in leaf]
                ):
                    return k
        return None


def minimally_rigid_spanning(
    g: UndirectedView,
    dim: int,
    fixed: tuple[tuple[Edge, ...], ...] = (),
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> tuple[Edge, ...]:
    """Minimally rigid spanning edge set containing all fixed edge sets.

    The fixed sets must be edge sets of minimally rigid vertex-disjoint
    subgraphs of g; their rows are independent, so greedy extension in
    declared edge order reaches the full generic rank.  2D uses the
    pebble game.  3D reads the edges each trial's ``FixedBaseRank`` basis
    kept from the fixed edges followed by the rest, and returns those of
    the first trial that kept every fixed edge and reached full rank (a
    single unlucky placement can only under-estimate rank).  Its
    placements are those of ``generic_rank_oracle``, trial by trial, so
    with no fixed edges this succeeds exactly when ``rigid_3d_check``
    says g is rigid.  In 3D, ``trials`` below 1 raises InputError, as in
    ``rigid_3d_check``.
    """
    n = len(g.vertices)
    edges = set(g.edges)
    fixed_edges = []
    fixed_set = set()
    for group in fixed:
        for e in group:
            ne = (min(e), max(e))
            if ne not in edges:
                raise InputError(f"fixed edge {e} not in graph")
            fixed_edges.append(ne)
            fixed_set.add(ne)
    target = required_rank(dim, n)
    rest = [e for e in g.edges if e not in fixed_set]

    if dim == 2:
        game = PebbleGame2D(g.vertices)
        for e in fixed_edges:
            if not game.insert(e):
                raise InputError(f"fixed edge sets are not independent (at {e})")
        chosen = list(fixed_edges)
        for e in rest:
            if game.rank() == target:
                break
            if game.insert(e):
                chosen.append(e)
        if game.rank() != target:
            raise NotRigidError("graph is not rigid in 2D")
        return tuple(chosen)

    base = UndirectedView(g.vertices, tuple(dict.fromkeys(fixed_edges)) + tuple(rest))
    ranker = FixedBaseRank(base, dim, seed=seed, trials=trials)
    for t in range(trials):
        kept = ranker.trial(t).kept
        # The fixed edges lead the base, each once, so the first position
        # where the kept edges differ from the fixed list holds its first
        # edge that depends on those before it; a repeat never matches.
        dependent = next(
            (e for i, e in enumerate(fixed_edges) if i >= len(kept) or kept[i] != e), None
        )
        if dependent is None and len(kept) == target:
            return kept
    if dependent is not None:
        raise InputError(f"fixed edge sets are not independent (at {dependent})")
    raise NotRigidError("graph is not rigid in 3D")


def _decide_merge(
    meta: MetaFormation, cls: MetaClass, kept, seed: int, trials: int
) -> MetaVerdict:
    """Merged rigidity: one rigidity check of the gadget-substituted graph.

    The substituted graph keeps each meta-vertex's gadget edges ``kept``
    plus the inter-edges, on the flattened graph's vertices in order.  A
    rigid verdict selects the independent inter-edges that extend the
    gadgets to a minimally rigid spanning set, the subset E_M', which
    has exactly the counting-bound size.  Only the not-rigid witness
    depends on the dimension.  In 2D it is the smallest subset that
    violates the count.  In 3D counting success alone never implies
    rigidity (the double banana satisfies every count), so the bitmask
    search runs only after a not-rigid verdict, to report the screen
    and a violating subset.  A rigid 3D merge holds a bound-sized
    independent inter-edge subset, every subset of which meets the
    count, so its screen is reported passed without searching.  Both
    are marked skipped when the inter-edge set exceeds the subset-search
    cap.
    """
    dim = cls.dim
    bound = merge_bound(cls)
    g = UndirectedView(
        vertices=tuple(v for mv in meta.meta_vertices for v in mv.vertices),
        edges=tuple(itertools.chain(*kept, meta.inter_edges)),
    )
    verdict = check_rigidity(g, dim, seed=seed, trials=trials)
    if verdict.rigid:
        spanning = set(minimally_rigid_spanning(g, dim, fixed=kept, seed=seed, trials=trials))
        return MetaVerdict(
            rigid=True,
            edge_optimal=len(meta.inter_edges) == bound,
            dim=dim,
            classes=cls,
            bound=bound,
            selected_subset=tuple(
                e for e in meta.inter_edges if (min(e), max(e)) in spanning
            ),
            counting_ok=(
                True if dim == 3 and len(meta.inter_edges) <= SUBSET_SEARCH_CAP else None
            ),
        )
    if dim == 2:
        counting_ok, witness = None, _smallest_violating_subset(meta, 2)
    else:
        counting_ok, witness = _counting_screen_3d(meta, bound)
    return MetaVerdict(
        rigid=False,
        edge_optimal=False,
        dim=dim,
        classes=cls,
        bound=bound,
        witness_subset=witness,
        rank_deficit=verdict.rank_deficit,
        separating_pair=verdict.separating_pair,
        counting_ok=counting_ok,
    )


@dataclass(frozen=True)
class MetaCount:
    """Class counts of the meta-vertices touched by an inter-edge subset."""

    i_class: tuple[int, ...]
    j_class: tuple[int, ...]
    k_class: tuple[int, ...] = ()
    incident_vertices: int = 0

    def bound(self, dim: int) -> int:
        if dim == 2:
            return 3 * len(self.i_class) + 2 * len(self.j_class) - 3
        return (
            6 * len(self.i_class)
            + 5 * len(self.j_class)
            + 3 * len(self.k_class)
            - 6
        )


def meta_count(meta: MetaFormation, subset, dim: int) -> MetaCount:
    """Classify each touched meta-vertex by its incident vertices.

    2D: I has >= 2 incident vertices, J exactly one.  3D: I has >= 3
    incident vertices or exactly two unconnected ones, J exactly two
    connected ones, K exactly one.
    """
    incident: dict[int, set[int]] = {}
    for t, h in subset:
        incident.setdefault(meta.owner_of(t), set()).add(t)
        incident.setdefault(meta.owner_of(h), set()).add(h)
    i_class, j_class, k_class = [], [], []
    total = 0
    for idx in sorted(incident):
        verts = incident[idx]
        total += len(verts)
        if dim == 2:
            (i_class if len(verts) >= 2 else j_class).append(idx)
            continue
        if len(verts) == 1:
            k_class.append(idx)
        elif len(verts) == 2:
            a, b = sorted(verts)
            internal = {(min(t, h), max(t, h)) for t, h in meta.meta_vertices[idx].edges}
            (j_class if (a, b) in internal else i_class).append(idx)
        else:
            i_class.append(idx)
    return MetaCount(
        i_class=tuple(i_class),
        j_class=tuple(j_class),
        k_class=tuple(k_class),
        incident_vertices=total,
    )


def meta_count_violation(meta: MetaFormation, subset, dim: int) -> MetaCount | None:
    """The subset's MetaCount if it violates the counting bound, else None.

    The bound derives from counts on the incident vertex set and is only
    meaningful when that set has at least dim vertices; smaller subsets
    are never violations.
    """
    if not subset:
        return None
    count = meta_count(meta, subset, dim)
    if count.incident_vertices < dim:
        return None
    if len(subset) > count.bound(dim):
        return count
    return None


def _smallest_violating_subset(meta: MetaFormation, dim: int) -> tuple[Edge, ...] | None:
    edges = meta.inter_edges
    if len(edges) > SUBSET_SEARCH_CAP:
        return None
    for size in range(1, len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            if meta_count_violation(meta, subset, dim) is not None:
                return subset
    return None


def _counting_screen_3d(
    meta: MetaFormation, bound: int
) -> tuple[bool | None, tuple[Edge, ...] | None]:
    """Search for a bound-sized subset all of whose subsets pass the count.

    Subset DP over bitmasks: a set is bad if it violates the count or
    contains a bad subset.  Returns (screen result or None if skipped,
    witness when every candidate contains a violation).
    """
    edges = meta.inter_edges
    m = len(edges)
    if m > SUBSET_SEARCH_CAP:
        return None, None
    if bound > m or bound < 0:
        return False, None
    bad = [False] * (1 << m)
    first_violation = None
    for mask in range(1, 1 << m):
        if any(bad[mask & ~(1 << i)] for i in range(m) if mask >> i & 1):
            bad[mask] = True
            continue
        subset = tuple(edges[i] for i in range(m) if mask >> i & 1)
        if meta_count_violation(meta, subset, 3) is not None:
            bad[mask] = True
            if first_violation is None:
                first_violation = subset
    for mask in range(1 << m):
        if bin(mask).count("1") == bound and not bad[mask]:
            return True, None
    return False, first_violation


def _decide_merge_rechecked(
    meta: MetaFormation, cls: MetaClass, kept, seed: int, trials: int
) -> MetaVerdict:
    """Merged rigidity: one greedy pass over the inter-edges, in declared
    order, against the gadgets ``kept``.

    An inter-edge is kept when it is independent of the gadgets and the
    inter-edges kept before it; the merge is rigid when the kept subset,
    E_M', reaches the counting bound.  One ``BodyBarRank`` treats each
    gadget as a rigid body and each inter-edge as a bar, in both
    dimensions.  A not-rigid merge gets one rigidity check of the
    substituted graph (gadgets plus inter-edges), which names its rank
    deficit (in 2D the pebble game's rank) or separating pair.  In 3D
    that check may reach full rank at a trial where a gadget is
    degenerate, which the greedy pass skips; the merge stays not rigid,
    with neither witness.  The 2D witness is the smallest subset that
    violates the count.  Counting success alone never implies 3D
    rigidity (the double banana satisfies every count), so the bitmask
    search runs only after a not-rigid verdict, to report the screen and
    a violating subset.  A rigid 3D merge holds a bound-sized
    independent inter-edge subset, every subset of which meets the
    count, so its screen is reported passed without searching.  Both are
    marked skipped above the subset-search cap.
    """
    dim = cls.dim
    bound = merge_bound(cls)
    bodies = (UndirectedView(mv.vertices, edges) for mv, edges in zip(meta.meta_vertices, kept))
    ranker = BodyBarRank(bodies, dim, seed=seed, trials=trials)
    selected = ranker.independent_bars(meta.inter_edges)
    if selected is not None:
        return MetaVerdict(
            rigid=True,
            edge_optimal=len(meta.inter_edges) == bound,
            dim=dim,
            classes=cls,
            bound=bound,
            selected_subset=selected,
            counting_ok=(
                True if dim == 3 and len(meta.inter_edges) <= SUBSET_SEARCH_CAP else None
            ),
        )
    vertices = tuple(v for mv in meta.meta_vertices for v in mv.vertices)
    g = UndirectedView(vertices, tuple(itertools.chain(*kept, meta.inter_edges)))
    verdict = check_rigidity(g, dim, seed=seed, trials=trials)
    deficit = pair = None
    if not verdict.rigid:
        deficit, pair = verdict.rank_deficit, verdict.separating_pair
    if dim == 2:
        counting_ok, witness = None, _smallest_violating_subset(meta, 2)
    else:
        counting_ok, witness = _counting_screen_3d(meta, bound)
    return MetaVerdict(
        rigid=False,
        edge_optimal=False,
        dim=dim,
        classes=cls,
        bound=bound,
        witness_subset=witness,
        rank_deficit=deficit,
        separating_pair=pair,
        counting_ok=counting_ok,
    )
