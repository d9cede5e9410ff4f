"""Meta-level analysis: classification, counting conditions, rigidity and
edge-optimality of merged graphs.

One pass over the meta-vertices proves each one rigid by building its
gadget, a canonical minimally rigid spanning subgraph of its edges; the
size classes follow.  Merged rigidity does not depend on meta-vertex
internals beyond their rigidity, so one greedy pass over the
inter-edges against the gadgets decides the merge and selects E_M': a
``BodyBarRank`` with each gadget a rigid body and each inter-edge a bar,
whose rank ceiling is the merge bound, in both dimensions.  The
exponential counting search runs only to name the witness of a not-rigid
verdict: in 2D only after the pass's pebble game, which also gives the
rank deficit, rejected an inter-edge; in 3D, where the counting
condition is only necessary, beside one rigidity check of the
substituted graph.  ``check_meta`` proves each member persistent
between the member pass and the merge decision.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, NotPersistentError, NotRigidError
from .graph import Edge, MetaClass, MetaFormation, UndirectedView
from .persistence import (
    PersistenceVerdict,
    is_persistent,
    local_dof_compliance,
    merged_persistence,
)
from .rigidity import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    BodyBarRank,
    check_rigidity,
    minimally_rigid_spanning,
    required_rank,
)

# Worst case measured under it (in-process, unscaled, 2-core shared
# host): 15.5-19.7 s, the 3D counting screen of a not-rigid meta of four
# members (9, 4, 31 and 28 vertices) joined by exactly 18 inter-edges.
SUBSET_SEARCH_CAP = 18


def _member_gadgets(
    meta: MetaFormation, dim: int, seed: int, trials: int
) -> tuple[MetaClass, tuple[tuple[Edge, ...], ...]]:
    """The size classes, and the edges each meta-vertex keeps in the merge.

    A meta-vertex of at least ``dim`` vertices keeps a minimally rigid
    spanning subgraph of its edges, filtered in declared order by the
    pebble game (2D) or by exact-rank tests (3D).  Building it is the
    proof that the meta-vertex is rigid.  The filter reaches the rank of
    the whole edge set: the pebble game's exactly, and in 3D the rank at
    ``rigid_3d_check``'s placements (``rigidity.Placements``).  So it
    succeeds exactly when ``laman_check_2d`` or ``rigid_3d_check`` says
    rigid.  A smaller meta-vertex keeps its edges; in 3D a two-vertex one
    is rigid when it contains its edge.
    """
    if dim not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {dim}")
    kept = []
    for i, mv in enumerate(meta.meta_vertices):
        size = len(mv.vertices)
        if dim == 3 and size == 2 and not mv.edges:
            raise NotRigidError(
                f"meta-vertex {i} has two vertices but no edge; not rigid in 3D"
            )
        view = mv.underlying()
        if size < dim:
            kept.append(view.edges)
            continue
        try:
            kept.append(minimally_rigid_spanning(view, dim, seed=seed, trials=trials))
        except NotRigidError:
            raise NotRigidError(f"meta-vertex {i} is not rigid in {dim}D") from None
    return size_classes(meta, dim), tuple(kept)


def classify(
    meta: MetaFormation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> MetaClass:
    """``size_classes``, once every multi-vertex meta-vertex is proved rigid."""
    return _member_gadgets(meta, dim, seed, trials)[0]


def size_classes(meta: MetaFormation, dim: int) -> MetaClass:
    """Partition meta-vertex indices by size into (N, S) for 2D or (N, D, S) for 3D.

    The classes describe merges of at least ``dim`` vertices only.
    """
    if sum(len(mv.vertices) for mv in meta.meta_vertices) < dim:
        raise InputError(f"merged graph needs at least {('two', 'three')[dim - 2]} vertices")
    n_class, d_class, s_class = [], [], []
    for i, mv in enumerate(meta.meta_vertices):
        size = len(mv.vertices)
        (s_class if size == 1 else d_class if dim == 3 and size == 2 else n_class).append(i)
    return MetaClass(
        n_class=tuple(n_class),
        d_class=tuple(d_class),
        s_class=tuple(s_class),
        dim=dim,
    )


def merge_bound(cls: MetaClass) -> int:
    """Minimal inter-edge count for a rigid merging of the classified collection."""
    if cls.dim == 2:
        return 3 * len(cls.n_class) + 2 * len(cls.s_class) - 3
    return 6 * len(cls.n_class) + 5 * len(cls.d_class) + 3 * len(cls.s_class) - 6


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


@dataclass(frozen=True)
class MetaVerdict:
    rigid: bool
    edge_optimal: bool
    dim: int
    classes: MetaClass
    bound: int
    selected_subset: tuple[Edge, ...] | None = None
    witness_subset: tuple[Edge, ...] | None = None
    rank_deficit: tuple[int, int] | None = None
    separating_pair: tuple[int, int] | None = None
    # 3D only: True/False for the counting screen, None when skipped.
    counting_ok: bool | None = None

    def to_dict(self) -> dict:
        d = {
            "rigid": self.rigid,
            "edgeOptimal": self.edge_optimal,
            "dim": self.dim,
            "classes": {
                "N": list(self.classes.n_class),
                "D": list(self.classes.d_class),
                "S": list(self.classes.s_class),
            },
            "bound": self.bound,
        }
        if self.selected_subset is not None:
            d["selectedSubset"] = [list(e) for e in self.selected_subset]
        if self.witness_subset is not None:
            d["witnessSubset"] = [list(e) for e in self.witness_subset]
        if self.rank_deficit is not None:
            d["rankDeficit"] = {
                "observed": self.rank_deficit[0],
                "required": self.rank_deficit[1],
            }
        if self.separating_pair is not None:
            d["separatingPair"] = list(self.separating_pair)
        if self.counting_ok is not None or self.dim == 3:
            d["countingOk"] = self.counting_ok
        return d


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


def meta_rigid(
    meta: MetaFormation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> MetaVerdict:
    """Merged rigidity: the member pass, then ``_decide_merge``."""
    return _decide_merge(meta, *_member_gadgets(meta, dim, seed, trials), seed, trials)


def check_meta(
    meta: MetaFormation, dim: int, seed: int, trials: int
) -> tuple[MetaVerdict, PersistenceVerdict, bool]:
    """``meta_rigid``'s verdict, the merge's ``merged_persistence``, and
    ``edge_optimal_persistent``, from one local-DOF compliance check.

    Each member is proved persistent between the member pass and the
    merge decision, so a member that is not fails before any not-rigid
    witness search.  A rigid merge has a rigid flattened graph, which
    has the substituted graph's vertices, in order, and a superset of
    its edges (in 3D at the same trial of ``rigidity.Placements``).
    """
    cls, kept = _member_gadgets(meta, dim, seed, trials)
    for i, mv in enumerate(meta.meta_vertices):
        if not is_persistent(mv, dim, seed=seed, trials=trials).persistent:
            raise NotPersistentError(f"meta-vertex {i} is not persistent in {dim}D")
    verdict = _decide_merge(meta, cls, kept, seed, trials)
    compliant = local_dof_compliance(meta, dim)[0]
    flat = meta.flatten()
    persistence = merged_persistence(flat, dim, verdict.rigid, compliant, seed, trials)
    return verdict, persistence, verdict.edge_optimal and compliant


def _decide_merge(
    meta: MetaFormation, cls: MetaClass, kept, seed: int, trials: int
) -> MetaVerdict:
    """Merged rigidity: one greedy pass over the inter-edges, in declared
    order, against the gadgets ``kept``.

    An inter-edge is kept when it is independent of the gadgets and the
    inter-edges kept before it; the merge is rigid when the kept subset,
    E_M', reaches the counting bound.  One ``BodyBarRank`` treats each
    gadget as a rigid body and each inter-edge as a bar, in both
    dimensions.

    In 2D the pass is one pebble game.  On a not-rigid merge it never
    reaches 2n - 3, so it inserts every inter-edge, and its rank is the
    substituted graph's (gadgets plus inter-edges): the rank deficit.
    The witness is the smallest subset that violates the count, and none
    exists when the game accepted every inter-edge.  Proof: a bar sees
    only the velocities of its endpoints, which move with 3 freedoms in
    a member of I (two or more incident vertices) and 2 in a member of J
    (one).  The 3 trivial motions stretch no bar, so independent bars
    E'' have |E''| <= 3|I| + 2|J| - 3.  The search therefore runs only
    after a rejected inter-edge.

    A not-rigid 3D merge gets one rigidity check of the substituted
    graph, which names its rank deficit or separating pair.  That check
    may reach full rank at a trial where a gadget is degenerate, which
    the greedy pass skips; the merge stays not rigid, with neither
    witness.  Counting success alone never implies 3D rigidity (the
    double banana satisfies every count), so the bitmask search runs only
    after a not-rigid verdict, to report the screen and a violating
    subset.  A rigid 3D merge holds a bound-sized independent inter-edge
    subset, every subset of which meets the count, so its screen is
    reported passed without searching.  Both searches are marked skipped
    above the subset-search cap.
    """
    dim = cls.dim
    bound = merge_bound(cls)
    bodies = (UndirectedView(mv.vertices, edges) for mv, edges in zip(meta.meta_vertices, kept))
    ranker = BodyBarRank(bodies, dim, seed=seed, trials=trials)
    if dim == 2:
        selected, rank, accepted_all = ranker.pebble_bars(meta.inter_edges)
    else:
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
    if dim == 2:
        deficit, pair, counting_ok = (rank, required_rank(2, len(vertices))), None, None
        witness = None if accepted_all else _smallest_violating_subset(meta, 2)
    else:
        g = UndirectedView(vertices, tuple(itertools.chain(*kept, meta.inter_edges)))
        verdict = check_rigidity(g, 3, seed=seed, trials=trials)
        deficit = pair = None
        if not verdict.rigid:
            deficit, pair = verdict.rank_deficit, verdict.separating_pair
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


# Per-dimension names of ``meta_rigid``, kept for callers that import them.
def meta_rigid_2d(meta: MetaFormation, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS) -> MetaVerdict:
    return meta_rigid(meta, 2, seed=seed, trials=trials)


def meta_rigid_3d(meta: MetaFormation, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS) -> MetaVerdict:
    return meta_rigid(meta, 3, seed=seed, trials=trials)


def edge_optimal_persistent(meta: MetaFormation, verdict: MetaVerdict) -> bool:
    """Edge-optimal rigid merging whose inter-edges all leave local DOFs.

    ``verdict`` is the merge's ``meta_rigid`` verdict.  Edge-optimal
    rigid means rigid with no removable inter-edge, i.e. |E_M| equals
    the counting bound.  Members must be persistent, which
    ``check_meta`` proves before it decides the merge.
    """
    return verdict.edge_optimal and local_dof_compliance(meta, verdict.dim)[0]
