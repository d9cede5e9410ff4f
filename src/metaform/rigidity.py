"""Undirected generic rigidity decisions.

2D verdicts are exact and combinatorial via the (2,3)-pebble game.
3D has no complete combinatorial characterization.  After the edge
count, a randomized exact-rank oracle on the rigidity matrix decides;
the necessary screens (3-connectivity, then (3,6)-sparsity when the
edge count is tight) run only on a not-rigid verdict, to name its
witness.  Rank arithmetic is modular over a large prime, never floating
point, so the only possible error is one-sided (a generic graph can be
reported non-rigid with negligible probability, never the converse).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotRigidError, ResourceLimitError
from .graph import Edge, UndirectedView

# Mersenne prime; products of two residues fit in int64, which lets the
# elimination run vectorized.  One-sided error only: a random evaluation
# can under-estimate the generic rank, never exceed it.
RANK_MODULUS = 2**31 - 1

# Random coordinates are drawn from [1, 2**20]; wide enough that
# non-generic collisions are negligible across trials.
COORD_RANGE = 2**20

DEFAULT_TRIALS = 3
DEFAULT_SEED = 0
SPARSITY_3D_VERTEX_CAP = 20


@dataclass(frozen=True)
class SparsityParams:
    """(k, l) count parameters: (2, 3) for 2D, (3, 6) for 3D."""

    k: int
    l: int

    def __post_init__(self):
        if (self.k, self.l) not in ((2, 3), (3, 6)):
            raise InputError(f"unsupported sparsity parameters {(self.k, self.l)}")


def dof_constant(dim: int, n: int) -> int:
    """Degrees of freedom of a min(n-1, dim)-dimensional rigid body."""
    if dim == 2:
        return 2 if n == 1 else 3
    if dim == 3:
        return {1: 3, 2: 5}.get(n, 6)
    raise InputError(f"dimension must be 2 or 3, got {dim}")


def required_rank(dim: int, n: int) -> int:
    """Generic rigidity-matrix rank of a rigid graph on n vertices."""
    return dim * n - dof_constant(dim, n)


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    minimally_rigid: bool
    # Exactly one witness kind is populated when rigid is False; the
    # rank-deficit pair may also accompany rigid-with-redundancy reports.
    violating_edges: tuple[Edge, ...] | None = None
    separating_pair: tuple[int, int] | None = None
    rank_deficit: tuple[int, int] | None = None  # (observed, required)

    def to_dict(self) -> dict:
        d = {"rigid": self.rigid, "minimallyRigid": self.minimally_rigid}
        if self.violating_edges is not None:
            d["violatingEdges"] = [list(e) for e in self.violating_edges]
        if self.separating_pair is not None:
            d["separatingPair"] = list(self.separating_pair)
        if self.rank_deficit is not None:
            d["rankDeficit"] = {
                "observed": self.rank_deficit[0],
                "required": self.rank_deficit[1],
            }
        return d


class PebbleGame2D:
    """(2, 3)-pebble game tracking independence in the 2D rigidity matroid.

    Each vertex carries 2 pebbles; inserting an edge requires gathering 4
    pebbles on its endpoints, reversing oriented paths to free them.  The
    number of accepted edges equals the rank of the edge set.
    """

    def __init__(self, vertices):
        self.pebbles = {v: 2 for v in vertices}
        self.out: dict[int, set[int]] = {v: set() for v in vertices}
        self.accepted: list[Edge] = []

    def _find_pebble(self, root: int, exclude: int) -> bool:
        """Move one pebble to root via path reversal; exclude stays fixed."""
        seen = {root, exclude}
        stack = [(root, iter(self.out[root]))]
        parent = {}
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w in seen:
                    continue
                seen.add(w)
                parent[w] = v
                if self.pebbles[w] > 0:
                    self.pebbles[w] -= 1
                    # Reverse the path w -> ... -> root.
                    while w != root:
                        p = parent[w]
                        self.out[p].discard(w)
                        self.out[w].add(p)
                        w = p
                    self.pebbles[root] += 1
                    return True
                stack.append((w, iter(self.out[w])))
                advanced = True
                break
            if not advanced:
                stack.pop()
        return False

    def insert(self, edge: Edge) -> bool:
        """Try to add edge as independent; False means it is redundant."""
        u, v = edge
        while self.pebbles[u] + self.pebbles[v] < 4:
            if not self._find_pebble(u, v) and not self._find_pebble(v, u):
                return False
        self.pebbles[u] -= 1
        self.out[u].add(v)
        self.accepted.append(edge)
        return True

    def rank(self) -> int:
        return len(self.accepted)

    def blocked_region(self, edge: Edge) -> set[int]:
        """Vertices reachable from a just-rejected edge's endpoints.

        The accepted edges induced on this set count exactly 2|R| - 3, so
        together with the rejected edge they form a sparsity violation.
        """
        u, v = edge
        region = {u, v}
        stack = [u, v]
        while stack:
            x = stack.pop()
            for w in self.out[x]:
                if w not in region:
                    region.add(w)
                    stack.append(w)
        return region


def _insert_all(game: PebbleGame2D, edges) -> tuple[Edge, ...] | None:
    """Insert every edge; the (2,3) circuit the first rejected one closes, or None.

    The circuit is the accepted edges induced on the rejected edge's
    blocked region plus that edge.  Later edges are still inserted, so
    ``game.rank()`` is the rank of the whole edge set.
    """
    circuit = None
    for e in edges:
        if not game.insert(e) and circuit is None:
            region = game.blocked_region(e)
            circuit = tuple(
                f for f in game.accepted if f[0] in region and f[1] in region
            ) + (e,)
    return circuit


def laman_check_2d(g: UndirectedView) -> RigidityVerdict:
    """Exact 2D rigidity via the pebble game; Laman counts decide."""
    n = len(g.vertices)
    if n == 0:
        raise InputError("empty vertex set")
    if n == 1:
        return RigidityVerdict(rigid=True, minimally_rigid=True)
    if n == 2:
        has_edge = len(g.edges) == 1
        if has_edge:
            return RigidityVerdict(rigid=True, minimally_rigid=True)
        return RigidityVerdict(
            rigid=False, minimally_rigid=False, rank_deficit=(0, 1)
        )
    game = PebbleGame2D(g.vertices)
    violating = _insert_all(game, g.edges)
    target = 2 * n - 3
    rank = game.rank()
    rigid = rank == target
    minimally = rigid and len(g.edges) == target
    deficit = None if rigid else (rank, target)
    if rigid and not minimally:
        deficit = (rank, target)
    return RigidityVerdict(
        rigid=rigid,
        minimally_rigid=minimally,
        rank_deficit=deficit,
        violating_edges=None if rigid else violating,
    )


def sparsity_violation(
    g: UndirectedView, params: SparsityParams, cap: int = SPARSITY_3D_VERTEX_CAP
) -> tuple[Edge, ...] | None:
    """Some edge subset E'' with |E''| > k|V(E'')| - l, or None.

    The count is only meaningful for subsets spanning at least l/k + 1
    vertices (2 for (2,3), 3 for (3,6)); smaller subsets are skipped.
    (2,3) comes out of the pebble game; (3,6) lies outside the matroidal
    pebble-game regime and is searched exhaustively over vertex subsets.
    """
    k, l = params.k, params.l
    if k == 2:
        return _insert_all(PebbleGame2D(g.vertices), g.edges)
    # (3, 6): exhaustive over induced vertex subsets.  A violating edge set
    # implies a violating induced set on the same vertices.
    n = len(g.vertices)
    if n > cap:
        raise ResourceLimitError(
            f"(3,6) sparsity search capped at {cap} vertices, got {n}"
        )
    adj_edges = {v: [] for v in g.vertices}
    for e in g.edges:
        adj_edges[e[0]].append(e)
        adj_edges[e[1]].append(e)
    verts = list(g.vertices)
    for size in range(3, n + 1):
        for subset in itertools.combinations(verts, size):
            sub = set(subset)
            induced = [e for e in g.edges if e[0] in sub and e[1] in sub]
            if len(induced) > 3 * size - 6:
                return tuple(induced)
    return None


def _positions(vertices, dim: int, rng: random.Random) -> dict[int, tuple[int, ...]]:
    return {v: tuple(rng.randint(1, COORD_RANGE) for _ in range(dim)) for v in vertices}


def rigidity_matrix_rows(
    edges, positions: dict[int, tuple[int, ...]], col_of: dict[int, int], dim: int
) -> np.ndarray:
    """One row per edge: (p_i - p_j) in i's column block, negated in j's."""
    m = np.zeros((len(edges), dim * len(col_of)), dtype=np.int64)
    for r, (i, j) in enumerate(edges):
        pi, pj = positions[i], positions[j]
        ci, cj = dim * col_of[i], dim * col_of[j]
        for d in range(dim):
            diff = pi[d] - pj[d]
            m[r, ci + d] = diff % RANK_MODULUS
            m[r, cj + d] = -diff % RANK_MODULUS
    return m


def rank_mod_p(matrix: np.ndarray, p: int = RANK_MODULUS) -> int:
    """Exact rank over GF(p) by row elimination (int64, no overflow for p < 2^31.5)."""
    a = matrix % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        below = a[r + 1 :, c].nonzero()[0]
        if below.size:
            factors = a[r + 1 :, c][below, None]
            a[r + 1 :, c:][below] = (a[r + 1 :, c:][below] - factors * a[r, c:]) % p
        r += 1
    return r


def rigidity_rank_once(g: UndirectedView, dim: int, rng: random.Random) -> int:
    positions = _positions(g.vertices, dim, rng)
    col_of = {v: i for i, v in enumerate(g.vertices)}
    if not g.edges:
        return 0
    return rank_mod_p(rigidity_matrix_rows(g.edges, positions, col_of, dim))


def generic_rank_oracle(
    g: UndirectedView,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> int:
    """Max rigidity-matrix rank over seeded random integer placements.

    Deterministic given seed; the max over trials cannot exceed the
    generic rank, so the verdict errs only toward non-rigid.  Trials stop
    early once one reaches min(|E|, required rank), which no placement
    can exceed, so the result equals the max over all trials.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    ceiling = min(len(g.edges), required_rank(dim, len(g.vertices)))
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        best = max(best, rigidity_rank_once(g, dim, rng))
        if best >= ceiling:
            break
    return best


def three_connectivity(g: UndirectedView) -> tuple[bool, tuple[int, int] | None]:
    """Whole-graph 3-connectivity by vertex-pair removal + reachability.

    Graphs on fewer than 4 vertices report vacuously true; the witness
    pair, if any, is the lexicographically smallest in ascending order.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n < 4:
        return True, None
    adj = g.adjacency()

    def connected_without(removed: set[int]) -> bool:
        remaining = [v for v in verts if v not in removed]
        start = remaining[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    for a, b in itertools.combinations(verts, 2):
        if not connected_without({a, b}):
            return False, (a, b)
    return True, None


def rigid_3d_check(
    g: UndirectedView,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> RigidityVerdict:
    """3D rigidity: edge count, then the generic rank oracle decides.

    A full-rank placement proves generic rigidity, which implies
    3-connectivity and, at a tight edge count, (3,6)-sparsity.  So the
    screens run only after a rank deficit, in that order, to replace the
    deficit with a separating pair or a violating edge set.
    """
    n = len(g.vertices)
    if n == 0:
        raise InputError("empty vertex set")
    if n == 1:
        return RigidityVerdict(rigid=True, minimally_rigid=True)
    if n == 2:
        if len(g.edges) == 1:
            return RigidityVerdict(rigid=True, minimally_rigid=True)
        return RigidityVerdict(rigid=False, minimally_rigid=False, rank_deficit=(0, 1))
    target = 3 * n - 6
    if len(g.edges) < target:
        return RigidityVerdict(
            rigid=False,
            minimally_rigid=False,
            rank_deficit=(min(len(g.edges), target), target),
        )
    rank = generic_rank_oracle(g, 3, seed=seed, trials=trials)
    if rank == target:
        minimally = len(g.edges) == target
        deficit = None if minimally else (rank, target)
        return RigidityVerdict(rigid=True, minimally_rigid=minimally, rank_deficit=deficit)
    ok3, pair = three_connectivity(g)
    if not ok3:
        return RigidityVerdict(rigid=False, minimally_rigid=False, separating_pair=pair)
    if len(g.edges) == target and n <= SPARSITY_3D_VERTEX_CAP:
        # With a tight edge count the candidate E' is forced to be E itself,
        # so a count violation is conclusive.
        violation = sparsity_violation(g, SparsityParams(3, 6))
        if violation is not None:
            return RigidityVerdict(
                rigid=False, minimally_rigid=False, violating_edges=violation
            )
    return RigidityVerdict(rigid=False, minimally_rigid=False, rank_deficit=(rank, target))


def check_rigidity(
    g: UndirectedView, dim: int, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS
) -> RigidityVerdict:
    """Dimension dispatch for the rigidity decision."""
    if dim == 2:
        return laman_check_2d(g)
    if dim == 3:
        return rigid_3d_check(g, seed=seed, trials=trials)
    raise InputError(f"dimension must be 2 or 3, got {dim}")


class IncrementalRank:
    """Row-echelon basis over GF(p) supporting independence queries."""

    def __init__(self, ncols: int, p: int = RANK_MODULUS):
        self.p = p
        self.ncols = ncols
        self.basis: dict[int, np.ndarray] = {}  # pivot column -> reduced row

    def reduce(self, row: np.ndarray) -> np.ndarray:
        """Row minus basis rows, zero in every pivot column; zero iff in the span."""
        p = self.p
        row = row % p
        for col, brow in self.basis.items():
            f = row[col]
            if f:
                row = (row - f * brow) % p
        return row

    def try_add(self, row: np.ndarray) -> bool:
        """Add row if independent of the current basis; report success."""
        red = self.reduce(row)
        nz = red.nonzero()[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = pow(int(red[col]), -1, self.p)
        red = (red * inv) % self.p
        self.basis[col] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)


class FixedBaseRank:
    """Rank oracle for one fixed base edge set plus a few extra edges.

    ``full_rank(extra)`` equals ``generic_rank_oracle(g + extra, dim,
    seed, trials) == required_rank(dim, n)`` for the graph g on the same
    vertices: trial t places the vertices exactly as that oracle's trial t
    does (one ``random.Random(seed)`` stream, drawn in g's vertex order),
    and both ranks are exact over GF(p).  The base rows are reduced into an
    ``IncrementalRank`` once per trial, and each extra edge's row is
    reduced against them once per trial, so a query only eliminates its
    own few rows, restricted to the columns that hold no base pivot.
    """

    def __init__(
        self,
        g: UndirectedView,
        dim: int,
        seed: int = DEFAULT_SEED,
        trials: int = DEFAULT_TRIALS,
    ):
        if trials < 1:
            raise InputError("trials must be >= 1")
        self.g = g
        self.dim = dim
        self.trials = trials
        self.target = required_rank(dim, len(g.vertices))
        self._col_of = {v: i for i, v in enumerate(g.vertices)}
        self._rng = random.Random(seed)
        # Per trial: positions, reduced base, free columns, reduced extra rows.
        self._trials: list[tuple[dict, IncrementalRank, np.ndarray, dict]] = []

    def _trial(self, t: int):
        while len(self._trials) <= t:
            positions = _positions(self.g.vertices, self.dim, self._rng)
            base = IncrementalRank(self.dim * len(self.g.vertices))
            for row in rigidity_matrix_rows(self.g.edges, positions, self._col_of, self.dim):
                base.try_add(row)
            # Reduced rows are zero in every pivot column, so only the
            # other columns can add rank.
            free = np.array(
                [c for c in range(base.ncols) if c not in base.basis], dtype=np.intp
            )
            self._trials.append((positions, base, free, {}))
        return self._trials[t]

    def full_rank(self, extra) -> bool:
        """Does the base plus the extra edges (new vertex pairs) reach full rank?"""
        extra = [(min(e), max(e)) for e in extra]
        if len(self.g.edges) + len(extra) < self.target:
            return False
        for t in range(self.trials):
            positions, base, free, reduced = self._trial(t)
            need = self.target - base.rank
            if need == 0:
                return True
            if need > len(extra):
                continue
            for e in extra:
                if e not in reduced:
                    row = rigidity_matrix_rows([e], positions, self._col_of, self.dim)[0]
                    reduced[e] = base.reduce(row)[free]
            if rank_mod_p(np.stack([reduced[e] for e in extra])) == need:
                return True
        return False


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
    pebble game, 3D exact-rank independence tests at random positions
    (retried across trials since a single unlucky placement can only
    under-estimate rank).
    """
    n = len(g.vertices)
    fixed_edges = []
    fixed_set = set()
    for group in fixed:
        for e in group:
            ne = (min(e), max(e))
            if ne not in set(g.edges):
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

    col_of = {v: i for i, v in enumerate(g.vertices)}
    rng = random.Random(seed)
    last_error: str | None = None
    for _ in range(trials):
        positions = _positions(g.vertices, 3, rng)
        inc = IncrementalRank(3 * n)
        chosen = []
        ok = True
        for e in fixed_edges:
            row = rigidity_matrix_rows([e], positions, col_of, 3)[0]
            if not inc.try_add(row):
                ok = False
                last_error = f"fixed edge sets are not independent (at {e})"
                break
            chosen.append(e)
        if not ok:
            continue
        for e in rest:
            if inc.rank == target:
                break
            row = rigidity_matrix_rows([e], positions, col_of, 3)[0]
            if inc.try_add(row):
                chosen.append(e)
        if inc.rank == target:
            return tuple(chosen)
        last_error = "graph is not rigid in 3D"
    if last_error and "independent" in last_error:
        raise InputError(last_error)
    raise NotRigidError(last_error or "graph is not rigid in 3D")
