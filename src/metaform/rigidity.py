"""Undirected generic rigidity decisions.

2D verdicts are exact and combinatorial via the (2,3)-pebble game.
3D has no complete combinatorial characterization.  After the edge
count, a randomized exact-rank oracle on the rigidity matrix decides;
the necessary screens (3-connectivity, then (3,6)-sparsity when the
edge count is tight) run only on a not-rigid verdict, to name its
witness.  The 3-connectivity screen first looks for a fan-lemma
certificate, O(m) per vertex it routes by max flow; only without one does
it run one cut-vertex search of G - a per vertex a, O(n(n + m)), which
names the separating pair.  The (3,6) search stays exponential, but
only over the 4-core, where every smallest violating set lies, and only
up to ``SPARSITY_3D_VERTEX_CAP`` vertices.  Rank arithmetic is modular
over a large prime, never floating point, so the only possible error is
one-sided (a generic graph can be reported non-rigid with negligible
probability, never the converse).

Each oracle trial peels before it eliminates.  A vertex with at most dim
remaining edges whose rows are independent on its own columns, a closed
form on its point and its neighbours' points, adds their number to the
rank and leaves with its edges (vertex addition in reverse, Tay &
Whiteley 1985).  The rest, R, is certified before it is
reduced: a vertex of least remaining degree leaves with its edges,
keeping a maximal set of its rows independent on its own columns and
dropping the others.  Deleting rows cannot raise the rank, and the kept
rows are independent of what is left, so the rank of R is at least
|E(R)| minus the rows dropped.  When that reaches R's ceiling,
min(|E(R)|, required rank on R's vertices), which no placement exceeds,
it is R's exact rank; once more rows are dropped than |E(R)| minus the
ceiling the certificate gives up, and only then is R eliminated.  The
rank at the trial's placement is exact either way, so neither the peel
nor the certificate changes a verdict.  Trials stop at the first one
that reaches a rank no placement exceeds, the smaller of |E|, the
required rank and a bound from the graph's (dim + 1)-core; the result
is the same as with every trial run.

Persistence asks about many graphs that share one fixed edge set on
one vertex set: a terminal subgraph is the single-choice blocks plus
one choice per other block.  Trial t of each of those oracles places
the vertices the same way, so ``reduce_mod_p`` eliminates the fixed rows
once per trial, with ``rank_mod_p``'s own elimination, and reduces the
other blocks' rows against them; each graph then ranks only its few
reduced rows, all graphs of a chunk in one ``batch_rank_mod_p`` call:
one vectorized elimination over the stack.  The 3D spanning set is the
same elimination of the transposed matrix, once per trial: its pivot
columns are the edges whose rows are independent of the rows before
them, the edges kept greedily in edge order.
A merge joins rigid bodies (members, or their gadgets) by bars (the
inter-edges), and one ``BodyBarRank`` decides it in both dimensions: the
planner's head-search leaves (two bodies) and the ``check-meta`` merge
decision (k bodies).  In 2D it holds one pebble game on the bodies,
reports the rank each query reaches and takes its bars back out; in 3D
it ranks each body once per trial and keeps bars greedily by their rows
in the bodies' screw coordinates, 6 columns a body, one
``IncrementalRank`` per trial.
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
# Worst case measured under it (in-process, unscaled, one run, 2-core
# shared host): 3.05 s, sparsity_violation called directly on the
# 4-regular circulant graph on 20 vertices, its own 4-core with no
# violating set.  No known input makes rigid_3d_check reach such a core.
SPARSITY_3D_VERTEX_CAP = 20


@dataclass(frozen=True)
class SparsityParams:
    """(k, l) count parameters of ``sparsity_violation``: only (3, 6).

    2D (2,3) counts come from the pebble game in ``laman_check_2d``.
    """

    k: int
    l: int

    def __post_init__(self):
        if (self.k, self.l) != (3, 6):
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
    number of accepted edges equals the rank of the edge set.  Every
    vertex keeps pebbles + out-degree = 2, which is all that the
    accept/reject answers rely on, so ``remove`` can take an accepted edge
    back out in place.
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

    def remove(self, edge: Edge) -> None:
        """Delete an accepted edge, returning its pebble to its current tail.

        Path reversals may have turned the edge around, so it is taken out
        in whichever direction it now points.  Pebbles + out-degree stays 2
        at every vertex, so later answers are those of a fresh game on the
        accepted edges that remain (Lee & Streinu 2008).
        """
        self.accepted.remove(edge)
        u, v = edge
        if v in self.out[u]:
            self.out[u].remove(v)
            self.pebbles[u] += 1
        else:
            self.out[v].remove(u)
            self.pebbles[v] += 1

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
    """Exact 2D rigidity via the pebble game; Laman counts decide.

    The target is ``required_rank``: 0 on one vertex and 1 on two, so
    the game decides those sizes too.
    """
    if not g.vertices:
        raise InputError("empty vertex set")
    game = PebbleGame2D(g.vertices)
    violating = _insert_all(game, g.edges)
    target = required_rank(2, len(g.vertices))
    rank = game.rank()
    rigid = rank == target
    minimally = rigid and len(g.edges) == target
    return RigidityVerdict(
        rigid=rigid,
        minimally_rigid=minimally,
        rank_deficit=None if minimally else (rank, target),
        violating_edges=None if rigid else violating,
    )


def sparsity_violation(
    g: UndirectedView, params: SparsityParams = SparsityParams(3, 6)
) -> tuple[Edge, ...] | None:
    """Some edge subset E'' with |E''| > 3|V(E'')| - 6, sorted, or None.

    A violating edge set implies a violating induced set on the same
    vertices, so the search runs over induced vertex subsets, smallest
    first, each size in ``combinations`` order of the sorted vertex ids.
    No set of 3 or 4 vertices violates the count (at most 3 and 6
    edges).  In a smallest violating set every vertex has at least 4
    neighbours inside it, since dropping one with 3 or fewer leaves a
    smaller violating set; so every smallest violating set lies in the
    4-core, and the search over the core's vertices from size 5 returns
    the same first witness as one over all vertices from size 3.  The
    witness depends on the graph only, not on the order of its vertex
    and edge lists.  The search stays exponential in the core size, so
    ``SPARSITY_3D_VERTEX_CAP`` on n still applies.  ``params`` admits
    only (3, 6); a caller may pass it to name the counts it asks for.
    """
    n = len(g.vertices)
    if n > SPARSITY_3D_VERTEX_CAP:
        raise ResourceLimitError(
            f"(3,6) sparsity search capped at {SPARSITY_3D_VERTEX_CAP} vertices, got {n}"
        )
    core = _core(g.adjacency(), 4)
    verts = sorted(core)
    edges = [e for e in g.edges if e[0] in core and e[1] in core]
    for size in range(5, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            sub = set(subset)
            induced = [e for e in edges if e[0] in sub and e[1] in sub]
            if len(induced) > 3 * size - 6:
                return tuple(sorted(induced))
    return None


def _core(adj: dict[int, set[int]], k: int) -> set[int]:
    """Vertices of the k-core: the largest subgraph of minimum degree k.

    Vertices of degree below k are removed repeatedly; the order does not
    change what is left.
    """
    degree = {v: len(ws) for v, ws in adj.items()}
    core = set(adj)
    low = [v for v, d in degree.items() if d < k]
    while low:
        v = low.pop()
        core.discard(v)
        for w in adj[v]:
            if w in core:
                degree[w] -= 1
                if degree[w] == k - 1:
                    low.append(w)
    return core


def _positions(vertices, dim: int, rng: random.Random) -> dict[int, tuple[int, ...]]:
    """Each vertex's ``dim`` coordinates in 1..COORD_RANGE, drawn in order.

    Each coordinate is ``rng.randint(1, COORD_RANGE)`` without its call
    frames: draws of ``COORD_RANGE.bit_length()`` bits until one falls
    below ``COORD_RANGE``, plus 1, so the stream and every placement are
    those of ``randint``.  All dim * n coordinates are drawn in one flat
    loop, in vertex order, and then cut into points.
    """
    span = COORD_RANGE
    bits = span.bit_length()
    draw = rng.getrandbits
    coords = []
    for _ in range(dim * len(vertices)):
        r = draw(bits)
        while r >= span:
            r = draw(bits)
        coords.append(r + 1)
    flat = iter(coords)
    return dict(zip(vertices, zip(*[flat] * dim)))


def trial_placements(vertices, dim: int, seed: int = DEFAULT_SEED):
    """The placements of trials 0, 1, 2, ... of the rank oracle, in order.

    ``generic_rank_oracle(g, dim, seed)`` places ``g.vertices`` at the
    t-th of these in trial t: one ``random.Random(seed)`` stream, drawn
    in vertex order.  So every graph on the same vertex tuple shares
    each trial's placement, whatever its edges.
    """
    rng = random.Random(seed)
    while True:
        yield _positions(vertices, dim, rng)


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


def _eliminate(a: np.ndarray, pivot_rows: int) -> list[int]:
    """Row-reduce ``a``, residues mod ``RANK_MODULUS``, in place; return its pivot columns.

    Pivots come only from the first ``pivot_rows`` rows, and each pivot
    column is cleared in every row below its pivot.  So the rows after
    ``pivot_rows`` end up reduced against the others: zero in every pivot
    column, and spanning with them what they spanned before.  int64
    holds every product, as ``RANK_MODULUS`` < 2^31.5.
    """
    p = RANK_MODULUS
    pivots = []
    r = 0
    for c in range(a.shape[1]):
        if r == pivot_rows:
            break
        pivot = None
        for i in range(r, pivot_rows):
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
        pivots.append(c)
        r += 1
    return pivots


def rank_mod_p(matrix: np.ndarray) -> int:
    """Exact rank over GF(``RANK_MODULUS``) by row elimination."""
    a = matrix % RANK_MODULUS
    return len(_eliminate(a, a.shape[0]))


def reduce_mod_p(base: np.ndarray, extra: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of ``base`` over GF(``RANK_MODULUS``), and ``extra``'s rows reduced against it.

    The reduced rows are returned on the columns that hold no pivot of
    ``base``; they are zero on the others.  So the rank a set of extra
    rows adds to ``base`` is the rank of its reduced rows, whichever
    echelon form ``base`` took.
    """
    a = np.concatenate((base, extra)) % RANK_MODULUS
    pivots = _eliminate(a, len(base))
    return len(pivots), np.delete(a[len(base) :], pivots, axis=1)


def batch_rank_mod_p(stack: np.ndarray) -> np.ndarray:
    """Exact rank over GF(``RANK_MODULUS``) of every matrix in a (B, r, c) stack, in one pass.

    The eliminations advance together, one column per step.  Each
    matrix takes the first unused row with a nonzero entry as its pivot
    and swaps it up; the rows below are cleared by cross-multiplication,
    row * pivot - entry * pivot_row.  Both products are below the square
    of ``RANK_MODULUS``, under 2^62, so int64 holds them and no modular
    inverse is needed.  A matrix with no pivot in the column uses pivot 1
    and entries 0, which leaves it as it was.  The input stack is left as
    it was.
    """
    a = np.asarray(stack, dtype=np.int64)
    if a.shape[1] < a.shape[2]:
        # rank(A) = rank(A^T): step over the shorter side.
        a = a.transpose(0, 2, 1)
    a = np.remainder(a, RANK_MODULUS, order="C")
    batch, rows, cols = a.shape
    rank = np.zeros(batch, dtype=np.intp)
    every = np.arange(batch)
    row_ids = np.arange(rows)
    for c in range(cols):
        # Rows above ``lo`` are pivot rows in every matrix.
        lo = int(rank.min()) if batch else rows
        if lo == rows:
            break
        cand = (row_ids[lo:] >= rank[:, None]) & (a[:, lo:, c] != 0)
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = every[has]
        piv, top = cand.argmax(axis=1)[has] + lo, rank[has]
        a[b, piv], a[b, top] = a[b, top], a[b, piv]
        prow = a[every, np.minimum(rank, rows - 1), c:]
        pivot = np.where(has, prow[:, 0], 1)
        rank += has
        block = a[:, lo:, c:]
        factors = np.where(row_ids[lo:] >= rank[:, None], block[:, :, 0], 0)
        block *= pivot[:, None, None]
        block -= factors[:, :, None] * prow[:, None, :]
        block %= RANK_MODULUS
    return rank


def _independent_at(p: tuple[int, ...], qs: list[tuple[int, ...]]) -> bool:
    """Are the rows p - q, one per point q of ``qs``, independent mod ``RANK_MODULUS``?

    These are a vertex's rows on its own columns, at most dim of them:
    ``p`` is the vertex's point and ``qs`` its neighbours'.  No rows
    always are; one row when it is nonzero; two rows when some 2x2 minor
    is nonzero (the 2D determinant or a cross-product entry); three rows
    in 3D when their 3x3 determinant is nonzero.  Closed forms on
    unpacked Python ints, because the peel and the certificate ask once
    per vertex per trial.
    """
    m = RANK_MODULUS
    k = len(qs)
    if not k:
        return True
    if len(p) == 3:
        x, y, z = p
        if k == 3:
            (a, b, c), (d, e, f), (g, h, i) = qs
            a, b, c = x - a, y - b, z - c
            d, e, f = x - d, y - e, z - f
            g, h, i = x - g, y - h, z - i
            return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % m != 0
        if k == 2:
            (a, b, c), (d, e, f) = qs
            a, b, c = x - a, y - b, z - c
            d, e, f = x - d, y - e, z - f
            return (a * e - b * d) % m != 0 or (a * f - c * d) % m != 0 or (b * f - c * e) % m != 0
        ((a, b, c),) = qs
        return (x - a) % m != 0 or (y - b) % m != 0 or (z - c) % m != 0
    x, y = p
    if k == 2:
        (a, b), (c, d) = qs
        return ((x - a) * (y - d) - (y - b) * (x - c)) % m != 0
    ((a, b),) = qs
    return (x - a) % m != 0 or (y - b) % m != 0


def rank_at(
    g: UndirectedView,
    dim: int,
    positions: dict[int, tuple[int, ...]],
    adj: dict[int, set[int]] | None = None,
) -> int:
    """Rigidity-matrix rank over GF(p) of g with its vertices at ``positions``.

    A vertex v with d <= dim remaining edges whose d rows, restricted to
    v's own columns, are independent mod p is peeled: ordering v's rows
    and columns first gives [A B; 0 C] with A of full row rank d, so the
    rank is d plus the rank of C, the matrix of G - v at the same
    positions.  The test reads v's point and its neighbours' points
    (``_independent_at``), with no rows built.  Peeling repeats on the
    neighbours whose degree drops.  A vertex-addition graph peels away
    completely, and its rank is returned as soon as the adjacency is
    empty, with no scan of the edges; a vertex whose block is singular
    at this placement stays in the remainder R.

    R is then certified when it can be (``_reaches_ceiling``): its rank
    is at least |E(R)| minus the rows a least-degree-first removal drops,
    and at most its ceiling min(|E(R)|, required_rank(dim, |R|)), the
    generic rank's bound, which no placement exceeds.  When the rows
    dropped stay within |E(R)| minus the ceiling, the two meet and the
    ceiling is R's exact rank.  The certificate gives up once more are
    dropped: the double banana (ceiling |E(R)| = 18) at its first vertex,
    while K5 in 3D drops one row and is certified at 9.  Only then does
    ``rank_mod_p`` rank R.  ``positions`` may place other vertices too.
    ``adj``, when given, is g's adjacency, and the peel consumes it: on
    return it holds the vertices left and the edges among them.
    """
    if adj is None:
        adj = g.adjacency()
    rank = 0
    stack = [v for v in g.vertices if len(adj[v]) <= dim]
    while stack:
        v = stack.pop()
        ws = adj.get(v)
        if ws is None or not _independent_at(positions[v], [positions[w] for w in ws]):
            continue
        rank += len(ws)
        del adj[v]
        for w in ws:
            around = adj[w]
            around.discard(v)
            if len(around) <= dim:
                stack.append(w)
    if not adj:
        return rank
    edges = [e for e in g.edges if e[0] in adj and e[1] in adj]
    left = [v for v in g.vertices if v in adj]
    ceiling = min(len(edges), required_rank(dim, len(left)))
    if _reaches_ceiling(left, adj, positions, len(edges) - ceiling):
        return rank + ceiling
    col_of = {v: i for i, v in enumerate(left)}
    return rank + rank_mod_p(rigidity_matrix_rows(edges, positions, col_of, dim))


def _reaches_ceiling(
    vertices: list[int],
    adj: dict[int, set[int]],
    positions: dict[int, tuple[int, ...]],
    budget: int,
) -> bool:
    """Is the rank of the matrix on ``vertices`` at least |E| - ``budget``?

    A vertex v of least remaining degree (the first in ``vertices`` on a
    tie) leaves with its edges; of its rows it keeps a maximal set S
    independent on its own columns, taken greedily, and drops the others;
    each row is tested on v's point and the kept neighbours' points with
    ``_independent_at``, the peel's own test.  Ordering v's rows and
    columns first gives [A *; 0 C] with A = S on v's columns of full row
    rank, so the rank is at least |S| plus the rank of C, the matrix
    without v.  Repeated to the last vertex, the rank is at least |E|
    minus the rows dropped.  It gives up once more than ``budget`` rows
    are dropped.  ``adj`` is left as it was.
    """
    adj = {v: set(adj[v]) for v in vertices}
    dropped = 0
    while adj:
        v = min(adj, key=lambda u: len(adj[u]))
        ws = adj.pop(v)
        pv = positions[v]
        kept = []
        for w in ws:
            adj[w].discard(v)
            q = positions[w]
            if len(kept) < len(pv) and _independent_at(pv, kept + [q]):
                kept.append(q)
        dropped += len(ws) - len(kept)
        if dropped > budget:
            return False
    return True


def rigidity_rank_once(
    g: UndirectedView, dim: int, rng: random.Random, adj: dict[int, set[int]] | None = None
) -> int:
    """Rigidity-matrix rank over GF(p) at the trial's placement drawn from rng.

    Every vertex is placed first, in vertex order, so the draws do not
    depend on the edges; ``rank_at`` ranks the matrix there, peeling
    ``adj`` when it is given.
    """
    return rank_at(g, dim, _positions(g.vertices, dim, rng), adj)


def generic_rank_oracle(
    g: UndirectedView,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> int:
    """Max rigidity-matrix rank over seeded random integer placements.

    Deterministic given seed; the max over trials cannot exceed the
    generic rank, so the verdict errs only toward non-rigid.  Each trial's
    rank is exact at its placement: ``rigidity_rank_once`` peels
    low-degree vertices and eliminates only the rest, which gives the rank
    of the whole matrix.

    Trials stop once the best one reaches a ceiling U that no placement
    can exceed, so the result equals the max over all trials.  U starts
    at min(|E|, required rank).  When the first trial falls short of it
    and another trial is left, U also takes, once, the bound from the
    (dim + 1)-core C (every vertex of degree >= dim + 1 within it):
    (|E| - |E(C)|) + min(|E(C)|, required_rank(dim, |C|)), or |E| when C
    is empty.  Proof: removing a vertex and its d edges deletes d rows
    and lowers the rank by at most d, at any placement; peeling down to C
    removes |E| - |E(C)| edges, and C's own rank is at most
    min(|E(C)|, required_rank(dim, |C|)).  C is taken from what the first
    trial's peel left: it peels a vertex only at dim or fewer remaining
    edges, which no vertex of C ever has, so the remainder holds C, and
    its own (dim + 1)-core is C.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    ceiling = min(len(g.edges), required_rank(dim, len(g.vertices)))
    rng = random.Random(seed)
    left = g.adjacency()
    best = rigidity_rank_once(g, dim, rng, left)
    if best < ceiling and trials > 1:
        core = _core(left, dim + 1)
        if core:
            inner = sum(u in core and w in core for u, w in g.edges)
            ceiling = min(
                ceiling, len(g.edges) - inner + min(inner, required_rank(dim, len(core)))
            )
    for _ in range(trials - 1):
        if best >= ceiling:
            break
        best = max(best, rigidity_rank_once(g, dim, rng))
    return best


def _cut_vertices(nbrs: list[list[int]], removed: int) -> tuple[list[bool], int]:
    """Cut vertices of G - removed, as flags by index, and its number of
    components.

    ``nbrs`` lists each vertex's neighbours by index 0..n-1.  One
    iterative depth-first search per component (Hopcroft & Tarjan 1973):
    a non-root v is a cut vertex when some DFS child's subtree has no back
    edge above v (low[child] >= depth[v]); a root is one when it has two
    or more DFS children.  ``removed`` starts out visited at depth n,
    which no low point reaches, so its edges need no test of their own.
    """
    n = len(nbrs)
    depth = [-1] * n
    depth[removed] = n
    low = [0] * n
    is_cut = [False] * n
    components = 0
    for root in range(n):
        if depth[root] >= 0:
            continue
        components += 1
        depth[root] = low[root] = 0
        root_children = 0
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                d = depth[w]
                if d < 0:
                    depth[w] = low[w] = depth[v] + 1
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if d < low[v] and w != parent:
                    low[v] = d
            else:
                stack.pop()
                if parent < 0:
                    continue
                lv = low[v]
                if lv < low[parent]:
                    low[parent] = lv
                if parent == root:
                    root_children += 1
                elif lv >= depth[parent]:
                    is_cut[parent] = True
        if root_children >= 2:
            is_cut[root] = True
    return is_cut, components


def _k4(nbrs: list[list[int]]) -> tuple[int, int, int, int] | None:
    """Four mutually adjacent vertices u < w < x < y, by index, or None.

    For each edge u-w with u < w, in order, the neighbours x > w of w that
    are also neighbours of u are marked, and an edge x-y between two of
    them closes a K4.  The search gives up once it has read 4m adjacency
    entries, twice one pass over every list, so it costs O(m) whether or
    not it finds one.
    """
    n = len(nbrs)
    budget = 2 * sum(map(len, nbrs))
    near = [-1] * n  # near[x] == u: x > u is a neighbour of u
    both = [-1] * n  # both[x] == w: x > w is also a neighbour of w
    for u in range(n):
        nu = nbrs[u]
        budget -= len(nu)
        for x in nu:
            if x > u:
                near[x] = u
        for w in nu:
            if w < u:
                continue
            nw = nbrs[w]
            budget -= len(nw)
            common = [x for x in nw if x > w and near[x] == u]
            for x in common:
                both[x] = w
            for x in common:
                nx = nbrs[x]
                budget -= len(nx)
                for y in nx:
                    if both[y] == w and near[y] == u:
                        return u, w, x, y
            if budget < 0:
                return None
    return None


def _has_fan(nbrs: list[list[int]], in_s: list[bool], v: int) -> bool:
    """Whether v, outside S, has a 3-fan to S: three paths that share only
    v, run outside S, and end at three distinct vertices of S.

    A unit vertex-capacity max flow from v on the split graph: x_in
    (node 2x) -> x_out (node 2x + 1) with capacity 1 for each x outside
    S, x_out -> y_in for each edge, and a unit sink arc out of each
    s_in for s in S, which has no out-node.  ``prv[y]`` is the x whose
    arc x_out -> y_in carries flow, or -1; a vertex takes in at most one
    unit, so this one list is the whole flow.  Each breadth-first search
    in the residual graph finds one augmenting path; three of them are
    three units into three distinct sink arcs.  O(m) per search.
    """
    n = len(nbrs)
    prv = [-1] * n
    root = 2 * v + 1
    for _ in range(3):
        par = [-1] * (2 * n)
        par[root] = par[root - 1] = root  # v_in is never entered
        queue = [root]
        end = -1
        for node in queue:
            x = node >> 1
            if node & 1:
                # x_out: each edge arc not carrying flow, then back into
                # x_in when x is on a path.
                for y in nbrs[x]:
                    if prv[y] != x and par[2 * y] < 0:
                        par[2 * y] = node
                        if in_s[y] and prv[y] < 0:
                            end = 2 * y
                            break
                        queue.append(2 * y)
                if end >= 0:
                    break
                if prv[x] >= 0 and par[node - 1] < 0:
                    par[node - 1] = node
                    queue.append(node - 1)
            else:
                # x_in: on through x when x is free, else back along the
                # flow arc into it (a used S vertex has only that).
                p = prv[x]
                nxt = node + 1 if p < 0 else 2 * p + 1
                if par[nxt] < 0:
                    par[nxt] = node
                    queue.append(nxt)
        if end < 0:
            return False
        node = end
        while node != root:
            p = par[node]
            if not node & 1:
                # Into y_in from another vertex's out-node: that arc now
                # carries the flow; from y's own out-node: y leaves the path.
                prv[node >> 1] = -1 if p == node + 1 else p >> 1
            node = p
    return True


def _fan_certificate(nbrs: list[list[int]]) -> bool:
    """True only if the graph on ``nbrs`` (n >= 4) is 3-connected.

    Call S linked when |S| >= 4 and, for every set X of at most two
    vertices, S - X lies in one component of G - X.  A K4 is linked.  If
    S is linked and v has a 3-fan to S (three paths sharing only v, ending
    at distinct vertices of S), S + v is linked: X meets at most two of
    the paths, and the third joins v to S - X.  Three neighbours in S are
    such a fan.  So S starts at a K4, takes every vertex with three
    neighbours in it (the closure), and each vertex still outside, in
    index order, joins once ``_has_fan`` finds its fan, followed again by
    the closure.  S = V is 3-connectivity itself.

    False means only that no certificate was found: no K4 within the
    search's budget, or a vertex with no 3-fan.  By the fan lemma
    (Menger) a 3-connected graph has a 3-fan from every vertex to every
    set of 3 or more others, so the second case proves G is not
    3-connected, and the search stops at the first such vertex.
    """
    k4 = _k4(nbrs)
    if k4 is None:
        return False
    n = len(nbrs)
    in_s = [False] * n
    hits = [0] * n  # neighbours in S
    pending = list(k4)
    for v in k4:
        in_s[v] = True
    for v in range(n):
        while pending:
            for w in nbrs[pending.pop()]:
                hits[w] += 1
                if hits[w] == 3 and not in_s[w]:
                    in_s[w] = True
                    pending.append(w)
        if in_s[v]:
            continue
        if not _has_fan(nbrs, in_s, v):
            return False
        in_s[v] = True
        pending.append(v)
    return True


def three_connectivity(g: UndirectedView) -> tuple[bool, tuple[int, int] | None]:
    """Whole-graph 3-connectivity: a fan certificate, else the cut
    vertices of each G - a.

    Graphs on fewer than 4 vertices report vacuously true; the witness
    pair, if any, is the lexicographically smallest in ascending order.
    The sorted vertices are mapped to indices 0..n-1 once, into one
    list-of-lists adjacency.  ``_fan_certificate`` first tries to prove
    the graph 3-connected in O(m) per vertex it has to route, and a proof
    returns (True, None).  Otherwise the scan decides, unchanged: for
    each a in ascending order, one cut-vertex search over G - a decides
    every pair (a, b): G - {a, b} is disconnected when G - a has 3 or
    more components, or 2 and b is not one of them by itself, or 1 and b
    is a cut vertex of it.  Every search runs on flat lists of depths,
    low points and cut flags.  Cut vertices and component counts do not
    depend on the search order, so neither does the pair.  The scan is
    O(n(n + m)) in total.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n < 4:
        return True, None
    index = {v: i for i, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in verts]
    for u, w in g.edges:
        i, j = index[u], index[w]
        nbrs[i].append(j)
        nbrs[j].append(i)
    if _fan_certificate(nbrs):
        return True, None
    for a in range(n - 1):
        is_cut, components = _cut_vertices(nbrs, a)
        for b in range(a + 1, n):
            if (
                components >= 3
                or (components == 2 and any(w != a for w in nbrs[b]))
                or is_cut[b]
            ):
                return False, (verts[a], verts[b])
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
    deficit with a separating pair or a violating edge set.  A
    3-connected graph, such as a four-bar graph, is usually proved so by
    ``three_connectivity``'s fan certificate without the pair scan; a
    graph with a separating pair always runs the scan, which names the
    smallest pair.  ``trials`` below 1 raises InputError, whatever the
    graph.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
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
        violation = sparsity_violation(g)
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
    """Short rows of Python ints kept greedily over GF(p), one row per ``try_add``.

    A row is kept when it does not reduce to zero against the rows kept
    before it.  Each kept row is stored scaled to 1 at its pivot, its
    first nonzero column, and zero at every earlier pivot, so one pass in
    pivot order reduces a new row.
    """

    def __init__(self):
        self._pivots: list[tuple[int, list[int]]] = []  # (column, scaled row)

    def try_add(self, row) -> bool:
        """Keep row if it is independent of the rows kept; report which."""
        p = RANK_MODULUS
        row = [x % p for x in row]
        for col, prow in self._pivots:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, p)
        self._pivots.append((col, [x * inv % p for x in row]))
        return True

    @property
    def rank(self) -> int:
        return len(self._pivots)


def _plucker(pi: tuple[int, ...], pj: tuple[int, ...]) -> list[int]:
    """The line through pi and pj: direction pi - pj, moment pj x pi."""
    x1, y1, z1 = pi
    x2, y2, z2 = pj
    return [x1 - x2, y1 - y2, z1 - z2, y2 * z1 - z2 * y1, z2 * x1 - x2 * z1, x2 * y1 - y2 * x1]


class BodyBarRank:
    """k rigid bodies on disjoint vertex sets, joined by bars, in 2D or 3D.

    The merged graph is rigid exactly when the bars add ``target`` =
    required_rank(dim, n) - sum of required_rank(dim, n_i) to the bodies'
    rank: the merge bound for n >= dim, and for a pair the inter-edges it
    needs.  2D holds one ``PebbleGame2D`` with every body edge inserted; a
    query (``pebble_bars``) inserts its bars while the game is short of
    required_rank(2, n), then removes those it accepted, which leaves the
    game as a fresh one on the body edges (Lee & Streinu 2008).  So it
    answers as ``laman_check_2d`` on bodies plus bars, keeping ``target``
    bars when the bodies are rigid; when they stay short it has inserted
    every bar, and its rank is ``laman_check_2d``'s.

    3D trial t places the bodies' vertices, concatenated in order, as
    ``generic_rank_oracle``'s trial t places them (``trial_placements``),
    and ranks each body once (``rank_at``).  At a trial where every body
    reaches ``required_rank(3, n_i)``, each body's kernel is spanned by
    its trivial motions (rank 3n - 6 rules out collinear points), so the
    merged graph's rank is the bodies' ranks plus the rank of its bars'
    rows in the bodies' screw coordinates (Tay 1984; White and Whiteley
    1987).  Bar (i, j) has the row (p_i - p_j, p_j x p_i) in its tail's
    6 columns and the negated row in its head's; the last body's columns
    are dropped, as no bar moves under one motion of all bodies, so for
    two bodies the row is the bar's Plücker line.  A body short of its
    generic rank leaves more rank missing than bars can add, so no bar
    set reaches the target at that trial.  The bars' rows are short lists
    of Python ints, kept by one ``IncrementalRank`` per trial.  In 3D,
    ``trials`` below 1 raises InputError.
    """

    def __init__(self, bodies, dim: int, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS):
        self.bodies = tuple(bodies)
        self.dim = dim
        self.trials = trials
        vertices = tuple(v for g in self.bodies for v in g.vertices)
        self._full = required_rank(dim, len(vertices))
        self.target = self._full - sum(required_rank(dim, len(g.vertices)) for g in self.bodies)
        if dim == 2:
            self._game = PebbleGame2D(vertices)
            for e in itertools.chain.from_iterable(g.edges for g in self.bodies):
                self._game.insert(e)
            return
        if trials < 1:
            raise InputError("trials must be >= 1")
        self._column = {v: 6 * i for i, g in enumerate(self.bodies) for v in g.vertices}
        self._placements = trial_placements(vertices, 3, seed)
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

    def _row(self, positions: dict[int, tuple[int, ...]], bar: Edge) -> list[int]:
        i, j = bar
        line = _plucker(positions[i], positions[j])
        row = [0] * (6 * len(self.bodies))
        ci, cj = self._column[i], self._column[j]
        row[ci : ci + 6] = line
        row[cj : cj + 6] = [-x for x in line]
        return row[:-6]

    def pebble_bars(self, bars) -> tuple[tuple[Edge, ...] | None, int, bool]:
        """2D: ``independent_bars``'s answer, the rank the game reached
        before the accepted bars came out, and whether it accepted every
        bar.
        """
        bars = tuple(bars)
        game = self._game
        kept = [e for e in bars if game.rank() < self._full and game.insert(e)]
        rank = game.rank()
        for e in kept:
            game.remove(e)
        return (tuple(kept) if rank == self._full else None), rank, len(kept) == len(bars)

    def independent_bars(self, bars) -> tuple[Edge, ...] | None:
        """The bars kept greedily, in the given order, once the merged
        graph is rigid (in 3D at the first trial where the bars reach
        ``target``), or None.

        A 3D trial is placed and its bodies ranked when a query first
        reaches it.
        """
        if self.dim == 2:
            return self.pebble_bars(bars)[0]
        bars = tuple(bars)
        for t in range(self.trials):
            positions = self._trial(t)
            if positions is None:
                continue
            basis = IncrementalRank()
            kept = []
            for e in bars:
                if basis.rank == self.target:
                    break
                if basis.try_add(self._row(positions, e)):
                    kept.append(e)
            if basis.rank == self.target:
                return tuple(kept)
        return None


def minimally_rigid_spanning(
    g: UndirectedView,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> tuple[Edge, ...]:
    """Minimally rigid spanning edge set of g, kept greedily in edge order.

    2D uses the pebble game.  3D eliminates the transposed rigidity
    matrix once per trial with ``_eliminate``: column c is a pivot
    exactly when edge c's row is independent of the rows before it, so
    the first ``required_rank`` pivot columns are the edges kept
    greedily in edge order.  It returns them at the first trial with
    that many pivots (a single unlucky placement can only under-estimate
    rank).  Its
    placements are those of ``generic_rank_oracle``, trial by trial, so
    this succeeds exactly when ``rigid_3d_check`` says g is rigid.  In
    3D, ``trials`` below 1 raises InputError, as in ``rigid_3d_check``.
    """
    target = required_rank(dim, len(g.vertices))
    if dim == 2:
        game = PebbleGame2D(g.vertices)
        for e in g.edges:
            if game.rank() == target:
                break
            game.insert(e)
        if game.rank() != target:
            raise NotRigidError("graph is not rigid in 2D")
        return tuple(game.accepted)
    if trials < 1:
        raise InputError("trials must be >= 1")
    col_of = {v: i for i, v in enumerate(g.vertices)}
    for positions in itertools.islice(trial_placements(g.vertices, dim, seed), trials):
        a = rigidity_matrix_rows(g.edges, positions, col_of, dim).T
        pivots = _eliminate(a, len(a))
        if len(pivots) >= target:
            return tuple(g.edges[c] for c in pivots[:target])
    raise NotRigidError("graph is not rigid in 3D")
