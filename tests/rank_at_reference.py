"""``rank_at`` as it was before it tested a vertex on its coordinates,
kept as a differential reference.

Each peeled vertex built the rows p_v - p_w of its edges as lists and
asked ``_independent_mod_p`` about them; the remainder certificate did
the same with the rows it kept.  After the peel, every edge of the
graph was scanned for those left, even when the peel had emptied the
adjacency.  ``_positions`` drew each vertex's coordinates in a nested
loop.  ``tests/test_rank_at_differential.py`` checks that the live
``rank_at`` gives the same rank and leaves the same remainder in
``adj``, and that the live ``_positions`` gives the same placement and
leaves the stream where this one does.  The copies read
``rigidity.COORD_RANGE`` at each call, so a test that narrows the range
narrows it for both.  ``rank_mod_p``, ``rigidity_matrix_rows`` and
``required_rank`` are imported live: the coordinate-based peel did not
change them.
"""
from __future__ import annotations

import itertools
import random

from metaform import rigidity
from metaform.graph import UndirectedView
from metaform.rigidity import RANK_MODULUS, rank_mod_p, required_rank, rigidity_matrix_rows


def _positions(vertices, dim: int, rng: random.Random) -> dict[int, tuple[int, ...]]:
    """Each vertex's ``dim`` coordinates in 1..COORD_RANGE, drawn in order.

    Each coordinate is ``rng.randint(1, COORD_RANGE)`` without its call
    frames: draws of ``COORD_RANGE.bit_length()`` bits until one falls
    below ``COORD_RANGE``, plus 1, so the stream and every placement are
    those of ``randint``.
    """
    span = rigidity.COORD_RANGE
    bits = span.bit_length()
    draw = rng.getrandbits
    positions = {}
    for v in vertices:
        coords = []
        for _ in range(dim):
            r = draw(bits)
            while r >= span:
                r = draw(bits)
            coords.append(r + 1)
        positions[v] = tuple(coords)
    return positions


def _independent_mod_p(rows: list[list[int]]) -> bool:
    """Are a peeled vertex's rows, at most dim of length dim, independent mod ``RANK_MODULUS``?

    No rows always are; one row when it is nonzero; two rows when some
    2x2 minor is nonzero (the 2D determinant or a cross-product entry);
    three rows of length 3 when their 3x3 determinant is nonzero.  Closed
    forms on Python ints, because the peel asks once per peeled vertex per
    trial.
    """
    p = RANK_MODULUS
    k = len(rows)
    if k == 3:
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
    a, b = rows
    return any(
        (a[i] * b[j] - a[j] * b[i]) % p for i, j in itertools.combinations(range(len(a)), 2)
    )


def rank_at(
    g: UndirectedView,
    dim: int,
    positions: dict[int, tuple[int, ...]],
    adj: dict[int, set[int]] | None = None,
) -> int:
    """Rigidity-matrix rank over GF(p) of g with its vertices at ``positions``.

    A vertex v with d <= dim remaining edges whose d rows, restricted to
    v's own columns, are independent mod p is peeled; what is left is
    certified at its ceiling when ``_reaches_ceiling`` can, and ranked by
    ``rank_mod_p`` otherwise.  ``adj``, when given, is g's adjacency, and
    the peel consumes it: on return it holds the vertices left and the
    edges among them.
    """
    if adj is None:
        adj = g.adjacency()
    rank = 0
    stack = [v for v in g.vertices if len(adj[v]) <= dim]
    while stack:
        v = stack.pop()
        if v not in adj:
            continue
        pv = positions[v]
        ws = adj[v]
        if not _independent_mod_p([[a - b for a, b in zip(pv, positions[w])] for w in ws]):
            continue
        rank += len(ws)
        del adj[v]
        for w in ws:
            adj[w].discard(v)
            if len(adj[w]) <= dim:
                stack.append(w)
    edges = [e for e in g.edges if e[0] in adj and e[1] in adj]
    if not edges:
        return rank
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

    A vertex of least remaining degree (the first in ``vertices`` on a
    tie) leaves with its edges, keeping a maximal set of its rows
    independent on its own columns, taken greedily, and dropping the
    others; it gives up once more than ``budget`` rows are dropped.
    ``adj`` is left as it was.
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
            row = [a - b for a, b in zip(pv, positions[w])]
            if len(kept) < len(pv) and _independent_mod_p(kept + [row]):
                kept.append(row)
        dropped += len(ws) - len(kept)
        if dropped > budget:
            return False
    return True
