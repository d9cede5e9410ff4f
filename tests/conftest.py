"""Shared fixtures and construction helpers."""
from __future__ import annotations

import itertools
import sys

from metaform.graph import Formation


def count_calls(monkeypatch, name, original):
    """Count calls of ``original`` through every ``metaform.*`` reference to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        in_package = mod_name == "metaform" or mod_name.startswith("metaform.")
        if in_package and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def shift(f: Formation, offset: int) -> Formation:
    """Relabel all vertices by a constant offset."""
    return Formation(
        vertices=tuple(v + offset for v in f.vertices),
        edges=tuple((t + offset, h + offset) for t, h in f.edges),
    )


def triangle(base: int = 1) -> Formation:
    a, b, c = base, base + 1, base + 2
    return Formation(vertices=(a, b, c), edges=((b, a), (c, a), (c, b)))


def singleton(v: int) -> Formation:
    return Formation(vertices=(v,), edges=())


def pair(a: int, b: int) -> Formation:
    return Formation(vertices=(a, b), edges=((b, a),))


def complete(n: int, base: int = 1) -> Formation:
    """K_n oriented from higher to lower id."""
    vs = tuple(range(base, base + n))
    return Formation(
        vertices=vs, edges=tuple((j, i) for i in vs for j in vs if j > i)
    )


def tournament(n: int, base: int = 1, out: int = 3) -> Formation:
    """Circulant tournament-style orientation: v beats the next `out` ids."""
    vs = tuple(range(base, base + n))
    edges = []
    for i in range(n):
        for k in range(1, out + 1):
            edges.append((vs[i], vs[(i + k) % n]))
    return Formation(vertices=vs, edges=tuple(edges))


def orient_with_out_degrees(vertices, und_edges, target: dict) -> Formation:
    """Orient an undirected edge list to hit exact out-degree targets.

    Backtracking on edges; returns the first orientation found.  Raises
    if the degree sequence is not realizable on this graph.
    """
    edges = list(und_edges)
    chosen: list[tuple[int, int]] = []
    remaining = dict(target)

    def search(i: int) -> bool:
        if i == len(edges):
            return all(r == 0 for r in remaining.values())
        a, b = edges[i]
        # Prune: a vertex cannot exceed its remaining quota later.
        for t, h in ((a, b), (b, a)):
            if remaining[t] > 0:
                remaining[t] -= 1
                chosen.append((t, h))
                if search(i + 1):
                    return True
                chosen.pop()
                remaining[t] += 1
        return False

    if not search(0):
        raise ValueError("out-degree sequence not realizable")
    return Formation(vertices=tuple(vertices), edges=tuple(chosen))


def zero_dof_3d(base: int = 1) -> Formation:
    """7 vertices, 21 edges, every out-degree 3: persistent with no DOF."""
    return tournament(7, base=base, out=3)


def lone_leader_3d(base: int = 1) -> Formation:
    """K6 with one leader holding 3 DOFs and no other DOF anywhere."""
    vs = tuple(range(base, base + 6))
    edges = [(v, vs[0]) for v in vs[1:]]
    ring = vs[1:]
    for i, v in enumerate(ring):
        for k in (1, 2):
            edges.append((v, ring[(i + k) % 5]))
    return Formation(vertices=vs, edges=tuple(edges))


def nonstructural_3d(base: int = 1) -> Formation:
    """Octahedron with two leaders: persistent, not structurally so."""
    v = {i: base + i - 1 for i in range(1, 7)}
    eN = [
        (2, 1), (3, 1), (4, 1), (5, 1),
        (2, 6), (3, 6), (4, 6), (5, 6),
        (2, 3), (3, 4), (4, 5), (5, 2),
    ]
    return Formation(
        vertices=tuple(v.values()), edges=tuple((v[a], v[b]) for a, b in eN)
    )


def octahedron_edges(base: int = 1):
    """Undirected octahedron; antipodal pairs (1,6),(2,5),(3,4)."""
    v = lambda i: base + i - 1
    und = [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 4), (2, 6),
        (3, 5), (3, 6),
        (4, 5), (4, 6),
        (5, 6),
    ]
    return [tuple(range(base, base + 6)), [(v(a), v(b)) for a, b in und]]


def dof_allocated_3d(allocation, base: int = 1) -> Formation:
    """Persistent 3D formation whose positive DOFs match `allocation`.

    The allocation (a tuple like (3, 2, 1) or (2, 2, 2)) is realized on
    a rigid host graph with every out-degree at most 3, so persistence
    reduces to rigidity of the host.  Vertices `base`, `base+1`, ...
    carry the allocation entries in order.
    """
    allocation = tuple(allocation)
    total = sum(allocation)
    if allocation == (3, 2, 1):
        return complete(4, base=base)
    if total == 6:
        vs, und = octahedron_edges(base)
    elif 0 <= total <= 5:
        # With d+ <= 3 everywhere, |E| = 3n - total: complete graph on
        # 6 (total >= 3) or 7 (total <= 2) vertices minus a few edges
        # among the unallocated high-out-degree vertices.
        n = 6 if total >= 3 else 7
        vs = tuple(range(base, base + n))
        und = list(itertools.combinations(vs, 2))
        drop = len(und) - (3 * n - total)
        spare = [p for p in itertools.combinations(reversed(vs), 2)]
        for pair_ in spare[:drop]:
            und.remove(tuple(sorted(pair_)))
    else:
        raise ValueError(f"unsupported allocation {allocation}")
    target = {v: 3 for v in vs}
    for i, d in enumerate(allocation):
        target[vs[i]] = 3 - d
    return orient_with_out_degrees(vs, und, target)


def back_braced(f: Formation, dim: int) -> Formation:
    """Spend every spare DOF of the ``dim`` smallest ids on edges to the
    largest ids each is not yet joined to.

    Known answer on a persistent formation whose ``dim`` smallest ids
    have d+ < dim and whose other vertices have d+ >= dim: persistent.
    Each braced tail ends at d+ = dim, so it keeps all its out-edges in
    every terminal; every terminal is one of ``f``'s plus these edges, and
    stays rigid, and the terminal count is unchanged.  The new edges point
    back at the latest vertices, so the formation is cyclic and does not
    peel away.
    """
    edges = list(f.edges)
    joined = {frozenset(e) for e in edges}
    out = f.out_degrees()
    for v in sorted(f.vertices)[:dim]:
        free = [w for w in sorted(f.vertices, reverse=True) if w != v and frozenset((v, w)) not in joined]
        heads = free[: dim - out[v]]
        edges += [(v, w) for w in heads]
        joined.update(frozenset((v, w)) for w in heads)
    return Formation(vertices=f.vertices, edges=tuple(edges))
