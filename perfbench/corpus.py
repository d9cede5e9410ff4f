"""Seeded known-answer inputs for the benchmark workloads.

Every input is built here, not by ``metaform.generate``: that module
self-checks its output with ``is_persistent``, which would put program
work into set-up time.  Each generator states in its docstring why its
answer is known without asking the program.

Shapes and sizes are fixed per workload; the seed only moves the random
attachments.  Op costs therefore depend on the seed very little, which
keeps run-to-run spread small, while the graphs still differ per seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

Graph = tuple[list[int], list[tuple[int, int]]]


# ---------------------------------------------------------------- graphs

def grown(n: int, dim: int, rng: random.Random, base: int = 1, avoid=()) -> Graph:
    """Vertex addition from a clique on ``dim`` vertices.

    Known answer: each new vertex gets ``dim`` out-edges to earlier
    vertices (Henneberg type I), so the graph is minimally rigid and
    minimally persistent with 3n-6 (2D: 2n-3) edges.  Vertices added
    after the first ``dim + 1`` pick no target in ``avoid``.
    """
    vs = list(range(base, base + dim))
    edges = [(j, i) for i in vs for j in vs if j > i]
    for v in range(base + dim, base + n):
        pool = vs if v < base + dim + 1 else [x for x in vs if x not in avoid]
        edges += [(v, t) for t in sorted(rng.sample(pool, dim))]
        vs.append(v)
    return vs, edges


def complete(n: int) -> Graph:
    """K_n oriented from higher to lower id.

    Known answer: acyclic, and every vertex past the first ``dim`` has at
    least ``dim`` out-edges to earlier vertices, so each terminal subgraph
    is a vertex-addition graph; K_n is persistent in 2D and 3D.
    """
    vs = list(range(1, n + 1))
    return vs, [(j, i) for i in vs for j in vs if j > i]


def acyclic_dense(n: int, dim: int, extra: int, rng: random.Random) -> Graph:
    """Random acyclic orientation with ``extra`` vertices over-braced.

    Known answer: the first ``dim + 1`` vertices form a clique oriented
    high to low; every later vertex has ``dim`` out-edges to earlier
    vertices, and ``extra`` of them (chosen at random) have ``dim + 1``.
    A terminal keeps ``dim`` out-edges per vertex, all to earlier
    vertices, so every terminal is a vertex-addition graph: persistent.
    There are exactly (dim + 1) ** extra terminal subgraphs.
    """
    eligible = list(range(dim + 2, n + 1))
    braced = set(rng.sample(eligible, extra))
    vs = list(range(1, n + 1))
    edges = [(j, i) for i in range(1, dim + 2) for j in range(1, dim + 2) if j > i]
    for v in range(dim + 2, n + 1):
        k = dim + 1 if v in braced else dim
        edges += [(v, t) for t in sorted(rng.sample(range(1, v), k))]
    return vs, edges


def dangler(core: Graph, dim: int, rng: random.Random) -> Graph:
    """Add a vertex w with dim-1 braces into the core, and u with dim+1
    out-edges: dim into the core and u -> w.

    Known answer: rigid, not persistent.  The undirected graph is rigid
    (u joins the rigid core by dim edges, then w by dim-1 core edges plus
    u-w).  A terminal must drop one of u's out-edges; dropping u -> w
    leaves w with dim-1 edges, free to move, so that terminal is not
    rigid.  The terminal count is (dim + 1) times the core's.
    """
    vs, edges = list(core[0]), list(core[1])
    w, u = max(vs) + 1, max(vs) + 2
    targets = rng.sample(vs, 2 * dim - 1)
    edges += [(w, t) for t in sorted(targets[: dim - 1])]
    edges += [(u, t) for t in sorted(targets[dim - 1 :])] + [(u, w)]
    return vs + [w, u], edges


def four_bar(n: int, dim: int, rng: random.Random) -> Graph:
    """Tight edge count, 3-connected, not rigid.

    A vertex-addition core on n-2 vertices gets one redundant edge (the
    vertex dim+2 is joined to the one earlier vertex it skipped, making a
    K_{dim+2}).  A hinge pair u, w is added: u braced to dim-1 core
    vertices, w to dim-1 others, plus u-w.  The edge count is exactly
    dim*n - c (3n-6 in 3D), yet one edge is redundant, so the rank falls
    one short: not rigid.  In 2D this is the classical four-bar linkage.
    """
    vs, edges = grown(n - 2, dim, rng)
    v = dim + 2
    have = {t for s, t in edges if s == v}
    (skipped,) = [t for t in range(1, v) if t not in have]
    edges.append((v, skipped))
    u, w = n - 1, n
    targets = rng.sample(vs, 2 * (dim - 1))
    edges += [(u, t) for t in sorted(targets[: dim - 1])]
    edges += [(w, t) for t in sorted(targets[dim - 1 :])]
    edges.append((w, u))
    return vs + [u, w], edges


def banana() -> Graph:
    """Double banana: two triangles each joined to the axis pair {1, 2}.

    Known answer: 8 vertices and 18 = 3n-6 edges, but {1, 2} separates
    the two halves, which hinge about the missing axis edge: not rigid.
    """
    edges = []
    for a, b, c in ((3, 4, 5), (6, 7, 8)):
        edges += [(b, a), (c, a), (c, b)]
        for v in (a, b, c):
            edges += [(v, 1), (v, 2)]
    return list(range(1, 9)), edges


def leader_braced(size: int, k: int, rng: random.Random, base: int) -> Graph:
    """Vertex-addition member whose leader gets k <= 3 extra out-edges.

    Known answer (3D): no vertex exceeds out-degree 3, so the only
    terminal is the graph itself, which is rigid: persistent.  The
    leader's k out-edges remove k of the 6 DOFs, so its missing DOF is k.
    Vertices past the first four avoid the leader, which leaves it k
    non-neighbours to brace.
    """
    vs, edges = grown(size, 3, rng, base, avoid=(base,))
    edges += [(base, t) for t in sorted(rng.sample(vs[4:], k))]
    return vs, edges


def doc(g: Graph) -> dict:
    return {"vertices": list(g[0]), "edges": [list(e) for e in g[1]]}


def terminal_count(g: Graph, dim: int) -> int:
    """Number of terminal subgraphs: product of C(d+(v), dim) over d+ > dim."""
    out: dict[int, int] = {}
    for t, _ in g[1]:
        out[t] = out.get(t, 0) + 1
    return math.prod(math.comb(d, dim) for d in out.values() if d > dim)


def merge_bound(sizes) -> int:
    """3D counting bound 6|N| + 5|D| + 3|S| - 6 for members of these sizes."""
    n = sum(1 for s in sizes if s >= 3)
    d = sum(1 for s in sizes if s == 2)
    s = sum(1 for s in sizes if s == 1)
    return 6 * n + 5 * d + 3 * s - 6


# ------------------------------------------------------------------ ops

@dataclass
class Op:
    """One CLI call: ``metaform <command> <files...> --dim <dim>``."""

    label: str
    command: str
    dim: int
    files: list[dict]
    expect: dict
    terminals: int = 0  # expected terminal subgraphs, persistence ops only
    paths: list[str] = field(default_factory=list)

    def argv(self) -> list[str]:
        return [self.command, *self.paths, "--dim", str(self.dim)]


def check(op: Op, code: int, report: dict | None) -> bool:
    """Is this output the known answer?  Exit 2 or no report is a failure."""
    e = op.expect
    if report is None or code != e["exit"]:
        return False
    if op.command == "check-rigidity":
        return (
            report.get("rigid") is e["rigid"]
            and report.get("minimallyRigid") is e["rigid"]
        )
    if op.command == "check-persistence":
        if report.get("persistent") is not e["persistent"]:
            return False
        return e["persistent"] or bool(report.get("witnessTerminal"))
    # plan-merge
    feas = report.get("feasibility", {})
    if not e["feasible"]:
        return feas.get("feasible") is False and feas.get("reason") == e["reason"]
    verification = report.get("verification", {})
    return (
        feas.get("feasible") is True
        and len(report.get("plan", {}).get("edges", ())) == e["edges"]
        and all(verification.get(k) is True for k in (
            "persistent",
            "structurallyPersistent",
            "edgeOptimalPersistent",
            "missingDofConserved",
        ))
    )


def _rigidity(label, g, rigid):
    return Op(label, "check-rigidity", 3, [doc(g)], {"exit": 0 if rigid else 1, "rigid": rigid})


def _persistence(label, g, dim, persistent):
    return Op(
        label,
        "check-persistence",
        dim,
        [doc(g)],
        {"exit": 0 if persistent else 1, "persistent": persistent},
        terminals=terminal_count(g, dim),
    )


def _merge(label, members, expect):
    return Op(label, "plan-merge", 3, [doc(m) for m in members], expect)


# Corpus layout.  Every corpus has 40-44 ops, so the tail percentile is
# p75, about the 11th slowest op, and the median sits near the 21st.  Each
# corpus is laid out in cost groups so that both ranks fall well inside a
# group of ops of equal cost, never on the edge between two groups, where
# a little noise would swap which group the percentile reads.

# rigidity-3d, slowest first: n = 19, 18, 17 (ranks 1-3); ten n=16 plus
# two n=80 (ranks 4-15, the tail); twelve n=56 (ranks 16-27, the median);
# then the small and cheap rest.  n <= 20 runs the exhaustive (3,6)
# screen, doubling per vertex; n > 20 rests on three_connectivity and
# the rank oracle.
_RIGID_BLOCK = (16,) * 10 + (17, 18, 19)
_RIGID_LARGE = (80, 80) + (56,) * 8 + (21, 24, 27, 30, 36, 40, 45, 48)
_FOUR_BAR = (16, 18, 20, 30) + (56,) * 4


def rigidity_3d(rng: random.Random) -> list[Op]:
    ops = [_rigidity(f"grown-{n}", grown(n, 3, rng), True) for n in _RIGID_BLOCK + _RIGID_LARGE]
    ops += [_rigidity(f"four-bar-{n}", four_bar(n, 3, rng), False) for n in _FOUR_BAR]
    ops.append(_rigidity("banana", banana(), False))
    return ops


# (label, core builder, copies, also with dangler) per persistence
# workload.  Cost follows the terminal count.
#   2D, slowest first: K7, K7+dangler and two dense-10x7+dangler (ranks
#   1-6); 2187 terminals each: dense-10x7 and dense-9x6+dangler (ranks
#   7-16, the tail); 729 terminals each: dense-9x6 and dense-8x5+dangler
#   (ranks 17-30, the median); the rest below.
#   3D, slowest first: K7, dense-9x4, K7+dangler (ranks 1-6); dense-8x3
#   (ranks 7-16, the tail); dense-8x2, K6 and dense-9x4+dangler (ranks
#   17-30, the median); danglers, which fail the edge count early, below.
def _persist_shapes(dim):
    if dim == 2:
        return [
            ("K7", lambda r: complete(7), 2, True),
            ("K6", lambda r: complete(6), 2, True),
            ("dense-10x7", lambda r: acyclic_dense(10, 2, 7, r), 4, False),
            ("dense-10x7", lambda r: acyclic_dense(10, 2, 7, r), 2, True),
            ("dense-9x6", lambda r: acyclic_dense(9, 2, 6, r), 4, True),
            ("dense-8x5", lambda r: acyclic_dense(8, 2, 5, r), 10, True),
        ]
    return [
        ("K7", lambda r: complete(7), 2, True),
        ("dense-9x4", lambda r: acyclic_dense(9, 3, 4, r), 2, True),
        ("dense-8x3", lambda r: acyclic_dense(8, 3, 3, r), 10, False),
        ("K6", lambda r: complete(6), 2, True),
        ("dense-8x2", lambda r: acyclic_dense(8, 3, 2, r), 10, True),
    ]


def persistence(dim: int, rng: random.Random) -> list[Op]:
    ops = []
    for label, build, copies, with_dangler in _persist_shapes(dim):
        for _ in range(copies):
            core = build(rng)
            ops.append(_persistence(label, core, dim, True))
            if with_dangler:
                ops.append(_persistence(label + "+dangler", dangler(core, dim, rng), dim, False))
    return ops


# Feasible 3D collections by member sizes, shaped like merge_survey's
# random collections (vertex-addition members of 4-6 vertices plus
# singletons), with their counts.  Slowest first: 5+5 and 4+4+4+1
# (ranks 1-3); twelve 5+4 pairs (ranks 4-15, the tail); 4+4+4 and
# 4+4+1+1 (ranks 16-18); twelve 4+4 pairs (ranks 19-30, the median);
# the rest below.  The head search's cost varies with member structure,
# and 4+4 (two K4s) has the least such variation, so it holds the median.
_MERGE_FEASIBLE = [
    ((5, 5), 1),
    ((4, 4, 4, 1), 2),
    ((5, 4), 12),
    ((4, 4, 4), 1),
    ((4, 4, 1, 1), 2),
    ((4, 4), 12),
    ((4, 1, 1, 1), 1),
    ((4, 1, 1), 1),
    ((5, 1), 2),
    ((6, 1), 2),
]
# Infeasible collections: (member size, leader braces) per member; the
# braces are each member's missing DOF, and they sum to more than 6.
# Each collection is also given with its members in reverse order.
_MERGE_INFEASIBLE = [
    ((7, 3), (7, 3), (5, 1)),
    ((7, 3), (6, 2), (6, 2)),
    ((7, 3), (7, 3), (7, 3), (1, 0)),
    ((7, 3), (7, 3), (6, 1), (1, 0)),
]


def _members(sizes, rng, braces=None):
    members, base = [], 1
    for i, size in enumerate(sizes):
        if size == 1:
            members.append(([base], []))
        elif braces and braces[i]:
            members.append(leader_braced(size, braces[i], rng, base))
        else:
            members.append(grown(size, 3, rng, base))
        base += size
    return members


def merge_3d(rng: random.Random) -> list[Op]:
    ops = []
    for sizes, copies in _MERGE_FEASIBLE:
        expect = {"exit": 0, "feasible": True, "edges": merge_bound(sizes)}
        for _ in range(copies):
            ops.append(_merge("+".join(map(str, sizes)), _members(sizes, rng), expect))
    for spec in _MERGE_INFEASIBLE:
        sizes = [s for s, _ in spec]
        members = _members(sizes, rng, braces=[b for _, b in spec])
        expect = {"exit": 1, "feasible": False, "reason": "missing-dof-exceeded"}
        ops.append(_merge("braced-" + "+".join(map(str, sizes)), members, expect))
        ops.append(_merge("braced-" + "+".join(map(str, sizes)), members[::-1], expect))
    return ops


WORKLOADS = {
    "rigidity-3d": rigidity_3d,
    "persist-2d": lambda rng: persistence(2, rng),
    "persist-3d": lambda rng: persistence(3, rng),
    "merge-3d": merge_3d,
}


def warmup_ops(name: str) -> list[Op]:
    """Small untimed ops that take each code path of the workload once."""
    rng = random.Random(0)
    if name == "rigidity-3d":
        return [
            _rigidity("warm", grown(6, 3, rng), True),
            _rigidity("warm", grown(22, 3, rng), True),
            _rigidity("warm", four_bar(8, 3, rng), False),
            _rigidity("warm", banana(), False),
        ]
    if name in ("persist-2d", "persist-3d"):
        dim = 2 if name == "persist-2d" else 3
        core = complete(5)
        return [
            _persistence("warm", core, dim, True),
            _persistence("warm", dangler(core, dim, rng), dim, False),
        ]
    members = _members((4, 4, 1), rng)
    return [
        _merge("warm", members, {"exit": 0, "feasible": True, "edges": merge_bound((4, 4, 1))}),
        _merge(
            "warm",
            _members((7, 7, 5), rng, braces=(3, 3, 1)),
            {"exit": 1, "feasible": False, "reason": "missing-dof-exceeded"},
        ),
    ]


def build(name: str, seed: int) -> list[Op]:
    """The workload's corpus for this seed, in the same order for every seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
