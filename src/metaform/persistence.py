"""Directed analysis: DOF bookkeeping and persistence verdicts.

A formation is persistent when every terminal subgraph, obtained by
repeatedly deleting outgoing edges at vertices whose out-degree exceeds
the dimension, is rigid.  A deletion changes only its tail's out-edges,
so a terminal is one choice per tail of which ``dim`` out-edges to keep:
one index into each tail's block of combinations.  Their number is
known before any is built.  ``terminal_subgraphs`` returns the product
of the blocks as a lazy sequence of edge tuples; no list of terminals
is built.

Most of that product is decided by vertex addition (Tay & Whiteley,
*Generating isostatic frameworks*, 1985; Hendrickx, Anderson, Delvenne
& Blondel, 2007).  A vertex with in-degree 0 and out-degree >= dim
keeps exactly ``dim`` out-edges, to distinct vertices, in every
terminal and has no other edge there, so each terminal is rigid exactly
when it is rigid without that vertex.  ``is_persistent`` peels such
vertices repeatedly, and the verdict is that of the core left behind:
its terminals are the product of the unpeeled tails' blocks.  Both
deciders return the choice per core block of the core's first failing
terminal, and the witness is built once from them: choice 0 in every
peeled block, the core's choices elsewhere.

In 2D one pebble game walks the core's product tree depth first, in
product order: going down a level inserts one block's chosen edges,
going back up removes the edges that were accepted.  Removing an edge
returns its pebble to whichever endpoint it now leaves, so every vertex
keeps pebbles + out-degree = 2, and so does every vertex set in total.
The game's answers rest only on those counts (Lee & Streinu, *Pebble
game algorithms and sparse graphs*, 2008), so after a removal they are
those of a fresh game on the edges that remain.  A subtree whose rank
plus the edges still to come is short of ``required_rank`` fails in
every terminal, and its first terminal, choice 0 in every block below,
is the witness.

In 3D every core terminal keeps the core's vertices in the same order,
so one ``rigidity.Placements`` places them alike in every terminal; the
peeled vertices are not placed, since their part of the verdict rests on
the theorem above.  Every terminal holds the edges of the single-choice
blocks, so those form a base that ``reduce_mod_p`` eliminates once per
trial, reducing the other blocks' edges against it; a terminal adds one
choice per other block, and terminals are ranked in batches of these
reduced edges.  A core with one terminal is that terminal, and the rank
oracle decides it, except on at most 4 vertices: there a terminal with
the 3n - 6 edges rigidity needs has all C(n, 2) of them, and a complete
graph on at most 4 vertices, a simplex, is rigid.  So a formation grown
by vertex addition from at most 4 vertices needs no rank at all.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import Edge, Formation, MetaFormation, UndirectedView
from .rigidity import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    PebbleGame2D,
    Placements,
    batch_rank_mod_p,
    generic_rank_oracle,
    reduce_mod_p,
    required_rank,
    rigidity_matrix_rows,
)

# Worst case measured under it (in-process, unscaled, one run, 2-core
# shared host): 67.9 s, check-meta --dim 3 on a non-compliant merge of
# grown 4- and 6-vertex members by 22 inter-edges, whose fallback
# is_persistent on the flattened graph walks 819,200 terminals.
TERMINAL_SET_CAP = 10**6
# 3D terminals ranked together, one batch per trial.  No benchmark op
# reaches it.  On the back-braced acyclic_dense(16, 3, 7) formation of
# the tests at rng seed 1 (16,384 terminals; is_persistent, min of 3
# runs, three interleaved rounds, 2-core shared host) 256 took 738-747
# ms, 512 727-770 ms and 1,024 754-780 ms, at 56, 58 and 64 MB peak
# RSS; no size won every round.
TERMINAL_BATCH_SIZE = 512


@dataclass(frozen=True)
class DofLedger:
    """Per-vertex out-degrees and degrees of freedom for one dimension."""

    dim: int
    out_degree: dict[int, int]
    dof: dict[int, int]
    leaders: tuple[int, ...]
    total_dof: int

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "outDegree": {str(v): d for v, d in sorted(self.out_degree.items())},
            "dof": {str(v): d for v, d in sorted(self.dof.items())},
            "leaders": list(self.leaders),
            "totalDof": self.total_dof,
        }


def ledger(f: Formation, dim: int) -> DofLedger:
    """DOF ledger: dof(i) = max(0, dim - out-degree(i)); leaders have out-degree 0."""
    if dim not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {dim}")
    out = f.out_degrees()
    dof = {v: max(0, dim - d) for v, d in out.items()}
    leaders = tuple(sorted(v for v, d in out.items() if d == 0))
    return DofLedger(
        dim=dim,
        out_degree=out,
        dof=dof,
        leaders=leaders,
        total_dof=sum(dof.values()),
    )


class TerminalSubgraphs(Sequence):
    """The terminal subgraphs of a formation, sorted by edge set.

    ``blocks`` holds, per tail in sorted order, the combinations of
    out-edges that tail may keep; a terminal is one choice per block,
    concatenated.  Each block's choices come sorted and share one length,
    so product order is sorted order, and terminal i, its edge tuple, is
    built from the mixed-radix digits of i only when it is asked for.
    """

    def __init__(self, blocks: tuple[tuple[tuple[Edge, ...], ...], ...]):
        self.blocks = blocks
        self._count = math.prod(len(b) for b in blocks)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> tuple[Edge, ...]:
        if not 0 <= i < self._count:
            raise IndexError("terminal index out of range")
        kept = []
        for block in reversed(self.blocks):
            i, choice = divmod(i, len(block))
            kept.append(block[choice])
        return tuple(e for edges in reversed(kept) for e in edges)


def terminal_subgraphs(
    f: Formation, dim: int, cap: int = TERMINAL_SET_CAP
) -> TerminalSubgraphs:
    """All terminal subgraphs' edge tuples, sorted, built on demand.

    A vertex with out-degree d > dim keeps one of the C(d, dim)
    combinations of its out-edges and drops the rest; every other vertex
    keeps all of its out-edges.  Raises ResourceLimitError, before
    building any block or terminal, when their number exceeds ``cap``.
    """
    out: dict[int, list[Edge]] = {}
    for e in sorted(f.edges):
        out.setdefault(e[0], []).append(e)
    count = math.prod(math.comb(len(es), dim) for es in out.values() if len(es) > dim)
    if count > cap:
        raise ResourceLimitError(
            f"formation has {count} terminal subgraphs, above the cap of {cap}"
        )
    return TerminalSubgraphs(
        tuple(tuple(itertools.combinations(es, min(len(es), dim))) for es in out.values())
    )


@dataclass(frozen=True)
class PersistenceVerdict:
    persistent: bool
    structurally_persistent: bool
    minimally_persistent: bool
    ledger: DofLedger
    # Non-rigid terminal edge set (lexicographically smallest) when not
    # persistent; leader list when persistent but not structurally so.
    witness_terminal: tuple[Edge, ...] | None = None
    witness_leaders: tuple[int, ...] | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        d = {
            "persistent": self.persistent,
            "structurallyPersistent": self.structurally_persistent,
            "minimallyPersistent": self.minimally_persistent,
            "ledger": self.ledger.to_dict(),
        }
        if self.witness_terminal is not None:
            d["witnessTerminal"] = [list(e) for e in self.witness_terminal]
        if self.witness_leaders is not None:
            d["witnessLeaders"] = list(self.witness_leaders)
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def _verdict(led: DofLedger, minimally: bool, seed: int, witness=None) -> PersistenceVerdict:
    """Persistent unless ``witness`` (a non-rigid terminal) is given; in 3D,
    structurally persistent only with at most one leader, and otherwise
    the leaders are the witness."""
    persistent = witness is None
    structurally = persistent and (led.dim == 2 or len(led.leaders) <= 1)
    return PersistenceVerdict(
        persistent=persistent,
        structurally_persistent=structurally,
        minimally_persistent=minimally,
        ledger=led,
        witness_terminal=witness,
        witness_leaders=led.leaders if persistent and not structurally else None,
        seed=seed if led.dim == 3 else None,
    )


def _first_nonrigid_terminal_2d(
    vertices: tuple[int, ...], blocks: tuple[tuple[tuple[Edge, ...], ...], ...]
) -> list[int] | None:
    """The choice per block of the first terminal on ``vertices`` that the
    pebble game finds not rigid, or None.

    One game walks the product tree depth first, in product order: going
    down a level sets that block's choice and inserts its edges, going
    back up removes the edges it accepted.  Levels come off in reverse
    order, so the edges an insert rejected stay dependent on edges still
    in the game, and the game's rank is always that of the prefix's edge
    set.  Blocks with a single choice are in every terminal and are
    inserted once, before the walk.  A prefix whose rank plus the edges
    still to come falls short of ``required_rank`` fails in every
    terminal below it, so the first of those, choice 0 in every block
    below, is the first failing terminal; a prefix already at full rank
    passes in every terminal below it.
    """
    target = required_rank(2, len(vertices))
    game = PebbleGame2D(vertices)
    for block in blocks:
        if len(block) == 1:
            for e in block[0]:
                game.insert(e)
    levels = [b for b, block in enumerate(blocks) if len(block) > 1]
    # to_come[k]: edges that levels k and below add to every terminal.
    to_come = list(itertools.accumulate((len(blocks[b][0]) for b in reversed(levels)), initial=0))
    to_come.reverse()
    choices = [0] * len(blocks)

    def fails(k: int) -> bool:
        # Leaves choices[levels[k:]] at 0 unless a terminal below fails.
        rank = game.rank()
        if rank + to_come[k] < target:
            return True
        if k == len(levels) or rank >= target:
            return False
        b = levels[k]
        for choice, kept in enumerate(blocks[b]):
            choices[b] = choice
            added = [e for e in kept if game.insert(e)]
            if fails(k + 1):
                return True
            for e in added:
                game.remove(e)
        choices[b] = 0
        return False

    return choices if fails(0) else None


def _first_nonrigid_terminal_3d(
    vertices: tuple[int, ...],
    blocks: tuple[tuple[tuple[Edge, ...], ...], ...],
    placements: Placements,
) -> list[int] | None:
    """The choice per block of the first terminal on ``vertices`` that
    ``rigid_3d_check`` finds not rigid, or None.

    Every terminal keeps min(d+, 3) edges per vertex, so all share one
    edge count and the edge-count exit decides all of them at once.  On
    at most 4 vertices no vertex has more than 3 out-edges, so there is
    one terminal, and with 3n - 6 = C(n, 2) edges it is complete: a
    simplex, rigid without the rank oracle.  One terminal on more
    vertices is decided by the rank oracle, as ``rigid_3d_check`` decides
    it.  Otherwise, at each of the ``placements``, one ``reduce_mod_p``
    call ranks the single-choice edges and reduces every multi-choice
    edge's row against them.  A terminal is rigid when some trial's base
    rank plus the rank of its 3 reduced rows per multi-choice block
    reaches 3n - 6.  Batches number the terminals in product order over
    the multi-choice blocks, and each batch goes on to the next trial
    with only the terminals still short of full rank.
    """
    target = required_rank(3, len(vertices))
    choices = [0] * len(blocks)
    if sum(len(block[0]) for block in blocks) < target:
        return choices
    if len(vertices) <= 4:
        return None
    multi = [b for b, block in enumerate(blocks) if len(block) > 1]
    fixed = [e for block in blocks if len(block) == 1 for e in block[0]]
    if not multi:
        g = UndirectedView(vertices, tuple(fixed))
        rank = generic_rank_oracle(g, 3, placements.seed, placements.trials)
        return None if rank == target else choices
    # The edges the multi-choice blocks choose from: their tails' out-edges.
    extra = sorted({e for b in multi for choice in blocks[b] for e in choice})
    slot = {e: k for k, e in enumerate(extra)}
    # Per multi-choice block: its choices' slots, one row per choice.
    slots = [
        np.array([[slot[e] for e in choice] for choice in blocks[b]], dtype=np.intp) for b in multi
    ]
    radices = [len(blocks[b]) for b in multi]
    col_of = {v: i for i, v in enumerate(vertices)}

    def reduce(positions):
        rows = rigidity_matrix_rows(fixed + extra, positions, col_of, 3)
        return reduce_mod_p(rows[: len(fixed)], rows[len(fixed) :])

    # Per trial, when a batch first reaches it: the base's rank and the
    # reduced extra rows; each later batch replays them from a ``tee`` copy.
    reduced = map(reduce, placements.of(vertices, 3))
    count = math.prod(radices)
    for start in range(0, count, TERMINAL_BATCH_SIZE):
        stop = min(start + TERMINAL_BATCH_SIZE, count)
        # C order, last block fastest, is product order.
        digits = np.unravel_index(np.arange(start, stop), radices)
        index = np.concatenate([s[d] for s, d in zip(slots, digits)], axis=1)
        short = np.arange(len(index))
        reduced, trials = itertools.tee(reduced)
        for rank, table in trials:
            short = short[batch_rank_mod_p(table[index[short]]) < target - rank]
            if not short.size:
                break
        if short.size:
            for b, d in zip(multi, digits):
                choices[b] = int(d[short[0]])
            return choices
    return None


def _peeled(f: Formation, dim: int) -> set[int]:
    """Vertices removed by repeatedly peeling a vertex with in-degree 0 and
    out-degree >= ``dim`` among the vertices left.

    Removing such a vertex changes no out-degree of those left, only its
    heads' in-degrees, so one worklist on in-degrees finds them all in
    O(n + m).  Its heads are all still there when it goes, so at least
    ``dim`` vertices stay whenever one is peeled.
    """
    heads: dict[int, list[int]] = {v: [] for v in f.vertices}
    in_degree = dict.fromkeys(f.vertices, 0)
    for t, h in f.edges:
        heads[t].append(h)
        in_degree[h] += 1
    stack = [v for v in f.vertices if not in_degree[v] and len(heads[v]) >= dim]
    peeled = set(stack)
    while stack:
        for h in heads[stack.pop()]:
            in_degree[h] -= 1
            if not in_degree[h] and len(heads[h]) >= dim:
                stack.append(h)
                peeled.add(h)
    return peeled


def is_persistent(
    f: Formation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    cap: int = TERMINAL_SET_CAP,
) -> PersistenceVerdict:
    """Persistence: every terminal subgraph rigid in the given dimension.

    The cap counts the whole formation's terminals, before any work.
    The terminals are then decided on the core left after peeling vertex
    additions (module docstring): a whole terminal is rigid exactly when
    its core part is.  The core is its vertex tuple and its blocks; it is
    not built and validated again as a ``Formation``.  3D rigidity
    verdicts come from the randomized rank oracle on a core of more than
    4 vertices, so a persistence verdict inherits its one-sided error
    toward "not persistent"; the seed used is recorded in the verdict.
    ``Placements(seed, trials)`` is made first, so ``trials`` below 1
    raises InputError whatever the formation.
    """
    placements = Placements(seed, trials)
    led = ledger(f, dim)
    # Terminals come sorted by edge set, so the first non-rigid one is
    # the lexicographically smallest witness.
    terminals = terminal_subgraphs(f, dim, cap=cap)
    peeled = _peeled(f, dim)
    core = tuple(v for v in f.vertices if v not in peeled)
    # A block's choices all start with its tail's first out-edge.
    in_core = [block[0][0][0] not in peeled for block in terminals.blocks]
    core_blocks = tuple(itertools.compress(terminals.blocks, in_core))
    if dim == 2:
        choices = _first_nonrigid_terminal_2d(core, core_blocks)
    else:
        choices = _first_nonrigid_terminal_3d(core, core_blocks, placements)
    if choices is not None:
        # Peeled blocks are free, so the smallest failing terminal keeps
        # choice 0 in each of them and the core's choices elsewhere.
        core_choice = iter(choices)
        witness = tuple(
            e
            for block, from_core in zip(terminals.blocks, in_core)
            for e in block[next(core_choice) if from_core else 0]
        )
        return _verdict(led, False, seed, witness=witness)
    # Every terminal is rigid, and so is the whole formation: a terminal
    # has the same vertices and a subset of its edges, so the whole
    # graph's generic rank is at least a terminal's.  A
    # Formation has one edge per unordered pair, so it is minimally rigid
    # exactly when it has required_rank edges (0 and 1 for n = 1 and 2,
    # as laman_check_2d and rigid_3d_check say).
    return _verdict(led, len(f.edges) == required_rank(dim, len(f.vertices)), seed)


def local_dof_compliance(
    meta: MetaFormation, dim: int
) -> tuple[bool, tuple[int, ...]]:
    """Do all inter-edges leave vertices with enough local DOFs?

    Local DOFs are computed against the vertex's own meta-vertex only.
    Returns (compliant, offending tail vertices).
    """
    local_dof: dict[int, int] = {}
    for mv in meta.meta_vertices:
        for v, d in ledger(mv, dim).dof.items():
            local_dof[v] = d
    outgoing: dict[int, int] = {}
    for t, _ in meta.inter_edges:
        outgoing[t] = outgoing.get(t, 0) + 1
    offenders = tuple(
        sorted(v for v, cnt in outgoing.items() if cnt > local_dof[v])
    )
    return (not offenders, offenders)


def merged_persistence(
    flat: Formation, dim: int, rigid: bool, compliant: bool, seed: int, trials: int
) -> PersistenceVerdict:
    """Persistence of a merge of persistent members, from its flattened graph.

    ``compliant`` says all inter-edges leave local DOFs, and ``rigid``,
    read only for a compliant merge, that the merge is rigid.  A rigid
    compliant merge is persistent, and minimally so when ``flat`` has
    the required rank of edges.  Otherwise the full criterion runs on
    ``flat``, which also names a not-rigid merge's witness terminal.
    """
    if rigid and compliant:
        minimally = len(flat.edges) == required_rank(dim, len(flat.vertices))
        return _verdict(ledger(flat, dim), minimally, seed)
    return is_persistent(flat, dim, seed=seed, trials=trials)
