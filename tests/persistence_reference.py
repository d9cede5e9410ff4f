"""The whole-product persistence walk, kept as a differential reference.

``reference_is_persistent`` is ``is_persistent`` as it was before the
vertex-addition peel: it decides every terminal of the whole formation,
the 2D walk over all of its blocks and the 3D ranker over all of its
vertices.  The 2D walk below is a copy of the earlier one, which
returned the failing terminal's index, and the 3D walk is
``fixed_base_reference``'s copy of the earlier one, so the reference
runs neither walk under test.
``metaform.persistence.is_persistent`` must give the same report, or
raise the same error.
"""
from metaform.errors import InputError
from metaform.graph import Edge, Formation
from metaform.persistence import (
    TERMINAL_SET_CAP,
    PersistenceVerdict,
    TerminalSubgraphs,
    _verdict,
    ledger,
    terminal_subgraphs,
)
from metaform.rigidity import DEFAULT_SEED, DEFAULT_TRIALS, PebbleGame2D, required_rank

from fixed_base_reference import _first_nonrigid_terminal_3d


def _first_nonrigid_terminal_2d(
    vertices: tuple[int, ...], terminals: TerminalSubgraphs
) -> int | None:
    """Index of the first terminal on ``vertices`` the pebble game finds
    not rigid, or None.

    One game walks the product tree depth first, in product order: going
    down a level inserts that block's choice, going back up removes the
    edges it accepted.  Levels come off in reverse order, so the edges an
    insert rejected stay dependent on edges still in the game, and the
    game's rank is always that of the prefix's edge set.  Blocks with a
    single choice are in every terminal and are inserted once, before the
    walk.  A prefix whose rank plus the edges still to come falls short
    of 2n - 3 fails in every terminal below it, so the first of those is
    the first failing terminal; a prefix already at full rank passes in
    every terminal below it.  With one vertex the target is -1 and
    nothing fails; with two, the one edge, if there, reaches 1.
    """
    target = 2 * len(vertices) - 3
    game = PebbleGame2D(vertices)
    levels = []
    for b, block in enumerate(terminals.blocks):
        if len(block) == 1:
            for e in block[0]:
                game.insert(e)
        else:
            levels.append(b)
    # to_come[k]: edges that levels k and below add to every terminal.
    to_come = [0] * (len(levels) + 1)
    for k in reversed(range(len(levels))):
        to_come[k] = to_come[k + 1] + len(terminals.blocks[levels[k]][0])
    digits = [0] * len(terminals.blocks)
    added: list[list[Edge]] = []
    while True:
        k = len(added)
        rank = game.rank()
        if rank + to_come[k] < target:
            index = 0
            for block, digit in zip(terminals.blocks, digits):
                index = index * len(block) + digit
            return index
        if k < len(levels) and rank < target:
            kept = terminals.blocks[levels[k]][digits[levels[k]]]
            added.append([e for e in kept if game.insert(e)])
            continue
        # Every terminal below this prefix is rigid: go to the next one.
        while added:
            for e in added.pop():
                game.remove(e)
            b = levels[len(added)]
            digits[b] += 1
            if digits[b] < len(terminals.blocks[b]):
                break
            digits[b] = 0
        else:
            return None


def reference_is_persistent(
    f: Formation,
    dim: int,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    cap: int = TERMINAL_SET_CAP,
) -> PersistenceVerdict:
    """Persistence: every terminal subgraph rigid in the given dimension.

    3D rigidity verdicts come from the randomized rank oracle, so a
    persistence verdict inherits its one-sided error toward "not
    persistent"; the seed used is recorded in the verdict.  ``trials``
    below 1 raises InputError, whatever the formation.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    led = ledger(f, dim)
    # Terminals come sorted by retained edge set, so the first non-rigid
    # one is the lexicographically smallest witness.
    terminals = terminal_subgraphs(f, dim, cap=cap)
    if dim == 2:
        first = _first_nonrigid_terminal_2d(f.vertices, terminals)
    else:
        first = _first_nonrigid_terminal_3d(f.vertices, terminals, seed, trials)
    if first is not None:
        return _verdict(led, False, seed, witness=terminals[first])
    # Every terminal is rigid, and so is the whole formation: a terminal
    # has the same vertices and a subset of its edges, and in 3D trial t
    # places the vertices the same way for both, so the whole graph
    # reaches full rank at the first trial where a terminal did.  A
    # Formation has one edge per unordered pair, so it is minimally rigid
    # exactly when it has required_rank edges (0 and 1 for n = 1 and 2,
    # as laman_check_2d and rigid_3d_check say).
    return _verdict(led, len(f.edges) == required_rank(dim, len(f.vertices)), seed)
