"""The whole-product persistence walk, kept as a differential reference.

``reference_is_persistent`` is ``is_persistent`` as it was before the
vertex-addition peel: it decides every terminal of the whole formation,
the 2D walk over all of its blocks and the 3D ranker over all of its
vertices.  The 3D walk is ``fixed_base_reference``'s copy of the earlier
one, so the reference runs none of the 3D walk under test.
``metaform.persistence.is_persistent`` must give the same report, or
raise the same error.
"""
from metaform.errors import InputError
from metaform.graph import Formation
from metaform.persistence import (
    TERMINAL_SET_CAP,
    PersistenceVerdict,
    _first_nonrigid_terminal_2d,
    _verdict,
    ledger,
    terminal_subgraphs,
)
from metaform.rigidity import DEFAULT_SEED, DEFAULT_TRIALS, required_rank

from fixed_base_reference import _first_nonrigid_terminal_3d


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
        return _verdict(led, False, seed, witness=terminals[first].retained)
    # Every terminal is rigid, and so is the whole formation: a terminal
    # has the same vertices and a subset of its edges, and in 3D trial t
    # places the vertices the same way for both, so the whole graph
    # reaches full rank at the first trial where a terminal did.  A
    # Formation has one edge per unordered pair, so it is minimally rigid
    # exactly when it has required_rank edges (0 and 1 for n = 1 and 2,
    # as laman_check_2d and rigid_3d_check say).
    return _verdict(led, len(f.edges) == required_rank(dim, len(f.vertices)), seed)
