"""``generic_rank_oracle`` as it was before the core ceiling, kept as a
differential reference.

``reference_generic_rank_oracle`` runs trials until one reaches
min(|E|, required rank) or the trials run out.
``metaform.rigidity.generic_rank_oracle`` also stops at the ceiling of
the graph's (dim + 1)-core, which no placement exceeds, so it must
return the same rank for every graph, seed, trial count and coordinate
range.  It draws each trial's placement from its own
``random.Random(seed)`` stream, with ``rank_at_reference``'s frozen
``_positions``, and ranks it with ``rigidity.rigidity_rank_once`` by
module attribute, so a test that counts that function's calls counts
these too.
"""
import random

from metaform import rigidity
from metaform.errors import InputError
from metaform.rigidity import DEFAULT_SEED, DEFAULT_TRIALS, required_rank

from rank_at_reference import _positions


def reference_generic_rank_oracle(g, dim, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Max rigidity-matrix rank over seeded random integer placements,
    stopping only at min(|E|, required rank)."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    ceiling = min(len(g.edges), required_rank(dim, len(g.vertices)))
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        positions = _positions(g.vertices, dim, rng)
        best = max(best, rigidity.rigidity_rank_once(g, dim, positions))
        if best >= ceiling:
            break
    return best
