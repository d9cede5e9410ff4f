"""The earlier fixed-base ranker and 3D terminal walk, kept as references.

``FixedBaseRank`` reduced a fixed base edge set into an
``IncrementalRank`` once per rank-oracle trial, row by row, and each
extra edge's row against it, and ranked extra edge sets on the columns
that hold no base pivot, a batch per ``batch_rank_mod_p`` call, with
zero rows padding the shorter sets.  It served three callers, each now
on its own path, and is copied here unchanged, with the terminal walk
that used it:

- ``_first_nonrigid_terminal_3d`` ranked 3D terminals on it.  It is the
  reference for ``metaform.persistence``'s walk, which reduces the base
  and the extra rows in one ``reduce_mod_p`` call per trial.
- ``trial(t).kept`` gave the 3D spanning set, as ``merge_reference``'s
  copy of the earlier ``minimally_rigid_spanning`` still reads it.
- The merge planner ranked each 3D head-search leaf by
  ``first_full_rank``: the members' internal rows as the base, and each
  leaf's inter-edges as the extra rows.  It gives
  ``generic_rank_oracle``'s verdict on any base plus any extra edges, so
  ``ReferenceRank`` is the reference for the two-body ``BodyBarRank``.
"""
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from metaform.errors import InputError
from metaform.graph import Edge, UndirectedView
from metaform.persistence import TERMINAL_BATCH_SIZE, TerminalSubgraphs
from metaform.rigidity import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    batch_rank_mod_p,
    generic_rank_oracle,
    required_rank,
    rigidity_matrix_rows,
)

from incremental_rank_reference import IncrementalRank
from rank_at_reference import _positions


def trial_placements(vertices, dim: int, seed: int = DEFAULT_SEED):
    """The placements of trials 0, 1, 2, ... of the rank oracle, in order:
    one ``random.Random(seed)`` stream, drawn in vertex order.  A frozen
    copy of the unbounded stream the library drew before ``Placements``
    bounded it at ``trials``."""
    rng = random.Random(seed)
    while True:
        yield _positions(vertices, dim, rng)


@dataclass
class BaseTrial:
    """A ``FixedBaseRank``'s base edge set, reduced at one trial's placement."""

    positions: dict[int, tuple[int, ...]]
    basis: IncrementalRank
    # Base edges whose rows entered the basis, in base order.
    kept: tuple[Edge, ...]
    # Columns that hold no basis pivot: reduced rows are zero elsewhere.
    free: np.ndarray
    # Extra edge -> its row reduced against the basis, on the free columns.
    reduced: dict[Edge, np.ndarray] = field(default_factory=dict)


class FixedBaseRank:
    """Rank oracle for one fixed base edge set plus a few extra edges.

    Serves 3D terminals (``trial`` and ``extra_ranks``) and the 3D
    spanning set (``trial(t).kept``).  Trial t places the vertices exactly
    as ``generic_rank_oracle``'s trial t does (``trial_placements`` over
    g's vertex order), and every rank is exact over GF(p).  The base rows
    are reduced into an ``IncrementalRank`` once per trial, in base order,
    until they reach full rank, and each extra edge's row is reduced
    against them once per trial, so a query only eliminates its own few
    rows, restricted to the columns that hold no base pivot.
    ``extra_ranks`` ranks many extra edge sets at one trial in one batch.
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
        self._placements = trial_placements(g.vertices, dim, seed)
        self._trials: list[BaseTrial] = []

    def trial(self, t: int) -> BaseTrial:
        """Trial t's reduced base, built at first use.

        No placement's rank exceeds the target, so once the basis reaches
        it no later base row is independent, and none is reduced.
        """
        while len(self._trials) <= t:
            positions = next(self._placements)
            basis = IncrementalRank(self.dim * len(self.g.vertices))
            kept = []
            rows = rigidity_matrix_rows(self.g.edges, positions, self._col_of, self.dim)
            for e, row in zip(self.g.edges, rows):
                if basis.rank == self.target:
                    break
                if basis.try_add(row):
                    kept.append(e)
            free = np.array(
                [c for c in range(basis.ncols) if c not in basis.basis], dtype=np.intp
            )
            self._trials.append(BaseTrial(positions, basis, tuple(kept), free))
        return self._trials[t]

    def extra_ranks(self, t: int, extras) -> np.ndarray:
        """The rank each extra edge set adds to the base at trial t.

        Each set's reduced rows are ranked, all sets in one
        ``batch_rank_mod_p`` call; shorter sets are padded with zero rows,
        which add no rank.
        """
        trial = self.trial(t)
        slot = {}
        for extra in extras:
            for e in extra:
                if e not in trial.reduced:
                    row = rigidity_matrix_rows([e], trial.positions, self._col_of, self.dim)[0]
                    trial.reduced[e] = trial.basis.reduce(row)[trial.free]
                slot.setdefault(e, len(slot))
        # Row len(slot) of the table is the zero padding row.
        table = np.stack(
            [trial.reduced[e] for e in slot] + [np.zeros(trial.free.size, dtype=np.int64)]
        )
        index = np.full((len(extras), max(map(len, extras), default=0)), len(slot), dtype=np.intp)
        for k, extra in enumerate(extras):
            index[k, : len(extra)] = [slot[e] for e in extra]
        return batch_rank_mod_p(table[index])


def _first_nonrigid_terminal_3d(
    vertices: tuple[int, ...], terminals: TerminalSubgraphs, seed: int, trials: int
) -> int | None:
    """Index of the first terminal on ``vertices`` that ``rigid_3d_check``
    finds not rigid, or None.

    Every terminal keeps min(d+, 3) edges per vertex, so all share one
    edge count and the edge-count exit decides all of them at once.  On
    at most 4 vertices no vertex has more than 3 out-edges, so there is
    one terminal, and with 3n - 6 = C(n, 2) edges it is complete: a
    simplex, rigid without the rank oracle.  One terminal on more
    vertices is decided by the rank oracle, as ``rigid_3d_check`` decides
    it.  Otherwise a terminal is rigid when some trial's rank reaches
    3n - 6: the base's rank at that trial plus the rank its extra edges
    add.  Each batch of terminals goes on to the next trial with only the
    terminals still short of full rank.
    """
    target = required_rank(3, len(vertices))
    if sum(len(block[0]) for block in terminals.blocks) < target:
        return 0
    if len(vertices) <= 4:
        return None
    if len(terminals) == 1:
        g = UndirectedView(vertices, terminals[0])
        return None if generic_rank_oracle(g, 3, seed=seed, trials=trials) == target else 0
    fixed = [e for block in terminals.blocks if len(block) == 1 for e in block[0]]
    ranker = FixedBaseRank(UndirectedView(vertices, tuple(fixed)), 3, seed=seed, trials=trials)
    # Single-choice blocks add digit 0 only, so product order over the
    # other blocks is terminal order.
    pending = itertools.product(*(block for block in terminals.blocks if len(block) > 1))
    start = 0
    while batch := [
        tuple(itertools.chain(*choice))
        for choice in itertools.islice(pending, TERMINAL_BATCH_SIZE)
    ]:
        short = np.arange(len(batch))
        for t in range(trials):
            need = target - ranker.trial(t).basis.rank
            short = short[ranker.extra_ranks(t, [batch[i] for i in short]) < need]
            if not short.size:
                break
        if short.size:
            return start + int(short[0])
        start += len(batch)
    return None



class ReferenceRank(FixedBaseRank):
    def first_full_rank(self, leaves) -> int | None:
        """Index of the first extra edge set that reaches full rank, or None.

        A set reaches full rank when some trial does.  Trial t can find a
        set before the one an earlier trial found, so each trial ranks
        every set still ahead of the best index so far.  Sets shorter than
        a trial's missing rank cannot close it and are not ranked.
        """
        leaves = [[(min(e), max(e)) for e in extra] for extra in leaves]
        ahead = [
            i for i, extra in enumerate(leaves)
            if len(self.g.edges) + len(extra) >= self.target
        ]
        best = None
        for t in range(self.trials):
            if not ahead:
                break
            need = self.target - self.trial(t).basis.rank
            if need == 0:
                return ahead[0]
            ranked = [i for i in ahead if len(leaves[i]) >= need]
            if not ranked:
                continue
            hits = np.flatnonzero(self.extra_ranks(t, [leaves[i] for i in ranked]) == need)
            if hits.size:
                best = ranked[hits[0]]
                ahead = [i for i in ahead if i < best]
        return best
