"""The earlier 3D head-search leaf test, kept as a reference.

The merge planner ranked each leaf by ``FixedBaseRank.first_full_rank``:
the members' internal rows reduced into one basis per rank-oracle trial,
and each leaf's inter-edge rows reduced against it and ranked, a chunk of
leaves per ``batch_rank_mod_p`` call.  It gives ``generic_rank_oracle``'s
verdict on any base plus any extra edges, so it is the reference for
the two-body ``BodyBarRank``.  The query is unchanged; the class still
serves 3D terminals and the spanning set in ``metaform.rigidity``.
"""
import numpy as np

from metaform.rigidity import FixedBaseRank


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
