"""The earlier greedy row keepers over GF(p), kept as references.

``IncrementalRank`` held a row-echelon basis of numpy rows, one per
pivot column, and reduced each new row against every basis row; the 3D
spanning set kept its edges with one per trial.  ``_greedy_independent``
kept ``BodyBarRank``'s bars, rows of Python ints, in one list-based
loop.  Now the spanning set takes ``_eliminate``'s pivot columns, and
``metaform.rigidity``'s ``IncrementalRank`` is that list-based loop, one
``try_add`` per bar.  The references that read ``basis``, ``reduce`` and
``ncols`` run these copies, unchanged, and never the code under test.
"""
import numpy as np

from metaform.rigidity import RANK_MODULUS


class IncrementalRank:
    """Row-echelon basis over GF(p) supporting independence queries."""

    def __init__(self, ncols: int, p: int = RANK_MODULUS):
        self.p = p
        self.ncols = ncols
        self.basis: dict[int, np.ndarray] = {}  # pivot column -> reduced row

    def reduce(self, row: np.ndarray) -> np.ndarray:
        """Row minus basis rows, zero in every pivot column; zero iff in the span."""
        p = self.p
        row = row % p
        for col, brow in self.basis.items():
            f = row[col]
            if f:
                row = (row - f * brow) % p
        return row

    def try_add(self, row: np.ndarray) -> bool:
        """Add row if independent of the current basis; report success."""
        red = self.reduce(row)
        nz = red.nonzero()[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = pow(int(red[col]), -1, self.p)
        red = (red * inv) % self.p
        self.basis[col] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)


def _greedy_independent(rows, limit: int, p: int = RANK_MODULUS) -> list[int]:
    """Indices of the integer rows kept greedily over GF(p), at most ``limit``.

    A row is kept when it does not reduce to zero against the pivots of
    the rows kept before it; the scan stops once ``limit`` rows are kept.
    """
    kept = []
    pivots = []  # (column, row scaled to 1 there and zero at earlier pivots)
    for k, row in enumerate(rows):
        if len(kept) == limit:
            break
        row = [x % p for x in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            inv = pow(row[col], -1, p)
            pivots.append((col, [x * inv % p for x in row]))
            kept.append(k)
    return kept
