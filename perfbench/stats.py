"""Percentile selection shared by the worker and the tests."""
from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile in LADDER with at least ``beyond`` samples above it.

    Nearest-rank: the q-th percentile of n sorted samples is the one at
    rank ceil(q/100 * n), and n minus that rank samples lie beyond it.
    Returns (q, value, samples beyond).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= beyond:
            return q, ordered[rank - 1], n - rank
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
