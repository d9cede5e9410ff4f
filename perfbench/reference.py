"""Fixed reference work that measures how fast the host runs right now.

The benchmark host is shared: its speed for the same Python code drifts
by up to 1.5x over minutes, which would swamp any change to metaform.
The worker times this function after every op and scales each pass's op
times by NOMINAL_S / (median reference time in that pass).  The work
mixes what the ops do (interpreted arithmetic, small sets and lists,
numpy modular row elimination) and never touches metaform, so a change
to the program cannot move it.  Do not edit it: that would rescale every
time the benchmark reports.
"""
from __future__ import annotations

import itertools
import random
import time

import numpy as np

# Median reference time on a quiet 2-core host; scaled times read as
# seconds on such a host.
NOMINAL_S = 0.006

_P = 2**31 - 1
_rng = random.Random(0)
_EDGES = [tuple(sorted(_rng.sample(range(12), 2))) for _ in range(30)]
_MATRIX = np.array(
    [[_rng.randrange(1, _P) for _ in range(48)] for _ in range(40)], dtype=np.int64
)


def _work() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    for subset in itertools.combinations(range(12), 5):
        inside = set(subset)
        total += len([e for e in _EDGES if e[0] in inside and e[1] in inside])
    a = _MATRIX.copy()
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, _P) % _P
        a[r + 1 :, c:] = (a[r + 1 :, c:] - a[r + 1 :, c][:, None] * a[r, c:]) % _P
        r += 1
    return total + r


def timed() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
