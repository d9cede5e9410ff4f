"""Trial placements against ``random.randint``.

``rigidity._positions`` draws each coordinate with ``getrandbits`` and
rejects values of ``COORD_RANGE`` and above, as ``randint(1,
COORD_RANGE)`` does; the reference is that call, one per coordinate in
vertex order.  Both must leave the stream in the same state, so several
trials drawn from one stream must agree too, at every range, including
the small ones the tests use to force degenerate placements.
"""
import random

import pytest

from metaform import rigidity
from metaform.rigidity import _positions, trial_placements


def reference_positions(vertices, dim, rng):
    return {v: tuple(rng.randint(1, rigidity.COORD_RANGE) for _ in range(dim)) for v in vertices}


@pytest.mark.parametrize("coord_range", [1, 2, 3, 2**20])
@pytest.mark.parametrize("dim", [2, 3])
def test_positions_match_randint(monkeypatch, dim, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    for seed in range(60):
        vertices = random.Random(-seed).sample(range(100), seed % 13)
        got, expected = random.Random(seed), random.Random(seed)
        for _ in range(4):
            placed = _positions(vertices, dim, got)
            assert placed == reference_positions(vertices, dim, expected)
            assert all(1 <= x <= coord_range for p in placed.values() for x in p)
        assert got.getstate() == expected.getstate()


@pytest.mark.parametrize("coord_range", [3, 2**10])
def test_range_is_read_at_each_call(monkeypatch, coord_range):
    """A range set between two trials of one stream holds from the next."""
    placements = trial_placements((1, 2, 3), 3, seed=5)
    rng = random.Random(5)
    assert next(placements) == reference_positions((1, 2, 3), 3, rng)
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    second = next(placements)
    assert second == reference_positions((1, 2, 3), 3, rng)
    assert max(max(p) for p in second.values()) <= coord_range
