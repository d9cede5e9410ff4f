"""``rank_at`` and ``_positions`` against their frozen copies.

The live peel tests each vertex on its coordinates with one closed-form
helper and returns as soon as the adjacency is empty; the live
placement draws every coordinate in one flat loop.  The references in
``rank_at_reference`` built each vertex's rows as lists and drew the
coordinates vertex by vertex.  At each trial both sides must give the
same placement and leave their streams at the same point (the next
draw agrees), the same rank, and the same remainder in ``adj``, which
``generic_rank_oracle`` reads for its core ceiling.  Coordinates from
{1..k} with k in 2..5 make singular blocks common, so vertices stay in
the remainder and the certificate and the elimination run too.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metaform import rigidity
from metaform.rigidity import _positions, rank_at

import rank_at_reference as reference
from test_peel_differential import CASES, COORD_RANGES, graphs

TRIALS = 3


def assert_trials_match(g, dim, seed):
    live, frozen = random.Random(seed), random.Random(seed)
    for _ in range(TRIALS):
        positions = _positions(g.vertices, dim, live)
        assert positions == reference._positions(g.vertices, dim, frozen)
        assert live.getrandbits(32) == frozen.getrandbits(32)
        left, frozen_left = g.adjacency(), g.adjacency()
        assert rank_at(g, dim, positions, left) == reference.rank_at(
            g, dim, positions, frozen_left
        )
        assert left == frozen_left


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("coord_range", COORD_RANGES)
def test_rank_and_remainder_match_the_frozen_peel(name, coord_range, monkeypatch):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    for dim, seed in itertools.product((2, 3), (0, 11)):
        assert_trials_match(CASES[name], dim, seed)


@settings(max_examples=200, deadline=None)
@given(
    g=graphs(),
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    coord_range=st.sampled_from(COORD_RANGES),
)
def test_random_graphs_match_the_frozen_peel(g, dim, seed, coord_range):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "COORD_RANGE", coord_range)
        assert_trials_match(g, dim, seed)


def test_some_trials_leave_a_remainder(monkeypatch):
    """The comparison of remainders is not vacuous: at range 2 some trials
    leave vertices in ``adj``, and at 2^20 a vertex-addition graph leaves
    none."""

    def remainder_sizes(g):
        rng = random.Random(0)
        sizes = []
        for _ in range(TRIALS):
            left = g.adjacency()
            rank_at(g, 3, _positions(g.vertices, 3, rng), left)
            sizes.append(len(left))
        return sizes

    assert remainder_sizes(CASES["grown-60"]) == [0] * TRIALS
    monkeypatch.setattr(rigidity, "COORD_RANGE", 2)
    assert max(remainder_sizes(CASES["grown-20"])) > 0
