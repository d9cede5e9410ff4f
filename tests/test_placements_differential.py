"""Trial placements against ``random.randint``, and the rankers that share them.

``rigidity._positions`` draws each coordinate with ``getrandbits`` and
rejects values of ``COORD_RANGE`` and above, as ``randint(1,
COORD_RANGE)`` does; the reference is that call, one per coordinate in
vertex order.  Both must leave the stream in the same state, so several
trials drawn from one stream must agree too, at every range, including
the small ones the tests use to force degenerate placements.
``Placements(seed, trials).of`` must yield exactly ``trials`` of them,
from one ``random.Random(seed)`` stream, and reject ``trials`` below 1
when it is made.

Every 3D ranker draws its trials from ``Placements``, so trial t places
a graph's vertices alike in each of them.  Then the spanning set exists
exactly when the rank oracle finds the graph rigid, trial by trial, also
at coordinate ranges small enough that many placements are degenerate
and only some trials reach full rank.
"""
import random

import pytest

from metaform import rigidity
from metaform.errors import InputError, NotRigidError
from metaform.graph import UndirectedView
from metaform.rigidity import (
    Placements,
    _positions,
    minimally_rigid_spanning,
    required_rank,
    rigid_3d_check,
)


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
    placements = Placements(5, 2).of((1, 2, 3), 3)
    rng = random.Random(5)
    assert next(placements) == reference_positions((1, 2, 3), 3, rng)
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    second = next(placements)
    assert second == reference_positions((1, 2, 3), 3, rng)
    assert max(max(p) for p in second.values()) <= coord_range


@pytest.mark.parametrize("trials", [1, 2, 3, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_placements_are_one_stream_cut_at_trials(dim, trials):
    for seed in range(20):
        vertices = tuple(random.Random(-seed).sample(range(50), seed % 9))
        rng = random.Random(seed)
        expected = [reference_positions(vertices, dim, rng) for _ in range(trials)]
        assert list(Placements(seed, trials).of(vertices, dim)) == expected


def test_placements_draw_on_demand(monkeypatch):
    """Nothing is drawn until a trial is asked for, and each trial once."""
    drawn = []

    def counted(vertices, dim, rng):
        drawn.append(vertices)
        return _positions(vertices, dim, rng)

    monkeypatch.setattr(rigidity, "_positions", counted)
    placements = Placements(0, 3).of((1, 2), 3)
    assert drawn == []
    next(placements)
    assert len(drawn) == 1


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_raise_when_made(trials):
    with pytest.raises(InputError, match=r"^trials must be >= 1$"):
        Placements(0, trials)


def random_graph(rng):
    """3 to 9 vertices, with an edge count around 3n - 6."""
    n = rng.randint(3, 9)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    m = max(0, min(len(pairs), 3 * n - 6 + rng.randint(-2, 4)))
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    return UndirectedView(tuple(vertices), tuple(sorted(rng.sample(pairs, m))))


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("coord_range", [2, 3, 5, 2**20])
def test_spanning_exists_exactly_when_the_oracle_says_rigid(monkeypatch, coord_range, trials):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    rng = random.Random(f"placements:{coord_range}:{trials}")
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng)
        seed = rng.randint(0, 99)
        rigid = rigid_3d_check(g, seed=seed, trials=trials).rigid
        verdicts.add(rigid)
        try:
            kept = minimally_rigid_spanning(g, 3, seed=seed, trials=trials)
        except NotRigidError:
            assert not rigid, (g, seed)
            continue
        assert rigid, (g, seed)
        assert len(kept) == required_rank(3, len(g.vertices)) and set(kept) <= set(g.edges)
        spanning = rigid_3d_check(UndirectedView(g.vertices, kept), seed=seed, trials=trials)
        assert spanning.minimally_rigid
    assert verdicts == {True, False}
