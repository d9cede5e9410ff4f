"""3D terminals ranked against one reduced base per trial, against the
earlier fixed-base walk.

``is_persistent`` decides a 3D core's terminals with one ``reduce_mod_p``
call per trial: it eliminates the single-choice edges' rows and reduces
every multi-choice edge's row against them.  The reference is
``fixed_base_reference``'s copy of the earlier walk, which reduced the
base row by row into an ``IncrementalRank`` and each extra edge's row
against it.  Both run on the same core, after the same peel, and place
its vertices the same way.  The earlier walk took the core's terminals
and returned an index; ``frozen_walk`` adapts it to the decider's
blocks in and choices out.  Ranks over GF(p) are exact, and every
echelon form of the base gives the extra rows the same rank, so the
reports must be equal, also at coordinate ranges of 3 and 2, where
placements are often degenerate.
"""
import random

import pytest

from metaform import persistence, rigidity
from metaform.persistence import TerminalSubgraphs, is_persistent, terminal_subgraphs

import fixed_base_reference
from conftest import back_braced, count_calls
from test_persistence_peel_differential import acyclic_dense, dangler, random_digraph

TERMINAL_LIMIT = 3000


def frozen_walk(vertices, blocks, placements):
    """The earlier walk's first failing index, as one choice per block."""
    index = fixed_base_reference._first_nonrigid_terminal_3d(
        vertices, TerminalSubgraphs(blocks), placements.seed, placements.trials
    )
    if index is None:
        return None
    choices = []
    for block in reversed(blocks):
        index, choice = divmod(index, len(block))
        choices.append(choice)
    return choices[::-1]


def reports(monkeypatch, f, **kwargs):
    """``is_persistent``'s report, and the report with the earlier walk."""
    got = is_persistent(f, 3, **kwargs).to_dict()
    with monkeypatch.context() as m:
        m.setattr(persistence, "_first_nonrigid_terminal_3d", frozen_walk)
        expected = is_persistent(f, 3, **kwargs).to_dict()
    return got, expected


def cases(rng):
    """Back-braced dense cores, with and without a dangler, and random
    digraphs on 5-10 vertices, each with at most ``TERMINAL_LIMIT``
    terminals."""
    for _ in range(40):
        f = back_braced(acyclic_dense(rng.randint(8, 16), 3, rng.randint(1, 4), rng), 3)
        yield f
        yield dangler(f, 3, rng)
    found = 0
    while found < 300:
        f = random_digraph(rng, rng.randint(5, 10))
        if len(terminal_subgraphs(f, 3, cap=10**9)) <= TERMINAL_LIMIT:
            found += 1
            yield f


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
def test_reduced_base_matches_fixed_base_walk(monkeypatch, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    calls = count_calls(monkeypatch, "reduce_mod_p", rigidity.reduce_mod_p)
    rng = random.Random(f"reduced-base:{coord_range}")
    persistent = failing = 0
    for f in cases(rng):
        kwargs = {"seed": rng.randint(0, 9), "trials": rng.randint(1, 3)}
        before = len(calls)
        got, expected = reports(monkeypatch, f, **kwargs)
        assert got == expected, (f, kwargs)
        if len(calls) > before:
            persistent += got["persistent"]
            failing += not got["persistent"]
    # Enough cases reach the reduction, with both verdicts.
    assert persistent >= 10 and failing >= 50
