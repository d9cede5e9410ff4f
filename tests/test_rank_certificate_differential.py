"""The remainder certificate: where it decides, and what it leaves.

After the exact peel, ``rank_at`` tries to certify the remainder R at
its ceiling min(|E(R)|, required_rank(dim, |R|)): vertices leave least
degree first, each keeping a maximal set of its rows independent on its
own columns and dropping the others, and R's rank is at least |E(R)|
minus the rows dropped.  ``test_peel_differential`` compares every trial
with the whole matrix; these tests check that its corpus reaches both
answers of the certificate, that braced 3D members are certified with
no elimination, and that ``adj`` comes back as the peel left it.
"""
import pytest

from metaform import rigidity
from metaform.rigidity import Placements, rank_at

from test_peel_differential import CASES, COORD_RANGES, peeled_ranks, reference_ranks


def certificate_outcomes(monkeypatch):
    """What each call of the certificate answered."""
    answers = []
    original = rigidity._reaches_ceiling

    def spy(*args):
        answers.append(original(*args))
        return answers[-1]

    monkeypatch.setattr(rigidity, "_reaches_ceiling", spy)
    return answers


@pytest.mark.parametrize("coord_range", COORD_RANGES)
def test_certificate_both_decides_and_gives_up(coord_range, monkeypatch):
    """The corpus reaches both answers at every range, so the comparison
    in ``test_peel_differential`` covers certified remainders and
    eliminated ones."""
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    answers = certificate_outcomes(monkeypatch)
    for g in CASES.values():
        for dim in (2, 3):
            peeled_ranks(g, dim, 0)
    assert True in answers and False in answers


def test_braced_3d_members_are_certified(monkeypatch):
    """At generic coordinates every 3D braced case here is certified at
    every trial, with no ``rank_mod_p`` call, as the benchmark's braced
    members are.  Least degree first is not optimal in general: the 2D
    cases braced-2d-12-3 and braced-2d-20-4 give up and are eliminated."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a braced vertex-addition graph reached rank_mod_p")

    answers = certificate_outcomes(monkeypatch)
    monkeypatch.setattr(rigidity, "rank_mod_p", forbidden)
    for name, g in CASES.items():
        if name.startswith("braced-3d-"):
            assert peeled_ranks(g, 3, 0) == reference_ranks(g, 3, 0)
    assert len(answers) == 3 * 12 and all(answers)


@pytest.mark.parametrize("coord_range", [3, 2**20])
@pytest.mark.parametrize("name", ["banana", "braced-3d-20-3", "four-bar-24", "k7"])
def test_adjacency_keeps_what_the_peel_left(name, coord_range, monkeypatch):
    """``adj`` comes back as it does when the certificate always gives up:
    the exact peel's remainder, which ``generic_rank_oracle`` takes its
    core ceiling from."""
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    g = CASES[name]
    for positions in Placements(5, 3).of(g.vertices, 3):
        certified = g.adjacency()
        rank = rank_at(g, 3, positions, certified)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rigidity, "_reaches_ceiling", lambda *args: False)
            eliminated = g.adjacency()
            assert rank_at(g, 3, positions, eliminated) == rank
        assert certified == eliminated
