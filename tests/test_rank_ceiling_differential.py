"""The rank oracle's core ceiling against the oracle without it.

``generic_rank_oracle`` stops once its best trial reaches
min(|E|, required rank) or, after a first trial short of that, the
ceiling of the (dim + 1)-core C: (|E| - |E(C)|) + min(|E(C)|,
required_rank(dim, |C|)), or |E| when C is empty.  Peeling a vertex with
d edges lowers the rank by at most d at any placement, so no trial
exceeds that ceiling, and the oracle must return what
``rank_oracle_reference.reference_generic_rank_oracle`` returns on every
graph, seed, trial count and coordinate range.  It must also stop exactly
at the first trial that reaches the ceiling, computed here by deleting
low-degree vertices one round at a time, so a ceiling set too high (as
with the whole graph's required rank in place of the core's) runs
trials it need not, and one set too low stops short.

Cases: random graphs on n <= 14 in 2D and 3D, with coordinates drawn
from 1..2^20, 1..3 and 1..2 (degenerate placements, where later trials
find more rank), and trials 1-4; grown, four-bar and banana-based graphs
on n = 20-120.  A banana core with grown vertices hanging off it hides
its flex from the ceiling, so the oracle must run every trial on it.
"""
import itertools
import random
from collections import Counter

import pytest

from metaform import rigidity
from metaform.generate import banana
from metaform.rigidity import Placements, generic_rank_oracle, required_rank

from conftest import count_calls
from rank_oracle_reference import reference_generic_rank_oracle
from test_screens_differential import four_bar, grown, random_graph, view


def core_ceiling(g, dim):
    """The ceiling from the (dim + 1)-core, which is found by deleting every
    vertex of degree dim or less, round after round."""
    vs, es = set(g.vertices), list(g.edges)
    while True:
        degree = Counter(v for e in es for v in e)
        low = {v for v in vs if degree[v] <= dim}
        if not low:
            break
        vs -= low
        es = [e for e in es if e[0] in vs and e[1] in vs]
    if not vs:
        return len(g.edges)
    return len(g.edges) - len(es) + min(len(es), required_rank(dim, len(vs)))


def trial_ranks(g, dim, seed, trials):
    """The rank of each trial, at the oracle's placements."""
    placements = Placements(seed, trials).of(g.vertices, dim)
    return [rigidity.rigidity_rank_once(g, dim, positions) for positions in placements]


def expected_trials(g, dim, seed, trials):
    """Trials up to the first whose best rank reaches the ceiling, or all."""
    ceiling = min(len(g.edges), required_rank(dim, len(g.vertices)), core_ceiling(g, dim))
    ranks = trial_ranks(g, dim, seed, trials)
    return next((t for t in range(1, trials + 1) if max(ranks[:t]) >= ceiling), trials)


def check(monkeypatch, g, dim, seed, trials):
    """Compare with the reference and the expected stop; return (trials
    run, rank)."""
    with monkeypatch.context() as m:
        calls = count_calls(m, "rigidity_rank_once", rigidity.rigidity_rank_once)
        rank = generic_rank_oracle(g, dim, seed=seed, trials=trials)
    ran = len(calls)
    assert rank == reference_generic_rank_oracle(g, dim, seed=seed, trials=trials)
    assert ran == expected_trials(g, dim, seed, trials)
    return ran, rank


def cored(n, rng, labels):
    """A dense random core on 5-9 vertices with the rest hanging off it, each
    joined to 1-3 earlier vertices: the core holds more edges than rank."""
    k = min(n, rng.randint(5, 9))
    core = random_graph(k, rng.uniform(0.6, 1.0), rng, labels[:k])
    vs, edges = list(core.vertices), list(core.edges)
    for v in labels[k:]:
        edges += [(t, v) for t in rng.sample(vs, min(len(vs), rng.randint(1, 3)))]
        vs.append(v)
    return view(vs, edges)


def small_graphs():
    rng = random.Random(20260101)
    graphs = []
    for i in range(40):
        n = rng.randint(2, 14)
        labels = rng.sample(range(1, 100), n)
        if i % 2:
            g = cored(n, rng, labels)
        else:
            g = random_graph(n, rng.uniform(0.3, 0.9), rng, labels)
        graphs.append((g, rng.randint(0, 999)))
    return graphs


SMALL = small_graphs()


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
def test_small_graphs_match_the_reference(monkeypatch, coord_range):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    early = late = later = 0
    for (g, seed), dim, trials in itertools.product(SMALL, (2, 3), (1, 2, 3, 4)):
        ran, rank = check(monkeypatch, g, dim, seed, trials)
        old_ceiling = min(len(g.edges), required_rank(dim, len(g.vertices)))
        # Stopped by the core ceiling alone, before the last trial, and
        # after the first.
        early += ran < trials and rank < old_ceiling
        late += 1 < ran < trials and rank < old_ceiling
        # A later trial found more rank than the first.
        later += rank > trial_ranks(g, dim, seed, 1)[0]
    assert early >= 5
    if coord_range < 2**20:
        assert late >= 1 and later >= 20


def banana_grown(n, rng):
    """The double banana with vertices 9..n added, each joined to 3 earlier
    ones: its core is the banana, whose hinge the ceiling cannot see."""
    g = banana().underlying()
    vs, edges = list(g.vertices), list(g.edges)
    for v in range(9, n + 1):
        edges += [(t, v) for t in rng.sample(vs, 3)]
        vs.append(v)
    return vs, edges


def large_graphs():
    rng = random.Random(20260102)
    graphs = {}
    for n in (20, 47, 120):
        graphs[f"grown-{n}"] = grown(n, rng)
        graphs[f"four-bar-{n}"] = four_bar(n, rng)
        graphs[f"banana-grown-{n}"] = banana_grown(n, rng)
    return {name: view(*g) for name, g in graphs.items()}


LARGE = large_graphs()


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_graphs_match_the_reference(monkeypatch, name):
    g = LARGE[name]
    n = len(g.vertices)
    for trials in (1, 2, 3, 4):
        ran, rank = check(monkeypatch, g, 3, trials, trials)
        if name.startswith("grown"):
            assert (ran, rank) == (1, 3 * n - 6)
        elif name.startswith("four-bar"):
            # The K5 core's full rank is the ceiling: one trial.
            assert (ran, rank) == (1, 3 * n - 7)
        else:
            assert (ran, rank) == (trials, 3 * n - 7)
