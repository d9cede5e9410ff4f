"""The merge theorem in 3D, against the full persistence criterion.

A merge of persistent members whose inter-edges all leave vertices with
enough local DOFs (a compliant merge) is persistent exactly when it is
rigid.  ``merged_persistence`` decides a rigid compliant merge from that
alone, without a terminal; ``is_persistent`` on the flattened graph
decides it from every terminal.  Both must give the same verdict,
structural and minimal persistence and ledger.

Members have up to 20 vertices: singletons, pairs, triangles, K5 and
dense vertex-addition members, some with vertices of out-degree 4, so
that the flattened graph has many terminals (at most
``TERMINAL_LIMIT``).  Inter-edges leave vertices with spare local DOFs
and number around the merge bound, so both rigid and not-rigid merges
occur.
"""
import random

from hypothesis import given, settings, strategies as st

from metaform.graph import Formation, MetaFormation
from metaform.meta import merge_bound, meta_rigid, size_classes
from metaform.persistence import (
    is_persistent,
    ledger,
    local_dof_compliance,
    merged_persistence,
    terminal_subgraphs,
)

from conftest import complete, pair, shift, singleton, triangle
from test_persistence_peel_differential import acyclic_dense

TERMINAL_LIMIT = 2000
KEYS = ("persistent", "structurallyPersistent", "minimallyPersistent", "ledger")


def member(rng: random.Random, base: int) -> Formation:
    """A persistent 3D member on ids base, base + 1, ..."""
    roll = rng.random()
    if roll < 0.1:
        return singleton(base)
    if roll < 0.2:
        return pair(base, base + 1)
    if roll < 0.3:
        return triangle(base)
    if roll < 0.45:
        return complete(5, base)
    n = rng.randint(5, 20)
    return shift(acyclic_dense(n, 3, rng.randint(0, min(2, n - 4)), rng), base - 1)


def compliant_meta(rng: random.Random) -> MetaFormation:
    """Two or three members joined by inter-edges from spare local DOFs."""
    count, members, base = rng.randint(2, 3), [], 1
    while len(members) < count or base <= 3:
        members.append(member(rng, base))
        base += len(members[-1].vertices)
    owner = {v: i for i, f in enumerate(members) for v in f.vertices}
    spare = {v: d for f in members for v, d in ledger(f, 3).dof.items() if d}
    bound = merge_bound(size_classes(MetaFormation(meta_vertices=tuple(members)), 3))
    joined, inter = set(), []
    for _ in range(max(1, bound + rng.randint(-2, 1))):
        tails = [v for v, d in spare.items() if d]
        if not tails:
            break
        t = rng.choice(tails)
        heads = [h for h in owner if owner[h] != owner[t] and frozenset((t, h)) not in joined]
        if not heads:
            break
        h = rng.choice(heads)
        spare[t] -= 1
        joined.add(frozenset((t, h)))
        inter.append((t, h))
    return MetaFormation(meta_vertices=tuple(members), inter_edges=tuple(inter))


def merge(seed: int) -> MetaFormation:
    """The first compliant meta from ``seed``'s stream with at most
    ``TERMINAL_LIMIT`` terminals."""
    rng = random.Random(seed)
    while True:
        meta = compliant_meta(rng)
        if len(terminal_subgraphs(meta.flatten(), 3, cap=10**9)) <= TERMINAL_LIMIT:
            return meta


def verdicts(meta: MetaFormation, seed: int, trials: int):
    """The rigid-compliant verdict and the full criterion's, and whether
    the merge is rigid."""
    assert local_dof_compliance(meta, 3)[0]
    flat = meta.flatten()
    rigid = meta_rigid(meta, 3, seed=seed, trials=trials).rigid
    fast = merged_persistence(flat, 3, rigid, True, seed, trials).to_dict()
    full = is_persistent(flat, 3, seed=seed, trials=trials).to_dict()
    return {k: fast[k] for k in KEYS}, {k: full[k] for k in KEYS}, rigid


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), oracle_seed=st.integers(0, 9), trials=st.integers(1, 3))
def test_rigid_compliant_merge_is_persistent_as_the_terminals_say(seed, oracle_seed, trials):
    fast, full, _ = verdicts(merge(seed), oracle_seed, trials)
    assert fast == full


def test_cases_reach_the_theorem():
    """Most merges are rigid, several with many terminals, and some are not."""
    rigid = many = 0
    for seed in range(40):
        meta = merge(seed)
        fast, full, is_rigid = verdicts(meta, 0, 3)
        assert fast == full
        terminals = len(terminal_subgraphs(meta.flatten(), 3))
        rigid += is_rigid
        many += is_rigid and terminals > 1
    assert rigid >= 10 and many >= 5 and rigid < 40
