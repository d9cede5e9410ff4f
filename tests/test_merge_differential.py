"""``check-meta``'s one-pass merge decision against the earlier two-pass one.

``meta._decide_merge`` now keeps inter-edges greedily against the
gadgets in one pass: a pebble game in 2D, a ``BodyBarRank`` in 3D.  The
reference, ``merge_reference._decide_merge``, ran ``check_rigidity`` on
the gadget-substituted graph and then ``minimally_rigid_spanning`` with
the gadgets as fixed edge sets.  Where the two passes disagreed (full
rank at a trial where some gadget was degenerate) the reference blamed
the input and exited 2; the one pass says not rigid there.  Everywhere
else both must print the same stdout and stderr and exit alike.

Metas have two to four members: points, rods (3D: sometimes without
their edge), K5-K7, vertex-addition members of up to 80 vertices, and
danglers (rigid, not persistent), joined by inter-edges around the merge
bound that mostly leave local DOFs.  Coordinates from {1, 2} or {1, 2, 3}
place vertices degenerately at many trials.
"""
import contextlib
import io
import json
import random

import pytest

import merge_reference
from metaform import meta, rigidity
from metaform.cli import main
from metaform.errors import MetaformError
from metaform.graph import Formation, MetaFormation
from metaform.meta import merge_bound, size_classes

from conftest import complete, pair, singleton
from test_bench_corpora import corpus
from test_check_meta_differential import dangler, orient, reoriented, terminal_count

CORNER = (
    '{"metaVertices":[{"vertices":[1,2,3,4],"edges":[[2,1],[3,1],[3,2],[4,1],[4,2],[4,3]]},'
    '{"vertices":[5,6,7,8,9,10],"edges":[[6,5],[7,5],[8,5],[9,5],[10,5],[7,6],[8,6],[9,6],'
    '[10,6],[8,7],[9,7],[10,7],[9,8],[10,8],[10,9]]}],'
    '"interEdges":[[6,2],[8,2],[1,5],[4,8],[4,9],[7,4],[6,1]]}'
)


def run(path, dim, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-meta", str(path), "--dim", str(dim), "--seed", str(seed)])
    return out.getvalue(), err.getvalue(), code


def run_reference(path, dim, seed, monkeypatch):
    """The reference's output, and whether its merge decision raised."""
    raised = []

    def decide(*args):
        try:
            return merge_reference._decide_merge(*args)
        except MetaformError as exc:
            raised.append(exc)
            raise

    with monkeypatch.context() as m:
        m.setattr(meta, "_decide_merge", decide)
        return run(path, dim, seed), bool(raised)


def test_degenerate_gadget_trial_is_not_rigid_not_an_input_error(tmp_path, monkeypatch):
    """At {1, 2, 3} and seed 4 the substituted graph reaches full rank
    (24 of 24) only at a trial where a gadget is degenerate."""
    path = tmp_path / "meta.json"
    path.write_text(CORNER)
    monkeypatch.setattr(rigidity, "COORD_RANGE", 3)
    expected = ("", "error: fixed edge sets are not independent (at (7, 9))\n", 2)
    assert run_reference(path, 3, 4, monkeypatch) == (expected, True)
    out, err, code = run(path, 3, 4)
    doc = json.loads(out)
    assert (err, code, doc["rigid"]) == ("", 1, False)
    assert "rankDeficit" not in doc and "separatingPair" not in doc
    monkeypatch.setattr(rigidity, "COORD_RANGE", 2**20)
    out, err, code = run(path, 3, 4)
    doc = json.loads(out)
    assert (err, code, doc["rigid"]) == ("", 0, True)
    assert doc["selectedSubset"] == [[6, 2], [8, 2], [1, 5], [4, 8], [4, 9], [7, 4]]


def grown_member(rng, dim, base):
    """A vertex-addition member, mostly small; one in twenty-five has 20-80
    vertices."""
    n = rng.randint(20, 80) if rng.random() < 0.04 else rng.randint(dim + 1, 12)
    vertices, edges = corpus.grown(n, dim, rng, base)
    return Formation(vertices=tuple(vertices), edges=tuple(edges))


def random_member(rng, dim, base):
    roll = rng.random()
    if roll < 0.15:
        return singleton(base)
    if roll < 0.3:
        if dim == 3 and rng.random() < 0.05:
            return Formation(vertices=(base, base + 1))
        return pair(base, base + 1)
    if roll < 0.55:
        k = complete(rng.randint(5, 7), base)
        return k if rng.random() < 0.9 else reoriented(k, rng)
    if roll < 0.95:
        return grown_member(rng, dim, base)
    return dangler(dim, base)


def random_meta(rng, dim):
    while True:
        members, base = [], 1
        for _ in range(rng.randint(2, 4)):
            members.append(random_member(rng, dim, base))
            base += len(members[-1].vertices)
        if base - 1 < dim:
            continue
        cross = [
            (a, b)
            for i, ga in enumerate(members)
            for gb in members[i + 1 :]
            for a in ga.vertices
            for b in gb.vertices
        ]
        bound = merge_bound(size_classes(MetaFormation(meta_vertices=tuple(members)), dim))
        chosen = rng.sample(cross, min(len(cross), max(0, bound + rng.randint(-2, 2))))
        m = MetaFormation(
            meta_vertices=tuple(members),
            inter_edges=orient(members, chosen, dim, rng, rng.random() < 0.8),
        )
        # The non-compliant fallback walks the flattened graph's terminals,
        # and a not-rigid verdict searches the inter-edges' subsets.
        if terminal_count(m.flatten(), dim) <= 1000 and len(chosen) <= 14:
            return m


METAS = [
    (random_meta(random.Random(f"merge:{dim}:{i}"), dim), dim, i % 5)
    for dim in (2, 3)
    for i in range(260)
]

# Metas on which the reference's merge decision raised, all in 3D, by
# coordinate range; on every other meta the outputs are identical.
DIFFERING = {2**20: 0, 3: 5, 2: 2}


@pytest.mark.parametrize("coord_range", [2**20, 3, 2])
def test_check_meta_matches_the_two_pass_reference(coord_range, tmp_path, monkeypatch):
    monkeypatch.setattr(rigidity, "COORD_RANGE", coord_range)
    path = tmp_path / "meta.json"
    differ = rigid = 0
    for m, dim, seed in METAS:
        path.write_text(json.dumps(m.to_dict()))
        got = run(path, dim, seed)
        expected, raised = run_reference(path, dim, seed, monkeypatch)
        assert (got != expected) == raised, (m, dim, seed)
        if raised:
            differ += 1
            assert got[2] == 1 and json.loads(got[0])["rigid"] is False
        rigid += got[2] == 0
    # Both verdicts are common; only degenerate placements split the passes.
    assert rigid >= 100 and len(METAS) - rigid >= 100
    assert differ == DIFFERING[coord_range]
