"""Persistence implies rigidity, and minimal persistence minimal rigidity.

Every terminal subgraph of a persistent formation is rigid, and a
terminal has the formation's vertices and a subset of its edges, so the
formation is rigid.  A minimally persistent formation is persistent with
exactly the edges rigidity needs, so it is minimally rigid (Hendrickx,
Anderson, Delvenne & Blondel, 2007).  Both relations are checked in 2D
and 3D on up to 120 vertices, on formations drawn so that every verdict
occurs: vertex-addition graphs, which peel away and are minimally
persistent without a braced vertex, back-braced cores, which do not peel
and are persistent but not minimally so, and those cores with a
dangler, which are never persistent.
"""
import math
import random

from hypothesis import event, given, settings, strategies as st

from metaform.persistence import TERMINAL_SET_CAP, is_persistent
from metaform.rigidity import check_rigidity

from conftest import back_braced
from test_persistence_peel_differential import acyclic_dense, dangler

# Braced vertices in a back-braced core, whose (dim + 1) ** extra
# terminals are all decided.
CORE_EXTRA = {2: 4, 3: 3}


@st.composite
def formations(draw, dim):
    kind = draw(st.sampled_from(["vertex-addition", "back-braced", "dangler"]))
    n = draw(st.integers(min_value=dim + 2, max_value=120))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "vertex-addition":
        # Peeled away, so any count under the cap is cheap.
        limit = int(math.log(TERMINAL_SET_CAP, dim + 1))
    else:
        limit = CORE_EXTRA[dim]
    extra = draw(st.integers(min_value=0, max_value=min(limit, n - dim - 1)))
    f = acyclic_dense(n, dim, extra, rng)
    if kind == "vertex-addition":
        return f
    f = back_braced(f, dim)
    return f if kind == "back-braced" else dangler(f, dim, rng)


def check_relations(f, dim):
    persistence = is_persistent(f, dim)
    event(f"persistent={persistence.persistent} minimally={persistence.minimally_persistent}")
    if persistence.persistent:
        rigidity = check_rigidity(f.underlying(), dim)
        assert rigidity.rigid
        if persistence.minimally_persistent:
            assert rigidity.minimally_rigid


@settings(max_examples=40, deadline=None)
@given(formations(2))
def test_persistence_implies_rigidity_2d(f):
    check_relations(f, 2)


@settings(max_examples=40, deadline=None)
@given(formations(3))
def test_persistence_implies_rigidity_3d(f):
    check_relations(f, 3)
