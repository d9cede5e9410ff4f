"""Input validation, serialization round-trips, meta-formation structure."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from metaform.errors import InputError
from metaform.graph import (
    Formation,
    MetaFormation,
    UndirectedView,
    export_dot,
    export_formation,
    export_meta_formation,
    parse_formation,
    parse_meta_formation,
)

from conftest import singleton, triangle


class TestFormationValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Formation(vertices=(1,), edges=((1, 1),))

    def test_duplicate_directed_edge_rejected(self):
        with pytest.raises(InputError):
            Formation(vertices=(1, 2), edges=((1, 2), (1, 2)))

    def test_undirected_view_rejects_two_edges_on_one_pair(self):
        with pytest.raises(InputError, match="^duplicate undirected edge$"):
            UndirectedView(vertices=(1, 2), edges=((1, 2), (2, 1)))

    def test_opposite_direction_on_same_pair_rejected(self):
        # One distance constraint per unordered pair, one responsible agent.
        with pytest.raises(InputError):
            Formation(vertices=(1, 2), edges=((1, 2), (2, 1)))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(InputError):
            Formation(vertices=(1, 2), edges=((1, 3),))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InputError):
            Formation(vertices=(1, 1), edges=())

    def test_empty_vertex_set_rejected_at_vertices(self):
        with pytest.raises(InputError) as exc:
            Formation(vertices=())
        assert str(exc.value) == "empty vertex set (at vertices)"

    def test_out_degrees_count_tails_only(self):
        f = triangle()
        assert f.out_degrees() == {1: 0, 2: 1, 3: 2}

    def test_underlying_normalizes_pairs(self):
        f = Formation(vertices=(1, 2, 3), edges=((3, 1), (2, 3)))
        assert set(f.underlying().edges) == {(1, 3), (2, 3)}


class TestMetaFormationValidation:
    def test_overlapping_meta_vertices_rejected(self):
        with pytest.raises(InputError):
            MetaFormation(
                meta_vertices=(singleton(1), singleton(1)), inter_edges=()
            )

    def test_inter_edge_within_one_meta_vertex_rejected(self):
        with pytest.raises(InputError):
            MetaFormation(
                meta_vertices=(triangle(1), singleton(9)),
                inter_edges=((1, 2),),
            )

    def test_inter_edge_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            MetaFormation(
                meta_vertices=(triangle(1), singleton(9)),
                inter_edges=((1, 42),),
            )

    def test_opposite_direction_inter_edges_rejected(self):
        with pytest.raises(InputError):
            MetaFormation(
                meta_vertices=(triangle(1), triangle(4)),
                inter_edges=((1, 4), (4, 1)),
            )

    def test_flatten_preserves_vertices_and_edges(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), singleton(9)),
            inter_edges=((9, 1), (9, 2)),
        )
        flat = meta.flatten()
        assert set(flat.vertices) == {1, 2, 3, 9}
        assert len(flat.edges) == 3 + 2

    def test_owner_of(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), singleton(9)), inter_edges=()
        )
        assert meta.owner_of(2) == 0
        assert meta.owner_of(9) == 1


class TestSerialization:
    def test_parse_rejects_malformed_json(self):
        with pytest.raises(InputError):
            parse_formation("{not json")

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(InputError):
            parse_formation(json.dumps({"edges": []}))

    def test_formation_round_trip(self):
        f = triangle()
        assert parse_formation(export_formation(f)) == f

    def test_meta_round_trip(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), triangle(4)),
            inter_edges=((1, 4), (1, 5), (4, 2)),
        )
        assert parse_meta_formation(export_meta_formation(meta)) == meta

    def test_dot_marks_inter_edges_dashed(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), singleton(9)), inter_edges=((9, 1),)
        )
        dot = export_dot(meta)
        assert "style=dashed" in dot
        assert "subgraph cluster_0" in dot

    def test_dot_formation_lists_all_edges(self):
        dot = export_dot(triangle())
        assert dot.count("->") == 3


@st.composite
def formations(draw, max_vertices=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = tuple(range(1, n + 1))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple(
        (b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips)
    )
    return Formation(vertices=vertices, edges=edges)


class TestProperties:
    @given(formations())
    def test_export_parse_round_trip(self, f):
        assert parse_formation(export_formation(f)) == f

    @given(formations(max_vertices=5), formations(max_vertices=5))
    def test_flatten_vertex_count_is_sum(self, a, b):
        b_shift = Formation(
            vertices=tuple(v + 100 for v in b.vertices),
            edges=tuple((t + 100, h + 100) for t, h in b.edges),
        )
        meta = MetaFormation(meta_vertices=(a, b_shift), inter_edges=())
        assert len(meta.flatten().vertices) == len(a.vertices) + len(b.vertices)


def reference_validate(vertices, edges):
    """The one-pass validation loop ``Formation`` used to run on every
    construction: the first offender's (detail, location), or None."""
    if not vertices:
        return ("empty vertex set", "vertices")
    seen_v = set()
    for i, v in enumerate(vertices):
        if v < 0:
            return (f"negative vertex id {v}", f"vertices[{i}]")
        if v in seen_v:
            return (f"duplicate vertex id {v}", f"vertices[{i}]")
        seen_v.add(v)
    seen_pairs = set()
    for i, (t, h) in enumerate(edges):
        if t == h:
            return (f"self-loop at vertex {t}", f"edges[{i}]")
        if t not in seen_v:
            return (f"undeclared tail {t}", f"edges[{i}]")
        if h not in seen_v:
            return (f"undeclared head {h}", f"edges[{i}]")
        pair = (t, h) if t < h else (h, t)
        if pair in seen_pairs:
            return (f"duplicate edge on unordered pair {pair}", f"edges[{i}]")
        seen_pairs.add(pair)
    return None


def validation(vertices, edges):
    try:
        Formation(vertices=vertices, edges=edges)
    except InputError as exc:
        return (exc.detail, exc.location)
    return None


# Ids from a small range, so that duplicates, self-loops, repeated pairs
# and undeclared endpoints are common, often several in one formation.
IDS = st.integers(-2, 6)


class TestValidationParity:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(IDS, max_size=6), st.lists(st.tuples(IDS, IDS), max_size=8))
    def test_first_offender_as_the_loop_finds_it(self, vertices, edges):
        assert validation(tuple(vertices), tuple(edges)) == reference_validate(vertices, edges)

    @pytest.mark.parametrize(
        "vertices, edges, expected",
        [
            ((), (), ("empty vertex set", "vertices")),
            ((), ((1, 2),), ("empty vertex set", "vertices")),
            ((1, -1, -2), (), ("negative vertex id -1", "vertices[1]")),
            ((1, 2, 1, -1), (), ("duplicate vertex id 1", "vertices[2]")),
            ((1, 2), ((1, 2), (2, 2)), ("self-loop at vertex 2", "edges[1]")),
            ((1, 2), ((3, 3),), ("self-loop at vertex 3", "edges[0]")),
            ((1, 2), ((3, 1), (1, 4)), ("undeclared tail 3", "edges[0]")),
            ((1, 2), ((1, 4), (3, 1)), ("undeclared head 4", "edges[0]")),
            ((1, 2, 3), ((1, 2), (1, 3), (1, 2)), ("duplicate edge on unordered pair (1, 2)", "edges[2]")),
            ((1, 2, 3), ((3, 1), (1, 3)), ("duplicate edge on unordered pair (1, 3)", "edges[1]")),
            ((1, 2, 3), ((2, 1), (3, 3), (1, 2)), ("self-loop at vertex 3", "edges[1]")),
        ],
    )
    def test_named_offenders(self, vertices, edges, expected):
        assert validation(vertices, edges) == expected == reference_validate(vertices, edges)

    def test_direct_construction_coerces_with_int(self):
        f = Formation(vertices=["1", 2.0, True + 2], edges=[("2", 1.0), [3, "1"]])
        assert f.vertices == (1, 2, 3) and f.edges == ((2, 1), (3, 1))
        assert all(type(x) is int for x in f.vertices + sum(f.edges, ()))

    @pytest.mark.parametrize(
        "doc, location",
        [
            ({"vertices": [1, 6.0]}, "vertices[1]"),
            ({"vertices": [True, 2]}, "vertices[0]"),
            ({"vertices": [1, 2], "edges": [[2, 1], [1, 6.0]]}, "edges[1][1]"),
            ({"vertices": [1, 2], "edges": [[True, 1]]}, "edges[0][0]"),
            ({"vertices": [1, 2], "edges": [[2, 1], [1]]}, "edges[1]"),
            ({"vertices": [1, 2], "edges": [[2, 1], (1, 2)]}, "edges[1]"),
        ],
    )
    def test_from_dict_rejects_non_integers(self, doc, location):
        with pytest.raises(InputError) as exc:
            Formation.from_dict(doc)
        assert exc.value.location == location
        if "6.0" in json.dumps(doc):
            assert exc.value.detail == "expected an integer, got 6.0"
