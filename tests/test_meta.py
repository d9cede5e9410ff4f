"""Meta-level classification, counting conditions, merged rigidity."""
import itertools

import pytest

from metaform.errors import InputError, NotRigidError
from metaform.graph import Formation, MetaFormation
from metaform.meta import (
    classify,
    edge_optimal_persistent,
    merge_bound,
    meta_count,
    meta_count_violation,
    meta_rigid,
    meta_rigid_2d,
    meta_rigid_3d,
)

from conftest import complete, pair, shift, singleton, triangle


def two_triangles(inter):
    return MetaFormation(
        meta_vertices=(triangle(1), triangle(4)), inter_edges=tuple(inter)
    )


def two_tetrahedra(inter):
    return MetaFormation(
        meta_vertices=(complete(4, 1), complete(4, 5)), inter_edges=tuple(inter)
    )


GOOD_6 = ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5))
# Same bipartite shape as the double banana: each side touched on only
# two vertices would violate counting, so instead spread over the axis
# pattern: vertices {1, 2} of side A fully wired to three of side B.
BANANA_6 = ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7))


class TestClassify:
    def test_2d_classes(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), singleton(9)), inter_edges=()
        )
        cls = classify(meta, 2)
        assert cls.n_class == (0,) and cls.s_class == (1,)

    def test_3d_classes(self):
        meta = MetaFormation(
            meta_vertices=(complete(4, 1), pair(8, 9), singleton(12)),
            inter_edges=(),
        )
        cls = classify(meta, 3)
        assert cls.n_class == (0,)
        assert cls.d_class == (1,)
        assert cls.s_class == (2,)

    def test_non_rigid_meta_vertex_rejected(self):
        path = Formation(vertices=(1, 2, 3), edges=((2, 1), (3, 2)))
        meta = MetaFormation(meta_vertices=(path, singleton(9)), inter_edges=())
        with pytest.raises(NotRigidError):
            classify(meta, 2)

    def test_edgeless_pair_rejected_in_3d(self):
        loose = Formation(vertices=(8, 9), edges=())
        meta = MetaFormation(meta_vertices=(complete(4, 1), loose), inter_edges=())
        with pytest.raises(NotRigidError):
            classify(meta, 3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_rigid_message_names_the_meta_vertex(self, dim):
        path = Formation(vertices=(5, 6, 7, 8), edges=((6, 5), (7, 6), (8, 7)))
        meta = MetaFormation(meta_vertices=(complete(4, 1), path), inter_edges=((1, 5),))
        with pytest.raises(NotRigidError, match=f"^meta-vertex 1 is not rigid in {dim}D$"):
            meta_rigid(meta, dim)

    def test_zero_trials_rejected_in_3d(self):
        meta = MetaFormation(meta_vertices=(complete(4, 1), complete(4, 5)), inter_edges=())
        for trials in (0, -1):
            with pytest.raises(InputError, match="trials must be >= 1"):
                meta_rigid(meta, 3, trials=trials)

    def test_merge_bounds(self):
        meta2 = MetaFormation(
            meta_vertices=(triangle(1), triangle(4), singleton(9)),
            inter_edges=(),
        )
        assert merge_bound(classify(meta2, 2)) == 3 * 2 + 2 * 1 - 3
        meta3 = MetaFormation(
            meta_vertices=(complete(4, 1), pair(8, 9), singleton(12)),
            inter_edges=(),
        )
        assert merge_bound(classify(meta3, 3)) == 6 + 5 + 3 - 6


class TestMetaCount:
    def test_2d_classes_by_incidence(self):
        meta = two_triangles(((1, 4), (2, 4)))
        count = meta_count(meta, meta.inter_edges, 2)
        assert count.i_class == (0,) and count.j_class == (1,)

    def test_3d_unconnected_pair_is_i_class(self):
        meta = two_tetrahedra(BANANA_6)
        count = meta_count(meta, meta.inter_edges, 3)
        # Side A touched on {1, 2}; K4 contains that edge, so J.
        assert count.j_class == (0,) and count.i_class == (1,)

    def test_3d_unconnected_two_vertices(self):
        # Remove the (1, 2) internal edge: the pair becomes unconnected -> I.
        a = Formation(
            vertices=(1, 2, 3, 4),
            edges=tuple(
                e for e in complete(4, 1).edges if {e[0], e[1]} != {1, 2}
            ),
        )
        meta = MetaFormation(
            meta_vertices=(a, complete(4, 5)), inter_edges=BANANA_6
        )
        count = meta_count(meta, meta.inter_edges, 3)
        assert 0 in count.i_class

    def test_violation_detected(self):
        meta = two_triangles(((1, 4), (2, 4), (3, 4)))
        # 3 edges on one vertex of side B: 3 > 3*1 + 2*1 - 3 = 2.
        assert meta_count_violation(meta, meta.inter_edges, 2) is not None

    def test_single_edge_never_violates(self):
        meta = two_tetrahedra(((1, 5),))
        assert meta_count_violation(meta, meta.inter_edges, 3) is None

    def test_seven_edges_violate_3d(self):
        meta = two_tetrahedra(GOOD_6 + ((3, 6),))
        assert meta_count_violation(meta, meta.inter_edges, 3) is not None

    def test_four_edges_on_one_vertex_violate_3d(self):
        meta = two_tetrahedra(((1, 5), (2, 5), (3, 5), (4, 5)))
        # 4 > 6*1 + 3*1 - 6 = 3 with side B in K class.
        assert meta_count_violation(meta, meta.inter_edges, 3) is not None


class TestMetaRigid2D:
    def test_three_good_edges_rigid(self):
        v = meta_rigid_2d(two_triangles(((1, 4), (1, 5), (2, 4))))
        assert v.rigid and v.edge_optimal
        assert len(v.selected_subset) == 3 == v.bound

    def test_single_contact_not_rigid(self):
        v = meta_rigid_2d(two_triangles(((1, 4), (2, 4), (3, 4))))
        assert not v.rigid
        assert v.witness_subset is not None
        assert len(v.witness_subset) == 3

    def test_triangle_plus_singleton(self):
        meta = MetaFormation(
            meta_vertices=(triangle(1), singleton(9)),
            inter_edges=((9, 1), (9, 2)),
        )
        v = meta_rigid_2d(meta)
        assert v.rigid and v.bound == 2

    def test_redundant_edges_rigid_not_optimal(self):
        v = meta_rigid_2d(two_triangles(((1, 4), (1, 5), (2, 4), (2, 5))))
        assert v.rigid and not v.edge_optimal
        assert len(v.selected_subset) == v.bound

    def test_internals_do_not_change_verdict(self):
        # Overbraced side A (extra internal edge beyond minimal rigidity).
        k4 = complete(4, 1)
        for inter in (((1, 5), (1, 6), (2, 5)), ((1, 5), (2, 5), (3, 5))):
            a = MetaFormation(
                meta_vertices=(k4, triangle(5)), inter_edges=inter
            )
            b = MetaFormation(
                meta_vertices=(
                    Formation(
                        vertices=(1, 2, 3, 4),
                        edges=((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)),
                    ),
                    triangle(5),
                ),
                inter_edges=inter,
            )
            assert meta_rigid_2d(a).rigid == meta_rigid_2d(b).rigid


class TestMetaRigid3D:
    def test_good_six_edges_rigid(self):
        v = meta_rigid_3d(two_tetrahedra(GOOD_6))
        assert v.rigid and v.edge_optimal and v.counting_ok
        assert len(v.selected_subset) == 6 == v.bound

    def test_two_contact_vertices_fail_counting(self):
        # Side A touched on a connected pair only: 6 > 6 + 5 - 6 = 5.
        v = meta_rigid_3d(two_tetrahedra(BANANA_6))
        assert v.counting_ok is False
        assert not v.rigid

    def test_banana_merge_counting_passes_but_not_rigid(self):
        # The 8-vertex double banana assembled from two triangles and two
        # singleton axis vertices: every counting condition holds, yet the
        # merged graph hinges on the axis pair.
        meta = MetaFormation(
            meta_vertices=(
                triangle(3),
                triangle(6),
                singleton(1),
                singleton(2),
            ),
            inter_edges=tuple(
                (v, axis) for v in (3, 4, 5, 6, 7, 8) for axis in (1, 2)
            ),
        )
        v = meta_rigid_3d(meta)
        assert v.bound == 6 * 2 + 3 * 2 - 6 == len(meta.inter_edges)
        assert v.counting_ok is True
        assert not v.rigid
        assert v.separating_pair == (1, 2)

    def test_tetrahedron_plus_singleton(self):
        meta = MetaFormation(
            meta_vertices=(complete(4, 1), singleton(9)),
            inter_edges=((9, 1), (9, 2), (9, 3)),
        )
        v = meta_rigid_3d(meta)
        assert v.rigid and v.bound == 3

    def test_five_edges_not_rigid(self):
        v = meta_rigid_3d(two_tetrahedra(GOOD_6[:5]))
        assert not v.rigid

    def test_counting_failure_forces_not_rigid(self):
        meta = two_tetrahedra(((1, 5), (2, 5), (3, 5), (4, 5), (1, 6), (1, 7)))
        v = meta_rigid_3d(meta)
        assert v.counting_ok is False and not v.rigid

    def test_dispatch(self):
        assert meta_rigid(two_tetrahedra(GOOD_6), 3).rigid
        assert meta_rigid(two_triangles(((1, 4), (1, 5), (2, 4))), 2).rigid
        for dim in (1, 4):
            with pytest.raises(InputError, match=f"dimension must be 2 or 3, got {dim}"):
                meta_rigid(two_triangles(((1, 4), (1, 5), (2, 4))), dim)


class TestEdgeOptimal:
    def test_edge_optimal_rigid(self):
        assert meta_rigid(two_tetrahedra(GOOD_6), 3).edge_optimal
        assert not meta_rigid(two_tetrahedra(GOOD_6 + ((3, 6),)), 3).edge_optimal

    def test_edge_optimal_persistent_requires_compliance(self):
        # Vertex 4 of K4 (oriented high-to-low) has no local DOFs; an
        # inter-edge leaving it breaks compliance.
        bad = two_tetrahedra(((4, 5), (1, 5), (1, 6), (1, 7), (2, 5), (2, 6)))
        good = two_tetrahedra(GOOD_6)
        assert edge_optimal_persistent(good, meta_rigid(good, 3))
        assert not edge_optimal_persistent(bad, meta_rigid(bad, 3))
