"""``check-meta``'s earlier path, kept as the differential reference.

Each multi-vertex meta-vertex was proved rigid by ``laman_check_2d`` or
``rigid_3d_check`` in ``classify``, then rebuilt as a gadget by
``minimally_rigid_spanning`` in ``_gadget_substitute``; 2D and 3D each
had their own merge decision; and ``merged_persistence`` decided the
merge's rigidity again on the flattened graph, in ``flattened_persistence``,
copied here as it was.  ``check_meta`` decided the merge before it proved
the members persistent, and the CLI computed ``edgeOptimalPersistent``
with its own local-DOF compliance check.  The gadgets and the selected
subset come from ``merge_reference``'s copy of the earlier
``minimally_rigid_spanning``, fixed edge sets and all, and the counting
searches from its copies of ``_smallest_violating_subset`` and
``_counting_screen_3d``.
"""
from metaform.errors import InputError, NotPersistentError, NotRigidError
from metaform.graph import Formation, MetaFormation
from metaform.meta import (
    MetaVerdict,
    SUBSET_SEARCH_CAP,
    edge_optimal_persistent,
    merge_bound,
    size_classes,
)
from metaform.persistence import _verdict, is_persistent, ledger, local_dof_compliance
from metaform.rigidity import PebbleGame2D, check_rigidity, laman_check_2d, rigid_3d_check

from merge_reference import (
    _counting_screen_3d,
    _smallest_violating_subset,
    minimally_rigid_spanning,
)


def classify(meta, dim, seed=0, trials=3):
    if dim not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {dim}")
    for i, mv in enumerate(meta.meta_vertices):
        size = len(mv.vertices)
        if dim == 3 and size == 2 and not mv.edges:
            raise NotRigidError(
                f"meta-vertex {i} has two vertices but no edge; not rigid in 3D"
            )
        if size == 1 or (dim == 3 and size == 2):
            continue
        view = mv.underlying()
        verdict = (
            laman_check_2d(view)
            if dim == 2
            else rigid_3d_check(view, seed=seed, trials=trials)
        )
        if not verdict.rigid:
            raise NotRigidError(f"meta-vertex {i} is not rigid in {dim}D")
    return size_classes(meta, dim)


def _gadget_substitute(meta, dim, seed, trials):
    gadgets = []
    fixed = []
    for mv in meta.meta_vertices:
        if len(mv.vertices) == 1 or (dim == 3 and len(mv.vertices) == 2):
            gadgets.append(mv)
            if mv.edges:
                fixed.append(tuple((min(e), max(e)) for e in mv.edges))
            continue
        spanning = minimally_rigid_spanning(
            mv.underlying(), dim, seed=seed, trials=trials
        )
        gadgets.append(Formation(vertices=mv.vertices, edges=spanning))
        fixed.append(spanning)
    return (
        MetaFormation(meta_vertices=tuple(gadgets), inter_edges=meta.inter_edges),
        tuple(fixed),
    )


def meta_rigid_2d(meta, seed=0, trials=3):
    cls = classify(meta, 2, seed=seed, trials=trials)
    flat = meta.flatten()
    n = len(flat.vertices)
    bound = merge_bound(cls)
    _, fixed = _gadget_substitute(meta, 2, seed, trials)
    game = PebbleGame2D(flat.vertices)
    for group in fixed:
        for e in group:
            if not game.insert(e):
                raise AssertionError("disjoint minimally rigid gadgets must be independent")
    selected = []
    for e in meta.inter_edges:
        if game.insert((min(e), max(e))):
            selected.append(e)
    target = 2 * n - 3 if n > 2 else 1
    if game.rank() == target:
        return MetaVerdict(
            rigid=True,
            edge_optimal=len(meta.inter_edges) == bound,
            dim=2,
            classes=cls,
            bound=bound,
            selected_subset=tuple(selected),
        )
    return MetaVerdict(
        rigid=False,
        edge_optimal=False,
        dim=2,
        classes=cls,
        bound=bound,
        witness_subset=_smallest_violating_subset(meta, 2),
        rank_deficit=(game.rank(), target),
    )


def meta_rigid_3d(meta, seed=0, trials=3):
    cls = classify(meta, 3, seed=seed, trials=trials)
    bound = merge_bound(cls)
    substituted, fixed = _gadget_substitute(meta, 3, seed, trials)
    sub_flat = substituted.flatten().underlying()
    verdict = rigid_3d_check(sub_flat, seed=seed, trials=trials)
    if verdict.rigid:
        spanning = minimally_rigid_spanning(
            sub_flat, 3, fixed=fixed, seed=seed, trials=trials
        )
        inter_pairs = {(min(e), max(e)): e for e in meta.inter_edges}
        return MetaVerdict(
            rigid=True,
            edge_optimal=len(meta.inter_edges) == bound,
            dim=3,
            classes=cls,
            bound=bound,
            selected_subset=tuple(
                inter_pairs[e] for e in spanning if e in inter_pairs
            ),
            counting_ok=True if len(meta.inter_edges) <= SUBSET_SEARCH_CAP else None,
        )
    counting_ok, count_witness = _counting_screen_3d(meta, bound)
    return MetaVerdict(
        rigid=False,
        edge_optimal=False,
        dim=3,
        classes=cls,
        bound=bound,
        witness_subset=count_witness,
        rank_deficit=verdict.rank_deficit,
        separating_pair=verdict.separating_pair,
        counting_ok=counting_ok,
    )


def meta_rigid(meta, dim, seed=0, trials=3):
    if dim == 2:
        return meta_rigid_2d(meta, seed=seed, trials=trials)
    if dim == 3:
        return meta_rigid_3d(meta, seed=seed, trials=trials)
    raise InputError(f"dimension must be 2 or 3, got {dim}")


def merged_persistence(meta, dim, seed=0, trials=3):
    for i, mv in enumerate(meta.meta_vertices):
        if not is_persistent(mv, dim, seed=seed, trials=trials).persistent:
            raise NotPersistentError(f"meta-vertex {i} is not persistent in {dim}D")
    return flattened_persistence(meta, dim, seed=seed, trials=trials)


def flattened_persistence(meta, dim, seed=0, trials=3):
    """Persistence of a flattened meta-formation whose members are persistent.

    When all inter-edges leave local DOFs, persistence of the merge
    reduces to rigidity of the flattened graph, skipping terminal
    enumeration.  Otherwise no merge-aware criterion is known and the
    full persistence criterion is applied to the flattened graph (an
    implementation fallback, not a shortcut the theory provides).
    """
    flat = meta.flatten()
    compliant, _ = local_dof_compliance(meta, dim)
    if not compliant:
        return is_persistent(flat, dim, seed=seed, trials=trials)
    verdict = check_rigidity(flat.underlying(), dim, seed=seed, trials=trials)
    if not verdict.rigid:
        # Not rigid implies not persistent; run the full criterion to
        # produce a proper terminal-subgraph witness.
        return is_persistent(flat, dim, seed=seed, trials=trials)
    return _verdict(ledger(flat, dim), verdict.minimally_rigid, seed)


def check_meta(meta, dim, seed, trials):
    verdict = meta_rigid(meta, dim, seed=seed, trials=trials)
    merged = merged_persistence(meta, dim, seed=seed, trials=trials)
    return verdict, merged, edge_optimal_persistent(meta, verdict)
