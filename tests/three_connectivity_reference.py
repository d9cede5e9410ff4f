"""``three_connectivity`` as it was before the flat-array scan, kept as a
differential reference.

``reference_three_connectivity`` runs one iterative cut-vertex search of
G - a per vertex a over the dict-of-sets adjacency, with dicts for the
depths and low points and a set for the cut vertices.
``metaform.rigidity.three_connectivity`` must return the same verdict
and the same lexicographically smallest pair.  Unlike the pair-removal
reference in ``test_screens_differential.py`` it is O(n(n + m)), so it
can check graphs of a hundred vertices and more.
"""
from metaform.graph import UndirectedView


def reference_cut_vertices(adj: dict[int, set[int]], verts, removed: int) -> tuple[set[int], int]:
    """Cut vertices of G - removed, and its number of components.

    One iterative depth-first search per component (Hopcroft & Tarjan
    1973): a non-root v is a cut vertex when some DFS child's subtree has
    no back edge above v (low[child] >= depth[v]); a root is one when it
    has two or more DFS children.
    """
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    cuts: set[int] = set()
    components = 0
    for root in verts:
        if root == removed or root in depth:
            continue
        components += 1
        depth[root] = low[root] = 0
        root_children = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == removed:
                    continue
                if w not in depth:
                    depth[w] = low[w] = depth[v] + 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    root_children += 1
                elif low[v] >= depth[parent]:
                    cuts.add(parent)
        if root_children >= 2:
            cuts.add(root)
    return cuts, components


def reference_three_connectivity(g: UndirectedView) -> tuple[bool, tuple[int, int] | None]:
    """Whole-graph 3-connectivity from the cut vertices of each G - a.

    Graphs on fewer than 4 vertices report vacuously true; the witness
    pair, if any, is the lexicographically smallest in ascending order.
    For each a in ascending order, one cut-vertex search over G - a
    decides every pair (a, b): G - {a, b} is disconnected when G - a has
    3 or more components, or 2 and b is not one of them by itself, or 1
    and b is a cut vertex of it.  O(n(n + m)) in total.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n < 4:
        return True, None
    adj = g.adjacency()
    for i, a in enumerate(verts[:-1]):
        cuts, components = reference_cut_vertices(adj, verts, a)
        for b in verts[i + 1 :]:
            if (
                components >= 3
                or (components == 2 and not adj[b] <= {a})
                or b in cuts
            ):
                return False, (a, b)
    return True, None
