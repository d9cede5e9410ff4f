"""Graph data model: formations, meta-formations and their serialization.

A Formation is a directed graph over non-negative integer vertex ids.
Directions encode which agent is responsible for a distance constraint;
the analysis dimension (2 or 3) is always an operation parameter, never
stored on the graph, so the same file can be analyzed in both dimensions.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import InputError

Edge = tuple[int, int]


def _unordered(e: Edge) -> Edge:
    a, b = e
    return (a, b) if a < b else (b, a)


def json_int(x, location: str) -> int:
    """``x`` if it is an exact JSON integer; floats, bools and strings raise."""
    if type(x) is not int:
        raise InputError(f"expected an integer, got {json.dumps(x, default=repr)}", location)
    return x


def _json_edges(edges, name: str) -> list:
    """``edges`` itself, checked to be a JSON list of [tail, head] integer
    pairs; errors are located as ``name[i][j]``.

    Nothing is copied: ``Formation`` and ``MetaFormation`` convert the
    pairs once.  Locations are built only to report the first offender.
    """
    if not isinstance(edges, list):
        raise InputError(f"'{name}' must be a list", name)
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            if not isinstance(e, list) or len(e) != 2:
                raise InputError("edge must be a [tail, head] pair", f"{name}[{i}]")
            json_int(e[0], f"{name}[{i}][0]")
            json_int(e[1], f"{name}[{i}][1]")
    return edges


def _raise_first_offender(vertices: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
    """Raise InputError at the first vertex, or else the first edge, that
    breaks a ``Formation`` invariant; vertices and edges are checked in
    order, and each edge for a self-loop, its tail, its head, then its
    pair."""
    if not vertices:
        raise InputError("empty vertex set", "vertices")
    seen_v = set()
    for i, v in enumerate(vertices):
        if v < 0:
            raise InputError(f"negative vertex id {v}", f"vertices[{i}]")
        if v in seen_v:
            raise InputError(f"duplicate vertex id {v}", f"vertices[{i}]")
        seen_v.add(v)
    seen_pairs = set()
    for i, (t, h) in enumerate(edges):
        if t == h:
            raise InputError(f"self-loop at vertex {t}", f"edges[{i}]")
        if t not in seen_v:
            raise InputError(f"undeclared tail {t}", f"edges[{i}]")
        if h not in seen_v:
            raise InputError(f"undeclared head {h}", f"edges[{i}]")
        pair = _unordered((t, h))
        if pair in seen_pairs:
            raise InputError(f"duplicate edge on unordered pair {pair}", f"edges[{i}]")
        seen_pairs.add(pair)


@dataclass(frozen=True)
class Formation:
    """Directed formation graph.

    Invariants enforced at construction: at least one vertex, no
    self-loops, at most one edge per unordered vertex pair (one distance
    constraint, one responsible agent), every endpoint declared.  The
    vertex ids and edge pairs are converted with ``int`` once, here; a
    parsed document's edge list reaches this point uncopied.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        vertices = tuple(map(int, self.vertices))
        edges = tuple([(int(t), int(h)) for t, h in self.edges])
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        declared = set(vertices)
        # A self-loop or a second edge on a pair leaves fewer pairs than edges.
        pairs = {(t, h) if t < h else (h, t) for t, h in edges if t != h}
        if not (
            vertices
            and len(declared) == len(vertices)
            and min(vertices) >= 0
            and len(pairs) == len(edges)
            and declared.issuperset(itertools.chain.from_iterable(edges))
        ):
            _raise_first_offender(vertices, edges)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def out_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for t, _ in self.edges:
            deg[t] += 1
        return deg

    def underlying(self) -> "UndirectedView":
        """Forget edge directions."""
        return UndirectedView(vertices=self.vertices, edges=self.edges)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Formation":
        if not isinstance(doc, dict):
            raise InputError("formation document must be a JSON object")
        if "vertices" not in doc:
            raise InputError("missing field: 'vertices'")
        vertices = doc["vertices"]
        if not isinstance(vertices, list):
            raise InputError("'vertices' must be a list", "vertices")
        for i, v in enumerate(vertices):
            if type(v) is not int:
                json_int(v, f"vertices[{i}]")
        return cls(vertices=tuple(vertices), edges=_json_edges(doc.get("edges", []), "edges"))


@dataclass(frozen=True)
class UndirectedView:
    """Direction-forgetting view of a formation; unit of all rigidity checks.

    Each edge is stored as (low, high), ordered inline in one pass; the
    rank test and the screens read these pairs as they are.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        norm = tuple([(a, b) if a < b else (b, a) for a, b in self.edges])
        object.__setattr__(self, "edges", norm)
        if len(set(norm)) != len(norm):
            raise InputError("duplicate undirected edge")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


@dataclass(frozen=True)
class MetaFormation:
    """Disjoint formations (meta-vertices) plus directed inter-edges."""

    meta_vertices: tuple[Formation, ...]
    inter_edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "meta_vertices", tuple(self.meta_vertices))
        object.__setattr__(
            self, "inter_edges", tuple((int(t), int(h)) for t, h in self.inter_edges)
        )
        owner: dict[int, int] = {}
        for i, mv in enumerate(self.meta_vertices):
            for v in mv.vertices:
                if v in owner:
                    raise InputError(
                        f"vertex {v} appears in meta-vertices {owner[v]} and {i}",
                        f"metaVertices[{i}]",
                    )
                owner[v] = i
        seen_pairs = set()
        for i, (t, h) in enumerate(self.inter_edges):
            if t not in owner or h not in owner:
                raise InputError(
                    f"inter-edge endpoint not in any meta-vertex: {(t, h)}",
                    f"interEdges[{i}]",
                )
            if owner[t] == owner[h]:
                raise InputError(
                    f"inter-edge {(t, h)} has both endpoints in meta-vertex {owner[t]}",
                    f"interEdges[{i}]",
                )
            pair = _unordered((t, h))
            if pair in seen_pairs:
                # Opposite-direction doubles are rejected too: one distance
                # constraint per agent pair.
                raise InputError(
                    f"duplicate inter-edge on unordered pair {pair}", f"interEdges[{i}]"
                )
            seen_pairs.add(pair)
        object.__setattr__(self, "_owner", owner)

    def owner_of(self, v: int) -> int:
        """Index of the meta-vertex containing vertex v."""
        return self._owner[v]

    def flatten(self) -> Formation:
        """Union of all meta-vertices plus the inter-edges, as one formation."""
        vertices = tuple(v for mv in self.meta_vertices for v in mv.vertices)
        edges = tuple(e for mv in self.meta_vertices for e in mv.edges)
        return Formation(vertices=vertices, edges=edges + self.inter_edges)

    def to_dict(self) -> dict:
        return {
            "metaVertices": [mv.to_dict() for mv in self.meta_vertices],
            "interEdges": [list(e) for e in self.inter_edges],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetaFormation":
        if not isinstance(doc, dict):
            raise InputError("meta-formation document must be a JSON object")
        mvs = doc.get("metaVertices")
        if not isinstance(mvs, list):
            raise InputError("'metaVertices' must be a list", "metaVertices")
        inter = _json_edges(doc.get("interEdges", []), "interEdges")
        return cls(
            meta_vertices=tuple(
                formation_at(m, f"metaVertices[{i}]") for i, m in enumerate(mvs)
            ),
            inter_edges=inter,
        )


def formation_at(doc, location: str) -> Formation:
    """``Formation.from_dict`` with errors located inside ``location``."""
    try:
        return Formation.from_dict(doc)
    except InputError as exc:
        raise exc.within(location) from exc


@dataclass(frozen=True)
class MetaClass:
    """Partition of meta-vertex indices by size class.

    2D: n_class holds meta-vertices with >= 2 vertices, s_class singletons.
    3D: n_class >= 3 vertices, d_class connected pairs, s_class singletons.
    """

    n_class: tuple[int, ...]
    s_class: tuple[int, ...]
    d_class: tuple[int, ...] = ()
    dim: int = 2


def load_json(text: str, location: str | None = None):
    """The decoded document; malformed JSON raises InputError at ``location``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}", location) from exc


def parse_formation(text: str, location: str | None = None) -> Formation:
    """Parse a formation JSON document, validating all invariants.

    Errors that name no place inside the document (malformed JSON, a
    document that is not an object, no vertex list) are located at
    ``location``, the file the text came from.
    """
    return _located(Formation.from_dict, load_json(text, location), location)


def parse_meta_formation(text: str, location: str | None = None) -> MetaFormation:
    """Parse a meta-formation JSON document, validating all invariants;
    errors are located as in ``parse_formation``."""
    return _located(MetaFormation.from_dict, load_json(text, location), location)


def _located(from_dict, doc, location: str | None):
    try:
        return from_dict(doc)
    except InputError as exc:
        if exc.location is not None or location is None:
            raise
        raise InputError(exc.detail, location) from exc


def export_formation(f: Formation) -> str:
    return json.dumps(f.to_dict(), sort_keys=True)


def export_meta_formation(m: MetaFormation) -> str:
    return json.dumps(m.to_dict(), sort_keys=True)


def export_dot(obj: Formation | MetaFormation) -> str:
    """DOT text: internal edges solid, inter-edges dashed."""
    lines = ["digraph formation {"]
    if isinstance(obj, MetaFormation):
        for i, mv in enumerate(obj.meta_vertices):
            lines.append(f"  subgraph cluster_{i} {{")
            for v in mv.vertices:
                lines.append(f"    {v};")
            for t, h in mv.edges:
                lines.append(f"    {t} -> {h};")
            lines.append("  }")
        for t, h in obj.inter_edges:
            lines.append(f"  {t} -> {h} [style=dashed];")
    else:
        for v in obj.vertices:
            lines.append(f"  {v};")
        for t, h in obj.edges:
            lines.append(f"  {t} -> {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"
