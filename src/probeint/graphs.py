"""Undirected graphs with an optional designated nonprobe set.

The nonprobe set, when present, must be independent: recognition treats it
as part of the problem instance, so operations that need it fail loudly
when it is absent instead of assuming a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .matrices import ONE, ZERO, LabeledMatrix


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over vertices 0..n-1 with display names."""

    n: int
    vertex_names: tuple
    edges: frozenset  # frozenset of (i, j) pairs with i < j
    nonprobes: Optional[frozenset] = None  # vertex indices, independent set

    def __post_init__(self):
        if len(self.vertex_names) != self.n:
            raise ValueError("vertex_names length differs from n")
        if len(set(self.vertex_names)) != self.n:
            raise ValueError("duplicate vertex names")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j})")
        if self.nonprobes is not None:
            for v in self.nonprobes:
                if not 0 <= v < self.n:
                    raise ValueError(f"bad nonprobe index {v}")
            for i, j in self.edges:
                if i in self.nonprobes and j in self.nonprobes:
                    raise ValueError(
                        "nonprobes not independent: edge "
                        f"{self.vertex_names[i]}-{self.vertex_names[j]}"
                    )

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    @property
    def probes(self) -> tuple:
        """Probe indices in vertex order; requires nonprobes to be set."""
        if self.nonprobes is None:
            raise ValueError("graph has no nonprobe set")
        return tuple(v for v in range(self.n) if v not in self.nonprobes)

    def with_nonprobes(self, nonprobes: Iterable) -> "Graph":
        return Graph(
            n=self.n,
            vertex_names=self.vertex_names,
            edges=self.edges,
            nonprobes=frozenset(nonprobes),
        )

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on the given indices, renumbered in order."""
        keep = sorted(set(keep))
        remap = {v: k for k, v in enumerate(keep)}
        edges = frozenset(
            (remap[i], remap[j]) for i, j in self.edges if i in remap and j in remap
        )
        nonprobes = None
        if self.nonprobes is not None:
            nonprobes = frozenset(remap[v] for v in self.nonprobes if v in remap)
        return Graph(
            n=len(keep),
            vertex_names=tuple(self.vertex_names[v] for v in keep),
            edges=edges,
            nonprobes=nonprobes,
        )


def build_graph(
    edge_list: Iterable[tuple],
    nonprobes: Optional[Iterable] = None,
    vertices: Optional[Iterable] = None,
) -> Graph:
    """Build a Graph from named edge pairs.

    Vertex indices follow first appearance: explicit `vertices` first, then
    edge endpoints in listed order.  Self-loops and a non-independent
    nonprobe set are rejected.
    """
    index: dict = {}  # name -> vertex index, in order of first appearance

    def intern(name) -> int:
        return index.setdefault(name, len(index))

    for name in vertices or ():
        intern(name)

    edges = set()
    for u, v in edge_list:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        i, j = intern(u), intern(v)
        edges.add((min(i, j), max(i, j)))

    if not index:
        raise ValueError("graph has no vertices")

    np_idx = None
    if nonprobes is not None:
        np_names = list(nonprobes)
        for name in np_names:
            if name not in index:
                raise ValueError(f"unknown nonprobe vertex {name}")
        np_idx = frozenset(index[name] for name in np_names)

    return Graph(
        n=len(index),
        vertex_names=tuple(index),
        edges=frozenset(edges),
        nonprobes=np_idx,
    )


def augmented_adjacency(g: Graph) -> LabeledMatrix:
    """Adjacency matrix with every principal diagonal entry set to 1."""
    entries = tuple(
        tuple(
            ONE if i == j or g.has_edge(i, j) else ZERO for j in range(g.n)
        )
        for i in range(g.n)
    )
    return LabeledMatrix(rows=g.vertex_names, cols=g.vertex_names, entries=entries)


def probe_bigraph(g: Graph) -> LabeledMatrix:
    """Probes-by-all-vertices submatrix of the augmented adjacency matrix.

    Row p and column v hold 1 iff p = v or pv is an edge.  This is the
    biadjacency matrix of the bipartite graph pairing every probe against
    the full vertex set.
    """
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    probes = g.probes
    entries = tuple(
        tuple(ONE if p == v or g.has_edge(p, v) else ZERO for v in range(g.n))
        for p in probes
    )
    return LabeledMatrix(
        rows=tuple(g.vertex_names[p] for p in probes),
        cols=g.vertex_names,
        entries=entries,
    )


def symmetric_bigraph(g: Graph) -> LabeledMatrix:
    """Square n x n matrix viewing the graph as a bipartite doubling, with
    a loop added at every probe vertex: the adjacency matrix whose diagonal
    is 1 exactly at probes.  It differs from `augmented_adjacency` only on
    the diagonal at nonprobes."""
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    entries = tuple(
        tuple(
            ONE if g.has_edge(i, j) or (i == j and i not in g.nonprobes) else ZERO
            for j in range(g.n)
        )
        for i in range(g.n)
    )
    return LabeledMatrix(rows=g.vertex_names, cols=g.vertex_names, entries=entries)
