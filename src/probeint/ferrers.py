"""Ferrers bigraphs, couple graphs and low Ferrers-dimension decompositions.

A Ferrers bigraph has vertex neighborhoods linearly ordered by inclusion;
equivalently its biadjacency matrix contains no 2x2 permutation submatrix.
Two zeros forming such a submatrix are a couple, and the graph on zero
positions whose edges are couples is bipartite exactly when the bigraph is
an intersection of two Ferrers bigraphs.  For the square matrix pairing a
graph against itself with unit diagonal, that threshold characterizes
interval graphs, and probe interval graphs with loops added at probes stay
within three factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import (
    KIND_FERRERS_DIM,
    Certificate,
    odd_cycle_witness,
)
from .graphs import Graph, augmented_adjacency, symmetric_bigraph
from .matrices import ONE, ZERO, LabeledMatrix, from_rows


def _one_masks(m: LabeledMatrix) -> list[int]:
    """Per row, the bitmask of the columns holding a 1."""
    return [sum(1 << j for j, e in enumerate(row) if e == ONE) for row in m.entries]


def _is_chain(masks: list[int]) -> bool:
    """True iff the bitmasks are linearly ordered by bitwise inclusion."""
    ordered = sorted(masks, key=lambda m_: bin(m_).count("1"))
    return all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))


def _ferrers_by_inclusion(m01: LabeledMatrix) -> bool:
    return _is_chain(_one_masks(m01))


def _ferrers_by_submatrix(m01: LabeledMatrix) -> bool:
    # literal scan for a 2x2 permutation submatrix
    nr, nc = m01.shape
    for i in range(nr):
        for k in range(nr):
            if i == k:
                continue
            for j in range(nc):
                for l in range(nc):
                    if j == l:
                        continue
                    if (
                        m01.entries[i][j] == ONE
                        and m01.entries[k][l] == ONE
                        and m01.entries[i][l] == ZERO
                        and m01.entries[k][j] == ZERO
                    ):
                        return False
    return True


def is_ferrers(m01: LabeledMatrix) -> bool:
    """Evaluate both definitions; they must agree."""
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    by_inclusion = _ferrers_by_inclusion(m01)
    by_submatrix = _ferrers_by_submatrix(m01)
    if by_inclusion != by_submatrix:
        raise AssertionError("Ferrers definitions disagree")
    return by_inclusion


def couple_graph(m01: LabeledMatrix) -> dict:
    """Graph over the zero positions of a 0/1 matrix; edges are couples.

    Vertices are (row label, column label) pairs.  Zeros at (i, j) and
    (k, l) with i != k, j != l are adjacent iff the entries at (i, l) and
    (k, j) are both 1.
    """
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    nr, nc = m01.shape
    zeros = [
        (i, j) for i in range(nr) for j in range(nc) if m01.entries[i][j] == ZERO
    ]
    label = {(i, j): (m01.rows[i], m01.cols[j]) for i, j in zeros}
    graph: dict = {label[z]: set() for z in zeros}
    for a in range(len(zeros)):
        i, j = zeros[a]
        for b in range(a + 1, len(zeros)):
            k, l = zeros[b]
            if i == k or j == l:
                continue
            if m01.entries[i][l] == ONE and m01.entries[k][j] == ONE:
                graph[label[(i, j)]].add(label[(k, l)])
                graph[label[(k, l)]].add(label[(i, j)])
    return graph


def two_color(graph: dict):
    """2-color a graph given as {vertex: neighbor set}.

    Returns (coloring, None) on success with colors "R"/"C", or
    (None, odd_cycle) where odd_cycle is a list of vertices closing an odd
    cycle.  Traversal order is deterministic: vertices sorted by repr.
    """
    color: dict = {}
    parent: dict = {}
    for u, nbrs, new in _bfs(graph):
        for v in new:
            color[v] = "R" if u is None or color[u] == "C" else "C"
            parent[v] = u
        for v in nbrs:
            if color[v] == color[u]:
                return None, _close_cycle(u, v, parent)
    return color, None


def _bfs(graph: dict):
    """Breadth-first walk over every component of {vertex: neighbor set}.

    Roots and neighbors are taken in repr order.  A component starts with
    (None, (), [root]); then every vertex u, once scanned, gives (u, its
    neighbors, those of them first reached from u).  Being lazy, the walk
    stops as soon as the caller does.
    """
    seen = set()
    for root in sorted(graph, key=repr):
        if root in seen:
            continue
        seen.add(root)
        yield None, (), [root]
        queue = [root]
        for u in queue:  # the queue grows while it is read
            nbrs = sorted(graph[u], key=repr)
            new = [v for v in nbrs if v not in seen]
            seen.update(new)
            queue.extend(new)
            yield u, nbrs, new


def _close_cycle(u, v, parent) -> list:
    """Odd cycle through the conflicting edge (u, v) of a BFS forest."""
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    index = {x: k for k, x in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in index:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    cycle = anc_u[: index[meet] + 1]  # u .. meet
    cycle.reverse()  # meet .. u
    cycle.extend(path_v[:-1])  # v .. a child of meet, which closes it
    return cycle


def ferrers_dim_le_2(m01: LabeledMatrix) -> Certificate:
    """Is the bigraph an intersection of two Ferrers bigraphs?"""
    graph = couple_graph(m01)
    coloring, cycle = two_color(graph)
    if coloring is None:
        return Certificate(
            verdict=False, kind=KIND_FERRERS_DIM, witness=odd_cycle_witness(cycle)
        )
    return Certificate(verdict=True, kind=KIND_FERRERS_DIM, coloring=coloring)


@dataclass(frozen=True)
class FerrersFactorization:
    """Ferrers factors whose entrywise AND equals the target matrix."""

    factors: tuple
    target: LabeledMatrix

    def validate(self) -> bool:
        for f in self.factors:
            if f.rows != self.target.rows or f.cols != self.target.cols:
                return False
            if not is_ferrers(f):
                return False
        nr, nc = self.target.shape
        for i in range(nr):
            for j in range(nc):
                meet = all(f.entries[i][j] == ONE for f in self.factors)
                if meet != (self.target.entries[i][j] == ONE):
                    return False
        return True

    def union_complete(self) -> bool:
        """True iff every position is 1 in at least one factor."""
        nr, nc = self.target.shape
        return all(
            any(f.entries[i][j] == ONE for f in self.factors)
            for i in range(nr)
            for j in range(nc)
        )


def _complement_factor(m01: LabeledMatrix, coloring: dict, color: str) -> LabeledMatrix:
    """All-ones matrix with 0 exactly at the zeros carrying `color`.

    Isolated zero vertices (color "I") are placed in both factors.
    """
    nr, nc = m01.shape
    entries = []
    for i in range(nr):
        row = []
        for j in range(nc):
            key = (m01.rows[i], m01.cols[j])
            assigned = coloring.get(key)
            if assigned == color or assigned == "I":
                row.append(ZERO)
            else:
                row.append(ONE)
        entries.append(tuple(row))
    return from_rows(m01.rows, m01.cols, entries)


def _components(graph: dict) -> list[list]:
    comps: list[list] = []
    for u, _, new in _bfs(graph):
        if u is None:
            comps.append(new)
        else:
            comps[-1].extend(new)
    return comps


def decompose_two_ferrers(m01: LabeledMatrix, coloring: dict) -> FerrersFactorization:
    """Split the zeros into two Ferrers complements along the 2-coloring.

    A proper 2-coloring of the couple graph fixes each nontrivial component
    up to a flip, and some flip assignment always yields Ferrers factors;
    the flips are searched in lexicographic order on the components (sorted
    by their least zero) and the first valid one wins.  Isolated zero
    vertices go into both factors.
    """
    graph = couple_graph(m01)
    if set(coloring) != set(graph):
        raise ValueError("coloring does not cover the couple graph")
    for u in graph:
        for v in graph[u]:
            if coloring[u] == coloring[v]:
                raise ValueError(f"coloring is not proper at {u} / {v}")

    comps = [c_ for c_ in _components(graph) if len(c_) > 1]
    isolated = [u for u in graph if not graph[u]]

    base = dict(coloring)
    for u in isolated:
        base[u] = "I"

    col_of = {c_: j for j, c_ in enumerate(m01.cols)}
    row_of = {r_: i for i, r_ in enumerate(m01.rows)}
    ones = _one_masks(m01)
    comp_of = {}
    for k, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = k

    for flips in range(1 << len(comps)):
        f1_masks = list(ones)
        f2_masks = list(ones)
        assigned = {}
        for u, base_color in base.items():
            i, j = row_of[u[0]], col_of[u[1]]
            color = base_color
            if base_color != "I" and flips >> comp_of[u] & 1:
                color = "C" if base_color == "R" else "R"
            assigned[u] = color
            if color == "R":
                f2_masks[i] |= 1 << j  # this zero belongs to F1 only
            elif color == "C":
                f1_masks[i] |= 1 << j  # this zero belongs to F2 only
            # "I" zeros stay 0 in both factors
        if _is_chain(f1_masks) and _is_chain(f2_masks):
            f1 = _complement_factor(m01, assigned, "R")
            f2 = _complement_factor(m01, assigned, "C")
            fact = FerrersFactorization(factors=(f1, f2), target=m01)
            if not fact.validate():
                raise AssertionError("two-factor decomposition failed validation")
            return fact
    raise AssertionError("no component flip yields two Ferrers factors")


def interval_iff_dim2(g: Graph) -> Certificate:
    """Ferrers-dimension test of the augmented adjacency matrix.

    Yes exactly when the graph is an interval graph; the certificate then
    carries a verified two-factor decomposition.
    """
    m = augmented_adjacency(g)
    cert = ferrers_dim_le_2(m)
    if not cert.verdict:
        return cert
    fact = decompose_two_ferrers(m, cert.coloring)
    return Certificate(
        verdict=True, kind=KIND_FERRERS_DIM, coloring=cert.coloring, factorization=fact
    )


def probe_dim3_decomposition(g: Graph, probe_rep: dict) -> FerrersFactorization:
    """Three Ferrers factors for the probe-loops matrix of a probe interval graph.

    Fills in the nonprobe pairs whose intervals in `probe_rep` intersect to
    get an interval graph, factors its augmented matrix into two Ferrers
    complements, and appends the block factor that is 0 exactly on the
    nonprobe-by-nonprobe square.  The intersection of the three equals the
    adjacency matrix with loops at probes only.
    """
    from .probes import verify_probe_rep

    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    if not verify_probe_rep(g, probe_rep):
        raise ValueError("probe representation fails verification")

    fill = []
    nps = sorted(g.nonprobes)
    for a in range(len(nps)):
        u = nps[a]
        lu, ru = probe_rep[g.vertex_names[u]]
        for b in range(a + 1, len(nps)):
            v = nps[b]
            lv, rv = probe_rep[g.vertex_names[v]]
            if max(lu, lv) <= min(ru, rv):
                fill.append((u, v))
    g1 = g.with_extra_edges(fill)

    m1 = augmented_adjacency(g1)
    cert = ferrers_dim_le_2(m1)
    if not cert.verdict:
        raise AssertionError("filled graph is interval, so its dimension is at most 2")
    two = decompose_two_ferrers(m1, cert.coloring)

    entries = tuple(
        tuple(
            ZERO if (i in g.nonprobes and j in g.nonprobes) else ONE
            for j in range(g.n)
        )
        for i in range(g.n)
    )
    f3 = from_rows(g.vertex_names, g.vertex_names, entries)

    target = symmetric_bigraph(g, probe_loops_only=True)
    fact = FerrersFactorization(factors=two.factors + (f3,), target=target)
    if not fact.validate():
        raise AssertionError("three-factor decomposition failed validation")
    return fact
