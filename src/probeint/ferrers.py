"""Ferrers bigraphs, couple graphs and low Ferrers-dimension decompositions.

A Ferrers bigraph has vertex neighborhoods linearly ordered by inclusion,
which is the one test used here; equivalently its biadjacency matrix
contains no 2x2 permutation submatrix (`oracles.ferrers_oracle`).
Two zeros forming such a submatrix are a couple, and the graph on zero
positions whose edges are couples is bipartite exactly when the bigraph is
an intersection of two Ferrers bigraphs (Cogis 1982).  Each factor is then
a threshold extension of one color class: a Ferrers matrix holding every 1
and 0 on that class, read off the longest-path levels of a row-column
digraph.  For the square matrix pairing a graph against itself with unit
diagonal, that threshold characterizes interval graphs, and probe interval
graphs with loops added at probes stay within three factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certificates import (
    KIND_FERRERS_DIM,
    Certificate,
    VerificationError,
    odd_cycle_witness,
)
from .graphs import Graph, augmented_adjacency, symmetric_bigraph
from .intervals import _verify_rep
from .matrices import C, ONE, R, ZERO, LabeledMatrix, from_rows


def _one_masks(m: LabeledMatrix) -> list[int]:
    """Per row, the bitmask of the columns holding a 1."""
    return [sum(1 << j for j, e in enumerate(row) if e == ONE) for row in m.entries]


def _is_chain(masks: list[int]) -> bool:
    """True iff the bitmasks are linearly ordered by bitwise inclusion."""
    ordered = sorted(masks, key=lambda m_: bin(m_).count("1"))
    return all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))


def is_ferrers(m01: LabeledMatrix) -> bool:
    """True iff the rows' sets of 1s are linearly ordered by inclusion."""
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    return _is_chain(_one_masks(m01))


def couple_graph(m01: LabeledMatrix) -> dict:
    """Graph over the zero positions of a matrix over {0, 1, X}; edges are
    couples.

    Vertices are (row label, column label) pairs.  Zeros at (i, j) and
    (k, l) with i != k, j != l are adjacent iff the entries at (i, l) and
    (k, j) are both 1.  An X is neither 0 nor 1, as in the quasi-x-linear
    scan; R and C are rejected.
    """
    if any(e in (R, C) for row in m01.entries for e in row):
        raise ValueError("matrix is not over {0, 1, X}")
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
    """Is the bigraph an intersection of two Ferrers bigraphs?

    A no carries an odd couple cycle.  A yes carries `two_color`'s coloring
    and the verified factors extending its two classes.  Cogis 1982 gives
    only that some proper coloring extends; this one failing to is an error.
    """
    graph = couple_graph(m01)
    coloring, cycle = two_color(graph)
    if coloring is None:
        return Certificate(
            verdict=False, kind=KIND_FERRERS_DIM, witness=odd_cycle_witness(cycle)
        )
    fact = _extensions(m01, coloring)
    if fact is None:
        raise VerificationError("the couple graph's 2-coloring has no Ferrers extension")
    _validated(fact)
    return Certificate(
        verdict=True, kind=KIND_FERRERS_DIM, coloring=coloring, factorization=fact
    )


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


def _components(graph: dict) -> list[list]:
    comps: list[list] = []
    for u, _, new in _bfs(graph):
        if u is None:
            comps.append(new)
        else:
            comps[-1].extend(new)
    return comps


def decompose_two_ferrers(m01: LabeledMatrix, coloring: dict) -> FerrersFactorization:
    """Two Ferrers factors of m01 extending a proper 2-coloring of its
    couple graph: the first is 0 on the R zeros, the second on the C zeros.

    Raises ValueError when the coloring is not proper or has no extension;
    not every proper coloring of a bipartite couple graph has one.
    """
    graph = couple_graph(m01)
    if set(coloring) != set(graph):
        raise ValueError("coloring does not cover the couple graph")
    for u in graph:
        for v in graph[u]:
            if coloring[u] == coloring[v]:
                raise ValueError(f"coloring is not proper at {u} / {v}")
    fact = _extensions(m01, coloring)
    if fact is None:
        raise ValueError("coloring does not extend to two Ferrers factors")
    return _validated(fact)


def _extensions(m01: LabeledMatrix, coloring: dict) -> Optional[FerrersFactorization]:
    """The extensions of the R and of the C class of a coloring of m01's
    zeros, or None when either class has none."""
    row_at = {r_: i for i, r_ in enumerate(m01.rows)}
    col_at = {c_: j for j, c_ in enumerate(m01.cols)}
    factors = []
    for color in (R, C):
        avoid = [(row_at[r_], col_at[c_]) for (r_, c_), k in coloring.items() if k == color]
        factor = _extend(m01, avoid)
        if factor is None:
            return None
        factors.append(factor)
    return FerrersFactorization(factors=tuple(factors), target=m01)


def _extend(m01: LabeledMatrix, avoid: list) -> Optional[LabeledMatrix]:
    """A Ferrers matrix holding every 1 of m01 and 0 at the (i, j) in
    `avoid`, or None when there is none.

    It is a threshold: 1 exactly where x_i <= a_j, for a level x_i per row
    and a_j per column, with an edge row i -> column j of weight 0 per 1
    and an edge column j -> row i of weight 1 per avoided zero.  Every cycle
    passes a weight-1 edge, so levels exist iff the digraph is acyclic, and
    the longest-path levels along a topological order are some.
    """
    nr, nc = m01.shape
    succ: list[list[int]] = [[] for _ in range(nr + nc)]  # columns are nr + j
    for i, row in enumerate(m01.entries):
        succ[i] = [nr + j for j, e in enumerate(row) if e == ONE]
    for i, j in avoid:
        succ[nr + j].append(i)
    indegree = [0] * (nr + nc)
    for out in succ:
        for v in out:
            indegree[v] += 1
    level = [0] * (nr + nc)
    order = [v for v in range(nr + nc) if indegree[v] == 0]
    for u in order:  # Kahn's algorithm; the order grows while it is read
        step = level[u] + (u >= nr)
        for v in succ[u]:
            level[v] = max(level[v], step)
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
    if len(order) < nr + nc:
        return None
    return from_rows(
        m01.rows,
        m01.cols,
        [[ONE if level[i] <= level[nr + j] else ZERO for j in range(nc)] for i in range(nr)],
    )


def _validated(fact: FerrersFactorization) -> FerrersFactorization:
    if not fact.validate():
        raise VerificationError(f"{len(fact.factors)}-factor decomposition failed validation")
    return fact


def interval_iff_dim2(g: Graph) -> Certificate:
    """Ferrers-dimension test of the augmented adjacency matrix.

    Yes exactly when the graph is an interval graph; the certificate then
    carries a verified two-factor decomposition.
    """
    return ferrers_dim_le_2(augmented_adjacency(g))


def probe_dim3_decomposition(g: Graph, probe_rep: dict) -> FerrersFactorization:
    """Three Ferrers factors for the probe-loops matrix of a probe interval graph.

    With [l_u, r_u] the interval of u in the verified `probe_rep`, the first
    factor is 1 where l_u <= r_v and the second where l_v <= r_u; each is a
    threshold, so Ferrers, their union is complete and their intersection
    is "the intervals meet".  The third factor is 0 exactly on the
    nonprobe-by-nonprobe square.  The intersection of the three equals the
    adjacency matrix with loops at probes only.
    """
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    if not _verify_rep(g, probe_rep, g.nonprobes):
        raise ValueError("probe representation fails verification")

    spans = [probe_rep[name] for name in g.vertex_names]

    def factor(holds) -> LabeledMatrix:
        return from_rows(
            g.vertex_names,
            g.vertex_names,
            [[ONE if holds(u, v) else ZERO for v in range(g.n)] for u in range(g.n)],
        )

    factors = (
        factor(lambda u, v: spans[u][0] <= spans[v][1]),
        factor(lambda u, v: spans[v][0] <= spans[u][1]),
        factor(lambda u, v: not (u in g.nonprobes and v in g.nonprobes)),
    )
    target = symmetric_bigraph(g)
    return _validated(FerrersFactorization(factors=factors, target=target))
