"""Probe interval graph recognition, three independent routes.

A graph with independent nonprobe set N is a probe interval graph when its
vertices carry intervals and adjacency means intersection with at least one
probe endpoint.  Three equivalent matrix characterizations are implemented:

  * qxl:   some symmetric order of the augmented adjacency matrix satisfies
           the quasi-x-linear ones property (nonprobe-square zeros marked X
           are exempt from the consecutive-ones requirement);
  * char1: the probes-by-vertices bigraph admits an R-C partition avoiding
           the 2x3 pattern [1 1 R / 1 1 C] on probe rows p, q and a
           nonprobe column n;
  * char2: the couple graph of the augmented matrix, reduced by dropping
           the nonprobe-square zeros, is bipartite with a bipartation whose
           restriction to the probe rows is an R-C partition.

Every yes answer carries an interval assignment that has been verified
against the probe adjacency rule before being returned.  The qxl route runs
the interval module's order search (`_search_quasi_linear`) and ones scan
(`_scan_quasi_linear`) with the nonprobe pairs left neutral, and
`verify_probe_rep` shares its body (`_verify_rep`) with
`verify_interval_rep`.  char1 and char2 run the R-C partition engine of
`bigraphs` (`_search_colorings`, the component-flip search behind
`find_rc_partition`): char1 adds the forbidden-pattern prune and a
`scan_forbidden` leaf check, char2 searches the reduced graph and labels
only its probe rows.  Both then share the constructive pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bigraphs import (
    _positions_by_label,
    _search_colorings,
    check_rc_valid,
    diagonalize_with_method,
    intervals_from_diagonalized,
)
from .certificates import (
    KIND_PROBE_CHAR1,
    KIND_PROBE_CHAR2,
    KIND_QXL,
    ROUTE_CHAR1,
    ROUTE_CHAR2,
    ROUTE_QXL,
    ProbeCertificate,
    exhausted_witness,
    odd_cycle_witness,
)
from .ferrers import couple_graph, two_color
from .graphs import Graph, augmented_adjacency, probe_bigraph
from .intervals import (
    _require_symmetric_unit_diagonal,
    _scan_quasi_linear,
    _search_quasi_linear,
    _verify_rep,
    intervals_from_quasi_linear,
    is_interval_graph,
)
from .matrices import C, ONE, R, X, ZERO, LabeledMatrix


# ---------------------------------------------------------------------------
# quasi-x-linear route


def x_mark_nonprobes(m: LabeledMatrix, nonprobes) -> LabeledMatrix:
    """Mark the off-diagonal zeros of the nonprobe principal square as X.

    The nonprobe-by-nonprobe principal submatrix must be an identity matrix
    (this is exactly independence of the nonprobe set).
    """
    nonprobes = set(nonprobes)
    n = len(m.rows)
    marks = {}
    for i in range(n):
        if m.rows[i] not in nonprobes:
            continue
        for j in range(n):
            if i == j or m.cols[j] not in nonprobes:
                continue
            if m.entries[i][j] != ZERO:
                raise ValueError(
                    "nonprobe principal submatrix is not an identity matrix"
                )
            marks[(i, j)] = X
    return m.relabeled(marks)


def is_quasi_x_linear(m: LabeledMatrix, order: Sequence, nonprobes) -> bool:
    """Does the symmetric permutation `order` satisfy the quasi-x-linear
    ones property, with X marking the nonprobe-square zeros?"""
    _require_symmetric_unit_diagonal(m)
    marked = x_mark_nonprobes(m, nonprobes)
    return _scan_quasi_linear(marked.permuted(tuple(order), tuple(order)))


def x_fill(m_qxl: LabeledMatrix) -> LabeledMatrix:
    """Resolve X marks so the result is quasi-linear in the stored order.

    Row rule (mirrored below the diagonal): an X before the row's first
    plain 0 right of the diagonal becomes 1, any later X becomes 0.  Only X
    positions change; the result is symmetric and quasi-linear.
    """
    if not _scan_quasi_linear(m_qxl):
        raise ValueError("matrix does not satisfy the quasi-x-linear property")
    n = len(m_qxl.rows)
    grid = [list(row) for row in m_qxl.entries]
    for i in range(n):
        first_zero = n
        for j in range(i + 1, n):
            if grid[i][j] == ZERO:
                first_zero = j
                break
        for j in range(i + 1, n):
            if m_qxl.entries[i][j] == X:
                value = ONE if j < first_zero else ZERO
                grid[i][j] = value
                grid[j][i] = value
    out = LabeledMatrix(
        rows=m_qxl.rows,
        cols=m_qxl.cols,
        entries=tuple(tuple(r_) for r_ in grid),
    )
    if not out.is_symmetric():
        raise AssertionError("x-filled matrix is not symmetric")
    return out


def _probe_cert(g: Graph, kind: str, route: str, **evidence) -> ProbeCertificate:
    """A certificate from `route`, naming the nonprobes of g in sorted order."""
    nonprobe_names = tuple(sorted(g.vertex_names[v] for v in g.nonprobes))
    return ProbeCertificate(
        kind=kind, route=route, nonprobes=nonprobe_names, **evidence
    )


def _trivial_certificate(g: Graph, kind: str, route: str) -> Optional[ProbeCertificate]:
    """Shortcuts for degenerate instances; None when the full route must run.

    Raises when g has no nonprobe set.  An empty nonprobe set reduces to
    interval recognition.  An empty probe set forces an edgeless graph (the
    nonprobes are independent), which is trivially a probe interval graph.
    """
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    if not g.nonprobes:
        cert = is_interval_graph(g)
        return _probe_cert(
            g,
            kind,
            route,
            verdict=cert.verdict,
            order=cert.order,
            intervals=cert.intervals,
            witness=cert.witness,
        )
    if len(g.nonprobes) == g.n:
        intervals = {g.vertex_names[v]: (v + 1, v + 1) for v in range(g.n)}
        if not verify_probe_rep(g, intervals):
            raise AssertionError("edgeless representation failed verification")
        return _probe_cert(g, kind, route, verdict=True, intervals=intervals)
    return None


def recognize_qxl(g: Graph) -> ProbeCertificate:
    """Probe interval recognition by quasi-x-linear order search."""
    shortcut = _trivial_certificate(g, KIND_QXL, ROUTE_QXL)
    if shortcut is not None:
        return shortcut

    ones = [set(g.neighbors(u)) for u in range(g.n)]
    zeros = [set(range(g.n)) - ones[u] - {u} for u in range(g.n)]
    for u in g.nonprobes:
        zeros[u] -= g.nonprobes  # nonprobe pairs are X: neither 1 nor 0
    placed = _search_quasi_linear(ones, zeros)
    if placed is None:
        return _probe_cert(
            g, KIND_QXL, ROUTE_QXL, verdict=False, witness=exhausted_witness()
        )

    order = tuple(g.vertex_names[v] for v in placed)
    nonprobe_names = [g.vertex_names[v] for v in g.nonprobes]
    marked = x_mark_nonprobes(augmented_adjacency(g), nonprobe_names)
    filled = x_fill(marked.permuted(order, order))
    intervals = intervals_from_quasi_linear(filled, filled.rows)
    if not verify_probe_rep(g, intervals):
        raise AssertionError("qxl representation failed verification")
    return _probe_cert(
        g, KIND_QXL, ROUTE_QXL, verdict=True, order=order, intervals=intervals
    )


def verify_probe_rep(g: Graph, intervals: dict) -> bool:
    """Adjacency iff intervals intersect and at least one endpoint is a probe."""
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    return _verify_rep(g, intervals, g.nonprobes)


# ---------------------------------------------------------------------------
# forbidden-pattern route (char1)


def scan_forbidden(m: LabeledMatrix, probes, nonprobes) -> Optional[tuple]:
    """First (p, q, n) with probe rows p, q joined by a 1 block and a
    nonprobe column n labeled R in p's row and C in q's row.

    The test reads labels only, so it is invariant under any row or column
    permutation that preserves them.
    """
    probes = [p for p in m.rows if p in set(probes)]
    nonprobes = [v for v in m.cols if v in set(nonprobes)]
    for p in probes:
        for q in probes:
            if p == q:
                continue
            if m.entry(p, q) != ONE or m.entry(q, p) != ONE:
                continue
            if m.entry(p, p) != ONE or m.entry(q, q) != ONE:
                continue
            for n_ in nonprobes:
                if m.entry(p, n_) == R and m.entry(q, n_) == C:
                    return (p, q, n_)
    return None


def _probe_pipeline(
    g: Graph, labeled: LabeledMatrix, kind: str, route: str
) -> ProbeCertificate:
    """Align, diagonalize and extract a verified probe representation."""
    aligned = align_probe_columns(labeled)
    intervals = probe_representation(aligned, g)
    return _probe_cert(
        g,
        kind,
        route,
        verdict=True,
        row_order=aligned.rows,
        col_order=aligned.cols,
        labeling=aligned,
        intervals=intervals,
    )


def recognize_char1(g: Graph) -> ProbeCertificate:
    """Probe interval recognition via pattern-free R-C partitions.

    Enumerates the proper 2-colorings of the couple graph of the
    probes-by-vertices matrix (component flips; isolated zeros are free
    singletons), keeping colorings that extend to row/column orders and
    avoid the forbidden pattern.  The first surviving labeling is turned
    into a verified representation.
    """
    shortcut = _trivial_certificate(g, KIND_PROBE_CHAR1, ROUTE_CHAR1)
    if shortcut is not None:
        return shortcut
    nonprobe_names = tuple(sorted(g.vertex_names[v] for v in g.nonprobes))
    probe_names = tuple(g.vertex_names[p] for p in g.probes)

    m01 = probe_bigraph(g)
    graph = couple_graph(m01)
    coloring, cycle = two_color(graph)
    if coloring is None:
        return _probe_cert(
            g,
            KIND_PROBE_CHAR1,
            ROUTE_CHAR1,
            verdict=False,
            witness=odd_cycle_witness(cycle),
        )

    pos_of = _positions_by_label(m01)
    pattern_pairs = []
    for p in probe_names:
        for q in probe_names:
            if p == q:
                continue
            if m01.entry(p, q) == ONE and m01.entry(q, p) == ONE:
                for n_ in nonprobe_names:
                    pattern_pairs.append((pos_of[(p, n_)], pos_of[(q, n_)]))

    def has_pattern(labels: dict) -> bool:
        return any(
            labels.get(pn) == R and labels.get(qn) == C for pn, qn in pattern_pairs
        )

    def pattern_free(labeled: LabeledMatrix) -> bool:
        return scan_forbidden(labeled, probe_names, nonprobe_names) is None

    labeled = _search_colorings(m01, graph, coloring, pos_of, has_pattern, pattern_free)
    if labeled is not None:
        return _probe_pipeline(g, labeled, KIND_PROBE_CHAR1, ROUTE_CHAR1)
    # the no-answer also reports whether the bigraph alone was recognizable
    witness = exhausted_witness()
    witness["interval_bigraph"] = (
        _search_colorings(m01, graph, coloring, pos_of) is not None
    )
    return _probe_cert(g, KIND_PROBE_CHAR1, ROUTE_CHAR1, verdict=False, witness=witness)


# ---------------------------------------------------------------------------
# constructive representation shared by char1 and char2


def align_probe_columns(m: LabeledMatrix) -> LabeledMatrix:
    """Permute columns so the probe columns follow the row order.

    Repeatedly shifts an out-of-order probe column to just after the column
    of its row-order predecessor; each shift preserves R-C validity and
    pattern-freeness for a valid pattern-free input, which is re-checked.
    """
    probes = list(m.rows)
    nonprobes = [c_ for c_ in m.cols if c_ not in set(probes)]
    if not check_rc_valid(m):
        raise ValueError("matrix is not a valid R-C partition")
    if scan_forbidden(m, probes, nonprobes) is not None:
        raise ValueError("matrix contains the forbidden pattern")
    current = m
    for t, p in enumerate(probes):
        while True:
            cols = list(current.cols)
            p_at = cols.index(p)
            offenders = [
                (cols.index(q), q)
                for q in probes[t + 1 :]
                if cols.index(q) < p_at
            ]
            if not offenders:
                break
            _, q = min(offenders)
            cols.remove(q)
            cols.insert(cols.index(p) + 1, q)
            current = current.permuted(current.rows, cols)
            if not check_rc_valid(current):
                raise AssertionError("column shift broke the R-C partition")
            if scan_forbidden(current, probes, nonprobes) is not None:
                raise AssertionError("column shift introduced the forbidden pattern")
    return current


def probe_representation(m_aligned: LabeledMatrix, g: Optional[Graph] = None) -> dict:
    """Intervals for all vertices from an aligned pattern-free R-C matrix.

    Probes get the sum of their row and column intervals of the
    diagonalized matrix.  A nonprobe column ends just before the least
    left endpoint among its C-labeled probe rows (or at a right sentinel
    beyond every probe endpoint when it has no C), and starts just after
    the greatest right endpoint among its R rows (or at 0 with no R).
    """
    probes = list(m_aligned.rows)
    probe_set = set(probes)
    nonprobes = [c_ for c_ in m_aligned.cols if c_ not in probe_set]
    if [c_ for c_ in m_aligned.cols if c_ in probe_set] != probes:
        raise ValueError("probe columns are not aligned with the rows")

    diag, _ = diagonalize_with_method(m_aligned)
    iv = intervals_from_diagonalized(diag)

    assignment: dict = {}
    for p in probes:
        a1, b1 = iv.rows[p]
        a2, b2 = iv.cols[p]
        assignment[p] = (a1 + a2, b1 + b2)
    sentinel = max((b for _, b in assignment.values()), default=0) + 1

    for n_ in nonprobes:
        r_ends = [assignment[p][1] for p in probes if m_aligned.entry(p, n_) == R]
        c_starts = [assignment[p][0] for p in probes if m_aligned.entry(p, n_) == C]
        left = max(r_ends) + 1 if r_ends else 0
        right = min(c_starts) - 1 if c_starts else sentinel
        if left > right:
            raise AssertionError(
                f"nonprobe interval for {n_} is empty: [{left}, {right}]"
            )
        assignment[n_] = (left, right)

    if g is not None and not verify_probe_rep(g, assignment):
        raise AssertionError("probe representation failed verification")
    return assignment


# ---------------------------------------------------------------------------
# reduced associated graph route (char2)


def reduced_associated_graph(g: Graph) -> dict:
    """Couple graph of the augmented adjacency matrix minus the vertices
    sitting in the nonprobe-by-nonprobe square."""
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    nonprobe_names = {g.vertex_names[v] for v in g.nonprobes}
    full = couple_graph(augmented_adjacency(g))
    dropped = {
        v for v in full if v[0] in nonprobe_names and v[1] in nonprobe_names
    }
    return {
        v: {w for w in nbrs if w not in dropped}
        for v, nbrs in full.items()
        if v not in dropped
    }


def recognize_char2(g: Graph) -> ProbeCertificate:
    """Probe interval recognition via the reduced associated graph.

    2-colors the reduced couple graph of the augmented matrix and searches
    its component flips for a coloring whose restriction to the probe rows
    is an R-C partition of the probes-by-vertices matrix.  Success implies
    that matrix is an interval bigraph, and such a restriction can never
    carry the forbidden pattern (the pattern's nonprobe column would close
    a couple with equal colors), so the same constructive pipeline applies.
    """
    shortcut = _trivial_certificate(g, KIND_PROBE_CHAR2, ROUTE_CHAR2)
    if shortcut is not None:
        return shortcut
    nonprobe_names = tuple(sorted(g.vertex_names[v] for v in g.nonprobes))
    probe_names = tuple(g.vertex_names[p] for p in g.probes)

    reduced = reduced_associated_graph(g)
    coloring, cycle = two_color(reduced)
    if coloring is None:
        return _probe_cert(
            g,
            KIND_PROBE_CHAR2,
            ROUTE_CHAR2,
            verdict=False,
            witness=odd_cycle_witness(cycle),
        )

    # a probe-nonprobe zero and its mirror form a couple (both diagonal
    # entries are 1), so they are colored apart under every component flip
    probe_set = set(probe_names)
    for (u, v), col in coloring.items():
        mirror = coloring.get((v, u))
        if u in probe_set and v not in probe_set and mirror in (None, col):
            raise AssertionError(f"zero {(u, v)} and its mirror are not colored apart")

    # the probe rows of the augmented matrix are the probes-by-vertices
    # matrix, so the engine labels exactly the restriction to them
    labeled = _search_colorings(
        probe_bigraph(g), reduced, coloring, _positions_by_label(augmented_adjacency(g))
    )
    if labeled is None:
        return _probe_cert(
            g, KIND_PROBE_CHAR2, ROUTE_CHAR2, verdict=False, witness=exhausted_witness()
        )
    if scan_forbidden(labeled, probe_names, nonprobe_names) is not None:
        raise AssertionError("char2 partition carries the forbidden pattern")
    return _probe_pipeline(g, labeled, KIND_PROBE_CHAR2, ROUTE_CHAR2)
