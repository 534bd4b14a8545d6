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
  * char2: the couple graph of the augmented matrix with the
           nonprobe-square zeros marked X (so they are no vertices, as in
           qxl) is bipartite with a bipartition whose restriction to the
           probe rows is an R-C partition.

Every yes answer carries an interval assignment that has been verified
against the probe adjacency rule before being returned.  The qxl route is
the interval route, `find_quasi_linear_order` then
`intervals_from_quasi_linear`, on the augmented matrix with the nonprobe
square marked X, which both leave neutral; `verify_probe_rep` shares its
body (`_verify_rep`) with `verify_interval_rep`.  char1 and char2 run the
R-C partition engine of `bigraphs` (`_search_colorings`, the component-flip
search behind `find_rc_partition`): char1 adds the forbidden-pattern prune,
char2 searches the reduced graph and labels only its probe rows.  Both
recheck the partition found with `scan_forbidden`, then share the
constructive pipeline.
"""

from __future__ import annotations

from typing import Optional

from .bigraphs import (
    _positions_by_label,
    _search_colorings,
    check_rc_valid,
    diagonalize,
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
    VerificationError,
    exhausted_witness,
    odd_cycle_witness,
)
from .ferrers import couple_graph, two_color
from .graphs import Graph, augmented_adjacency, probe_bigraph
from .intervals import _verify_rep, find_quasi_linear_order, intervals_from_quasi_linear
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


def _nonprobe_names(g: Graph) -> tuple:
    return tuple(sorted(g.vertex_names[v] for v in g.nonprobes))


def _probe_cert(g: Graph, kind: str, route: str, **evidence) -> ProbeCertificate:
    """A certificate from `route`, naming the nonprobes of g in sorted order."""
    return ProbeCertificate(
        kind=kind, route=route, nonprobes=_nonprobe_names(g), **evidence
    )


def _require_nonprobes(g: Graph) -> None:
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")


def recognize_qxl(g: Graph) -> ProbeCertificate:
    """Probe interval recognition by quasi-x-linear order search: the
    interval route on the augmented matrix with the nonprobe square X."""
    _require_nonprobes(g)
    marked = x_mark_nonprobes(augmented_adjacency(g), _nonprobe_names(g))
    cert = find_quasi_linear_order(marked)
    if not cert.verdict:
        return _probe_cert(g, KIND_QXL, ROUTE_QXL, verdict=False, witness=cert.witness)
    intervals = intervals_from_quasi_linear(marked, cert.order)
    if not verify_probe_rep(g, intervals):
        raise VerificationError("qxl representation failed verification")
    return _probe_cert(
        g, KIND_QXL, ROUTE_QXL, verdict=True, order=cert.order, intervals=intervals
    )


def verify_probe_rep(g: Graph, intervals: dict) -> bool:
    """Adjacency iff intervals intersect and at least one endpoint is a probe."""
    _require_nonprobes(g)
    return _verify_rep(g, intervals, g.nonprobes)


# ---------------------------------------------------------------------------
# forbidden-pattern route (char1)


def scan_forbidden(m: LabeledMatrix, probes, nonprobes) -> Optional[tuple]:
    """First (p, q, n) with probe rows p, q joined by a 1 block and a
    nonprobe column n labeled R in p's row and C in q's row: p first in
    row order, then q, then n in column order.

    The test reads labels only, so it is invariant under any row or column
    permutation that preserves them.  The labels are turned into indices
    once: each probe row carries its column index and the bitmasks of its
    R and its C nonprobe columns, whose least common bit is the first n.
    """
    probes, nonprobes = set(probes), set(nonprobes)
    col_at = {c_: j for j, c_ in enumerate(m.cols)}
    cols = [j for j, c_ in enumerate(m.cols) if c_ in nonprobes]

    def marks(row: tuple, label: str) -> int:
        return sum(1 << j for j in cols if row[j] == label)

    rows = [
        (i, col_at[p], marks(m.entries[i], R), marks(m.entries[i], C))
        for i, p in enumerate(m.rows)
        if p in probes
    ]
    e = m.entries
    for i, ic, r_marks, _ in rows:
        for k, kc, _, c_marks in rows:
            # a row's R and C marks are disjoint, so k == i never matches
            both = r_marks & c_marks
            if both and e[i][kc] == e[k][ic] == e[i][ic] == e[k][kc] == ONE:
                return m.rows[i], m.rows[k], m.cols[(both & -both).bit_length() - 1]
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
    _require_nonprobes(g)
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

    # row a of m01 is probe probes[a], column v is vertex v
    probes, nonprobes = g.probes, sorted(g.nonprobes)
    pattern_pairs = [
        ((a, n_), (b, n_))
        for a, p in enumerate(probes)
        for b, q in enumerate(probes)
        if a != b and m01.entries[a][q] == ONE and m01.entries[b][p] == ONE
        for n_ in nonprobes
    ]

    def has_pattern(labels: dict) -> bool:
        return any(
            labels.get(pn) == R and labels.get(qn) == C for pn, qn in pattern_pairs
        )

    labeled = _search_colorings(m01, graph, coloring, prune=has_pattern)
    if labeled is not None:
        if scan_forbidden(labeled, m01.rows, _nonprobe_names(g)) is not None:
            raise VerificationError("char1 partition carries the forbidden pattern")
        return _probe_pipeline(g, labeled, KIND_PROBE_CHAR1, ROUTE_CHAR1)
    # the no-answer also reports whether the bigraph alone was recognizable
    witness = exhausted_witness()
    witness["interval_bigraph"] = _search_colorings(m01, graph, coloring) is not None
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
    probe_set = set(probes)
    nonprobes = [c_ for c_ in m.cols if c_ not in probe_set]
    if not check_rc_valid(m):
        raise ValueError("matrix is not a valid R-C partition")
    if scan_forbidden(m, probes, nonprobes) is not None:
        raise ValueError("matrix contains the forbidden pattern")
    current = m
    cols = list(m.cols)
    at = {c_: j for j, c_ in enumerate(cols)}  # column label -> position
    for t, p in enumerate(probes):
        while True:
            offenders = [q for q in probes[t + 1 :] if at[q] < at[p]]
            if not offenders:
                break
            lo, hi = min(at[q] for q in offenders), at[p]
            cols.insert(hi, cols.pop(lo))  # the first offender moves to just after p
            at.update((c_, j) for j, c_ in enumerate(cols[lo : hi + 1], lo))
            current = current.permuted(current.rows, cols)
            if not check_rc_valid(current):
                raise VerificationError("column shift broke the R-C partition")
            if scan_forbidden(current, probes, nonprobes) is not None:
                raise VerificationError("column shift introduced the forbidden pattern")
    return current


def probe_representation(m_aligned: LabeledMatrix, g: Graph) -> dict:
    """Verified intervals for all vertices of g from an aligned
    pattern-free R-C matrix.

    Probes get the sum of their row and column intervals of the
    diagonalized matrix.  A nonprobe column ends just before the least
    left endpoint among its C-labeled probe rows (or at a right sentinel
    beyond every probe endpoint when it has no C), and starts just after
    the greatest right endpoint among its R rows (or at 0 with no R).
    """
    probes = m_aligned.rows
    probe_set = set(probes)
    if tuple(c_ for c_ in m_aligned.cols if c_ in probe_set) != probes:
        raise ValueError("probe columns are not aligned with the rows")

    iv = intervals_from_diagonalized(diagonalize(m_aligned))

    assignment: dict = {}
    for p in probes:
        a1, b1 = iv.rows[p]
        a2, b2 = iv.cols[p]
        assignment[p] = (a1 + a2, b1 + b2)
    sentinel = max((b for _, b in assignment.values()), default=0) + 1

    for j, n_ in enumerate(m_aligned.cols):
        if n_ in probe_set:
            continue
        column = [(assignment[p], row[j]) for p, row in zip(probes, m_aligned.entries)]
        r_ends = [b for (_, b), e in column if e == R]
        c_starts = [a for (a, _), e in column if e == C]
        left = max(r_ends) + 1 if r_ends else 0
        right = min(c_starts) - 1 if c_starts else sentinel
        if left > right:
            raise VerificationError(
                f"nonprobe interval for {n_} is empty: [{left}, {right}]"
            )
        assignment[n_] = (left, right)

    if not verify_probe_rep(g, assignment):
        raise VerificationError("probe representation failed verification")
    return assignment


# ---------------------------------------------------------------------------
# reduced associated graph route (char2)


def reduced_associated_graph(g: Graph) -> dict:
    """Couple graph of the augmented adjacency matrix with the
    nonprobe-square zeros marked X, so that they are no vertices."""
    _require_nonprobes(g)
    return couple_graph(x_mark_nonprobes(augmented_adjacency(g), _nonprobe_names(g)))


def recognize_char2(g: Graph) -> ProbeCertificate:
    """Probe interval recognition via the reduced associated graph.

    2-colors the reduced couple graph of the augmented matrix and searches
    its component flips for a coloring whose restriction to the probe rows
    is an R-C partition of the probes-by-vertices matrix.  Success implies
    that matrix is an interval bigraph, and such a restriction can never
    carry the forbidden pattern (the pattern's nonprobe column would close
    a couple with equal colors), so the same constructive pipeline applies.
    """
    _require_nonprobes(g)
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
    nonprobes = set(_nonprobe_names(g))
    for (u, v), col in coloring.items():
        mirror = coloring.get((v, u))
        if u not in nonprobes and v in nonprobes and mirror in (None, col):
            raise VerificationError(
                f"zero {(u, v)} and its mirror are not colored apart"
            )

    # the probe rows of the augmented matrix are the probes-by-vertices
    # matrix, so the engine labels exactly the restriction to them
    m01 = probe_bigraph(g)
    labeled = _search_colorings(
        m01, reduced, coloring, _positions_by_label(g.vertex_names, g.vertex_names)
    )
    if labeled is None:
        return _probe_cert(
            g, KIND_PROBE_CHAR2, ROUTE_CHAR2, verdict=False, witness=exhausted_witness()
        )
    if scan_forbidden(labeled, m01.rows, nonprobes) is not None:
        raise VerificationError("char2 partition carries the forbidden pattern")
    return _probe_pipeline(g, labeled, KIND_PROBE_CHAR2, ROUTE_CHAR2)
