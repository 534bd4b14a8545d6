"""Interval graph recognition through symmetric matrix orderings.

A graph is an interval graph exactly when its augmented adjacency matrix
can be symmetrically permuted so that in every row the 1s to the right of
the diagonal are consecutive starting at the diagonal (and, by symmetry,
likewise below it).  Recognition here is an exact backtracking search over
vertex orders: desk-scale instances are the target, and the produced order
doubles as a checkable certificate.

The order search `_search_quasi_linear`, the ones scan `_scan_quasi_linear`
and the representation check `_verify_rep` are shared with the probe
routes: there the X-marked nonprobe pairs are neutral, neither a 1 nor a 0.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .certificates import KIND_INTERVAL, Certificate, exhausted_witness
from .graphs import Graph, augmented_adjacency
from .matrices import ONE, X, LabeledMatrix


def _require_symmetric_unit_diagonal(m: LabeledMatrix) -> None:
    if not m.is_square():
        raise ValueError("matrix is not square")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    if any(m.entries[i][i] != ONE for i in range(len(m.rows))):
        raise ValueError("diagonal is not all 1")


def _scan_quasi_linear(p: LabeledMatrix) -> bool:
    """Quasi-linear test in the stored order: right of the diagonal no 1
    follows a 0 in any row, and below it none in any column.  X entries are
    neutral, which makes this the quasi-x-linear test as well."""
    for grid in (p.entries, tuple(zip(*p.entries))):  # rows, then columns
        for i, line in enumerate(grid):
            seen_zero = False
            for e in line[i + 1 :]:
                if e == ONE:
                    if seen_zero:
                        return False
                elif e != X:
                    seen_zero = True
    return True


def is_quasi_linear(m: LabeledMatrix, order: Sequence) -> bool:
    """True iff under the symmetric permutation `order` the 1s right of and
    below the principal diagonal are consecutive from the diagonal."""
    _require_symmetric_unit_diagonal(m)
    return _scan_quasi_linear(m.permuted(tuple(order), tuple(order)))


def _search_quasi_linear(
    ones: list[set[int]], zeros: list[set[int]]
) -> Optional[list[int]]:
    """Lexicographically least vertex order whose symmetric permutation is
    quasi-linear, or None.

    `ones[u]` and `zeros[u]` are the vertices other than u whose entry in
    row u is 1 and 0; a pair in neither (an X) constrains nothing.
    Backtracking over prefixes.  A prefix is extended by vertex v only if no
    already placed row that has seen a 0 (against placed columns, right of
    its diagonal) would now see a 1: such a row's 1s would no longer be
    consecutive no matter how the order is completed.
    """
    n = len(ones)
    placed: list[int] = []
    gap: list[bool] = []  # gap[k]: row placed[k] has a 0 right of its diagonal
    used = [False] * n

    def extend() -> bool:
        if len(placed) == n:
            return True
        for v in range(n):
            if used[v]:
                continue
            ok = True
            for k, u in enumerate(placed):
                if gap[k] and v in ones[u]:
                    ok = False
                    break
            if not ok:
                continue
            used[v] = True
            old_gap = gap.copy()
            for k in range(len(placed)):
                if not gap[k] and v in zeros[placed[k]]:
                    gap[k] = True
            placed.append(v)
            gap.append(False)
            if extend():
                return True
            placed.pop()
            gap[:] = old_gap
            used[v] = False
        return False

    return placed if extend() else None


def find_quasi_linear_order(m: LabeledMatrix) -> Certificate:
    """Search all symmetric orders of m for the quasi-linear ones property."""
    _require_symmetric_unit_diagonal(m)
    n = len(m.rows)
    ones = [
        {j for j in range(n) if j != i and m.entries[i][j] == ONE} for i in range(n)
    ]
    zeros = [set(range(n)) - ones[i] - {i} for i in range(n)]
    found = _search_quasi_linear(ones, zeros)
    if found is None:
        return Certificate(
            verdict=False, kind=KIND_INTERVAL, witness=exhausted_witness()
        )
    order = tuple(m.rows[v] for v in found)
    return Certificate(verdict=True, kind=KIND_INTERVAL, order=order)


def intervals_from_quasi_linear(m: LabeledMatrix, order: Sequence) -> dict:
    """Read an interval per vertex off a quasi-linear order.

    The vertex at position i (1-based) gets [i, r] where r is the last
    position at or after i whose entry in row i is 1.
    """
    if not is_quasi_linear(m, order):
        raise ValueError("order does not satisfy the quasi-linear ones property")
    p = m.permuted(tuple(order), tuple(order))
    n = len(p.rows)
    intervals = {}
    for i in range(n):
        r = i
        for j in range(i + 1, n):
            if p.entries[i][j] == ONE:
                r = j
        intervals[p.rows[i]] = (i + 1, r + 1)
    return intervals


def _verify_rep(g: Graph, intervals: dict, nonprobes) -> bool:
    """Adjacency iff the intervals intersect and at least one endpoint is
    outside `nonprobes`, over all vertex pairs."""
    for v in range(g.n):
        if g.vertex_names[v] not in intervals:
            raise ValueError(f"missing vertex {g.vertex_names[v]}")
    for u in range(g.n):
        lu, ru = intervals[g.vertex_names[u]]
        for v in range(u + 1, g.n):
            lv, rv = intervals[g.vertex_names[v]]
            meets = max(lu, lv) <= min(ru, rv)
            probe_pair = u not in nonprobes or v not in nonprobes
            if (meets and probe_pair) != g.has_edge(u, v):
                return False
    return True


def verify_interval_rep(g: Graph, intervals: dict) -> bool:
    """Check adjacency iff interval intersection, over all vertex pairs."""
    return _verify_rep(g, intervals, frozenset())


def is_interval_graph(g: Graph) -> Certificate:
    """Full recognition: search an order, extract intervals, verify them."""
    m = augmented_adjacency(g)
    cert = find_quasi_linear_order(m)
    if not cert.verdict:
        return cert
    intervals = intervals_from_quasi_linear(m, cert.order)
    if not verify_interval_rep(g, intervals):
        raise AssertionError("interval representation failed verification")
    return Certificate(
        verdict=True, kind=KIND_INTERVAL, order=cert.order, intervals=intervals
    )
