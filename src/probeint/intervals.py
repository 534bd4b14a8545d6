"""Interval graph recognition through symmetric matrix orderings.

A graph is an interval graph exactly when its augmented adjacency matrix
can be symmetrically permuted so that in every row the 1s to the right of
the diagonal are consecutive starting at the diagonal (and, by symmetry,
likewise below it).  Recognition here is an exact backtracking search over
vertex orders: desk-scale instances are the target, and the produced order
doubles as a checkable certificate.

Entries marked X are neutral, neither a 1 nor a 0, both in the order
search and in the stair read-off `_stair_ends`.  So the probe route qxl is
this module's route on the matrix whose nonprobe square is marked X, and
`verify_probe_rep` shares its body `_verify_rep`.  `bigraphs` reads a
diagonalized matrix's intervals with the same `_stair_ends`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .certificates import (
    KIND_INTERVAL,
    Certificate,
    VerificationError,
    exhausted_witness,
)
from .graphs import Graph, augmented_adjacency
from .matrices import ONE, X, LabeledMatrix


def _require_symmetric_unit_diagonal(m: LabeledMatrix) -> None:
    if not m.is_square():
        raise ValueError("matrix is not square")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    if any(m.entries[i][i] != ONE for i in range(len(m.rows))):
        raise ValueError("diagonal is not all 1")


def _stair_ends(lines) -> Optional[list[int]]:
    """Where each line's stair ends, or None if some line is no stair.

    Line i's stair is the run after position i of entries that are 1 or X;
    it ends at the first other entry, or at the line's length.  The line is
    a stair when no 1 follows that end, and its 1-based interval is then
    [i + 1, end]: an X inside the run reads as a 1, one after it as a 0.
    """
    ends = []
    for i, line in enumerate(lines):
        end = next((j for j in range(i + 1, len(line)) if line[j] not in (ONE, X)), len(line))
        if ONE in line[end:]:
            return None
        ends.append(end)
    return ends


def _ordered_rows(m: LabeledMatrix, order: Sequence) -> list[tuple]:
    """The rows of m under the symmetric permutation `order`, read by
    index; m is symmetric, so they stand for the columns too."""
    _require_symmetric_unit_diagonal(m)
    at = {v: i for i, v in enumerate(m.rows)}
    if len(order) != len(at) or set(order) != set(at):
        raise ValueError("order is not a permutation of the vertex labels")
    idx = [at[v] for v in order]
    return [tuple(m.entries[a][b] for b in idx) for a in idx]


def is_quasi_linear(m: LabeledMatrix, order: Sequence) -> bool:
    """True iff under the symmetric permutation `order` the 1s right of and
    below the principal diagonal are consecutive from the diagonal.  X
    entries are neutral, so on a matrix whose nonprobe square is marked X
    (`probes.x_mark_nonprobes`) this is the quasi-x-linear test."""
    return _stair_ends(_ordered_rows(m, order)) is not None


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
    opened: list[list[int]] = []  # per placed vertex, the gaps it opened
    blocked = [0] * n  # per vertex, the rows with a gap that hold it as a 1
    used = [False] * n
    start = 0  # the least candidate not yet tried at this depth
    # a loop, not recursion: the depth reaches the number of vertices
    while len(placed) < n:
        for v in range(start, n):
            if not (used[v] or blocked[v]):
                break
        else:  # no vertex fits: take back the last one and try its successors
            if not placed:
                return None
            v = placed.pop()
            gap.pop()
            for k in opened.pop():
                gap[k] = False
                for w in ones[placed[k]]:
                    blocked[w] -= 1
            used[v] = False
            start = v + 1
            continue
        used[v] = True
        opened.append([k for k, u in enumerate(placed) if not gap[k] and v in zeros[u]])
        for k in opened[-1]:
            gap[k] = True
            for w in ones[placed[k]]:
                blocked[w] += 1
        placed.append(v)
        gap.append(False)
        start = 0
    return placed


def find_quasi_linear_order(m: LabeledMatrix) -> Certificate:
    """Search all symmetric orders of m for the quasi-linear ones property."""
    _require_symmetric_unit_diagonal(m)
    n = len(m.rows)
    ones = [
        {j for j in range(n) if j != i and m.entries[i][j] == ONE} for i in range(n)
    ]
    zeros = [
        {j for j in range(n) if m.entries[i][j] not in (ONE, X)} for i in range(n)
    ]
    found = _search_quasi_linear(ones, zeros)
    if found is None:
        return Certificate(
            verdict=False, kind=KIND_INTERVAL, witness=exhausted_witness()
        )
    order = tuple(m.rows[v] for v in found)
    return Certificate(verdict=True, kind=KIND_INTERVAL, order=order)


def intervals_from_quasi_linear(m: LabeledMatrix, order: Sequence) -> dict:
    """Read an interval per vertex off a quasi-linear order: the vertex at
    position i (1-based) gets [i, r], r the end of row i's stair."""
    ends = _stair_ends(_ordered_rows(m, order))
    if ends is None:
        raise ValueError("order does not satisfy the quasi-linear ones property")
    return {v: (i + 1, end) for i, (v, end) in enumerate(zip(order, ends))}


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
        raise VerificationError("interval representation failed verification")
    return Certificate(
        verdict=True, kind=KIND_INTERVAL, order=cert.order, intervals=intervals
    )
