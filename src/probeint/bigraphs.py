"""Interval bigraph recognition via zero partitions of the biadjacency matrix.

A bipartite graph is an interval bigraph iff its biadjacency matrix admits
row and column orders under which every 0 can be labeled R or C so that an
R is followed only by R's in its row and a C only by C's in its column.
Such a labeled matrix can be padded to a square "diagonalized" form with
unit diagonal, every R strictly right of the diagonal and every C strictly
below it; reading, per line, the span from the diagonal to the last 1 then
yields an interval representation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .certificates import KIND_INTERVAL_BIGRAPH, Certificate, exhausted_witness
from .matrices import C, ONE, R, X, ZERO, LabeledMatrix, strip_to


class LabelingConflict(ValueError):
    """The given orders admit no R-C labeling; carries one forced conflict."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"no R-C labeling under these orders: conflict at {position}")


def check_rc_valid(m: LabeledMatrix) -> bool:
    """True iff every R has only R's to its right and every C only C's below.

    Entries must be fully labeled ({1, R, C}); an unresolved 0 (or X) is an
    error, not a failure.
    """
    for row in m.entries:
        for e in row:
            if e in (ZERO, X):
                raise ValueError("unresolved zero present")
    for row in m.entries:
        seen_r = False
        for e in row:
            if seen_r and e != R:
                return False
            if e == R:
                seen_r = True
    nr, nc = m.shape
    for j in range(nc):
        seen_c = False
        for i in range(nr):
            e = m.entries[i][j]
            if seen_c and e != C:
                return False
            if e == C:
                seen_c = True
    return True


def _rc_closure(grid, extra_one_right=None):
    """Forced R/C labels for the zeros of a 0/1 grid, under its given orders.

    A zero with a 1 later in its row cannot be R, so it is C; a zero with a
    1 below in its column is R.  Labels then propagate: an R forces the
    zeros right of it (same row) and above it (same column) to R, a C the
    zeros below it and left of it to C.  Zeros never reached are free and
    default to R, which is always consistent after the closure.

    `extra_one_right[p]`, when given, marks rows that are known to contain
    a 1 in some column that will be appended to the right of the grid.

    Returns (labels, conflict_position); labels is None on conflict.
    """
    nr = len(grid)
    nc = len(grid[0]) if nr else 0
    label: dict = {}
    queue: deque = deque()

    conflict = None

    def put(pos, value) -> bool:
        cur = label.get(pos)
        if cur == value:
            return True
        if cur is not None:
            return False
        label[pos] = value
        queue.append((pos, value))
        return True

    one_right = [[False] * nc for _ in range(nr)]
    for p in range(nr):
        seen = bool(extra_one_right and extra_one_right[p])
        for q in range(nc - 1, -1, -1):
            one_right[p][q] = seen
            if grid[p][q] == ONE:
                seen = True
    one_below = [[False] * nc for _ in range(nr)]
    for q in range(nc):
        seen = False
        for p in range(nr - 1, -1, -1):
            one_below[p][q] = seen
            if grid[p][q] == ONE:
                seen = True

    for p in range(nr):
        for q in range(nc):
            if grid[p][q] != ZERO:
                continue
            must_c = one_right[p][q]
            must_r = one_below[p][q]
            if must_c and must_r:
                return None, (p, q)
            if must_c and not put((p, q), C):
                return None, (p, q)
            if must_r and not put((p, q), R):
                return None, (p, q)

    while queue:
        (p, q), value = queue.popleft()
        if value == R:
            for q2 in range(q + 1, nc):
                if grid[p][q2] == ZERO and not put((p, q2), R):
                    return None, (p, q2)
            for p2 in range(p):
                if grid[p2][q] == ZERO and not put((p2, q), R):
                    return None, (p2, q)
        else:
            for p2 in range(p + 1, nr):
                if grid[p2][q] == ZERO and not put((p2, q), C):
                    return None, (p2, q)
            for q2 in range(q):
                if grid[p][q2] == ZERO and not put((p, q2), C):
                    return None, (p, q2)

    for p in range(nr):
        for q in range(nc):
            if grid[p][q] == ZERO and (p, q) not in label:
                label[(p, q)] = R
    return label, conflict


def forced_labeling(m01: LabeledMatrix, row_order: Sequence, col_order: Sequence) -> LabeledMatrix:
    """Resolve every 0 of a 0/1 matrix to R or C under the given orders.

    Raises LabelingConflict (with the conflicting position) exactly when the
    orders admit no R-C labeling.
    """
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    p = m01.permuted(tuple(row_order), tuple(col_order))
    labels, conflict = _rc_closure([list(row) for row in p.entries])
    if labels is None:
        i, j = conflict
        raise LabelingConflict((p.rows[i], p.cols[j]))
    out = p.relabeled(labels)
    assert check_rc_valid(out)
    return out


def find_rc_partition(m01: LabeledMatrix) -> Certificate:
    """Search row and column orders admitting an R-C labeling.

    Row orders are tried lexicographically; for each, column orders are
    built by backtracking, pruning a prefix as soon as its forced labels
    conflict (1s in columns not yet placed are known to land to the right,
    so they already force C on the zeros of their rows).  The first hit is
    therefore the lexicographically least (row order, column order) pair.
    """
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    nr, nc = m01.shape
    E = m01.entries
    row_one_count = [sum(1 for j in range(nc) if E[i][j] == ONE) for i in range(nr)]

    for row_perm in itertools.permutations(range(nr)):
        placed: list[int] = []
        used = [False] * nc
        placed_ones = [0] * nr  # per original row, 1s among placed columns

        def closure():
            grid = [[E[ri][cj] for cj in placed] for ri in row_perm]
            extra = [row_one_count[ri] > placed_ones[ri] for ri in row_perm]
            return _rc_closure(grid, extra)

        def rec() -> Optional[dict]:
            labels, conflict = closure()
            if labels is None:
                return None
            if len(placed) == nc:
                return labels
            for cj in range(nc):
                if used[cj]:
                    continue
                used[cj] = True
                placed.append(cj)
                for ri in range(nr):
                    if E[ri][cj] == ONE:
                        placed_ones[ri] += 1
                found = rec()
                if found is not None:
                    return found
                for ri in range(nr):
                    if E[ri][cj] == ONE:
                        placed_ones[ri] -= 1
                placed.pop()
                used[cj] = False
            return None

        labels = rec()
        if labels is not None:
            row_order = tuple(m01.rows[i] for i in row_perm)
            col_order = tuple(m01.cols[j] for j in placed)
            labeled = m01.permuted(row_order, col_order).relabeled(labels)
            assert check_rc_valid(labeled)
            return Certificate(
                verdict=True,
                kind=KIND_INTERVAL_BIGRAPH,
                row_order=row_order,
                col_order=col_order,
                labeling=labeled,
            )
    return Certificate(
        verdict=False, kind=KIND_INTERVAL_BIGRAPH, witness=exhausted_witness()
    )


def _fresh_labels(prefix: str, count: int, taken: set) -> list[str]:
    labels = []
    i = 1
    while len(labels) < count:
        cand = f"{prefix}{i}"
        while cand in taken:
            cand = "+" + cand
        labels.append(cand)
        taken.add(cand)
        i += 1
    return labels


def _resolve_x(rows, cols, entry_at) -> LabeledMatrix:
    """Fill inserted X entries: R right of an R, C below a C, else 1."""
    n = len(rows)
    grid = [[entry_at(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        seen_r = False
        for j in range(n):
            if grid[i][j] == R:
                seen_r = True
            elif grid[i][j] == X and seen_r:
                grid[i][j] = R
    for j in range(n):
        seen_c = False
        for i in range(n):
            if grid[i][j] == C:
                seen_c = True
            elif grid[i][j] == X and seen_c:
                grid[i][j] = C
    for i in range(n):
        for j in range(n):
            if grid[i][j] == X:
                grid[i][j] = ONE
    return LabeledMatrix(
        rows=tuple(rows), cols=tuple(cols), entries=tuple(tuple(r_) for r_ in grid)
    )


def _diagonalize_interleave(m: LabeledMatrix) -> LabeledMatrix:
    """Square the matrix by interleaving rows and columns along the stair.

    Walk both line queues in order.  When the front row and front column
    meet on a 1 and neither has pending labels on the wrong side (a C of the
    row in an unplaced column, an R of the column in an unplaced row), they
    share the next diagonal position.  Otherwise the blocked queue waits
    while the other front is placed against a freshly inserted line.  For a
    matrix in valid R-C form one of the three moves is always available.
    """
    nr, nc = m.shape
    row_cs = [set() for _ in range(nr)]  # columns holding C per row
    row_rs = [set() for _ in range(nr)]
    col_rs = [set() for _ in range(nc)]  # rows holding R per column
    col_cs = [set() for _ in range(nc)]
    for i in range(nr):
        for j in range(nc):
            e = m.entries[i][j]
            if e == C:
                row_cs[i].add(j)
                col_cs[j].add(i)
            elif e == R:
                row_rs[i].add(j)
                col_rs[j].add(i)

    taken = set(m.rows) | set(m.cols)
    new_rows = iter(_fresh_labels("+r", nc, taken))
    new_cols = iter(_fresh_labels("+c", nr, taken))

    out_rows: list = []  # (label, original row index or None)
    out_cols: list = []
    placed_rows: set[int] = set()
    placed_cols: set[int] = set()
    ri = ci = 0
    while ri < nr or ci < nc:
        can_pair = can_col = can_row = False
        if ri < nr and ci < nc and m.entries[ri][ci] == ONE:
            can_pair = row_cs[ri] <= placed_cols and col_rs[ci] <= placed_rows
        if ci < nc:
            can_col = col_rs[ci] <= placed_rows and not (col_cs[ci] & placed_rows)
        if ri < nr:
            can_row = row_cs[ri] <= placed_cols and not (row_rs[ri] & placed_cols)
        if can_pair:
            out_rows.append((m.rows[ri], ri))
            out_cols.append((m.cols[ci], ci))
            placed_rows.add(ri)
            placed_cols.add(ci)
            ri += 1
            ci += 1
        elif can_col:
            out_rows.append((next(new_rows), None))
            out_cols.append((m.cols[ci], ci))
            placed_cols.add(ci)
            ci += 1
        elif can_row:
            out_rows.append((m.rows[ri], ri))
            out_cols.append((next(new_cols), None))
            placed_rows.add(ri)
            ri += 1
        else:
            raise AssertionError("stair interleaving blocked on a valid R-C matrix")

    def entry_at(i: int, j: int) -> str:
        oi = out_rows[i][1]
        oj = out_cols[j][1]
        if oi is not None and oj is not None:
            return m.entries[oi][oj]
        if i == j:
            return ONE
        return X

    return _resolve_x([r_ for r_, _ in out_rows], [c_ for c_, _ in out_cols], entry_at)


def _diagonalize_padded(m: LabeledMatrix) -> LabeledMatrix:
    """Square the matrix by full padding: rows + cols lines on each side.

    Inserts one row per original column and one column per original row,
    placed along the steps of the label stair (first-R spans for rows,
    first-C spans for columns), so the result has order rows + cols.
    """
    nr, nc = m.shape
    first_r = []
    for i in range(nr):
        pos = nc
        for j in range(nc):
            if m.entries[i][j] == R:
                pos = j
                break
        first_r.append(pos)
    kappa = [0] * nr  # 0-based first column at/after which row i's R side lives
    running = nc
    for i in range(nr - 1, -1, -1):
        running = min(running, first_r[i])
        kappa[i] = running
    first_c = []
    for j in range(nc):
        pos = nr
        for i in range(nr):
            if m.entries[i][j] == C:
                pos = i
                break
        first_c.append(pos)
    lam = [0] * nc
    running = nr
    for j in range(nc - 1, -1, -1):
        running = min(running, first_c[j])
        lam[j] = running

    taken = set(m.rows) | set(m.cols)
    new_rows = iter(_fresh_labels("+r", nc, taken))
    new_cols = iter(_fresh_labels("+c", nr, taken))

    out_rows: list = []
    prev = 0
    for i in range(nr):
        for _ in range(kappa[i] - prev):
            out_rows.append((next(new_rows), None))
        out_rows.append((m.rows[i], i))
        prev = kappa[i]
    for _ in range(nc - prev):
        out_rows.append((next(new_rows), None))

    out_cols: list = []
    prev = 0
    for j in range(nc):
        for _ in range(lam[j] - prev):
            out_cols.append((next(new_cols), None))
        out_cols.append((m.cols[j], j))
        prev = lam[j]
    for _ in range(nr - prev):
        out_cols.append((next(new_cols), None))

    def entry_at(i: int, j: int) -> str:
        oi = out_rows[i][1]
        oj = out_cols[j][1]
        if oi is not None and oj is not None:
            return m.entries[oi][oj]
        if i == j:
            return ONE
        return X

    return _resolve_x([r_ for r_, _ in out_rows], [c_ for c_, _ in out_cols], entry_at)


def is_diagonalized(m: LabeledMatrix) -> bool:
    """Square, unit diagonal, every R right of it, every C below it."""
    if not m.is_square():
        return False
    n = len(m.rows)
    for i in range(n):
        for j in range(n):
            e = m.entries[i][j]
            if i == j and e != ONE:
                return False
            if e in (ZERO, X):
                return False
            if e == R and not i < j:
                return False
            if e == C and not i > j:
                return False
    return True


def _check_diagonalization(diag: LabeledMatrix, original: LabeledMatrix) -> bool:
    if not is_diagonalized(diag):
        return False
    if not check_rc_valid(diag):
        return False
    return strip_to(diag, original.rows, original.cols) == original


def diagonalize_with_method(m: LabeledMatrix, method: str = "auto"):
    """Diagonalize a valid R-C matrix; returns (matrix, method used)."""
    if not check_rc_valid(m):
        raise ValueError("matrix is not a valid R-C partition")
    if method not in ("auto", "interleave", "padded"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "interleave"):
        try:
            out = _diagonalize_interleave(m)
            if _check_diagonalization(out, m):
                return out, "interleave"
            if method == "interleave":
                raise AssertionError("interleave diagonalization failed its postcheck")
        except AssertionError:
            if method == "interleave":
                raise
    out = _diagonalize_padded(m)
    if not _check_diagonalization(out, m):
        raise AssertionError("padded diagonalization failed its postcheck")
    return out, "padded"


def diagonalize(m: LabeledMatrix, method: str = "auto") -> LabeledMatrix:
    """Pad a valid R-C matrix to diagonalized square form.

    The inserted rows and columns carry fresh '+r'/'+c' labels, so deleting
    them recovers the input exactly.
    """
    out, _ = diagonalize_with_method(m, method)
    return out


@dataclass(frozen=True)
class BigraphIntervals:
    """Closed integer intervals for the rows and the columns of a bigraph."""

    rows: dict
    cols: dict


def intervals_from_diagonalized(m_diag: LabeledMatrix) -> BigraphIntervals:
    """Read intervals off a diagonalized matrix.

    Line i (1-based) gets [i, r] where r is the last position at or after
    the diagonal whose entry is 1 -- rows scan rightward, columns downward.
    The diagonal itself is 1, so r always exists.
    """
    if not is_diagonalized(m_diag):
        raise ValueError("matrix is not in diagonalized form")
    n = len(m_diag.rows)
    rows = {}
    for i in range(n):
        r_ = i
        for j in range(i + 1, n):
            if m_diag.entries[i][j] == ONE:
                r_ = j
        rows[m_diag.rows[i]] = (i + 1, r_ + 1)
    cols = {}
    for j in range(n):
        s = j
        for i in range(j + 1, n):
            if m_diag.entries[i][j] == ONE:
                s = i
        cols[m_diag.cols[j]] = (j + 1, s + 1)
    return BigraphIntervals(rows=rows, cols=cols)


def verify_bigraph_rep(m01: LabeledMatrix, intervals: BigraphIntervals) -> bool:
    """Entrywise check: 1 iff the row and column intervals intersect."""
    for r_ in m01.rows:
        if r_ not in intervals.rows:
            raise ValueError(f"missing row vertex {r_}")
    for c_ in m01.cols:
        if c_ not in intervals.cols:
            raise ValueError(f"missing column vertex {c_}")
    nr, nc = m01.shape
    for i in range(nr):
        li, ri = intervals.rows[m01.rows[i]]
        for j in range(nc):
            lj, rj = intervals.cols[m01.cols[j]]
            meets = max(li, lj) <= min(ri, rj)
            if meets != (m01.entries[i][j] == ONE):
                return False
    return True


def is_interval_bigraph(m01: LabeledMatrix) -> Certificate:
    """Full pipeline: R-C partition, diagonalize, intervals, verify."""
    cert = find_rc_partition(m01)
    if not cert.verdict:
        return cert
    diag, method = diagonalize_with_method(cert.labeling)
    all_iv = intervals_from_diagonalized(diag)
    intervals = BigraphIntervals(
        rows={r_: all_iv.rows[r_] for r_ in m01.rows},
        cols={c_: all_iv.cols[c_] for c_ in m01.cols},
    )
    if not verify_bigraph_rep(m01, intervals):
        raise AssertionError("bigraph representation failed verification")
    return Certificate(
        verdict=True,
        kind=KIND_INTERVAL_BIGRAPH,
        row_order=cert.row_order,
        col_order=cert.col_order,
        labeling=cert.labeling,
        row_intervals=intervals.rows,
        col_intervals=intervals.cols,
        diagonalized=diag,
        method=method,
    )
