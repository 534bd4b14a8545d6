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

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .certificates import KIND_INTERVAL_BIGRAPH, Certificate, exhausted_witness
from .ferrers import _components, _is_chain, _one_masks, couple_graph, two_color
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


def _rc_closure(grid):
    """Forced R/C labels for the zeros of a 0/1 grid, under its given orders.

    A zero with a 1 later in its row cannot be R, so it is C; a zero with a
    1 below in its column is R.  Labels then propagate: an R forces the
    zeros right of it (same row) and above it (same column) to R, a C the
    zeros below it and left of it to C.  Zeros never reached are free and
    default to R, which is always consistent after the closure.

    Returns (labels, conflict_position); labels is None on conflict.
    """
    nr = len(grid)
    nc = len(grid[0]) if nr else 0
    label: dict = {}
    queue: deque = deque()

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
        seen = False
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
    return label, None


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
    if not check_rc_valid(out):
        raise AssertionError("forced labeling is not a valid R-C partition")
    return out


# ---------------------------------------------------------------------------
# the R-C partition engine, shared with the char1 and char2 probe routes


def _positions_by_label(m: LabeledMatrix) -> dict:
    return {
        (m.rows[i], m.cols[j]): (i, j)
        for i in range(len(m.rows))
        for j in range(len(m.cols))
    }


def _rc_partition(m01: LabeledMatrix, labeling: dict) -> Optional[LabeledMatrix]:
    """The R-C matrix of a zero labeling in row and column orders that
    realize it, or None when no orders do.

    A labeling extends to a valid R-C partition iff the per-row R column
    sets form a chain under inclusion and the per-column C row sets do too;
    sorting columns by R membership count then makes every row's R set an
    exact suffix, and likewise rows for the C sets.  The two conditions are
    independent: R constrains only the column order, C only the row order.
    """
    nr, nc = m01.shape
    r_rows = [0] * nr  # per row, the bitmask of its R columns
    c_cols = [0] * nc  # per column, the bitmask of its C rows
    for (i, j), col in labeling.items():
        if col == R:
            r_rows[i] |= 1 << j
        elif col == C:
            c_cols[j] |= 1 << i
    if not (_is_chain(r_rows) and _is_chain(c_cols)):
        return None
    col_count = [sum(mask >> j & 1 for mask in r_rows) for j in range(nc)]
    row_count = [sum(mask >> i & 1 for mask in c_cols) for i in range(nr)]
    col_order = sorted(range(nc), key=lambda j: (col_count[j], j))
    row_order = sorted(range(nr), key=lambda i: (row_count[i], i))
    row_at = {i: k for k, i in enumerate(row_order)}
    col_at = {j: k for k, j in enumerate(col_order)}
    labeled = m01.permuted(
        tuple(m01.rows[i] for i in row_order), tuple(m01.cols[j] for j in col_order)
    ).relabeled({(row_at[i], col_at[j]): col for (i, j), col in labeling.items()})
    if not check_rc_valid(labeled):
        raise AssertionError("chain-ordered labeling is not a valid R-C partition")
    return labeled


def _search_colorings(
    m01: LabeledMatrix,
    graph: dict,
    coloring: dict,
    pos_of: Optional[dict] = None,
    prune=None,
    accept=None,
) -> Optional[LabeledMatrix]:
    """First R-C partition of m01 among the component flips of `coloring`.

    `coloring` is a proper 2-coloring of `graph`, whose vertices are (row
    label, column label) pairs.  The vertices that name a cell of m01 take
    their color as its label; any others only tie components together.
    Components are taken in the order of their least vertex under `pos_of`
    (by default the cell positions in m01), and the base branch colors that
    vertex R, so the search is lexicographic.  A branch is cut when
    `prune(labels)` holds or the labels can no longer pass the chain tests;
    a leaf is taken when its labels extend to orders and `accept(labeled)`
    holds.  `labels` maps the (i, j) cells labeled so far to R or C.
    """
    cell_of = _positions_by_label(m01)
    if pos_of is None:
        pos_of = cell_of
    one_masks = (_one_masks(m01), _one_masks(m01.transpose()))
    components = sorted(
        (sorted(comp, key=pos_of.__getitem__) for comp in _components(graph)),
        key=lambda comp: pos_of[comp[0]],
    )
    # per component, its cells of m01 with their base colors
    cells = [
        [
            (cell_of[v], R if coloring[v] == coloring[comp[0]] else C)
            for v in comp
            if v in cell_of
        ]
        for comp in components
    ]
    # per component, the rows and the columns its cells lie in
    lines = [({i for (i, _), _ in cs}, {j for (_, j), _ in cs}) for cs in cells]
    swap = {R: C, C: R}
    labels: dict = {}
    flips: list = []  # the branch taken at each component so far

    def paint(k: int, flip: bool) -> None:
        for cell, color in cells[k]:
            labels[cell] = swap[color] if flip else color

    # a loop, not recursion: every isolated zero is a component of its own,
    # so the depth reaches the number of zeros
    while True:
        k = len(flips)  # components 0 .. k - 1 are labeled
        cut = (prune is not None and prune(labels)) or (
            k > 0 and _definite_chain_conflict(one_masks, labels, *lines[k - 1])
        )
        if not cut and k < len(cells):
            paint(k, False)
            flips.append(False)
            continue
        if not cut:
            labeled = _rc_partition(m01, labels)
            if labeled is not None and (accept is None or accept(labeled)):
                return labeled
        while flips and flips[-1]:
            flips.pop()
            for cell, _ in cells[len(flips)]:
                del labels[cell]
        if not flips:
            return None
        flips[-1] = True
        paint(len(flips) - 1, True)


def _definite_chain_conflict(one_masks: tuple, labels: dict, rows, cols) -> bool:
    """True when a partial labeling can no longer satisfy the chain tests.

    Two rows are permanently incomparable when each already has an R in a
    column where the other is blocked (a 1, or a zero already marked C);
    later assignments cannot remove either side.  Columns symmetrically,
    with C and R swapped.  `one_masks` holds the bitmasks of the 1s per row
    and per column.  Only pairs holding one of `rows` (or `cols`), the
    lines labeled last, are tested: the labeling before them had no pair.
    """
    one_rows, one_cols = one_masks
    r_rows, c_rows = [0] * len(one_rows), [0] * len(one_rows)
    r_cols, c_cols = [0] * len(one_cols), [0] * len(one_cols)
    for (i, j), col in labels.items():
        if col == R:
            r_rows[i] |= 1 << j
            r_cols[j] |= 1 << i
        elif col == C:
            c_rows[i] |= 1 << j
            c_cols[j] |= 1 << i
    return _crossing(
        r_rows, [o | c for o, c in zip(one_rows, c_rows)], rows
    ) or _crossing(c_cols, [o | r for o, r in zip(one_cols, r_cols)], cols)


def _crossing(marks: list[int], blocked: list[int], lines) -> bool:
    """True iff one of `lines` and another line each have a mark where the
    other is blocked.  No line has a mark where it is itself blocked."""
    return any(
        marks[a] & blocked[b] and marks[b] & blocked[a]
        for a in lines
        for b in range(len(marks))
    )


def find_rc_partition(m01: LabeledMatrix) -> Certificate:
    """Search row and column orders admitting an R-C labeling.

    An R-C labeling labels the two zeros of every couple apart, so it is a
    proper 2-coloring of the couple graph.  The search flips whole
    components of one such coloring (`_search_colorings`) and returns the
    first labeling that passes the inclusion-chain tests, in the orders
    that sort its R and C sets into chains.  These orders are not the
    lexicographically least ones.  A no, including an odd couple cycle,
    carries an exhausted witness.
    """
    graph = couple_graph(m01)
    coloring, _ = two_color(graph)
    labeled = None if coloring is None else _search_colorings(m01, graph, coloring)
    if labeled is None:
        return Certificate(
            verdict=False, kind=KIND_INTERVAL_BIGRAPH, witness=exhausted_witness()
        )
    return Certificate(
        verdict=True,
        kind=KIND_INTERVAL_BIGRAPH,
        row_order=labeled.rows,
        col_order=labeled.cols,
        labeling=labeled,
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
