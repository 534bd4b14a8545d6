"""Output checks that share no code with probeint.

Each check raises CheckFailed with a reason, or returns None.  The checks
work on plain data: interval maps, 0/1 rows with their labels, and witness
position lists, so that certificates from the library and JSON printed by
the CLI go through the same tests.
"""

from __future__ import annotations

import itertools

from instances import GraphInstance, MatrixInstance


class CheckFailed(Exception):
    pass


class KnownFault(CheckFailed):
    """An odd-cycle witness that fails the walk but walks once a tail of it
    is reversed: the shape of the witness-order fault in probeint's
    `ferrers._close_cycle`.  Such a call counts as failed and leaves the
    run correct; every other failure makes the run incorrect."""


def _meets(a, b) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# the matrices the recognizers work on, computed from the instance


def augmented(inst: GraphInstance):
    """Rows, columns and 0/1 data of the adjacency matrix with unit diagonal."""
    data = tuple(
        tuple(1 if u == v or inst.has_edge(u, v) else 0 for v in inst.names)
        for u in inst.names
    )
    return inst.names, inst.names, data


def probe_loops(inst: GraphInstance):
    """Adjacency matrix with a loop at every probe and none at nonprobes."""
    data = tuple(
        tuple(
            (1 if u not in inst.nonprobes else 0) if u == v else int(inst.has_edge(u, v))
            for v in inst.names
        )
        for u in inst.names
    )
    return inst.names, inst.names, data


def probes_by_vertices(inst: GraphInstance):
    """Probe rows against all vertex columns, unit entries at p = v."""
    probes = tuple(v for v in inst.names if v not in inst.nonprobes)
    data = tuple(
        tuple(1 if p == v or inst.has_edge(p, v) else 0 for v in inst.names)
        for p in probes
    )
    return probes, inst.names, data


# ---------------------------------------------------------------------------
# yes-certificates


def check_graph_intervals(inst: GraphInstance, intervals: dict) -> None:
    """Intervals reproduce every adjacency; with nonprobes, by the probe rule."""
    _need(set(intervals) == set(inst.names), "intervals do not cover exactly the vertices")
    for v, lr in intervals.items():
        _need(
            len(lr) == 2 and all(isinstance(x, int) for x in lr) and lr[0] <= lr[1],
            f"bad interval {lr!r} at {v}",
        )
    nps = inst.nonprobes or frozenset()
    names = inst.names
    for a in range(len(names)):
        u = names[a]
        for b in range(a + 1, len(names)):
            v = names[b]
            want = _meets(intervals[u], intervals[v]) and not (u in nps and v in nps)
            _need(want == inst.has_edge(u, v), f"intervals of {u}, {v} disagree with the graph")


def check_bigraph_intervals(inst: MatrixInstance, row_iv: dict, col_iv: dict) -> None:
    """Row and column intervals intersect exactly at the 1 entries."""
    _need(set(row_iv) == set(inst.rows), "row intervals do not cover exactly the rows")
    _need(set(col_iv) == set(inst.cols), "column intervals do not cover exactly the columns")
    for lr in list(row_iv.values()) + list(col_iv.values()):
        _need(len(lr) == 2 and lr[0] <= lr[1], f"bad interval {lr!r}")
    for i, r in enumerate(inst.rows):
        for j, c in enumerate(inst.cols):
            _need(
                _meets(row_iv[r], col_iv[c]) == bool(inst.data[i][j]),
                f"intervals of {r}, {c} disagree with the matrix",
            )


def is_ferrers(data) -> bool:
    """Row neighbourhoods form a chain under inclusion."""
    sets = sorted(
        (frozenset(j for j, x in enumerate(row) if x) for row in data), key=len
    )
    return all(a <= b for a, b in zip(sets, sets[1:]))


def check_factorization(factors, target) -> None:
    """Every factor is Ferrers and their entrywise AND is the target.

    `factors` and `target` are (rows, cols, data) triples with 0/1 data.
    """
    rows, cols, want = target
    _need(len(factors) > 0, "no factors")
    for k, (frows, fcols, fdata) in enumerate(factors, start=1):
        _need(tuple(frows) == tuple(rows) and tuple(fcols) == tuple(cols), f"factor {k} has other labels")
        _need(is_ferrers(fdata), f"factor {k} is not Ferrers")
    for i in range(len(rows)):
        for j in range(len(cols)):
            meet = all(f[2][i][j] for f in factors)
            _need(meet == bool(want[i][j]), f"factors disagree with the target at ({rows[i]}, {cols[j]})")


def labeled_to_01(rows, cols, entries):
    """A factor given as symbol rows ('0'/'1') into a 0/1 triple."""
    data = []
    for row in entries:
        _need(all(e in ("0", "1") for e in row), "factor has entries other than 0 and 1")
        data.append(tuple(1 if e == "1" else 0 for e in row))
    return tuple(rows), tuple(cols), tuple(data)


def matrix_text_to_01(lines):
    """Parse the CLI's matrix text (header of column names, labeled rows)."""
    cols = tuple(lines[0].split())
    rows, entries = [], []
    for line in lines[1:]:
        tokens = line.split()
        rows.append(tokens[0])
        entries.append(tokens[1:])
    return labeled_to_01(rows, cols, entries)


# ---------------------------------------------------------------------------
# no-certificates


def check_odd_cycle(positions, matrix, forbidden=frozenset()) -> None:
    """The positions, in the given order, walk an odd cycle of couples.

    Every position is a zero of `matrix` outside `forbidden`, and each
    consecutive pair, the last back to the first included, is a couple:
    different rows and columns with 1s at the two crossing entries.
    """
    rows, cols, data = matrix
    ri = {r: i for i, r in enumerate(rows)}
    ci = {c: j for j, c in enumerate(cols)}
    k = len(positions)
    _need(k % 2 == 1, f"cycle length {k} is even")
    _need(len({tuple(p) for p in positions}) == k, "cycle repeats a position")
    for r, c in positions:
        _need(r in ri and c in ci, f"position ({r}, {c}) is not in the matrix")
        _need(data[ri[r]][ci[c]] == 0, f"position ({r}, {c}) is not a zero")
        _need((r, c) not in forbidden, f"position ({r}, {c}) lies in the excluded square")
    for t in range(k):
        (a, b), (c, d) = positions[t], positions[(t + 1) % k]
        _need(a != c and b != d, f"({a}, {b}) and ({c}, {d}) share a line")
        _need(
            data[ri[a]][ci[d]] == 1 and data[ri[c]][ci[b]] == 1,
            f"({a}, {b}) and ({c}, {d}) are not a couple",
        )


def walks_with_tail_reversed(positions, matrix, forbidden=frozenset()) -> bool:
    """Some tail of the positions, reversed, makes them walk."""
    positions = [tuple(p) for p in positions]
    for k in range(1, len(positions) - 1):
        try:
            check_odd_cycle(positions[:k] + positions[k:][::-1], matrix, forbidden)
        except CheckFailed:
            continue
        return True
    return False


def nonprobe_square(inst: GraphInstance) -> frozenset:
    return frozenset((u, v) for u in inst.nonprobes for v in inst.nonprobes)


def check_contains_gadget(inst: GraphInstance, gadget: GraphInstance) -> None:
    """The instance's gadget vertices induce the gadget, with its marking."""
    names = inst.gadget_names
    _need(len(names) == len(gadget.names), "gadget size differs")
    for a, u in enumerate(names):
        gu = gadget.names[a]
        _need(
            (inst.nonprobes is not None and u in inst.nonprobes) == (gu in gadget.nonprobes),
            f"probe marking of {u} differs from the gadget",
        )
        for b in range(a + 1, len(names)):
            _need(
                inst.has_edge(u, names[b]) == gadget.has_edge(gu, gadget.names[b]),
                f"{u}, {names[b]} is not induced as in the gadget",
            )


def check_contains_matrix_gadget(inst: MatrixInstance, gadget_data) -> None:
    ri = {r: i for i, r in enumerate(inst.rows)}
    ci = {c: j for j, c in enumerate(inst.cols)}
    for a, r in enumerate(inst.gadget_rows):
        for b, c in enumerate(inst.gadget_cols):
            _need(inst.data[ri[r]][ci[c]] == gadget_data[a][b], "gadget submatrix differs")


# ---------------------------------------------------------------------------
# brute force, for the gadgets


def _interval_by_orders(n: int, adj) -> bool:
    """Some vertex order where each vertex's later neighbours come right
    after it; then [position, last such neighbour] is an interval model."""
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for p, v in enumerate(perm):
            pos[v] = p
        good = True
        for u in range(n):
            reach = pos[u]
            for w in range(n):
                if adj[u][w] and pos[w] > reach:
                    reach = pos[w]
            for w in range(n):
                if pos[u] < pos[w] and (pos[w] <= reach) != adj[u][w]:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def brute_force_graph(inst: GraphInstance) -> bool:
    """Probe interval (interval, without nonprobes) by all orders times all
    sets of nonprobe pairs that may be filled in."""
    n = inst.n
    idx = {v: k for k, v in enumerate(inst.names)}
    base = [[False] * n for _ in range(n)]
    for e in inst.edges:
        u, v = (idx[x] for x in e)
        base[u][v] = base[v][u] = True
    nps = sorted(idx[v] for v in (inst.nonprobes or ()))
    pairs = [(a, b) for k, a in enumerate(nps) for b in nps[k + 1 :]]
    for mask in range(1 << len(pairs)):
        adj = [row[:] for row in base]
        for k, (a, b) in enumerate(pairs):
            if mask >> k & 1:
                adj[a][b] = adj[b][a] = True
        if _interval_by_orders(n, adj):
            return True
    return False


def _rc_valid(grid) -> bool:
    """No 1 or C right of an R in a row; no 1 or R below a C in a column."""
    for row in grid:
        seen_r = False
        for e in row:
            if e == "R":
                seen_r = True
            elif seen_r:
                return False
    for j in range(len(grid[0])):
        seen_c = False
        for row in grid:
            if row[j] == "C":
                seen_c = True
            elif seen_c:
                return False
    return True


def brute_force_matrix(data) -> bool:
    """Interval bigraph by all row orders, column orders and R/C labelings."""
    nr, nc = len(data), len(data[0])
    for rp in itertools.permutations(range(nr)):
        for cp in itertools.permutations(range(nc)):
            grid = [[data[i][j] for j in cp] for i in rp]
            zeros = [(i, j) for i in range(nr) for j in range(nc) if grid[i][j] == 0]
            for mask in range(1 << len(zeros)):
                lab = [["1" if x else "" for x in row] for row in grid]
                for k, (i, j) in enumerate(zeros):
                    lab[i][j] = "R" if mask >> k & 1 else "C"
                if _rc_valid(lab):
                    return True
    return False
