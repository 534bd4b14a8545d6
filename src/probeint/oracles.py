"""Brute-force ground truth for the recognizers, at desk scale.

Everything here is deliberately naive and shares no algorithmic code with
the recognizer modules: the whole point is an independent second opinion.
Results are memoized per edge set, since the probe oracle re-queries the
interval oracle across many fill supersets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .graphs import Graph
from .matrices import ONE, ZERO, LabeledMatrix

MAX_ENUM_N = 7
MAX_ORACLE_N = 8


def enumerate_graphs(n: int, nonprobes=None) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on vertices v0..v{n-1}.

    Deterministic order: edge subsets by increasing bitmask over the pairs
    (0,1), (0,2), ..., (n-2,n-1) sorted lexicographically.
    """
    if n < 1 or n > MAX_ENUM_N:
        raise ValueError(f"n must be between 1 and {MAX_ENUM_N}")
    names = tuple(f"v{i}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        yield Graph(n=n, vertex_names=names, edges=edges, nonprobes=nonprobes)


def _edge_key(g: Graph) -> tuple:
    return (g.n, tuple(sorted(g.edges)))


@lru_cache(maxsize=None)
def _interval_by_orders(key: tuple) -> bool:
    n, edges = key
    adj = [[False] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = True
    for i in range(n):
        adj[i][i] = True
    for perm in itertools.permutations(range(n)):
        good = True
        for a in range(n):
            # in this order, row a's 1s right of the diagonal must be a
            # prefix of positions a+1, a+2, ...
            block_ended = False
            for b in range(a + 1, n):
                if adj[perm[a]][perm[b]]:
                    if block_ended:
                        good = False
                        break
                else:
                    block_ended = True
            if not good:
                break
        if good:
            return True
    return False


def interval_oracle(g: Graph) -> bool:
    """Try all n! symmetric orders with a plain consecutive-ones scan."""
    if g.n > MAX_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_N}")
    return _interval_by_orders(_edge_key(g))


def interval_oracle_by_endpoints(g: Graph) -> bool:
    """Second oracle: search integer interval assignments directly.

    Endpoints range over [1, 2n].  Touching endpoints can always be pulled
    apart without changing the intersection graph, so it suffices to try
    assignments whose 2n endpoints are pairwise distinct; vertices are
    assigned depth-first and a partial assignment is dropped as soon as it
    contradicts the adjacency of the already assigned vertices.
    """
    n = g.n
    if n > 5:
        raise ValueError("endpoint oracle limited to n <= 5")
    bound = 2 * n
    used = [False] * (bound + 1)
    chosen: list[tuple[int, int]] = []

    def place(v: int) -> bool:
        if v == n:
            return True
        for l in range(1, bound + 1):
            if used[l]:
                continue
            for r in range(l + 1, bound + 1):
                if used[r]:
                    continue
                ok = True
                for u in range(v):
                    lu, ru = chosen[u]
                    if (max(l, lu) <= min(r, ru)) != g.has_edge(u, v):
                        ok = False
                        break
                if not ok:
                    continue
                used[l] = used[r] = True
                chosen.append((l, r))
                if place(v + 1):
                    return True
                chosen.pop()
                used[l] = used[r] = False
        return False

    return place(0)


def probe_oracle(g: Graph) -> bool:
    """Does some set of nonprobe-nonprobe fill edges make the graph interval?"""
    if g.nonprobes is None:
        raise ValueError("graph has no nonprobe set")
    if g.n > 6:
        raise ValueError("probe oracle limited to n <= 6")
    nps = sorted(g.nonprobes)
    fill_pairs = [
        (u, v) for a, u in enumerate(nps) for v in nps[a + 1 :]
    ]
    base = set(g.edges)
    for mask in range(1 << len(fill_pairs)):
        edges = set(base)
        for k, (u, v) in enumerate(fill_pairs):
            if mask >> k & 1:
                edges.add((min(u, v), max(u, v)))
        if _interval_by_orders((g.n, tuple(sorted(edges)))):
            return True
    return False


def bigraph_oracle(m01: LabeledMatrix) -> bool:
    """Interval bigraph test by exhausting orders and stair labelings.

    For every row order and column order, every candidate labeling makes
    the R zeros a suffix of each row past its last 1; the suffix starts are
    enumerated outright and the column condition (each column's 0s read R
    then C downward, with no 1 below the first C) is checked directly.
    """
    nr, nc = m01.shape
    if nr > 4 or nc > 5:
        raise ValueError("bigraph oracle limited to 4x5")
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    grid = [[e == ONE for e in row] for row in m01.entries]

    def orders_ok(rows: tuple, cols: tuple) -> bool:
        last_one = []
        for i in rows:
            last = -1
            for q, j in enumerate(cols):
                if grid[i][j]:
                    last = q
            last_one.append(last)
        # break[p] = first column position labeled R in row p (nc = none)
        ranges = [range(last_one[p] + 1, nc + 1) for p in range(nr)]
        for breaks in itertools.product(*ranges):
            ok = True
            for q in range(nc):
                seen_c = False
                for p in range(nr):
                    if grid[rows[p]][cols[q]]:
                        if seen_c:
                            ok = False
                            break
                    elif q >= breaks[p]:  # this zero is R
                        if seen_c:
                            ok = False
                            break
                    else:  # this zero is C
                        seen_c = True
                if not ok:
                    break
            if ok:
                return True
        return False

    for rows in itertools.permutations(range(nr)):
        for cols in itertools.permutations(range(nc)):
            if orders_ok(rows, cols):
                return True
    return False


def ferrers_oracle(m01: LabeledMatrix) -> bool:
    """Ferrers test by the submatrix definition: no two rows and two
    columns meet in a 2x2 permutation matrix.  A literal O(r^2 c^2) scan."""
    if not m01.is_zero_one():
        raise ValueError("matrix is not over {0, 1}")
    nr, nc = m01.shape
    e = m01.entries
    for i in range(nr):
        for k in range(nr):
            for j in range(nc):
                for l in range(nc):
                    # i == k or j == l cannot match: an entry is not 1 and 0
                    if (
                        e[i][j] == ONE
                        and e[k][l] == ONE
                        and e[i][l] == ZERO
                        and e[k][j] == ZERO
                    ):
                        return False
    return True


def interval_split_check(g: Graph) -> bool:
    """Can the vertices split into an interval-inducing part plus an
    independent set?  The empty independent set is allowed."""
    if g.n > MAX_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_N}")
    verts = list(range(g.n))
    for mask in range(1 << g.n):
        part = [v for v in verts if mask >> v & 1]
        independent = all(
            not g.has_edge(u, v)
            for a, u in enumerate(part)
            for v in part[a + 1 :]
        )
        if not independent:
            continue
        rest = g.induced([v for v in verts if not mask >> v & 1])
        if rest.n == 0 or interval_oracle(rest):
            return True
    return False
