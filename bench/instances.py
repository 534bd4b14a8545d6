"""Seeded instances whose answers are known by construction.

Every instance is plain data (names, edge pairs, 0/1 rows) so that the
checks in `checks.py` never rely on probeint to know what is true.

* Yes-instances are planted models: random intervals for the vertices (or
  for the rows and the columns of a matrix), adjacent exactly when they
  intersect.  Probe models also draw a nonprobe set and drop every edge
  between two nonprobes.
* No-instances are planted models with a gadget added as a separate
  component: a hole C4..C7 or the net for graphs, a bipartite C6 or C8 for
  matrices.  The classes are closed under induced subgraphs, and the
  brute force in `checks.py` shows each gadget is a no, so the whole
  instance is a no.

Keeping the gadget a separate component has one more effect the benchmark
relies on: the gadget's own zeros form their own components of every
couple graph built from the instance, and the planted part's components
are bipartite.  So an odd-cycle witness always comes from the gadget
alone, and whether it walks does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# gadget name -> (vertex count, edges over 0..k-1, nonprobe indices)
GRAPH_GADGETS = {
    "C4": (4, ((0, 1), (1, 2), (2, 3), (3, 0)), ()),
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), ()),
    "C6": (6, tuple((i, (i + 1) % 6) for i in range(6)), ()),
    "C7": (7, tuple((i, (i + 1) % 7) for i in range(7)), ()),
    # triangle b c d with pendants a (at b), e (at c), f (at d)
    "net": (6, ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)), ()),
    "C4/1": (4, ((0, 1), (1, 2), (2, 3), (3, 0)), (0,)),
    "C5/1": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), (0,)),
    "C6/2": (6, tuple((i, (i + 1) % 6) for i in range(6)), (0, 3)),
    "C7/2": (7, tuple((i, (i + 1) % 7) for i in range(7)), (0, 3)),
    "net/ef": (6, ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)), (4, 5)),
}

INTERVAL_GADGETS = ("C4", "C5", "C6", "C7", "net")
PROBE_HOLE_GADGETS = ("C4/1", "C5/1", "C6/2", "C7/2")
PROBE_NET_GADGET = "net/ef"

# bipartite cycles as biadjacency matrices
MATRIX_GADGETS = {
    "C6": ((1, 0, 1), (1, 1, 0), (0, 1, 1)),
    "C8": ((1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)),
}


@dataclass(frozen=True)
class GraphInstance:
    names: tuple
    edges: frozenset  # frozenset of frozenset({u, v}) over names
    nonprobes: Optional[frozenset]  # None for plain interval instances
    truth: bool
    gadget: Optional[str] = None
    gadget_names: tuple = ()  # instance names of gadget vertices 0..k-1
    adj: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        adj = {v: set() for v in self.names}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return len(self.names)

    def has_edge(self, u, v) -> bool:
        return v in self.adj[u]

    def sorted_edges(self) -> list:
        order = {v: k for k, v in enumerate(self.names)}
        return sorted(
            (tuple(sorted(e, key=order.__getitem__)) for e in self.edges),
            key=lambda uv: (order[uv[0]], order[uv[1]]),
        )


@dataclass(frozen=True)
class MatrixInstance:
    rows: tuple
    cols: tuple
    data: tuple  # tuple of 0/1 tuples
    truth: bool
    gadget: Optional[str] = None
    gadget_rows: tuple = ()
    gadget_cols: tuple = ()


def _meets(a, b) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


def _random_intervals(rng: random.Random, count: int, span: int, longest: int) -> list:
    out = []
    for _ in range(count):
        left = rng.randrange(span)
        out.append((left, left + rng.randint(0, longest)))
    return out


def _model_graph(rng: random.Random, n: int, probe: bool, prefix: str = "v"):
    """Names, edges and nonprobes of a planted (probe) interval model."""
    span = 2 * n
    iv = _random_intervals(rng, n, span, max(1, span // 4))
    names = tuple(f"{prefix}{i}" for i in range(n))
    nonprobes = set()
    if probe and n:
        share = rng.uniform(0.1, 0.6)
        nonprobes = set(rng.sample(range(n), max(1, round(share * n))))
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if a in nonprobes and b in nonprobes:
                continue
            if _meets(iv[a], iv[b]):
                edges.add(frozenset((names[a], names[b])))
    return names, edges, {names[v] for v in nonprobes}


def interval_yes(rng: random.Random, n: int) -> GraphInstance:
    names, edges, _ = _model_graph(rng, n, probe=False)
    return GraphInstance(names=names, edges=frozenset(edges), nonprobes=None, truth=True)


def probe_yes(rng: random.Random, n: int) -> GraphInstance:
    names, edges, nps = _model_graph(rng, n, probe=True)
    return GraphInstance(names=names, edges=frozenset(edges), nonprobes=frozenset(nps), truth=True)


def graph_no(rng: random.Random, n: int, gadget: str, probe: bool) -> GraphInstance:
    """A planted model on n - k vertices plus the k-vertex gadget."""
    k, gedges, gnps = GRAPH_GADGETS[gadget]
    names, edges, nps = _model_graph(rng, n - k, probe=probe)
    gnames = tuple(f"h{i}" for i in range(k))
    edges |= {frozenset((gnames[a], gnames[b])) for a, b in gedges}
    nonprobes = None
    if probe:
        nonprobes = frozenset(nps | {gnames[v] for v in gnps})
    return GraphInstance(
        names=names + gnames,
        edges=frozenset(edges),
        nonprobes=nonprobes,
        truth=False,
        gadget=gadget,
        gadget_names=gnames,
    )


def _model_matrix(rng: random.Random, nr: int, nc: int) -> list:
    span = nr + nc + 2
    longest = max(1, span // 3)
    rows = _random_intervals(rng, nr, span, longest)
    cols = _random_intervals(rng, nc, span, longest)
    return [[1 if _meets(a, b) else 0 for b in cols] for a in rows]


def matrix_yes(rng: random.Random, nr: int, nc: int) -> MatrixInstance:
    data = _model_matrix(rng, nr, nc)
    return MatrixInstance(
        rows=tuple(f"r{i}" for i in range(nr)),
        cols=tuple(f"c{j}" for j in range(nc)),
        data=tuple(tuple(row) for row in data),
        truth=True,
    )


def matrix_no(rng: random.Random, nr: int, nc: int, gadget: str) -> MatrixInstance:
    """Block-diagonal: a planted (nr-k) x (nc-k) model, then the k x k gadget."""
    g = MATRIX_GADGETS[gadget]
    k = len(g)
    base = _model_matrix(rng, nr - k, nc - k)
    data = [row + [0] * k for row in base]
    data += [[0] * (nc - k) + list(grow) for grow in g]
    rows = tuple(f"r{i}" for i in range(nr))
    cols = tuple(f"c{j}" for j in range(nc))
    return MatrixInstance(
        rows=rows,
        cols=cols,
        data=tuple(tuple(row) for row in data),
        truth=False,
        gadget=gadget,
        gadget_rows=rows[nr - k :],
        gadget_cols=cols[nc - k :],
    )


def gadget_instance(gadget: str) -> GraphInstance:
    """The gadget on its own, named like its copy inside an instance."""
    k, gedges, gnps = GRAPH_GADGETS[gadget]
    names = tuple(f"h{i}" for i in range(k))
    return GraphInstance(
        names=names,
        edges=frozenset(frozenset((names[a], names[b])) for a, b in gedges),
        nonprobes=frozenset(names[v] for v in gnps),
        truth=False,
        gadget=gadget,
        gadget_names=names,
    )


def round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}")
