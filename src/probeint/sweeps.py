"""Exhaustive small-instance sweeps, deduplicated up to isomorphism.

Recognition verdicts are invariant under relabeling, so exhaustive
cross-checks only need one representative per isomorphism class, and each
class is represented by its least bitmask.  A graph's bitmask has one bit
per vertex pair; scanning the bitmasks in ascending order and skipping the
orbit of every representative found leaves the least of each class.
Nonprobe choices are deduplicated under the automorphisms of the chosen
representative.  A matrix's bitmask is row-major; reading each column as
the value whose bit i is row i, the least bitmask for a fixed row order
puts the columns in descending order, so a matrix class is a multiset of
columns up to row permutations, and its least bitmask is a minimum over
those permutations.
"""

from __future__ import annotations

import itertools

from .graphs import Graph
from .matrices import LabeledMatrix, from_zero_one


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _perm_bit_maps(n: int) -> tuple[list, list]:
    pairs = _pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    maps = []
    for perm in perms:
        maps.append(
            [index[(min(perm[i], perm[j]), max(perm[i], perm[j]))] for i, j in pairs]
        )
    return perms, maps


def _images(bits: list, maps: list) -> list[int]:
    """The bitmask with bits `bits` under each map, which sends bit k to
    bit map[k]."""
    return [sum(1 << mp[k] for k in bits) for mp in maps]


def graph_class_representatives(n: int) -> list[Graph]:
    """Least-bitmask representative of every isomorphism class on n
    vertices, in ascending order of that bitmask."""
    pairs = _pairs(n)
    _, maps = _perm_bit_maps(n)
    names = tuple(f"v{i}" for i in range(n))
    seen: set = set()
    out = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        bits = [k for k in range(len(pairs)) if mask >> k & 1]
        seen.update(_images(bits, maps))
        edges = frozenset(pairs[k] for k in bits)
        out.append(Graph(n=n, vertex_names=names, edges=edges))
    return out


def automorphisms(g: Graph) -> list[tuple]:
    """All vertex permutations mapping the edge set onto itself."""
    perms, maps = _perm_bit_maps(g.n)
    pairs = _pairs(g.n)
    bits = [k for k, p in enumerate(pairs) if p in g.edges]
    mask = sum(1 << k for k in bits)
    return [perm for perm, image in zip(perms, _images(bits, maps)) if image == mask]


def independent_set_orbits(g: Graph) -> list[frozenset]:
    """One representative per automorphism orbit of independent vertex sets.

    Includes the empty set and the full vertex set when independent.
    """
    auts = automorphisms(g)
    independent = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if all(
            not g.has_edge(u, v)
            for a, u in enumerate(members)
            for v in members[a + 1 :]
        ):
            independent.append(mask)
    seen: set = set()
    reps = []
    for mask in independent:
        if mask in seen:
            continue
        members = [v for v in range(g.n) if mask >> v & 1]
        seen.update(_images(members, auts))
        reps.append(frozenset(members))
    return reps


def matrix_class_representatives(nrows: int, ncols: int) -> list[LabeledMatrix]:
    """Least-bitmask representative per class of 0/1 matrices under
    independent row and column permutations, in ascending order of the
    row-major bitmask."""
    # per row permutation, the column values it maps each column value to
    relabel = [
        [
            sum(1 << perm[i] for i in range(nrows) if v >> i & 1)
            for v in range(1 << nrows)
        ]
        for perm in itertools.permutations(range(nrows))
    ]

    def least_mask(cols: tuple) -> int:
        # ascending column values, laid out in descending order
        return sum(
            (v >> i & 1) << (i * ncols + ncols - 1 - j)
            for j, v in enumerate(cols)
            for i in range(nrows)
        )

    seen: set = set()
    masks = []
    for cols in itertools.combinations_with_replacement(range(1 << nrows), ncols):
        if cols in seen:
            continue
        orbit = {tuple(sorted(table[v] for v in cols)) for table in relabel}
        seen |= orbit
        masks.append(min(map(least_mask, orbit)))
    return [
        from_zero_one(
            [[mask >> (i * ncols + j) & 1 for j in range(ncols)] for i in range(nrows)]
        )
        for mask in sorted(masks)
    ]
