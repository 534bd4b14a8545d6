import itertools

import pytest

from probeint.sweeps import graph_class_representatives, matrix_class_representatives


def _graph_mask(n, edges):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(1 << k for k, p in enumerate(pairs) if p in edges)


def _matrix_mask(rows):
    ncols = len(rows[0])
    return sum(
        int(e) << (i * ncols + j)
        for i, row in enumerate(rows)
        for j, e in enumerate(row)
    )


def _assert_least_of_each_class(reps, n_masks, class_of):
    """reps ascend, each is the least of its class, and the classes of the
    reps are distinct and cover every mask below n_masks."""
    assert reps == sorted(reps)
    covered = set()
    for mask in reps:
        members = class_of(mask)
        assert mask == min(members)
        assert not covered & members
        covered |= members
    assert covered == set(range(n_masks))


@pytest.mark.parametrize(
    "n, count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]
)
def test_graph_class_counts(n, count):
    assert len(graph_class_representatives(n)) == count


@pytest.mark.parametrize("shape, count", [((4, 4), 317), ((4, 5), 1053)])
def test_matrix_class_counts(shape, count):
    assert len(matrix_class_representatives(*shape)) == count


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_representatives_are_least_masks(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def class_of(mask):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        return {
            _graph_mask(n, {tuple(sorted((perm[i], perm[j]))) for i, j in edges})
            for perm in itertools.permutations(range(n))
        }

    reps = [_graph_mask(n, g.edges) for g in graph_class_representatives(n)]
    _assert_least_of_each_class(reps, 1 << len(pairs), class_of)


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 4) for c in range(1, 5)])
def test_matrix_representatives_are_least_masks(shape):
    nrows, ncols = shape

    def class_of(mask):
        rows = [
            [mask >> (i * ncols + j) & 1 for j in range(ncols)] for i in range(nrows)
        ]
        return {
            _matrix_mask([[rows[i][j] for j in cp] for i in rp])
            for rp in itertools.permutations(range(nrows))
            for cp in itertools.permutations(range(ncols))
        }

    reps = [_matrix_mask(m.entries) for m in matrix_class_representatives(nrows, ncols)]
    _assert_least_of_each_class(reps, 1 << (nrows * ncols), class_of)
