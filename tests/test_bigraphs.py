import itertools
import random
import sys

import pytest

from probeint import (
    LabelingConflict,
    bigraph_oracle,
    check_rc_valid,
    diagonalize,
    find_rc_partition,
    forced_labeling,
    intervals_from_diagonalized,
    is_interval_bigraph,
    probe_bigraph,
    verify_bigraph_rep,
)
from probeint.bigraphs import BigraphIntervals, diagonalize_with_method, is_diagonalized
from probeint.matrices import from_rows, from_zero_one, strip_to
from probeint.sweeps import matrix_class_representatives


def all_zero_one(nr, nc):
    for mask in range(1 << (nr * nc)):
        yield from_zero_one(
            [[(mask >> (i * nc + j)) & 1 for j in range(nc)] for i in range(nr)]
        )


def brute_force_labeling_exists(m01) -> bool:
    """Try every R/C assignment of the zeros under the stored orders."""
    zeros = [(i, j) for i, j in m01.zero_positions()]
    for assignment in itertools.product("RC", repeat=len(zeros)):
        labeled = m01.relabeled(dict(zip(zeros, assignment)))
        if check_rc_valid(labeled):
            return True
    return len(zeros) == 0 or False


# ---------------------------------------------------------------------------
# check_rc_valid


def test_rc_valid_reference_labeling(bigraph_a):
    labeled = from_rows(
        bigraph_a.rows,
        bigraph_a.cols,
        [
            ["1", "1", "1", "R", "R"],
            ["1", "C", "C", "1", "R"],
            ["C", "C", "C", "1", "R"],
        ],
    )
    assert check_rc_valid(labeled)


def test_rc_valid_two_by_two():
    assert check_rc_valid(from_rows(["a", "b"], ["x", "y"], [["1", "R"], ["C", "1"]]))
    # the mirrored labeling breaks both rules: the R has a 1 to its right
    # and the C has a 1 below it
    assert not check_rc_valid(
        from_rows(["a", "b"], ["x", "y"], [["1", "C"], ["R", "1"]])
    )


def test_rc_valid_r_before_one():
    assert not check_rc_valid(from_rows(["a"], ["x", "y"], [["R", "1"]]))


def test_rc_valid_rejects_unresolved_zero():
    with pytest.raises(ValueError, match="unresolved"):
        check_rc_valid(from_zero_one([[1, 0]]))


# ---------------------------------------------------------------------------
# forced_labeling


def test_forced_reproduces_reference_pattern(bigraph_a):
    labeled = forced_labeling(bigraph_a, bigraph_a.rows, bigraph_a.cols)
    assert ["".join(r) for r in labeled.entries] == [
        "111RR",
        "1CC1R",
        "CCC1R",
    ]


def test_forced_identity_matrix():
    m = from_zero_one([[1, 0], [0, 1]])
    labeled = forced_labeling(m, m.rows, m.cols)
    assert labeled.entries == (("1", "R"), ("C", "1"))


def test_forced_antidiagonal_conflicts():
    m = from_zero_one([[0, 1], [1, 0]])
    with pytest.raises(LabelingConflict) as exc:
        forced_labeling(m, m.rows, m.cols)
    assert exc.value.position == ("r0", "c0")


def test_forced_requires_propagation():
    # (r1, c0) is free by the local rules, but the C forced at (r0, c1)
    # spreads down its column and then left along the second row
    m = from_zero_one([[1, 0, 1], [0, 0, 0]])
    labeled = forced_labeling(m, m.rows, m.cols)
    assert check_rc_valid(labeled)
    assert labeled.entry("r1", "c0") == "C"
    assert labeled.entry("r1", "c1") == "C"
    assert labeled.entry("r1", "c2") == "R"


def test_forced_failure_iff_no_labeling_small():
    # exhaustive over raw matrices up to 3x3 under identity orders
    for nr in range(1, 4):
        for nc in range(1, 4):
            for m in all_zero_one(nr, nc):
                expected = brute_force_labeling_exists(m)
                try:
                    labeled = forced_labeling(m, m.rows, m.cols)
                    got = True
                    assert check_rc_valid(labeled)
                except LabelingConflict:
                    got = False
                assert got == expected, m.entries


def test_forced_failure_iff_no_labeling_4x4_classes():
    # identity orders over every class representative cover all (matrix,
    # orders) pairs up to relabeling
    for m in matrix_class_representatives(4, 4):
        expected = brute_force_labeling_exists(m)
        try:
            forced_labeling(m, m.rows, m.cols)
            got = True
        except LabelingConflict:
            got = False
        assert got == expected, m.entries


# ---------------------------------------------------------------------------
# find_rc_partition


def test_rc_partition_reference_bigraph(bigraph_a):
    cert = find_rc_partition(bigraph_a)
    assert cert.verdict
    assert cert.row_order == ("y1", "y2", "y3")
    assert cert.col_order == ("x1", "x2", "x3", "x4", "x5")
    assert check_rc_valid(cert.labeling)


def test_rc_partition_net_bigraph(net):
    cert = find_rc_partition(probe_bigraph(net))
    assert cert.verdict


def test_rc_partition_no_instance_exists_3x3():
    # some 3x3 matrix admits no partition and the oracle agrees everywhere
    found_no = None
    for m in matrix_class_representatives(3, 3):
        verdict = find_rc_partition(m).verdict
        assert verdict == bigraph_oracle(m), m.entries
        if not verdict:
            found_no = m
    assert found_no is not None


def test_rc_partition_matches_oracle_4x4_classes():
    for m in matrix_class_representatives(4, 4):
        assert find_rc_partition(m).verdict == bigraph_oracle(m), m.entries


def test_rc_partition_wider_than_recursion_limit():
    # every zero of a single row is a couple graph component of its own
    m = from_zero_one([[0] * (sys.getrecursionlimit() + 200)])
    cert = find_rc_partition(m)
    assert cert.verdict
    assert check_rc_valid(cert.labeling)


def test_rc_partition_matches_oracle_raw_3x3():
    for m in all_zero_one(3, 3):
        assert find_rc_partition(m).verdict == bigraph_oracle(m), m.entries


# ---------------------------------------------------------------------------
# diagonalize


def test_diagonalize_reference_example(bigraph_a):
    cert = find_rc_partition(bigraph_a)
    diag, method = diagonalize_with_method(cert.labeling)
    assert method == "interleave"
    assert diag.rows == ("y1", "+r1", "+r2", "y2", "y3", "+r3")
    assert diag.cols == ("x1", "x2", "x3", "x4", "+c1", "x5")
    assert ["".join(r) for r in diag.entries] == [
        "111RRR",
        "111111",
        "111111",
        "1CC11R",
        "CCC11R",
        "CCC111",
    ]


def test_diagonalize_trivial():
    m = from_rows(["y"], ["x"], [["1"]])
    assert diagonalize(m) == m


def test_diagonalize_padded_is_rows_plus_cols(bigraph_a):
    cert = find_rc_partition(bigraph_a)
    diag, method = diagonalize_with_method(cert.labeling, method="padded")
    assert method == "padded"
    assert diag.shape == (8, 8)
    assert strip_to(diag, bigraph_a.rows, bigraph_a.cols) == cert.labeling


def test_diagonalize_postconditions_all_small_classes():
    for nr in range(1, 5):
        for nc in range(1, 5):
            for m in matrix_class_representatives(nr, nc):
                cert = find_rc_partition(m)
                if not cert.verdict:
                    continue
                for method in ("interleave", "padded"):
                    diag, _ = diagonalize_with_method(cert.labeling, method=method)
                    assert is_diagonalized(diag)
                    assert check_rc_valid(diag)
                    assert (
                        strip_to(diag, cert.labeling.rows, cert.labeling.cols)
                        == cert.labeling
                    )


def test_diagonalize_rejects_invalid():
    with pytest.raises(ValueError, match="R-C"):
        diagonalize(from_rows(["a"], ["x", "y"], [["R", "1"]]))


# ---------------------------------------------------------------------------
# intervals


def test_algorithm_reference_tables(bigraph_a):
    cert = find_rc_partition(bigraph_a)
    diag, _ = diagonalize_with_method(cert.labeling)
    iv = intervals_from_diagonalized(diag)
    assert iv.rows == {
        "y1": (1, 3),
        "+r1": (2, 6),
        "+r2": (3, 6),
        "y2": (4, 5),
        "y3": (5, 5),
        "+r3": (6, 6),
    }
    assert iv.cols == {
        "x1": (1, 4),
        "x2": (2, 3),
        "x3": (3, 3),
        "x4": (4, 6),
        "+c1": (5, 6),
        "x5": (6, 6),
    }


def test_algorithm_trivial():
    m = from_rows(["y"], ["x"], [["1"]])
    iv = intervals_from_diagonalized(m)
    assert iv.rows == {"y": (1, 1)}
    assert iv.cols == {"x": (1, 1)}


def test_algorithm_stripped_tables(bigraph_a):
    cert = is_interval_bigraph(bigraph_a)
    assert cert.row_intervals == {"y1": (1, 3), "y2": (4, 5), "y3": (5, 5)}
    assert cert.col_intervals == {
        "x1": (1, 4),
        "x2": (2, 3),
        "x3": (3, 3),
        "x4": (4, 6),
        "x5": (6, 6),
    }


def test_algorithm_rejects_undiagonalized():
    with pytest.raises(ValueError, match="diagonalized"):
        intervals_from_diagonalized(from_zero_one([[1, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# verify_bigraph_rep


def test_verify_reference_tables(bigraph_a):
    iv = BigraphIntervals(
        rows={"y1": (1, 3), "y2": (4, 5), "y3": (5, 5)},
        cols={
            "x1": (1, 4),
            "x2": (2, 3),
            "x3": (3, 3),
            "x4": (4, 6),
            "x5": (6, 6),
        },
    )
    assert verify_bigraph_rep(bigraph_a, iv)


def test_verify_shifted_rows_fail(bigraph_a):
    iv = BigraphIntervals(
        rows={"y1": (101, 103), "y2": (104, 105), "y3": (105, 105)},
        cols={
            "x1": (1, 4),
            "x2": (2, 3),
            "x3": (3, 3),
            "x4": (4, 6),
            "x5": (6, 6),
        },
    )
    assert not verify_bigraph_rep(bigraph_a, iv)


def test_verify_empty_bigraph_disjoint():
    m = from_zero_one([[0, 0], [0, 0]])
    iv = BigraphIntervals(
        rows={"r0": (1, 1), "r1": (1, 1)}, cols={"c0": (3, 3), "c1": (3, 3)}
    )
    assert verify_bigraph_rep(m, iv)


def test_verify_missing_vertex(bigraph_a):
    with pytest.raises(ValueError, match="missing"):
        verify_bigraph_rep(bigraph_a, BigraphIntervals(rows={}, cols={}))


# ---------------------------------------------------------------------------
# the pipeline realizes every matrix that admits a zero partition


def test_pipeline_realizes_all_small_classes():
    for nr in range(1, 5):
        for nc in range(1, 5):
            for m in matrix_class_representatives(nr, nc):
                cert = is_interval_bigraph(m)
                assert cert.verdict == bigraph_oracle(m)
                if cert.verdict:
                    iv = BigraphIntervals(
                        rows=cert.row_intervals, cols=cert.col_intervals
                    )
                    assert verify_bigraph_rep(cert.labeling, iv)


def test_pipeline_handles_matrix_without_rows():
    m = from_rows([], ["x1", "x2"], [])
    cert = is_interval_bigraph(m)
    assert cert.verdict
    assert cert.row_intervals == {}
    assert set(cert.col_intervals) == {"x1", "x2"}


def test_pipeline_realizes_random_6x6_successes():
    rng = random.Random(1327)
    successes = 0
    while successes < 200:
        data = _planted(rng, 6, 6)
        cert = is_interval_bigraph(from_zero_one(data))
        assert cert.verdict, data
        successes += 1


def _random_interval(rng):
    l = rng.randint(1, 9)
    return l, l + rng.randint(0, 5)


def _planted(rng, nr, nc):
    """The 0/1 matrix of random row and column intervals."""
    rows = [_random_interval(rng) for _ in range(nr)]
    cols = [_random_interval(rng) for _ in range(nc)]
    return [
        [1 if max(rl, cl) <= min(rr, cr) else 0 for (cl, cr) in cols]
        for (rl, rr) in rows
    ]


# ---------------------------------------------------------------------------
# planted instances past the oracle's 4x5 range


@pytest.mark.parametrize("nr, nc, seed", [(6, 8, 68), (8, 10, 810)])
def test_pipeline_certifies_planted_models(nr, nc, seed):
    rng = random.Random(seed)
    for _ in range(20):
        m = from_zero_one(_planted(rng, nr, nc))
        cert = is_interval_bigraph(m)
        assert cert.verdict, m.entries
        assert check_rc_valid(cert.labeling)
        diag = cert.diagonalized
        assert strip_to(diag, cert.row_order, cert.col_order) == cert.labeling
        iv = BigraphIntervals(rows=cert.row_intervals, cols=cert.col_intervals)
        assert verify_bigraph_rep(m, iv)


@pytest.mark.parametrize("k, block", [(3, (4, 5)), (4, (3, 4))])
def test_planted_block_beside_long_cycle_is_no(k, block):
    # a bipartite cycle C_2k with k >= 3 is no interval bigraph, so neither
    # is any matrix holding it as a separate block; both cases are 7x8
    br, bc = block
    cycle = [[1 if j in (i, (i + 1) % k) else 0 for j in range(k)] for i in range(k)]
    data = [row + [0] * k for row in _planted(random.Random(k), br, bc)]
    data += [[0] * bc + row for row in cycle]
    cert = is_interval_bigraph(from_zero_one(data))
    assert not cert.verdict
    assert cert.witness == {"type": "exhausted"}
