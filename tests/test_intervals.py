import itertools

import pytest

from probeint import (
    augmented_adjacency,
    build_graph,
    find_quasi_linear_order,
    interval_oracle,
    intervals_from_quasi_linear,
    is_interval_graph,
    is_quasi_linear,
    verify_interval_rep,
)
from probeint.matrices import from_zero_one
from probeint.sweeps import graph_class_representatives
from tests.conftest import run_python


def path(names):
    return build_graph(list(zip(names, names[1:])))


def test_quasi_linear_path_natural_order():
    g = path("abc")
    m = augmented_adjacency(g)
    assert is_quasi_linear(m, ("a", "b", "c"))
    assert not is_quasi_linear(m, ("a", "c", "b"))


def test_quasi_linear_c4_fails_all_orders(c4):
    m = augmented_adjacency(c4)
    for order in itertools.permutations("abcd"):
        assert not is_quasi_linear(m, order)


def test_quasi_linear_complete_graph_any_order():
    g = build_graph([(u, v) for u, v in itertools.combinations("abcd", 2)])
    m = augmented_adjacency(g)
    for order in itertools.permutations("abcd"):
        assert is_quasi_linear(m, order)


def test_quasi_linear_rejects_asymmetric():
    m = from_zero_one([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        is_quasi_linear(m, ("r0", "r1"))


def test_find_order_path():
    cert = find_quasi_linear_order(augmented_adjacency(path("abc")))
    assert cert.verdict
    assert cert.order == ("a", "b", "c")


def test_find_order_c4_no(c4):
    cert = find_quasi_linear_order(augmented_adjacency(c4))
    assert not cert.verdict
    assert cert.witness == {"type": "exhausted"}


def test_find_order_net_and_filled_net_no(net):
    assert not find_quasi_linear_order(augmented_adjacency(net)).verdict
    net_ef = net.with_extra_edges([(net.index("e"), net.index("f"))])
    assert not find_quasi_linear_order(augmented_adjacency(net_ef)).verdict


def test_intervals_k2():
    g = build_graph([("a", "b")])
    iv = intervals_from_quasi_linear(augmented_adjacency(g), ("a", "b"))
    assert iv == {"a": (1, 2), "b": (2, 2)}


def test_intervals_path():
    g = path("abc")
    iv = intervals_from_quasi_linear(augmented_adjacency(g), ("a", "b", "c"))
    assert iv == {"a": (1, 2), "b": (2, 3), "c": (3, 3)}
    assert verify_interval_rep(g, iv)


def test_intervals_single_vertex():
    g = build_graph([], vertices=["a"])
    assert intervals_from_quasi_linear(augmented_adjacency(g), ("a",)) == {
        "a": (1, 1)
    }


def test_intervals_rejects_bad_order():
    g = path("abc")
    with pytest.raises(ValueError):
        intervals_from_quasi_linear(augmented_adjacency(g), ("a", "c", "b"))


def test_verify_rejects_missing_vertex():
    g = path("ab")
    with pytest.raises(ValueError, match="missing"):
        verify_interval_rep(g, {"a": (1, 1)})


def test_verify_c4_candidates_fail(c4):
    candidates = [
        {"a": (1, 2), "b": (2, 3), "c": (3, 4), "d": (4, 5)},
        {"a": (1, 4), "b": (1, 2), "c": (2, 3), "d": (3, 4)},
        {"a": (1, 1), "b": (1, 1), "c": (1, 1), "d": (1, 1)},
    ]
    for ia in candidates:
        assert not verify_interval_rep(c4, ia)


def test_verify_edgeless_disjoint():
    g = build_graph([], vertices=["a", "b", "c"])
    assert verify_interval_rep(g, {"a": (1, 1), "b": (3, 3), "c": (5, 5)})


# Every interval [1, 1] makes a and c meet although they are not adjacent.
CORRUPT_READ_OFF = """
import sys
import probeint.intervals as iv
from probeint import build_graph
print("optimize", sys.flags.optimize)
iv.intervals_from_quasi_linear = lambda m, order: {v: (1, 1) for v in m.rows}
iv.is_interval_graph(build_graph([("a", "b"), ("b", "c")]))
"""


def test_verify_failure_raises_under_optimize():
    proc = run_python("-O", "-c", CORRUPT_READ_OFF)
    assert "optimize 1" in proc.stdout
    assert proc.returncode != 0
    assert "AssertionError: interval representation failed verification" in proc.stderr


def test_caterpillars_are_interval():
    # paths with legs, n <= 5
    legs = build_graph([("a", "b"), ("b", "c"), ("b", "d"), ("c", "e")])
    cert = is_interval_graph(legs)
    assert cert.verdict
    assert verify_interval_rep(legs, cert.intervals)


def test_k222_minus_vertex_not_interval(k222):
    keep = [v for v in range(k222.n) if k222.vertex_names[v] != "y"]
    assert not is_interval_graph(k222.induced(keep)).verdict


def test_recognizer_matches_oracle_up_to_n5():
    for n in range(1, 6):
        for g in graph_class_representatives(n):
            cert = is_interval_graph(g)
            assert cert.verdict == interval_oracle(g), sorted(g.edges)
            if cert.verdict:
                assert verify_interval_rep(g, cert.intervals)


def test_hereditary_on_vertex_deletion():
    g = build_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("d", "e")]
    )
    assert is_interval_graph(g).verdict
    for v in range(g.n):
        sub = g.induced([u for u in range(g.n) if u != v])
        assert is_interval_graph(sub).verdict


def test_deterministic_lex_least_order():
    # diamond: the first-appearance order itself is not quasi-linear, and
    # the lexicographically least valid order swaps c and d
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")])
    cert = find_quasi_linear_order(augmented_adjacency(g))
    assert cert.verdict
    assert cert.order == ("a", "b", "d", "c")
