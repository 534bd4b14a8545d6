import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeint import (
    augmented_adjacency,
    build_graph,
    enumerate_graphs,
    probe_bigraph,
    symmetric_bigraph,
)
from probeint.io import parse_graph_json, serialize_graph


def test_build_graph_net(net):
    assert net.n == 6
    assert net.vertex_names == ("a", "b", "c", "d", "e", "f")
    assert len(net.edges) == 6
    assert sorted(net.nonprobes) == [4, 5]


def test_build_graph_single_vertex():
    g = build_graph([], vertices=["a"])
    assert g.n == 1
    assert not g.edges


def test_build_graph_rejects_dependent_nonprobes():
    with pytest.raises(ValueError, match="not independent"):
        build_graph([("a", "b")], nonprobes=["a", "b"])


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([("a", "a")])


def test_build_graph_rejects_unknown_nonprobe():
    with pytest.raises(ValueError, match="unknown nonprobe"):
        build_graph([("a", "b")], nonprobes=["z"])


def test_augmented_single_vertex():
    g = build_graph([], vertices=["a"])
    assert augmented_adjacency(g).entries == (("1",),)


def test_augmented_c4(c4):
    m = augmented_adjacency(c4)
    assert m.entry("a", "c") == "0"
    assert m.entry("b", "d") == "0"
    for v in "abcd":
        assert m.entry(v, v) == "1"
    assert m.entry("a", "b") == "1"
    assert m.entry("c", "d") == "1"


def test_augmented_net(net):
    # direct expansion of the edge list
    expected = {
        ("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("c", "e"), ("d", "f"),
    }
    m = augmented_adjacency(net)
    for u, v in itertools.combinations("abcdef", 2):
        want = "1" if (u, v) in expected else "0"
        assert m.entry(u, v) == want
        assert m.entry(v, u) == want


def test_augmented_is_adjacency_plus_identity():
    from probeint.sweeps import graph_class_representatives

    def check(g):
        m = augmented_adjacency(g)
        assert m.is_symmetric()
        for i in range(g.n):
            for j in range(g.n):
                expected = "1" if i == j or g.has_edge(i, j) else "0"
                assert m.entries[i][j] == expected

    for n in range(1, 5):
        for g in enumerate_graphs(n):  # every labeled graph
            check(g)
    for n in range(5, 7):
        for g in graph_class_representatives(n):
            check(g)


def test_probe_bigraph_net(net):
    m = probe_bigraph(net)
    assert m.rows == ("a", "b", "c", "d")
    assert m.cols == ("a", "b", "c", "d", "e", "f")
    # frozen expected one-pattern for this instance
    expected = [
        "110000",
        "111100",
        "011110",
        "011101",
    ]
    got = ["".join(row) for row in m.entries]
    assert got == expected


def test_probe_bigraph_is_row_submatrix(net):
    aug = augmented_adjacency(net)
    m = probe_bigraph(net)
    for p in m.rows:
        for v in m.cols:
            assert m.entry(p, v) == aug.entry(p, v)


def test_probe_bigraph_empty_nonprobes():
    g = build_graph([("a", "b")], nonprobes=[])
    assert probe_bigraph(g) == augmented_adjacency(g)


def test_probe_bigraph_no_probes():
    g = build_graph([], vertices=["a", "b"], nonprobes=["a", "b"])
    m = probe_bigraph(g)
    assert m.shape == (0, 2)


def test_probe_bigraph_requires_nonprobes(c4):
    with pytest.raises(ValueError, match="no nonprobe set"):
        probe_bigraph(c4)


def test_symmetric_bigraph_probe_loops(net):
    m = symmetric_bigraph(net)
    diag = [m.entries[i][i] for i in range(net.n)]
    assert diag == ["1", "1", "1", "1", "0", "0"]
    off = augmented_adjacency(net)
    for i in range(net.n):
        for j in range(net.n):
            if i != j:
                assert m.entries[i][j] == off.entries[i][j]


def test_symmetric_bigraph_all_nonprobes_edgeless():
    g = build_graph([], vertices=["a", "b", "c"], nonprobes=["a", "b", "c"])
    m = symmetric_bigraph(g)
    assert all(e == "0" for row in m.entries for e in row)


edge_masks = st.integers(min_value=0, max_value=(1 << 15) - 1)


@settings(max_examples=100, deadline=None)
@given(mask=edge_masks, np_mask=st.integers(min_value=0, max_value=63))
def test_graph_json_round_trip(mask, np_mask):
    pairs = list(itertools.combinations(range(6), 2))
    names = [f"v{i}" for i in range(6)]
    edges = [
        (names[i], names[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1
    ]
    if not edges:
        return
    base = build_graph(edges)
    at = {name: v for v, name in enumerate(base.vertex_names)}
    chosen = []  # greedily keep sampled nonprobes that stay independent
    for v in range(6):
        name = names[v]
        if np_mask >> v & 1 and name in at:
            if all(not base.has_edge(at[name], at[c]) for c in chosen):
                chosen.append(name)
    g = build_graph(edges, nonprobes=chosen)
    text = serialize_graph(g)
    again = parse_graph_json(text)
    assert again == g
    assert serialize_graph(again) == text
