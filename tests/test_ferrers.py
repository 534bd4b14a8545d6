import random

import pytest

from probeint import (
    augmented_adjacency,
    build_graph,
    couple_graph,
    decompose_two_ferrers,
    ferrers_dim_le_2,
    interval_iff_dim2,
    interval_oracle,
    is_ferrers,
    is_interval_graph,
    probe_bigraph,
    probe_dim3_decomposition,
    recognize_qxl,
)
from probeint.ferrers import (
    FerrersFactorization,
    _ferrers_by_inclusion,
    _ferrers_by_submatrix,
    two_color,
)
from probeint.matrices import ONE, from_zero_one
from probeint.sweeps import graph_class_representatives, matrix_class_representatives
from tests.conftest import assert_odd_couple_cycle


def test_ferrers_all_ones():
    assert is_ferrers(from_zero_one([[1, 1], [1, 1]]))


def test_ferrers_identity_no():
    assert not is_ferrers(from_zero_one([[1, 0], [0, 1]]))
    assert not is_ferrers(from_zero_one([[0, 1], [1, 0]]))


def test_ferrers_staircase():
    stair = from_zero_one([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert is_ferrers(stair)


def test_ferrers_definitions_agree_exhaustive_3x5():
    for mask in range(1 << 15):
        m = from_zero_one(
            [[(mask >> (i * 5 + j)) & 1 for j in range(5)] for i in range(3)]
        )
        assert _ferrers_by_inclusion(m) == _ferrers_by_submatrix(m), m.entries


def test_ferrers_definitions_agree_4x5_classes():
    for m in matrix_class_representatives(4, 5):
        is_ferrers(m)  # asserts agreement internally


def test_ferrers_definitions_agree_random_8x8():
    rng = random.Random(88)
    for _ in range(500):
        m = from_zero_one(
            [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        )
        is_ferrers(m)


def test_couple_graph_identity():
    graph = couple_graph(from_zero_one([[1, 0], [0, 1]]))
    assert graph == {
        ("r0", "c1"): {("r1", "c0")},
        ("r1", "c0"): {("r0", "c1")},
    }


def test_couple_graph_all_ones_empty():
    assert couple_graph(from_zero_one([[1, 1], [1, 1]])) == {}


def test_couple_graph_net_bigraph_bipartite(net):
    graph = couple_graph(probe_bigraph(net))
    coloring, cycle = two_color(graph)
    assert coloring is not None and cycle is None


def test_dim2_identity_yes():
    assert ferrers_dim_le_2(from_zero_one([[1, 0], [0, 1]])).verdict


def test_dim2_all_ones_yes():
    assert ferrers_dim_le_2(from_zero_one([[1, 1], [1, 1]])).verdict


def test_dim2_c4_augmented_no(c4):
    cert = ferrers_dim_le_2(augmented_adjacency(c4))
    assert not cert.verdict
    assert_odd_couple_cycle(augmented_adjacency(c4), cert.witness["positions"])


def test_decompose_identity_forced():
    m = from_zero_one([[1, 0], [0, 1]])
    cert = ferrers_dim_le_2(m)
    fact = decompose_two_ferrers(m, cert.coloring)
    assert [list(map(list, f.entries)) for f in fact.factors] == [
        [["1", "0"], ["1", "1"]],
        [["1", "1"], ["0", "1"]],
    ]
    assert fact.validate()


def test_decompose_all_ones():
    m = from_zero_one([[1, 1], [1, 1]])
    fact = decompose_two_ferrers(m, {})
    assert all(
        e == ONE for f in fact.factors for row in f.entries for e in row
    )


def test_decompose_p4_union_complete():
    p4 = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    m = augmented_adjacency(p4)
    cert = ferrers_dim_le_2(m)
    fact = decompose_two_ferrers(m, cert.coloring)
    assert fact.validate()
    assert fact.union_complete()


def test_decompose_rejects_improper_coloring():
    m = from_zero_one([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="proper"):
        decompose_two_ferrers(m, {("r0", "c1"): "R", ("r1", "c0"): "R"})


def test_interval_iff_dim2_c4(c4):
    assert not interval_iff_dim2(c4).verdict
    assert not is_interval_graph(c4).verdict


def test_interval_iff_dim2_paths():
    names = "abcdef"
    for n in range(1, 7):
        g = build_graph(
            list(zip(names[:n], names[1:n])), vertices=list(names[:n])
        )
        assert interval_iff_dim2(g).verdict
        assert is_interval_graph(g).verdict


def test_interval_iff_dim2_k1():
    assert interval_iff_dim2(build_graph([], vertices=["a"])).verdict


def test_interval_iff_dim2_matches_recognizer_n5():
    for n in range(1, 6):
        for g in graph_class_representatives(n):
            assert interval_iff_dim2(g).verdict == is_interval_graph(g).verdict


def test_dim2_yes_implies_decomposition_validates():
    for n in range(1, 5):
        for g in graph_class_representatives(n):
            cert = interval_iff_dim2(g)
            if cert.verdict:
                assert cert.factorization.validate()
                assert cert.factorization.union_complete()


def test_dim2_no_witness_is_genuine_odd_couple_cycle():
    count = 0
    for n in range(4, 7):
        for g in graph_class_representatives(n):
            cert = interval_iff_dim2(g)
            if cert.verdict:
                continue
            count += 1
            assert_odd_couple_cycle(augmented_adjacency(g), cert.witness["positions"])
    assert count > 0


def test_dim3_c4_opposite_pair(c4_probe):
    rep = recognize_qxl(c4_probe)
    assert rep.verdict
    fact = probe_dim3_decomposition(c4_probe, rep.intervals)
    assert len(fact.factors) == 3
    assert fact.validate()


def test_dim3_interval_graph_empty_nonprobes():
    g = build_graph([("a", "b"), ("b", "c")], nonprobes=[])
    rep = recognize_qxl(g)
    fact = probe_dim3_decomposition(g, rep.intervals)
    f3 = fact.factors[2]
    assert all(e == ONE for row in f3.entries for e in row)


def test_dim3_net_alt_nonprobes(net_bef):
    rep = recognize_qxl(net_bef)
    assert rep.verdict
    fact = probe_dim3_decomposition(net_bef, rep.intervals)
    assert fact.validate()
    f1, f2 = fact.factors[:2]
    pair = FerrersFactorization(factors=(f1, f2), target=fact.target)
    assert pair.union_complete()


def test_dim3_rejects_bad_representation(c4_probe):
    bad = {v: (1, 1) for v in c4_probe.vertex_names}
    with pytest.raises(ValueError, match="verification"):
        probe_dim3_decomposition(c4_probe, bad)
