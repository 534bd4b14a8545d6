import random

import pytest

from probeint import (
    build_graph,
    interval_iff_dim2,
    is_interval_bigraph,
    is_interval_graph,
    probe_bigraph,
    probe_dim3_decomposition,
    recognize_char1,
    recognize_char2,
    recognize_qxl,
)
from probeint.matrices import LabeledMatrix, from_rows, from_zero_one, strip_to


def test_shape_and_entry():
    m = from_zero_one([[1, 0], [0, 1]], rows=("a", "b"), cols=("x", "y"))
    assert m.shape == (2, 2)
    assert m.entry("a", "y") == "0"
    assert m.entry("b", "y") == "1"


def test_validation_rejects_bad_entries():
    with pytest.raises(ValueError):
        LabeledMatrix(rows=("a",), cols=("x",), entries=(("Q",),))
    with pytest.raises(ValueError):
        LabeledMatrix(rows=("a", "a"), cols=("x",), entries=(("1",), ("1",)))
    with pytest.raises(ValueError):
        LabeledMatrix(rows=("a",), cols=("x", "y"), entries=(("1",),))


def test_permuted_and_transpose():
    m = from_rows(["a", "b"], ["x", "y"], [["1", "0"], ["R", "C"]])
    p = m.permuted(["b", "a"], ["y", "x"])
    assert p.entries == (("C", "R"), ("0", "1"))
    assert m.transpose().entries == (("1", "R"), ("0", "C"))
    with pytest.raises(ValueError):
        m.permuted(["a", "a"], ["x", "y"])


def test_symmetry():
    sym = from_zero_one([[1, 0], [0, 1]])
    assert sym.is_symmetric()
    asym = from_zero_one([[1, 1], [0, 1]])
    assert not asym.is_symmetric()
    rect = from_zero_one([[1, 0, 1]])
    assert not rect.is_symmetric()


def test_strip_to():
    m = from_rows(
        ["a", "b", "c"],
        ["x", "y", "z"],
        [["1", "0", "1"], ["0", "1", "0"], ["1", "1", "1"]],
    )
    # the kept lines stay in m's order, whatever the order of the labels given
    stripped = strip_to(m, ["c", "a"], ["z", "x"])
    assert stripped.rows == ("a", "c")
    assert stripped.cols == ("x", "z")
    assert stripped.entries == (("1", "1"), ("1", "1"))


def test_relabeled():
    m = from_rows(["a"], ["x", "y", "z"], [["0", "1", "R"]])
    relabeled = m.relabeled({(0, 0): "C"})
    assert relabeled.entries == (("C", "1", "R"),)
    assert m.entries == (("0", "1", "R"),)  # original untouched


def _planted_probe_graph(rng, n):
    """A probe interval graph drawn from a random model.  Vertices are
    named in order of left endpoint, so the order searches meet the model's
    order first, and the nonprobes' intervals are pairwise disjoint."""
    spans = []
    for _ in range(n):
        left = rng.randrange(2 * n)
        spans.append((left, left + rng.randint(0, n // 2)))
    spans.sort()

    def meet(u, v):
        return max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])

    nonprobes = []
    for v in rng.sample(range(n), n // 3):
        if not any(meet(u, v) for u in nonprobes):
            nonprobes.append(v)
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(names[u], names[v]) for u in range(n) for v in range(u + 1, n) if meet(u, v)]
    return build_graph(edges, nonprobes=[names[v] for v in nonprobes], vertices=names)


def test_library_reads_no_entry_by_label(monkeypatch, net, net_bef):
    # `entry` is the label accessor for callers; the library works on indices
    calls = []
    original = LabeledMatrix.entry

    def counted(self, row_label, col_label):
        calls.append((row_label, col_label))
        return original(self, row_label, col_label)

    monkeypatch.setattr(LabeledMatrix, "entry", counted)
    planted = _planted_probe_graph(random.Random(3), 16)
    for g in (net, net_bef, planted):
        assert is_interval_graph(g).verdict == interval_iff_dim2(g).verdict
        is_interval_bigraph(probe_bigraph(g))
        certs = [route(g) for route in (recognize_qxl, recognize_char1, recognize_char2)]
        assert len({c.verdict for c in certs}) == 1
        for cert in certs:
            if cert.verdict:
                probe_dim3_decomposition(g, cert.intervals)
    assert certs[0].verdict  # the planted graph is a yes for every route
    assert calls == []


def test_order_routes_permute_no_matrix(monkeypatch, c4_probe):
    # the interval and qxl routes read their order's rows by index
    calls = []
    original = LabeledMatrix.permuted

    def counted(self, row_order, col_order):
        calls.append((row_order, col_order))
        return original(self, row_order, col_order)

    monkeypatch.setattr(LabeledMatrix, "permuted", counted)
    p4 = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    assert is_interval_graph(p4).verdict
    assert recognize_qxl(c4_probe).verdict
    assert calls == []
