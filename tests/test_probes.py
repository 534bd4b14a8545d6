import itertools
import random

import pytest

from probeint import (
    augmented_adjacency,
    align_probe_columns,
    build_graph,
    check_rc_valid,
    couple_graph,
    find_rc_partition,
    is_interval_graph,
    is_quasi_linear,
    is_quasi_x_linear,
    probe_bigraph,
    probe_oracle,
    probe_representation,
    recognize_char1,
    recognize_char2,
    recognize_qxl,
    reduced_associated_graph,
    scan_forbidden,
    verify_probe_rep,
    x_fill,
)
from probeint.matrices import ONE, X, from_rows
from probeint.probes import x_mark_nonprobes
from probeint.sweeps import graph_class_representatives, independent_set_orbits
from tests.conftest import assert_odd_couple_cycle

ROUTES = (recognize_qxl, recognize_char1, recognize_char2)


# ---------------------------------------------------------------------------
# quasi-x-linear property and fill


def test_qxl_reduces_to_quasi_linear_without_nonprobes():
    g = build_graph([("a", "b"), ("b", "c")])
    m = augmented_adjacency(g)
    for order in itertools.permutations("abc"):
        assert is_quasi_x_linear(m, order, set()) == is_quasi_linear(m, order)


def test_qxl_c4_order(c4_probe):
    m = augmented_adjacency(c4_probe)
    assert is_quasi_x_linear(m, ("a", "b", "d", "c"), {"b", "d"})
    # some order must pass; exhaustive confirmation
    assert any(
        is_quasi_x_linear(m, order, {"b", "d"})
        for order in itertools.permutations("abcd")
    )


def test_qxl_net_fails_all_orders(net):
    m = augmented_adjacency(net)
    assert not any(
        is_quasi_x_linear(m, order, {"e", "f"})
        for order in itertools.permutations("abcdef")
    )


def test_qxl_rejects_dependent_marks(c4_probe):
    m = augmented_adjacency(c4_probe)
    with pytest.raises(ValueError, match="identity"):
        is_quasi_x_linear(m, ("a", "b", "c", "d"), {"a", "b"})


def test_x_fill_c4_adds_chord(c4_probe):
    m = x_mark_nonprobes(augmented_adjacency(c4_probe), {"b", "d"})
    ordered = m.permuted(("a", "b", "d", "c"), ("a", "b", "d", "c"))
    filled = x_fill(ordered)
    assert filled.entry("b", "d") == ONE
    assert filled.entry("d", "b") == ONE
    assert is_quasi_linear(filled, filled.rows)
    # only X positions changed
    for i in range(4):
        for j in range(4):
            if ordered.entries[i][j] != X:
                assert filled.entries[i][j] == ordered.entries[i][j]


def test_x_fill_without_marks_is_identity():
    g = build_graph([("a", "b"), ("b", "c")])
    m = augmented_adjacency(g)
    assert x_fill(m) == m


def test_x_fill_edgeless_all_nonprobes_fills_complete():
    g = build_graph([], vertices=["a", "b", "c"], nonprobes=["a", "b", "c"])
    m = x_mark_nonprobes(augmented_adjacency(g), {"a", "b", "c"})
    filled = x_fill(m)
    assert all(e == ONE for row in filled.entries for e in row)
    assert is_quasi_linear(filled, filled.rows)


def test_x_fill_requires_qxl_order(net):
    m = x_mark_nonprobes(augmented_adjacency(net), {"e", "f"})
    with pytest.raises(ValueError, match="quasi-x-linear"):
        x_fill(m)


# ---------------------------------------------------------------------------
# forbidden pattern scan


def test_scan_finds_pattern_in_reference_net_labeling(net_rc_labeling):
    assert check_rc_valid(net_rc_labeling)
    hit = scan_forbidden(net_rc_labeling, ["a", "b", "c", "d"], ["e", "f"])
    assert hit == ("b", "d", "e")


def test_scan_pattern_itself():
    m = from_rows(
        ["p", "q"],
        ["p", "q", "n"],
        [["1", "1", "R"], ["1", "1", "C"]],
    )
    assert scan_forbidden(m, ["p", "q"], ["n"]) == ("p", "q", "n")


def test_scan_all_c_column_clean():
    m = from_rows(
        ["p", "q"],
        ["p", "q", "n"],
        [["1", "1", "C"], ["1", "1", "C"]],
    )
    assert scan_forbidden(m, ["p", "q"], ["n"]) is None


def test_scan_invariant_under_label_preserving_permutations(net_rc_labeling):
    rng = random.Random(7)
    base = scan_forbidden(net_rc_labeling, ["a", "b", "c", "d"], ["e", "f"])
    assert base is not None
    for _ in range(25):
        rows = list(net_rc_labeling.rows)
        cols = list(net_rc_labeling.cols)
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = net_rc_labeling.permuted(rows, cols)
        hit = scan_forbidden(permuted, ["a", "b", "c", "d"], ["e", "f"])
        assert hit is not None  # presence is order-independent


# ---------------------------------------------------------------------------
# recognizers on the reference instances


@pytest.mark.parametrize("route", ROUTES)
def test_routes_c4_yes(route, c4_probe):
    cert = route(c4_probe)
    assert cert.verdict
    assert verify_probe_rep(c4_probe, cert.intervals)


@pytest.mark.parametrize("route", ROUTES)
def test_routes_net_ef_no(route, net):
    assert not route(net).verdict


@pytest.mark.parametrize("route", ROUTES)
def test_routes_net_bef_yes(route, net_bef):
    cert = route(net_bef)
    assert cert.verdict
    assert verify_probe_rep(net_bef, cert.intervals)


def hole(k, nonprobes):
    names = [f"v{i}" for i in range(k)]
    edges = [(names[i], names[(i + 1) % k]) for i in range(k)]
    return build_graph(edges, nonprobes=[names[i] for i in nonprobes])


@pytest.mark.parametrize(
    "route, matrix",
    [(recognize_char1, probe_bigraph), (recognize_char2, augmented_adjacency)],
)
@pytest.mark.parametrize("k, nonprobes", [(6, [0, 3]), (7, [0, 3])])
def test_routes_hole_no_witness_is_odd_couple_cycle(route, matrix, k, nonprobes):
    g = hole(k, nonprobes)
    cert = route(g)
    assert not cert.verdict
    assert cert.witness["type"] == "odd-cycle"
    assert_odd_couple_cycle(matrix(g), cert.witness["positions"])


def test_char1_no_but_bigraph_yes(net):
    cert = recognize_char1(net)
    assert not cert.verdict
    assert cert.witness["type"] == "exhausted"
    assert cert.witness["interval_bigraph"] is True


@pytest.mark.parametrize("route", ROUTES)
def test_routes_interval_graphs_with_empty_nonprobes(route):
    for n in range(1, 6):
        for g in graph_class_representatives(n):
            if not is_interval_graph(g).verdict:
                continue
            cert = route(g.with_nonprobes([]))
            assert cert.verdict


@pytest.mark.parametrize("route", ROUTES)
def test_routes_require_nonprobes(route, c4):
    with pytest.raises(ValueError, match="nonprobe"):
        route(c4)


@pytest.mark.parametrize("route", ROUTES)
def test_routes_all_nonprobes_edgeless(route):
    g = build_graph([], vertices=["a", "b"], nonprobes=["a", "b"])
    cert = route(g)
    assert cert.verdict
    assert verify_probe_rep(g, cert.intervals)


# ---------------------------------------------------------------------------
# alignment and representation


def test_align_rejects_pattern_carrying_matrix(net_rc_labeling):
    # the reference labeling of the net instance carries the forbidden
    # pattern at (b, d, e), so it is outside the alignment precondition
    with pytest.raises(ValueError, match="forbidden"):
        align_probe_columns(net_rc_labeling)


def test_align_already_aligned_is_identity(net_bef):
    aligned = recognize_char1(net_bef).labeling
    assert align_probe_columns(aligned) == aligned


def test_align_two_probe_swap():
    # columns q, p, n with rows p, q: p's column holds no R, so q's column
    # shifts right after p's
    m = from_rows(
        ["p", "q"],
        ["q", "p", "n"],
        [["1", "1", "R"], ["1", "1", "1"]],
    )
    aligned = align_probe_columns(m)
    assert aligned.cols == ("p", "q", "n")
    assert check_rc_valid(aligned)


def test_align_randomized_instances():
    rng = random.Random(501)
    count = 0
    for n in range(4, 7):
        for _ in range(40):
            mask = rng.getrandbits(n * (n - 1) // 2)
            pairs = list(itertools.combinations(range(n), 2))
            names = [chr(ord("a") + i) for i in range(n)]
            edges = [
                (names[i], names[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1
            ]
            if not edges:
                continue
            g = build_graph(edges, vertices=names)
            candidates = [v for v in range(g.n)]
            rng.shuffle(candidates)
            nonprobes = []
            for v in candidates[:2]:
                if all(not g.has_edge(v, u) for u in nonprobes):
                    nonprobes.append(v)
            inst = g.with_nonprobes(nonprobes)
            cert = recognize_char1(inst)
            if not cert.verdict:
                continue
            count += 1
            aligned = cert.labeling
            probe_cols = [c for c in aligned.cols if c in set(aligned.rows)]
            assert probe_cols == list(aligned.rows)
            assert check_rc_valid(aligned)
    assert count > 20


def test_probe_representation_net_alt_nonprobes(net_bef):
    cert = recognize_char1(net_bef)
    rep = probe_representation(cert.labeling, net_bef)
    assert verify_probe_rep(net_bef, rep)


def test_probe_representation_all_probes_sums_row_and_col():
    # no nonprobe columns: every vertex gets its summed row + column span
    g = build_graph([("a", "b"), ("b", "c")], nonprobes=[])
    labeled = probe_bigraph(g)
    cert = find_rc_partition(labeled)
    rep = probe_representation(align_probe_columns(cert.labeling), g)
    assert set(rep) == {"a", "b", "c"}
    assert verify_probe_rep(g, rep)


def test_probe_representation_single_probe_nonprobe_edge():
    g = build_graph([("p", "n")], nonprobes=["n"])
    labeled = probe_bigraph(g)  # all ones, no zeros to label
    rep = probe_representation(labeled, g)
    (l, r) = rep["n"]
    assert l == 0
    assert r > max(b for (_, b) in [rep["p"]])
    assert verify_probe_rep(g, rep)


def test_probe_representation_requires_alignment():
    m = from_rows(
        ["p", "q"],
        ["q", "p", "n"],
        [["1", "1", "R"], ["1", "1", "1"]],
    )
    with pytest.raises(ValueError, match="aligned"):
        probe_representation(m)


def test_verify_probe_rep_rules(c4_probe):
    # nonprobe pair with overlapping intervals and no edge is fine
    g = build_graph([("p", "m"), ("p", "n")], nonprobes=["m", "n"])
    assert verify_probe_rep(g, {"p": (1, 3), "m": (1, 2), "n": (2, 3)})
    # probe pair with an edge but disjoint intervals fails
    h = build_graph([("p", "q")], nonprobes=[])
    assert not verify_probe_rep(h, {"p": (1, 1), "q": (3, 3)})


# ---------------------------------------------------------------------------
# reduced associated graph


def test_reduced_equals_full_when_no_nonprobes():
    g = build_graph([("a", "b"), ("b", "c")], nonprobes=[])
    assert reduced_associated_graph(g) == couple_graph(augmented_adjacency(g))


def test_reduced_drops_nonprobe_square(net):
    reduced = reduced_associated_graph(net)
    assert ("e", "f") not in reduced
    assert ("f", "e") not in reduced
    full = couple_graph(augmented_adjacency(net))
    assert set(reduced) == set(full) - {("e", "f"), ("f", "e")}


def test_reduced_edgeless_two_nonprobes_empty():
    g = build_graph([], vertices=["a", "b"], nonprobes=["a", "b"])
    assert reduced_associated_graph(g) == {}


# ---------------------------------------------------------------------------
# agreement and structural invariants


def test_three_routes_and_oracle_agree_n4():
    for n in range(1, 5):
        for g in graph_class_representatives(n):
            for nonprobes in independent_set_orbits(g):
                inst = g.with_nonprobes(nonprobes)
                expected = probe_oracle(inst)
                for route in ROUTES:
                    cert = route(inst)
                    assert cert.verdict == expected, (sorted(g.edges), sorted(nonprobes))
                    if cert.verdict:
                        assert verify_probe_rep(inst, cert.intervals)


def test_interval_graphs_stay_probe_interval_any_nonprobes():
    for n in range(1, 5):
        for g in graph_class_representatives(n):
            if not is_interval_graph(g).verdict:
                continue
            for nonprobes in independent_set_orbits(g):
                inst = g.with_nonprobes(nonprobes)
                for route in ROUTES:
                    assert route(inst).verdict


def test_nonprobe_intervals_never_empty():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(3, 6)
        names = [chr(ord("a") + i) for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        edges = [
            (names[i], names[j])
            for k, (i, j) in enumerate(pairs)
            if rng.random() < 0.45
        ]
        if not edges:
            continue
        g = build_graph(edges, vertices=names)
        nonprobes = []
        order = list(range(n))
        rng.shuffle(order)
        for v in order[: rng.randint(0, 3)]:
            if all(not g.has_edge(v, u) for u in nonprobes):
                nonprobes.append(v)
        inst = g.with_nonprobes(nonprobes)
        cert = recognize_char1(inst)
        if cert.verdict:
            for v in nonprobes:
                l, r = cert.intervals[names[v]]
                assert l <= r
