import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from probeint import (
    VerificationError,
    augmented_adjacency,
    build_graph,
    couple_graph,
    decompose_two_ferrers,
    ferrers_dim_le_2,
    find_rc_partition,
    interval_iff_dim2,
    interval_oracle,
    is_ferrers,
    is_interval_bigraph,
    is_interval_graph,
    probe_bigraph,
    probe_dim3_decomposition,
    recognize_char2,
    recognize_qxl,
)
from probeint import bigraphs, ferrers
from probeint.ferrers import FerrersFactorization, two_color
from probeint.matrices import ONE, ZERO, LabeledMatrix, from_zero_one
from probeint.oracles import ferrers_oracle
from probeint.sweeps import graph_class_representatives, matrix_class_representatives
from tests.conftest import SRC, assert_odd_couple_cycle, union_complete


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
        assert is_ferrers(m) == ferrers_oracle(m), m.entries


def test_ferrers_definitions_agree_4x5_classes():
    for m in matrix_class_representatives(4, 5):
        assert is_ferrers(m) == ferrers_oracle(m), m.entries


def test_ferrers_definitions_agree_random_8x8():
    rng = random.Random(88)
    for _ in range(500):
        m = from_zero_one(
            [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        )
        assert is_ferrers(m) == ferrers_oracle(m), m.entries


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
    assert union_complete(fact)


def test_decompose_rejects_improper_coloring():
    m = from_zero_one([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="proper"):
        decompose_two_ferrers(m, {("r0", "c1"): "R", ("r1", "c0"): "R"})


def assert_classes_zero_in_own_factor(fact, coloring):
    """Every R zero of the target is 0 in the first factor and every C zero
    in the second.  A zero may be 0 in both: the factors' union need not
    be complete."""
    for i, row in enumerate(fact.target.entries):
        for j, e in enumerate(row):
            if e != ZERO:
                continue
            color = coloring[(fact.target.rows[i], fact.target.cols[j])]
            own = fact.factors[0 if color == "R" else 1]
            assert own.entries[i][j] == ZERO, (fact.target.entries, (i, j))


def test_two_factor_zeros_partition_target_zeros():
    count = 0
    for r in range(1, 5):
        for c in range(1, 5):
            for m in matrix_class_representatives(r, c):
                # reversed labels put repr order against position order
                flipped = LabeledMatrix(m.rows[::-1], m.cols[::-1], m.entries)
                for target in (m, flipped):
                    cert = ferrers_dim_le_2(target)
                    if not cert.verdict:
                        continue
                    count += 1
                    assert cert.coloring == two_color(couple_graph(target))[0]
                    assert cert.factorization.target == target
                    assert_classes_zero_in_own_factor(cert.factorization, cert.coloring)
                    fact = decompose_two_ferrers(target, cert.coloring)
                    assert fact == cert.factorization and fact.validate()
    assert count > 1000


def test_exhausted_flip_search_is_a_no(monkeypatch):
    m = from_zero_one([[1, 0], [0, 1]])
    coloring, _ = two_color(couple_graph(m))
    assert coloring is not None
    monkeypatch.setattr(bigraphs, "_search_colorings", lambda *args, **kw: None)
    cert = find_rc_partition(m)
    assert not cert.verdict
    assert cert.witness == {"type": "exhausted"}
    # the dim-2 factors never reach the R-C engine
    assert ferrers_dim_le_2(m).factorization.validate()
    assert decompose_two_ferrers(m, coloring).validate()


def test_decompose_rejects_coloring_without_extension():
    # the couples of the 3x3 identity are its mirrored zero pairs; labeling
    # R one zero of each around the cycle 0 -> 1 -> 2 -> 0 asks the first
    # factor for a threshold with x0 > a1 >= x1 > a2 >= x2 > a0 >= x0
    m = from_zero_one([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cyclic = {(f"r{i}", f"c{(i + 1) % 3}"): "R" for i in range(3)}
    cyclic.update({(f"r{(i + 1) % 3}", f"c{i}"): "C" for i in range(3)})
    with pytest.raises(ValueError, match="extend"):
        decompose_two_ferrers(m, cyclic)
    # flipping one couple breaks the cycle
    cyclic[("r0", "c1")], cyclic[("r1", "c0")] = "C", "R"
    assert decompose_two_ferrers(m, cyclic).validate()


def test_dim2_yes_on_matrix_that_is_no_interval_bigraph(dim2_not_interval):
    m = dim2_not_interval
    cert = ferrers_dim_le_2(m)
    assert cert.verdict
    fact = cert.factorization
    assert fact.target == m and fact.validate()
    assert_classes_zero_in_own_factor(fact, cert.coloring)
    # two Ferrers factors with a complete union would make it an interval
    # bigraph (Sen, Das, Roy & West 1989)
    assert not union_complete(fact)


def _threshold(rng, nr, nc):
    """A random Ferrers matrix: 1 where a row level is at most a column's."""
    x = [rng.randint(0, 6) for _ in range(nr)]
    a = [rng.randint(0, 6) for _ in range(nc)]
    return [[xi <= aj for aj in a] for xi in x]


def test_random_dim2_yes_validates_and_bigraph_answers():
    rng = random.Random(1982)
    kinds = Counter()
    for trial in range(400):
        nr, nc = rng.randint(2, 12), rng.randint(2, 12)
        meet = trial % 2 == 0
        if meet:
            f1, f2 = _threshold(rng, nr, nc), _threshold(rng, nr, nc)
            data = [[int(p and q) for p, q in zip(*rows)] for rows in zip(f1, f2)]
        else:
            density = rng.choice((0.3, 0.5, 0.7))
            data = [[int(rng.random() < density) for _ in range(nc)] for _ in range(nr)]
        m = from_zero_one(
            data,
            rows=rng.sample([f"r{i}" for i in range(nr)], nr),
            cols=rng.sample([f"c{j}" for j in range(nc)], nc),
        )
        cert = ferrers_dim_le_2(m)
        assert cert.verdict or not meet, data
        if cert.verdict:
            assert cert.factorization.target == m and cert.factorization.validate()
        else:
            assert_odd_couple_cycle(m, cert.witness["positions"])
        bigraph = is_interval_bigraph(m)
        # interval bigraphs have Ferrers dimension at most 2
        assert cert.verdict or not bigraph.verdict, data
        kinds[cert.verdict, bigraph.verdict] += 1
    assert kinds[True, True] and kinds[True, False] + kinds[False, False]


def test_couple_graph_built_once_per_call(monkeypatch, c4, c4_probe, net_bef):
    original = ferrers.couple_graph
    builds = []

    def counted(m):
        builds.append(m)
        return original(m)

    # patched in every module that binds it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "probeint" and getattr(module, "couple_graph", None) is original:
            monkeypatch.setattr(module, "couple_graph", counted)
    p4 = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    reps = {g: recognize_qxl(g).intervals for g in (c4_probe, net_bef)}
    # the three-factor decomposition reads its factors off the intervals
    calls = [
        (1, lambda: interval_iff_dim2(p4)),
        (1, lambda: interval_iff_dim2(c4)),
        (1, lambda: ferrers_dim_le_2(augmented_adjacency(p4))),
        (1, lambda: ferrers_dim_le_2(augmented_adjacency(c4))),
        (1, lambda: ferrers_dim_le_2(from_zero_one([[0, 1], [1, 1]]))),
        (0, lambda: probe_dim3_decomposition(c4_probe, reps[c4_probe])),
        (0, lambda: probe_dim3_decomposition(net_bef, reps[net_bef])),
        (1, lambda: recognize_char2(c4_probe)),
        (1, lambda: recognize_char2(net_bef)),
        (1, lambda: recognize_char2(c4.with_nonprobes([]))),
    ]
    for expected, call in calls:
        builds.clear()
        call()
        assert len(builds) == expected


def test_ferrers_does_not_import_bigraphs():
    # the factors come from threshold extensions, not from the R-C engine,
    # and the three-factor decomposition checks its model without the probe
    # routes, so ferrers and probes import no cycle
    path = Path(SRC, "probeint", "ferrers.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module:
                imported += [(node.lineno, alias.name) for alias in node.names]
            else:
                imported.append((node.lineno, module))
    lines = [n for n, name in imported if name.split(".")[-1] in ("bigraphs", "probes")]
    assert not lines, f"ferrers.py imports bigraphs or probes at lines {lines}"


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
                assert union_complete(cert.factorization)


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
    assert union_complete(pair)


def test_dim3_rejects_bad_representation(c4_probe):
    bad = {v: (1, 1) for v in c4_probe.vertex_names}
    with pytest.raises(ValueError, match="verification"):
        probe_dim3_decomposition(c4_probe, bad)
