"""Tests of the benchmark's output checks: corrupted certificates are
rejected, correct ones pass, and every gadget is a no by brute force.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import probeint as pb  # noqa: E402
from probeint import io as pio  # noqa: E402

import checks  # noqa: E402
import instances as ins  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _path():
    names = ("a", "b", "c")
    edges = frozenset({frozenset("ab"), frozenset("bc")})
    return ins.GraphInstance(names=names, edges=edges, nonprobes=None, truth=True)


def _planted(n=10, seed=3):
    return ins.interval_yes(random.Random(seed), n)


# --- correct outputs pass --------------------------------------------------


def test_program_certificates_pass():
    inst = _planted()
    g = wl.to_graph(pb, inst)
    wl.check_interval_cert(inst, pb.is_interval_graph(g))
    wl.check_dim2_cert(inst, pb.interval_iff_dim2(g))
    pinst = ins.probe_yes(random.Random(5), 12)
    pg = wl.to_graph(pb, pinst)
    cert = pb.recognize_char2(pg)
    wl.check_probe_cert(pinst, "char2", (cert, pb.probe_dim3_decomposition(pg, cert.intervals)))
    minst = ins.matrix_yes(random.Random(7), 4, 5)
    cert = pb.is_interval_bigraph(pb.from_zero_one(minst.data, rows=minst.rows, cols=minst.cols))
    checks.check_bigraph_intervals(minst, cert.row_intervals, cert.col_intervals)


# --- a shifted interval endpoint -------------------------------------------


def test_shifted_endpoint_rejected():
    good = {"a": (1, 2), "b": (2, 3), "c": (3, 4)}
    checks.check_graph_intervals(_path(), good)
    with pytest.raises(CheckFailed):
        checks.check_graph_intervals(_path(), dict(good, a=(1, 1)))  # a no longer meets b
    with pytest.raises(CheckFailed):
        checks.check_graph_intervals(_path(), dict(good, c=(2, 4)))  # c now meets a


def test_shifted_endpoint_in_program_certificate_rejected():
    inst = _planted()
    cert = pb.is_interval_graph(wl.to_graph(pb, inst))
    # move the right end of a vertex with a later neighbour back onto its left end
    v = next(
        u for u in inst.names
        if any(cert.intervals[w][0] > cert.intervals[u][0] for w in inst.adj[u])
    )
    lo, _ = cert.intervals[v]
    bad = dict(cert.intervals, **{v: (lo, lo)})
    with pytest.raises(CheckFailed):
        wl.check_interval_cert(inst, dataclasses.replace(cert, intervals=bad))


def test_probe_rule_applies():
    inst = ins.GraphInstance(
        names=("a", "b"), edges=frozenset(), nonprobes=frozenset({"a", "b"}), truth=True
    )
    checks.check_graph_intervals(inst, {"a": (1, 2), "b": (1, 2)})  # two nonprobes may meet
    with pytest.raises(CheckFailed):
        checks.check_graph_intervals(dataclasses.replace(inst, nonprobes=frozenset({"a"})),
                                     {"a": (1, 2), "b": (1, 2)})


# --- a non-Ferrers factor --------------------------------------------------


def test_non_ferrers_factor_rejected():
    target = (("r0", "r1"), ("c0", "c1"), ((1, 0), (0, 1)))
    ones = (("r0", "r1"), ("c0", "c1"), ((1, 1), (1, 1)))
    # the AND is right, but the identity is not a Ferrers matrix
    with pytest.raises(CheckFailed, match="not Ferrers"):
        checks.check_factorization([target, ones], target)


def test_non_ferrers_factor_in_program_certificate_rejected():
    inst = _planted()
    cert = pb.interval_iff_dim2(wl.to_graph(pb, inst))
    f1, f2 = cert.factorization.factors
    # f1 AND f2 is kept, but f1 gets a 2x2 permutation: zero out two ones
    # of f1 where f2 is 0, at crossing positions of two rows
    rows = [list(r) for r in f1.entries]
    n = len(rows)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    if (
                        i != k and j != l
                        and f2.entries[i][l] == "0" and f2.entries[k][j] == "0"
                        and rows[i][j] == "1" and rows[k][l] == "1"
                        and rows[i][l] == "1" and rows[k][j] == "1"
                    ):
                        rows[i][l] = rows[k][j] = "0"
                        bad = dataclasses.replace(f1, entries=tuple(tuple(r) for r in rows))
                        fact = dataclasses.replace(cert.factorization, factors=(bad, f2))
                        with pytest.raises(CheckFailed):
                            wl.check_dim2_cert(inst, dataclasses.replace(cert, factorization=fact))
                        return
    pytest.skip("no place to plant a permutation in this factor")


# --- two witness positions swapped -----------------------------------------


def _c5_witness():
    inst = ins.graph_no(random.Random(1), 9, "C5", probe=False)
    cert = pb.interval_iff_dim2(wl.to_graph(pb, inst))
    return inst, cert


def test_witness_walks():
    inst, cert = _c5_witness()
    wl.check_dim2_cert(inst, cert)


def test_swapped_witness_positions_rejected():
    inst, cert = _c5_witness()
    positions = list(cert.witness["positions"])
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            swapped = list(positions)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            witness = dict(cert.witness, positions=swapped)
            if swapped[::-1] == positions or _is_rotation(swapped, positions):
                continue
            with pytest.raises(CheckFailed):
                wl.check_dim2_cert(inst, dataclasses.replace(cert, witness=witness))


def _walks(positions, matrix):
    try:
        checks.check_odd_cycle([tuple(p) for p in positions], matrix)
    except CheckFailed:
        return False
    return True


def _is_rotation(a, b):
    k = len(a)
    return any(a[t:] + a[:t] == b or (a[t:] + a[:t])[::-1] == b for t in range(k))


def _tail_reversals(positions):
    return [positions[:k] + positions[k:][::-1] for k in range(1, len(positions) - 1)]


def test_tail_reversed_witness_is_the_known_fault():
    inst = ins.graph_no(random.Random(1), 12, "C7", probe=False)
    cert = pb.interval_iff_dim2(wl.to_graph(pb, inst))
    matrix = checks.augmented(inst)
    positions = [tuple(p) for p in cert.witness["positions"]]
    walking = next(p for p in [positions] + _tail_reversals(positions) if _walks(p, matrix))
    assert len(walking) >= 5
    tail_reversed = next(p for p in _tail_reversals(walking) if not _walks(p, matrix))
    with pytest.raises(checks.KnownFault):
        wl.check_dim2_cert(inst, dataclasses.replace(cert, witness=dict(cert.witness, positions=tail_reversed)))
    # a witness that no tail reversal mends is an unexpected failure
    broken = [(inst.names[0], inst.names[0])] + positions[1:]
    with pytest.raises(CheckFailed) as raised:
        wl.check_dim2_cert(inst, dataclasses.replace(cert, witness=dict(cert.witness, positions=broken)))
    assert not isinstance(raised.value, checks.KnownFault)
    with pytest.raises(CheckFailed) as raised:
        wl.check_dim2_cert(inst, dataclasses.replace(cert, verdict=True))
    assert not isinstance(raised.value, checks.KnownFault)


def test_even_or_non_zero_witness_rejected():
    inst, cert = _c5_witness()
    matrix = checks.augmented(inst)
    positions = [tuple(p) for p in cert.witness["positions"]]
    with pytest.raises(CheckFailed):
        checks.check_odd_cycle(positions[:-1], matrix)
    with pytest.raises(CheckFailed):
        checks.check_odd_cycle([(inst.names[0], inst.names[0])] + positions[1:], matrix)


# --- a flipped verdict -----------------------------------------------------


def test_flipped_verdict_rejected():
    inst = _planted()
    g = wl.to_graph(pb, inst)
    for fn, check in ((pb.is_interval_graph, wl.check_interval_cert),
                      (pb.interval_iff_dim2, wl.check_dim2_cert)):
        cert = fn(g)
        with pytest.raises(CheckFailed):
            check(inst, dataclasses.replace(cert, verdict=not cert.verdict))
    no_inst, no_cert = _c5_witness()
    with pytest.raises(CheckFailed):
        wl.check_dim2_cert(no_inst, dataclasses.replace(no_cert, verdict=True))


def test_cli_output_checks():
    inst = _planted(6)
    cert = pb.is_interval_graph(wl.to_graph(pb, inst))
    text = pio.emit_certificate(cert, "json").encode()
    check = wl._cli_checker("graph", inst)
    check((0, text))
    with pytest.raises(CheckFailed):
        check((1, text))  # exit code says no


# --- gadgets are no-instances by brute force -------------------------------


@pytest.mark.parametrize("gadget", sorted(ins.GRAPH_GADGETS))
def test_graph_gadget_is_no(gadget):
    assert not checks.brute_force_graph(ins.gadget_instance(gadget))


@pytest.mark.parametrize("gadget", sorted(ins.MATRIX_GADGETS))
def test_matrix_gadget_is_no(gadget):
    assert not checks.brute_force_matrix(ins.MATRIX_GADGETS[gadget])


def test_brute_force_accepts_yes_instances():
    assert checks.brute_force_graph(_planted(6))
    c4 = ins.gadget_instance("C4")
    assert checks.brute_force_graph(dataclasses.replace(c4, nonprobes=frozenset({"h0", "h2"})))
    assert checks.brute_force_matrix(ins.matrix_yes(random.Random(2), 3, 4).data)


def test_instances_contain_their_gadget():
    rng = random.Random(4)
    for gadget in ins.INTERVAL_GADGETS:
        inst = ins.graph_no(rng, 10, gadget, probe=False)
        checks.check_contains_gadget(inst, ins.gadget_instance(gadget))
    inst = ins.graph_no(rng, 10, "C5/1", probe=True)
    checks.check_contains_gadget(inst, ins.gadget_instance("C5/1"))
    bad = dataclasses.replace(inst, nonprobes=inst.nonprobes - {"h0"})
    with pytest.raises(CheckFailed):
        checks.check_contains_gadget(bad, ins.gadget_instance("C5/1"))


# --- the traced run's halves -----------------------------------------------


def test_calls_made_at_set_up_are_traced_only_while_installed():
    import probeint.cli  # noqa: F401  (the tracer wraps every module's functions)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(only={"graphs.build"})
    try:
        calls, _ = wl.probe_round(pb, random.Random(1))
    finally:
        tracer.uninstall()
    assert tracer.spans and {s[0] for s in tracer.spans} == {"graphs.build"}
    tracer.reset()
    calls[0].run()
    assert not tracer.spans and not tracer.counts
    tracer.install()
    try:
        calls[0].run()
    finally:
        tracer.uninstall()
    assert "probes.qxl" in {s[0] for s in tracer.spans}
