"""The workloads: which calls a round makes, on which instances, and
how each output is checked.

A round is a fixed list of calls on instances drawn at set-up from the
seed; a workload's pool is a fixed number of rounds.  Every run makes
whole passes over the pool, so every run times the same instances, however
fast the program is, and the share of failed calls is the same in every
run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable

import checks
import instances as ins
from checks import CheckFailed

CLI_BOOT = "import sys; from probeint.cli import main; sys.argv[0] = 'probeint'; main()"


@dataclass
class Call:
    label: str
    truth: bool
    run: Callable[[], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# library certificates


def _check_witness(witness, matrix=None, forbidden=frozenset()) -> None:
    kind = (witness or {}).get("type")
    if kind == "odd-cycle":
        if matrix is None:
            raise CheckFailed("odd-cycle witness from a route without couples")
        positions = [tuple(p) for p in witness["positions"]]
        try:
            checks.check_odd_cycle(positions, matrix, forbidden)
        except CheckFailed as e:
            if checks.walks_with_tail_reversed(positions, matrix, forbidden):
                raise checks.KnownFault(f"{e}; the witness walks with a tail reversed") from e
            raise
    elif kind != "exhausted":
        raise CheckFailed(f"unexpected witness {witness!r}")


def _verdict(cert, truth: bool) -> None:
    if bool(cert.verdict) != truth:
        raise CheckFailed(f"verdict {cert.verdict} on a {'yes' if truth else 'no'}-instance")


def _factors(fact):
    return [checks.labeled_to_01(f.rows, f.cols, f.entries) for f in fact.factors]


def check_interval_cert(inst, cert) -> None:
    _verdict(cert, inst.truth)
    if inst.truth:
        checks.check_graph_intervals(inst, cert.intervals)
    else:
        _check_witness(cert.witness)


def check_dim2_cert(inst, cert) -> None:
    _verdict(cert, inst.truth)
    target = checks.augmented(inst)
    if inst.truth:
        factors = _factors(cert.factorization)
        if len(factors) != 2:
            raise CheckFailed(f"{len(factors)} factors for dim2")
        checks.check_factorization(factors, target)
    else:
        _check_witness(cert.witness, target)


def check_probe_cert(inst, route: str, out) -> None:
    cert, fact = out
    _verdict(cert, inst.truth)
    if inst.truth:
        checks.check_graph_intervals(inst, cert.intervals)
        factors = _factors(fact)
        if len(factors) != 3:
            raise CheckFailed(f"{len(factors)} factors for dim3")
        checks.check_factorization(factors, checks.probe_loops(inst))
    elif route == "char1":
        _check_witness(cert.witness, checks.probes_by_vertices(inst))
    elif route == "char2":
        _check_witness(cert.witness, checks.augmented(inst), checks.nonprobe_square(inst))
    else:
        _check_witness(cert.witness)


def to_graph(pb, inst):
    nonprobes = None if inst.nonprobes is None else sorted(inst.nonprobes)
    return pb.build_graph(inst.sorted_edges(), nonprobes=nonprobes, vertices=inst.names)


# ---------------------------------------------------------------------------
# in-process workloads


def interval_round(pb, rng):
    calls, no_instances = [], []

    def add(inst, search: bool) -> None:
        g = to_graph(pb, inst)
        tag = f"n={inst.n} {inst.gadget or 'yes'}"
        if search:
            calls.append(Call(f"is_interval_graph {tag}", inst.truth,
                              lambda: pb.is_interval_graph(g),
                              lambda c: check_interval_cert(inst, c)))
        calls.append(Call(f"interval_iff_dim2 {tag}", inst.truth,
                          lambda: pb.interval_iff_dim2(g),
                          lambda c: check_dim2_cert(inst, c)))
        if not inst.truth:
            no_instances.append(inst)

    for n in (8, 10, 12):
        add(ins.interval_yes(rng, n), search=True)
    # twenty dim2 calls at n=16 hold the median of the yes calls; see README
    for n in (16,) * 20 + (24, 48):
        add(ins.interval_yes(rng, n), search=False)
    for n in (9, 10):
        for gadget in ins.INTERVAL_GADGETS:
            add(ins.graph_no(rng, n, gadget, probe=False), search=True)
    # and ten at n=24 the median of the no calls
    for n in (16, 24, 24, 48):
        for gadget in ins.INTERVAL_GADGETS:
            add(ins.graph_no(rng, n, gadget, probe=False), search=False)
    return calls, no_instances


def probe_round(pb, rng):
    calls, no_instances = [], []

    def add(inst, names) -> None:
        g = to_graph(pb, inst)
        for route in names:
            # looked up at call time, so the traced run's wrappers are used
            # only while installed
            def run(name=f"recognize_{route}"):
                cert = getattr(pb, name)(g)
                fact = pb.probe_dim3_decomposition(g, cert.intervals) if cert.verdict else None
                return cert, fact

            calls.append(Call(f"{route} n={inst.n} {inst.gadget or 'yes'}", inst.truth, run,
                              lambda out, route=route: check_probe_cert(inst, route, out)))
        if not inst.truth:
            no_instances.append(inst)

    for n in (8, 9, 10):
        add(ins.probe_yes(rng, n), ("qxl",))
    # six calls at n=16 hold the median of the yes calls, the four at n=24
    # the 90th percentile, and the eight char2 calls on holes at n=24 the
    # median of the no calls, with as many no calls above them (qxl, two
    # sets) as below (char1 on holes, the net); see README
    for n in (12, 16, 16, 16, 24, 24, 32):
        add(ins.probe_yes(rng, n), ("char1", "char2"))
    for n in (24, 24):
        for gadget in ins.PROBE_HOLE_GADGETS:
            add(ins.graph_no(rng, n, gadget, probe=True), ("char1", "char2"))
    for n in (10, 12):
        add(ins.graph_no(rng, n, ins.PROBE_NET_GADGET, probe=True), ("char1", "char2"))
    for _ in range(2):
        for gadget in ins.PROBE_HOLE_GADGETS + (ins.PROBE_NET_GADGET,):
            add(ins.graph_no(rng, 8, gadget, probe=True), ("qxl",))
    return calls, no_instances


# ---------------------------------------------------------------------------
# CLI processes


def run_child(argv, env, cwd, budget):
    """Run one child interpreter; returns (exit code, stdout, peak RSS in KB).

    The child is killed when it runs past `budget` seconds (exit code None).
    """
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(budget, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return code, out, usage.ru_maxrss


_DOT_NODE = re.compile(r'^\s*"([^"]+)" \[label="[^"]*\\n\[(-?\d+),(-?\d+)\]"(, style=dashed)?\];$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -- "([^"]+)";$')


def check_dot(inst, text: str) -> None:
    intervals, dashed, edges = {}, set(), set()
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            intervals[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            if m.group(4):
                dashed.add(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.add(frozenset(m.groups()))
    if edges != set(inst.edges):
        raise CheckFailed("DOT edges differ from the graph")
    if dashed != set(inst.nonprobes or ()):
        raise CheckFailed("DOT dashes other vertices than the nonprobes")
    checks.check_graph_intervals(inst, intervals)


def _json_intervals(data, key):
    return {v: tuple(lr) for v, lr in data[key].items()}


def _cli_checker(kind: str, inst):
    """Check of one CLI call's (exit code, stdout) against the truth."""

    def check(out) -> None:
        code, stdout = out
        want = 0 if inst is None or inst.truth else 1
        if code != want:
            raise CheckFailed(f"exit code {code}, expected {want}")
        text = stdout.decode("utf-8")
        if kind == "oracle":
            if text.strip().splitlines()[-1:] != ["disagreements: 0"]:
                raise CheckFailed("oracle-compare reports disagreements")
            return
        if kind == "dot":
            check_dot(inst, text)
            return
        if kind == "text":
            first = text.splitlines()[0] if text else ""
            if first != f"verdict: {'yes' if inst.truth else 'no'}":
                raise CheckFailed(f"text output starts with {first!r}")
            return
        data = json.loads(text)
        if kind == "dim3":
            factors = [checks.matrix_text_to_01(f) for f in data["factors"]]
            if len(factors) != 3:
                raise CheckFailed(f"{len(factors)} factors for dim3")
            checks.check_factorization(factors, checks.probe_loops(inst))
            return
        if data.get("verdict") != ("yes" if inst.truth else "no"):
            raise CheckFailed(f"verdict {data.get('verdict')!r}")
        if kind == "graph":
            if inst.truth:
                checks.check_graph_intervals(inst, _json_intervals(data, "intervals"))
            else:
                _check_witness(data.get("witness"))
        elif kind == "matrix":
            if inst.truth:
                checks.check_bigraph_intervals(
                    inst, _json_intervals(data, "row_intervals"), _json_intervals(data, "col_intervals")
                )
            else:
                _check_witness(data.get("witness"))
        elif kind == "dim2":
            target = checks.augmented(inst)
            if inst.truth:
                factors = [checks.matrix_text_to_01(f) for f in data["factorization"]["factors"]]
                if len(factors) != 2:
                    raise CheckFailed(f"{len(factors)} factors for dim2")
                checks.check_factorization(factors, target)
            else:
                _check_witness(data.get("witness"), target)

    return check


def write_graph(path, inst) -> None:
    data = {"vertices": list(inst.names), "edges": [list(e) for e in inst.sorted_edges()]}
    if inst.nonprobes is not None:
        data["nonprobes"] = sorted(inst.nonprobes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def write_matrix(path, inst) -> None:
    lines = [" ".join(inst.cols)]
    lines += [r + " " + " ".join(str(x) for x in row) for r, row in zip(inst.rows, inst.data)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_round(rng, workdir: str, index: int):
    """Input files for one round, and its commands (each made twice)."""
    files = {
        "yes": ins.interval_yes(rng, 8),
        "no": ins.graph_no(rng, 8, "C6", probe=False),
        "pyes": ins.probe_yes(rng, 8),
        "pno": ins.graph_no(rng, 8, "C5/1", probe=True),
        "myes": ins.matrix_yes(rng, 5, 6),
        "mno": ins.matrix_no(rng, 4, 5, "C6"),
    }
    paths = {}
    for key, inst in files.items():
        if isinstance(inst, ins.MatrixInstance):
            paths[key] = os.path.join(workdir, f"r{index}-{key}.txt")
            write_matrix(paths[key], inst)
        else:
            paths[key] = os.path.join(workdir, f"r{index}-{key}.json")
            write_graph(paths[key], inst)

    commands = [
        ("interval", "yes", ["--output", "json"], "graph"),
        ("interval", "yes", ["--output", "dot"], "dot"),
        ("interval", "no", ["--output", "text"], "text"),
        ("probe", "pyes", ["--route", "all", "--output", "json"], "graph"),
        ("probe", "pyes", ["--route", "all", "--output", "dot"], "dot"),
        ("probe", "pno", ["--route", "all", "--output", "text"], "text"),
        ("bigraph", "myes", ["--output", "json"], "matrix"),
        ("bigraph", "mno", ["--output", "json"], "matrix"),
        ("represent", "myes", ["--output", "json"], "matrix"),
        ("ferrers", "yes", ["--dim2", "--output", "json"], "dim2"),
        ("ferrers", "no", ["--dim2", "--output", "json"], "dim2"),
        ("ferrers", "pyes", ["--dim3"], "dim3"),
        ("oracle-compare", None, ["--max-n", "4"], "oracle"),
    ]
    out = []
    for cmd, key, extra, kind in commands:
        argv = [cmd] + ([paths[key]] if key else []) + extra
        inst = files[key] if key else None
        truth = True if inst is None else inst.truth
        out.append((f"{cmd} {key or ''} {' '.join(extra)}".strip(), truth, argv, _cli_checker(kind, inst)))
    no_instances = [files["no"], files["pno"]]
    return out, no_instances


WORKLOADS = {
    "interval-graphs": {"round": interval_round, "pool": 3},
    "probe-routes": {"round": probe_round, "pool": 4},
    "cli-processes": {"round": None, "pool": 2},
}
