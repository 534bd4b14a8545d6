"""Command-line interface.

Exit codes: 0 (yes), 1 (no), 2 (error).  Subcommands:

  interval INPUT            interval graph recognition
  bigraph INPUT             interval bigraph recognition (0/1 matrix input)
  probe INPUT --route R     probe recognition, R in {qxl, char1, char2, all}
  diagonalize INPUT         print a diagonalized form of an R-C matrix
  represent INPUT           bigraph interval representation with tables
  ferrers INPUT --dim2      two-factor decomposition test
  ferrers INPUT --dim3      three-factor decomposition of a probe instance
  split-check INPUT         interval split oracle
  oracle-compare --max-n K  recognizers versus brute-force oracles
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .bigraphs import (
    check_rc_valid,
    diagonalize_with_method,
    find_rc_partition,
    intervals_from_diagonalized,
    is_interval_bigraph,
)
from .certificates import Certificate
from .ferrers import ferrers_dim_le_2, decompose_two_ferrers, interval_iff_dim2, probe_dim3_decomposition
from .graphs import Graph
from .intervals import is_interval_graph
from .matrices import LabeledMatrix
from .oracles import interval_oracle, interval_split_check, probe_oracle
from .probes import recognize_char1, recognize_char2, recognize_qxl
from .sweeps import independent_set_orbits, graph_class_representatives


def _read_input(args) -> object:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return io.parse_input(text, args.format)


def _need_graph(obj) -> Graph:
    if not isinstance(obj, Graph):
        raise ValueError("this command needs a graph input")
    return obj


def _need_matrix(obj) -> LabeledMatrix:
    if not isinstance(obj, LabeledMatrix):
        raise ValueError("this command needs a matrix input")
    return obj


def _emit(cert, args, graph=None) -> None:
    sys.stdout.write(io.emit_certificate(cert, args.output, graph=graph))


def _cmd_interval(args) -> int:
    g = _need_graph(_read_input(args))
    cert = is_interval_graph(g)
    _emit(cert, args, graph=g)
    return 0 if cert.verdict else 1


def _cmd_bigraph(args) -> int:
    m = _need_matrix(_read_input(args))
    cert = is_interval_bigraph(m)
    _emit(cert, args)
    return 0 if cert.verdict else 1


def _cmd_probe(args) -> int:
    g = _need_graph(_read_input(args))
    if g.nonprobes is None:
        raise ValueError("probe recognition needs a nonprobe set in the input")
    routes = {
        "qxl": recognize_qxl,
        "char1": recognize_char1,
        "char2": recognize_char2,
    }
    if args.route != "all":
        cert = routes[args.route](g)
        _emit(cert, args, graph=g)
        return 0 if cert.verdict else 1
    certs = {name: fn(g) for name, fn in routes.items()}
    verdicts = {name: c.verdict for name, c in certs.items()}
    if len(set(verdicts.values())) != 1:
        sys.stderr.write(f"error: routes disagree: {verdicts}\n")
        return 2
    cert = certs["qxl"]
    _emit(cert, args, graph=g)
    return 0 if cert.verdict else 1


def _labeled_matrix(m: LabeledMatrix):
    """An R-C labeled version of the input, searching orders if it is 0/1."""
    if m.is_zero_one():
        cert = find_rc_partition(m)
        if not cert.verdict:
            return None
        return cert.labeling
    if not check_rc_valid(m):
        raise ValueError("labeled input is not a valid R-C partition")
    return m


def _cmd_diagonalize(args) -> int:
    m = _need_matrix(_read_input(args))
    labeled = _labeled_matrix(m)
    if labeled is None:
        sys.stderr.write("no R-C partition exists\n")
        return 1
    diag, method = diagonalize_with_method(labeled, args.method)
    sys.stdout.write(io.matrix_to_text(diag))
    sys.stderr.write(f"method: {method}\n")
    return 0


def _cmd_represent(args) -> int:
    m = _need_matrix(_read_input(args))
    if not m.is_zero_one():
        raise ValueError("represent needs a 0/1 biadjacency matrix")
    cert = is_interval_bigraph(m)
    if not cert.verdict:
        _emit(cert, args)
        return 1
    diag_iv = intervals_from_diagonalized(cert.diagonalized)
    if args.output == "json":
        data = io.certificate_to_dict(cert)
        data["diag_row_intervals"] = {
            str(v): list(lr) for v, lr in diag_iv.rows.items()
        }
        data["diag_col_intervals"] = {
            str(v): list(lr) for v, lr in diag_iv.cols.items()
        }
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(io.matrix_to_text(cert.diagonalized))
        for label in cert.diagonalized.rows:
            l, r = diag_iv.rows[label]
            sys.stdout.write(f"row {label}: [{l},{r}]\n")
        for label in cert.diagonalized.cols:
            l, r = diag_iv.cols[label]
            sys.stdout.write(f"col {label}: [{l},{r}]\n")
        sys.stdout.write("stripped:\n")
        for label in m.rows:
            l, r = cert.row_intervals[label]
            sys.stdout.write(f"row {label}: [{l},{r}]\n")
        for label in m.cols:
            l, r = cert.col_intervals[label]
            sys.stdout.write(f"col {label}: [{l},{r}]\n")
    return 0


def _cmd_ferrers(args) -> int:
    obj = _read_input(args)
    if args.dim3:
        g = _need_graph(obj)
        if g.nonprobes is None:
            raise ValueError("--dim3 needs a nonprobe set in the input")
        probe_cert = recognize_qxl(g)
        if not probe_cert.verdict:
            sys.stderr.write("not a probe interval graph\n")
            return 1
        fact = probe_dim3_decomposition(g, probe_cert.intervals)
        sys.stdout.write(
            json.dumps(io.factorization_to_dict(fact), sort_keys=True, indent=2) + "\n"
        )
        return 0
    if isinstance(obj, Graph):
        cert = interval_iff_dim2(obj)
    else:
        cert = ferrers_dim_le_2(_need_matrix(obj))
        if cert.verdict:
            fact = decompose_two_ferrers(obj, cert.coloring)
            cert = Certificate(
                verdict=True,
                kind=cert.kind,
                coloring=cert.coloring,
                factorization=fact,
            )
    _emit(cert, args)
    return 0 if cert.verdict else 1


def _cmd_split_check(args) -> int:
    g = _need_graph(_read_input(args))
    ok = interval_split_check(g)
    sys.stdout.write("yes\n" if ok else "no\n")
    return 0 if ok else 1


def _cmd_oracle_compare(args) -> int:
    max_n = args.max_n
    if not 1 <= max_n <= 6:
        raise ValueError("--max-n must be between 1 and 6")
    disagreements = 0
    for n in range(1, max_n + 1):
        for g in graph_class_representatives(n):
            expected = interval_oracle(g)
            got = is_interval_graph(g).verdict
            dim2 = interval_iff_dim2(g).verdict
            if got != expected or dim2 != expected:
                disagreements += 1
                sys.stdout.write(
                    f"interval disagreement on n={n} edges={sorted(g.edges)}: "
                    f"oracle={expected} recognizer={got} dim2={dim2}\n"
                )
            for nonprobes in independent_set_orbits(g):
                inst = g.with_nonprobes(nonprobes)
                expected = probe_oracle(inst)
                verdicts = {
                    "qxl": recognize_qxl(inst).verdict,
                    "char1": recognize_char1(inst).verdict,
                    "char2": recognize_char2(inst).verdict,
                }
                if set(verdicts.values()) != {expected}:
                    disagreements += 1
                    sys.stdout.write(
                        f"probe disagreement on n={n} edges={sorted(g.edges)} "
                        f"N={sorted(nonprobes)}: oracle={expected} {verdicts}\n"
                    )
    sys.stdout.write(f"disagreements: {disagreements}\n")
    return 0 if disagreements == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeint",
        description="Certificate-producing recognition of interval graphs, "
        "interval bigraphs and probe interval graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="input file, or - for stdin")
            p.add_argument(
                "--format",
                choices=("auto", "json", "edgelist", "matrix"),
                default="auto",
                help="input format (default: auto-detect)",
            )
        p.add_argument(
            "--output",
            choices=("json", "text", "dot"),
            default="text",
            help="certificate output format",
        )

    p = sub.add_parser("interval", help="interval graph recognition")
    add_io(p)
    p.set_defaults(fn=_cmd_interval)

    p = sub.add_parser("bigraph", help="interval bigraph recognition")
    add_io(p)
    p.set_defaults(fn=_cmd_bigraph)

    p = sub.add_parser("probe", help="probe interval graph recognition")
    add_io(p)
    p.add_argument(
        "--route",
        choices=("qxl", "char1", "char2", "all"),
        default="all",
        help="characterization to use; all requires agreement",
    )
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("diagonalize", help="diagonalize an R-C matrix")
    add_io(p)
    p.add_argument(
        "--method",
        choices=("auto", "interleave", "padded"),
        default="auto",
        help="insertion strategy",
    )
    p.set_defaults(fn=_cmd_diagonalize)

    p = sub.add_parser("represent", help="interval representation of a bigraph")
    add_io(p)
    p.set_defaults(fn=_cmd_represent)

    p = sub.add_parser("ferrers", help="Ferrers dimension decompositions")
    add_io(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dim2", action="store_true", help="two-factor test")
    group.add_argument(
        "--dim3", action="store_true", help="three-factor probe decomposition"
    )
    p.set_defaults(fn=_cmd_ferrers)

    p = sub.add_parser("split-check", help="interval split graph oracle")
    add_io(p)
    p.set_defaults(fn=_cmd_split_check)

    p = sub.add_parser("oracle-compare", help="recognizers versus oracles")
    p.add_argument("--max-n", type=int, default=4, help="largest vertex count")
    p.set_defaults(fn=_cmd_oracle_compare)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
