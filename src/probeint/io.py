"""Input parsing and certificate emission.

Supported inputs:
  * graph JSON: {"vertices": [...], "edges": [["a","b"], ...],
    "nonprobes": [...]} (vertices and nonprobes optional);
  * edge-list text: one "u v" pair per line, with optional header lines
    "#vertices: a b c" (declares isolated vertices) and "#nonprobes: e f";
  * matrix text: a header row of column names, then one row per line as
    "name s1 s2 ..." with symbols from {1, 0, R, C, X}.

All emitted output is deterministic: identical input yields identical
bytes.
"""

from __future__ import annotations

import json
from typing import Union

from .certificates import Certificate, ProbeCertificate
from .ferrers import FerrersFactorization
from .graphs import Graph, build_graph
from .matrices import SYMBOLS, LabeledMatrix, from_rows


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    edges = data.get("edges", [])
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ParseError(f"bad edge entry {e!r}")
    return build_graph(
        [tuple(e) for e in edges],
        nonprobes=data.get("nonprobes"),
        vertices=data.get("vertices"),
    )


def parse_edgelist(text: str) -> Graph:
    vertices: list = []
    nonprobes = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#vertices:"):
            vertices.extend(line[len("#vertices:") :].split())
            continue
        if line.startswith("#nonprobes:"):
            nonprobes = line[len("#nonprobes:") :].split()
            continue
        if line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((tokens[0], tokens[1]))
    return build_graph(edges, nonprobes=nonprobes, vertices=vertices)


def parse_matrix(text: str) -> LabeledMatrix:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line.split()))
    if not lines:
        raise ParseError("empty matrix")
    _, cols = lines[0]
    rows = []
    entries = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != len(cols) + 1:
            raise ParseError(
                f"line {lineno}: expected row name plus {len(cols)} symbols"
            )
        rows.append(tokens[0])
        for colno, sym in enumerate(tokens[1:], start=1):
            if sym not in SYMBOLS:
                raise ParseError(f"line {lineno}, column {colno}: bad symbol {sym!r}")
        entries.append(tuple(tokens[1:]))
    return from_rows(rows, cols, entries)


def _looks_like_matrix(text: str) -> bool:
    lines = [
        line.split()
        for line in (raw.strip() for raw in text.splitlines())
        if line and not line.startswith("#")
    ]
    if len(lines) < 2:
        return False
    width = len(lines[0])
    return all(
        len(tokens) == width + 1 and all(s in SYMBOLS for s in tokens[1:])
        for tokens in lines[1:]
    )


def parse_input(text: str, fmt: str = "auto") -> Union[Graph, LabeledMatrix]:
    """Parse a graph or matrix from text, detecting the format if asked."""
    if fmt == "json":
        return parse_graph_json(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "matrix":
        return parse_matrix(text)
    if fmt != "auto":
        raise ParseError(f"unknown format {fmt!r}")
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    if _looks_like_matrix(text):
        return parse_matrix(text)
    return parse_edgelist(text)


# ---------------------------------------------------------------------------
# serialization


def serialize_graph(g: Graph) -> str:
    data = {
        "vertices": [str(v) for v in g.vertex_names],
        "edges": [
            [str(g.vertex_names[i]), str(g.vertex_names[j])]
            for i, j in sorted(g.edges)
        ],
    }
    if g.nonprobes is not None:
        data["nonprobes"] = sorted(str(g.vertex_names[v]) for v in g.nonprobes)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def matrix_to_text(m: LabeledMatrix) -> str:
    lines = [" ".join(str(c) for c in m.cols)]
    for label, row in zip(m.rows, m.entries):
        lines.append(str(label) + " " + " ".join(row))
    return "\n".join(lines) + "\n"


def _intervals_dict(intervals: dict) -> dict:
    return {str(v): [l, r] for v, (l, r) in sorted(intervals.items(), key=lambda kv: str(kv[0]))}


def certificate_to_dict(cert: Certificate) -> dict:
    data: dict = {
        "verdict": "yes" if cert.verdict else "no",
        "kind": cert.kind,
    }
    if isinstance(cert, ProbeCertificate):
        data["route"] = cert.route
        data["nonprobes"] = [str(v) for v in cert.nonprobes]
    if cert.order is not None:
        data["order"] = [str(v) for v in cert.order]
    if cert.row_order is not None:
        data["row_order"] = [str(v) for v in cert.row_order]
    if cert.col_order is not None:
        data["col_order"] = [str(v) for v in cert.col_order]
    if cert.intervals is not None:
        data["intervals"] = _intervals_dict(cert.intervals)
    if cert.row_intervals is not None:
        data["row_intervals"] = _intervals_dict(cert.row_intervals)
    if cert.col_intervals is not None:
        data["col_intervals"] = _intervals_dict(cert.col_intervals)
    if cert.labeling is not None:
        data["labeling"] = matrix_to_text(cert.labeling).splitlines()
    if cert.diagonalized is not None:
        data["diagonalized"] = matrix_to_text(cert.diagonalized).splitlines()
    if cert.method is not None:
        data["method"] = cert.method
    if cert.coloring is not None:
        data["coloring"] = [
            [str(r), str(c), color]
            for (r, c), color in sorted(
                cert.coloring.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
            )
        ]
    if cert.witness is not None:
        witness = dict(cert.witness)
        if witness.get("type") == "odd-cycle":
            witness["positions"] = [[str(r), str(c)] for r, c in witness["positions"]]
        data["witness"] = witness
    if cert.factorization is not None:
        data["factorization"] = factorization_to_dict(cert.factorization)
    return data


def factorization_to_dict(fact: FerrersFactorization) -> dict:
    return {
        "factors": [matrix_to_text(f).splitlines() for f in fact.factors],
        "target": matrix_to_text(fact.target).splitlines(),
    }


def _certificate_text(cert: Certificate) -> str:
    data = certificate_to_dict(cert)
    lines = [f"verdict: {data['verdict']}", f"kind: {data['kind']}"]
    if "route" in data:
        lines.append(f"route: {data['route']}")
    if "nonprobes" in data:
        lines.append("nonprobes: " + (" ".join(data["nonprobes"]) or "(none)"))
    if "order" in data:
        lines.append("order: " + " ".join(data["order"]))
    if "row_order" in data:
        lines.append("row order: " + " ".join(data["row_order"]))
    if "col_order" in data:
        lines.append("col order: " + " ".join(data["col_order"]))
    for key, title in (
        ("intervals", "intervals"),
        ("row_intervals", "row intervals"),
        ("col_intervals", "col intervals"),
    ):
        if key in data:
            body = ", ".join(f"{v}:[{l},{r}]" for v, (l, r) in data[key].items())
            lines.append(f"{title}: {body}")
    if "labeling" in data:
        lines.append("labeling:")
        lines.extend("  " + line for line in data["labeling"])
    if "diagonalized" in data:
        lines.append("diagonalized:")
        lines.extend("  " + line for line in data["diagonalized"])
    if "witness" in data:
        w = data["witness"]
        if w["type"] == "odd-cycle":
            cyc = " ".join(f"({r},{c})" for r, c in w["positions"])
            lines.append(f"witness: odd couple cycle {cyc}")
        else:
            lines.append("witness: exhaustive search")
    if "factorization" in data:
        lines.append("factors:")
        for k, f in enumerate(data["factorization"]["factors"], start=1):
            lines.append(f"  factor {k}:")
            lines.extend("    " + line for line in f)
    return "\n".join(lines) + "\n"


def _certificate_dot(cert: Certificate, g: Graph) -> str:
    intervals = cert.intervals or {}
    nonprobes = set()
    if isinstance(cert, ProbeCertificate):
        nonprobes = set(cert.nonprobes)
    lines = ["graph {"]
    for v in g.vertex_names:
        label = str(v)
        if v in intervals:
            l, r = intervals[v]
            label += f"\\n[{l},{r}]"
        style = ', style=dashed' if v in nonprobes else ""
        lines.append(f'  "{v}" [label="{label}"{style}];')
    for i, j in sorted(g.edges):
        lines.append(f'  "{g.vertex_names[i]}" -- "{g.vertex_names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_certificate(cert: Certificate, fmt: str = "json", graph: Graph = None) -> str:
    """Serialize a certificate; DOT output requires the underlying graph."""
    if fmt == "json":
        return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return _certificate_text(cert)
    if fmt == "dot":
        if graph is None:
            raise ValueError("DOT output needs the graph")
        return _certificate_dot(cert, graph)
    raise ValueError(f"unknown output format {fmt!r}")


def parse_certificate(text: str) -> dict:
    """Read an emitted JSON certificate back into plain data.

    Interval maps come back as {vertex: (l, r)}, ready for the verify
    operations.
    """
    data = json.loads(text)
    for key in ("intervals", "row_intervals", "col_intervals"):
        if key in data:
            data[key] = {v: tuple(lr) for v, lr in data[key].items()}
    for key in ("order", "row_order", "col_order"):
        if key in data:
            data[key] = tuple(data[key])
    return data
