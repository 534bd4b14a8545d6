"""Shared example instances.

`net` is the 6-vertex graph made of a triangle b, c, d with pendant
vertices a (at b), e (at c) and f (at d); it is chordal but not interval,
and with nonprobes {e, f} it is not a probe interval graph although its
probes-by-vertices bigraph is an interval bigraph.  With nonprobes
{b, e, f} it is a probe interval graph.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from probeint import build_graph
from probeint.matrices import from_rows, from_zero_one

NET_EDGES = [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("c", "e"), ("d", "f")]

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """Run a fresh interpreter that imports probeint from this checkout."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def assert_odd_couple_cycle(m, cycle):
    """Every consecutive pair of zero positions along the odd cycle, the
    last back to the first, must be a couple of the 0/1 matrix m."""
    assert len(cycle) >= 3 and len(cycle) % 2 == 1
    for k, (r1, c1) in enumerate(cycle):
        r2, c2 = cycle[(k + 1) % len(cycle)]
        assert m.entry(r1, c1) == "0" and m.entry(r2, c2) == "0"
        assert r1 != r2 and c1 != c2
        assert m.entry(r1, c2) == "1" and m.entry(r2, c1) == "1"


@pytest.fixture
def net():
    return build_graph(NET_EDGES, nonprobes=["e", "f"])


@pytest.fixture
def net_bef():
    return build_graph(NET_EDGES, nonprobes=["b", "e", "f"])


@pytest.fixture
def c4():
    return build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


@pytest.fixture
def c4_probe():
    return build_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], nonprobes=["b", "d"]
    )


@pytest.fixture
def k222():
    parts = [["a", "d"], ["b", "c"], ["x", "y"]]
    edges = [
        (u, v)
        for i, pu in enumerate(parts)
        for pv in parts[i + 1 :]
        for u in pu
        for v in pv
    ]
    return build_graph(edges)


@pytest.fixture
def bigraph_a():
    """The 3x5 biadjacency matrix with rows y1..y3 and columns x1..x5."""
    return from_zero_one(
        [
            [1, 1, 1, 0, 0],
            [1, 0, 0, 1, 0],
            [0, 0, 0, 1, 0],
        ],
        rows=("y1", "y2", "y3"),
        cols=("x1", "x2", "x3", "x4", "x5"),
    )


@pytest.fixture
def net_rc_labeling():
    """A hand-checked R-C labeling of the net's probes-by-vertices matrix."""
    return from_rows(
        ["a", "b", "c", "d"],
        ["a", "b", "c", "d", "e", "f"],
        [
            ["1", "1", "R", "R", "R", "R"],
            ["1", "1", "1", "1", "R", "R"],
            ["C", "1", "1", "1", "1", "R"],
            ["C", "1", "1", "1", "C", "1"],
        ],
    )
