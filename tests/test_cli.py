import json

import pytest

from probeint import probe_bigraph
from probeint.cli import dispatch
from probeint.io import matrix_to_text, serialize_graph
from tests.conftest import NET_EDGES, run_python

NET_JSON = json.dumps(
    {
        "vertices": ["a", "b", "c", "d", "e", "f"],
        "edges": [list(e) for e in NET_EDGES],
        "nonprobes": ["e", "f"],
    }
)

C4_EDGELIST = "a b\nb c\nc d\nd a\n"

A_MATRIX = """x1 x2 x3 x4 x5
y1 1 1 1 0 0
y2 1 0 0 1 0
y3 0 0 0 1 0
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("net.json", NET_JSON),
        ("c4.txt", C4_EDGELIST),
        ("a.txt", A_MATRIX),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_interval_no_on_c4(files, capsys):
    assert dispatch(["interval", files["c4.txt"]]) == 1
    assert "verdict: no" in capsys.readouterr().out


def test_interval_yes_on_path(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("a b\nb c\n")
    assert dispatch(["interval", str(p), "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "yes"
    assert data["order"] == ["a", "b", "c"]


def test_probe_all_routes_net_no(files, capsys):
    assert dispatch(["probe", files["net.json"], "--route", "all"]) == 1


def test_probe_single_route(files, capsys):
    assert dispatch(["probe", files["net.json"], "--route", "char2"]) == 1


def test_probe_yes_with_other_nonprobes(tmp_path, capsys):
    data = json.loads(NET_JSON)
    data["nonprobes"] = ["b", "e", "f"]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    assert dispatch(["probe", str(p), "--route", "all", "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "yes"
    assert out["nonprobes"] == ["b", "e", "f"]


def test_probe_requires_nonprobes(files, capsys):
    assert dispatch(["probe", files["c4.txt"]]) == 2
    assert "error" in capsys.readouterr().err


def test_bigraph_on_matrix(files, capsys):
    assert dispatch(["bigraph", files["a.txt"], "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "yes"
    assert data["row_intervals"]["y1"] == [1, 3]


def test_bigraph_on_net_bigraph(tmp_path, net, capsys):
    p = tmp_path / "b.txt"
    p.write_text(matrix_to_text(probe_bigraph(net)))
    assert dispatch(["bigraph", str(p)]) == 0


def test_represent_json_tables(files, capsys):
    assert dispatch(["represent", files["a.txt"], "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diag_row_intervals"]["y1"] == [1, 3]
    assert data["row_intervals"] == {"y1": [1, 3], "y2": [4, 5], "y3": [5, 5]}


def test_diagonalize_prints_matrix(files, capsys):
    assert dispatch(["diagonalize", files["a.txt"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["x1", "x2", "x3", "x4", "+c1", "x5"]


def test_ferrers_dim2_graph(files, capsys):
    assert dispatch(["ferrers", files["c4.txt"], "--dim2"]) == 1
    assert dispatch(["ferrers", files["net.json"], "--dim2"]) == 1


def test_ferrers_dim2_matrix(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("x y\nr 1 0\ns 0 1\n")
    assert dispatch(["ferrers", str(p), "--dim2", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["factorization"]["factors"]) == 2


def test_ferrers_dim3(tmp_path, capsys):
    p = tmp_path / "c4p.json"
    p.write_text(
        json.dumps(
            {
                "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
                "nonprobes": ["b", "d"],
            }
        )
    )
    assert dispatch(["ferrers", str(p), "--dim3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["factors"]) == 3


def test_split_check(files, capsys):
    assert dispatch(["split-check", files["c4.txt"]]) == 0


def test_split_check_no(tmp_path, k222, capsys):
    p = tmp_path / "k.json"
    p.write_text(serialize_graph(k222))
    assert dispatch(["split-check", str(p)]) == 1


def test_module_entry_point_runs_cli(files):
    proc = run_python("-m", "probeint.cli", "interval", files["c4.txt"])
    assert proc.returncode == 1
    assert "verdict: no" in proc.stdout


def test_oracle_compare_small(capsys):
    assert dispatch(["oracle-compare", "--max-n", "4"]) == 0
    assert "disagreements: 0" in capsys.readouterr().out
    assert dispatch(["oracle-compare", "--max-n", "4", "--output", "json"]) == 2


def test_output_byte_identical_across_runs(files, capsys):
    assert dispatch(["represent", files["a.txt"], "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert dispatch(["represent", files["a.txt"], "--output", "json"]) == 0
    assert capsys.readouterr().out == first


def test_unknown_flag_exits_2(files):
    assert dispatch(["interval", files["c4.txt"], "--bogus"]) == 2


def test_missing_file_exits_2(capsys):
    assert dispatch(["interval", "/nonexistent/file"]) == 2
    assert "error" in capsys.readouterr().err


def test_wrong_input_kind_exits_2(files, capsys):
    assert dispatch(["bigraph", files["c4.txt"]]) == 2


def test_matrix_input_for_interval_exits_2(files, capsys):
    assert dispatch(["interval", files["a.txt"]]) == 2
