import ast
import sys
from pathlib import Path

import pytest

from ergodic_tiler import RhoMeasure, block_decomposition, edge_price, read_graph_file, vertex_price
from ergodic_tiler.cli import entry, main

# header "n m", the edges, then "logw f" per vertex
PATH6 = """6 5
0 1
1 2
2 3
3 4
4 5
0.0 0.5
0.3 -0.2
-0.1 0.1
0.2 -0.4
0.0 0.3
-0.3 0.0
"""


def run_cli(monkeypatch, *args):
    """Exit code of the installed entry point on the given arguments."""
    monkeypatch.setattr(sys, "argv", ["ergodic-tiler", *map(str, args)])
    try:
        entry()
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "path6.txt"
    path.write_text(PATH6)
    return path


class TestPackExitCodes:
    def test_pack_succeeds(self, monkeypatch, capsys, graph_file):
        assert run_cli(monkeypatch, "pack", graph_file) == 0
        assert "cells: " in capsys.readouterr().out

    def test_audit_of_own_dump_is_clean(self, monkeypatch, capsys, graph_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli(monkeypatch, "--out", out, "pack", graph_file) == 0
        assert run_cli(monkeypatch, "pack", graph_file, "--audit", out / "prepartition.txt") == 0
        assert "audit: clean" in capsys.readouterr().out

    def test_audit_of_empty_prepartition_finds_violations(self, monkeypatch, capsys, graph_file, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert run_cli(monkeypatch, "pack", graph_file, "--audit", empty) == 2
        assert "audit: violations found" in capsys.readouterr().out

    def test_self_loop_is_an_error(self, monkeypatch, capsys, tmp_path):
        loop = tmp_path / "loop.txt"
        loop.write_text("2 1\n0 0\n0.0 0.0\n0.0 0.0\n")
        assert run_cli(monkeypatch, "pack", loop) == 1
        assert "error:" in capsys.readouterr().err

    def test_audit_of_a_cell_across_components_is_an_error(self, monkeypatch, capsys, tmp_path):
        graph_path = tmp_path / "two_edges.txt"
        graph_path.write_text("4 2\n0 1\n2 3\n" + "0.0 0.0\n" * 4)
        dump = tmp_path / "cross.txt"
        dump.write_text("1 2\n")
        assert run_cli(monkeypatch, "pack", graph_path, "--audit", dump) == 1
        assert "error: cell starting at vertex 1 spans components" in capsys.readouterr().err


class TestTileExitCodes:
    def test_tile_of_a_graph_with_no_vertices_is_an_error(self, monkeypatch, capsys, tmp_path):
        empty = tmp_path / "no_vertices.txt"
        empty.write_text("0 0\n")
        assert run_cli(monkeypatch, "tile", empty) == 1
        assert "error: model has no vertices" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tile", "pack"])
def test_a_non_finite_f_is_an_error(monkeypatch, capsys, tmp_path, command):
    bad = tmp_path / "nan_f.txt"
    bad.write_text("2 1\n0 1\n0.0 nan\n0.0 0.0\n")
    assert run_cli(monkeypatch, command, bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vertex line 0 has a non-finite f" in err


@pytest.mark.parametrize(
    "text",
    ["2 1\n0 1\n0.0 abc\n0.0 0.0\n", "2 1\n0 x\n0.0 0.5\n0.0 0.0\n"],
    ids=["vertex-line", "edge-line"],
)
@pytest.mark.parametrize("command", ["tile", "pack"])
def test_a_non_numeric_token_is_an_error(monkeypatch, capsys, tmp_path, command, text):
    bad = tmp_path / "bad_token.txt"
    bad.write_text(text)
    assert run_cli(monkeypatch, command, bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " line 0 must be " in err


# each option belongs to one command, so the option and value name the case
OUT_OF_RANGE = [
    ("tile", "--eps", "2"),
    ("tile", "--eps", "0"),
    ("tile", "--eps", "abc"),
    ("tile", "--max-stages", "0"),
    ("price", "--k", "0"),
    ("pack", "--p", "0"),
    ("pack", "--p", "-1"),
    ("tile", "--eps", "nan"),
    ("pack", "--p", "nan"),
    ("pack", "--lam", "nan"),
    ("pack", "--lam", "-1"),
    ("pack", "--min-ratio", "nan"),
]


@pytest.mark.parametrize(
    "command, option, value", OUT_OF_RANGE, ids=[f"{option}-{value}" for _, option, value in OUT_OF_RANGE]
)
def test_an_option_out_of_range_is_a_usage_error(monkeypatch, capsys, graph_file, command, option, value):
    assert run_cli(monkeypatch, command, graph_file, option, value) == 1
    err = capsys.readouterr().err
    assert f"Invalid value for '{option}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("run.eps = abc", "config run.eps: 'abc' is not a valid float range."),
        ("run.eps = 1.5", "config run.eps: 1.5 is not in the range 0<x<1."),
        ("run.eps = nan", "config run.eps: nan is not in the range 0<x<1."),
        ("run.max_stages = 0", "config run.max_stages: 0 is not in the range x>=1."),
        ("run.seed = x", "config run.seed: invalid literal for int() with base 10: 'x'"),
    ],
)
def test_a_config_value_that_does_not_parse_is_a_usage_error(monkeypatch, capsys, graph_file, tmp_path, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert run_cli(monkeypatch, "--config", config, "tile", graph_file) == 1
    assert capsys.readouterr().err == f"Error: {message}\n"


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_price_prints_the_report_of_the_api(monkeypatch, capsys, graph_file, mode):
    assert run_cli(monkeypatch, "price", graph_file, "--mode", mode, "--k", 2) == 0
    lines = capsys.readouterr().out.splitlines()
    graph, cocycle, _values = read_graph_file(graph_file)
    if mode == "vertex":
        rep = vertex_price(graph, RhoMeasure.from_cocycle(graph, cocycle), 2, cocycle=cocycle)
    else:
        rep = edge_price(graph, K=2)
    assert rep.cut
    assert f"price: {rep.price!r}" in lines and f"cut: {list(rep.cut)}" in lines


def test_blocks_lists_the_decomposition(monkeypatch, capsys, graph_file):
    assert run_cli(monkeypatch, "blocks", graph_file) == 0
    lines = capsys.readouterr().out.splitlines()
    graph, cocycle, _values = read_graph_file(graph_file)
    rows = block_decomposition(graph, cocycle)
    assert lines == [
        "  " * depth + f"[{' '.join(map(str, blk.vertices.tolist()))}] dominus={blk.dominus}" for blk, depth in rows
    ]


@pytest.mark.parametrize("alpha", ["0.5", "nan"])
def test_blocks_below_unit_magnification_is_an_error(monkeypatch, capsys, graph_file, alpha):
    assert run_cli(monkeypatch, "blocks", graph_file, "--alpha", alpha) == 1
    assert capsys.readouterr().err == f"error: alpha must be >= 1, got {alpha}\n"


def test_flow_check_of_a_valid_flow(monkeypatch, capsys, graph_file, tmp_path):
    flow = tmp_path / "flow.txt"
    flow.write_text("0 1 0.25\n3 2 0.5\n")
    assert run_cli(monkeypatch, "flow-check", graph_file, flow) == 0
    out = capsys.readouterr().out
    assert "entries: 2\n" in out and "sources: [0, 3]\n" in out and "sinks: [1, 2]\n" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 3\n", "line 1 must be 'x y value'"),
        ("0 1 abc\n", "line 1 must be 'x y value'"),
        ("0 6 0.25\n", "pair (0,6) has an endpoint outside 0..5"),
        ("-1 2 0.25\n", "pair (-1,2) has an endpoint outside 0..5"),
        ("0 1 inf\n", "entry phi(0,1) = inf is negative or not finite"),
    ],
    ids=["token-count", "non-numeric", "vertex-past-n", "negative-vertex", "infinite-value"],
)
def test_flow_check_of_a_malformed_flow_is_an_error(monkeypatch, capsys, graph_file, tmp_path, text, message):
    flow = tmp_path / "flow.txt"
    flow.write_text(text)
    assert run_cli(monkeypatch, "flow-check", graph_file, flow) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["ergodic-run", "ratio-run"])
def test_a_model_run_from_the_config_converges(monkeypatch, capsys, tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text("model.kind = rotation\nmodel.n = 64\nrun.max_stages = 2\n")
    assert run_cli(monkeypatch, "--config", config, command) == 0
    out = capsys.readouterr().out
    assert out.startswith("model: rotation n=64") and "stage 1: mass_within_eps=1.000000" in out
    assert out.endswith("status: converged\n")


def test_every_command_has_a_test():
    """Every command appears in some run_cli call of this file, as a literal
    argument or as a value that the calling test is parametrized with."""
    named = set()
    for fn in ast.walk(ast.parse(Path(__file__).read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "run_cli"]
        for node in calls + (fn.decorator_list if calls else []):
            named.update(n.value for n in ast.walk(node) if isinstance(n, ast.Constant))
    assert set(main.commands) <= named, sorted(set(main.commands) - named)
