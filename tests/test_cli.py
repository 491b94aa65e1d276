import sys

import pytest

from ergodic_tiler.cli import entry

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
