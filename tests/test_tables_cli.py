"""Tests for the table machinery and the experiment CLI."""

from __future__ import annotations

import pytest

from repro.analysis.tables import (
    format_markdown_table,
    ledger_breakdown,
    measure_sort,
    render_table,
    section5_rows,
)
from repro.cli import build_parser, main
from repro.graphs import cycle_graph, k2, path_graph
from repro.machine.metrics import CostLedger


class TestMeasureSort:
    def test_row_matches(self):
        row = measure_sort(path_graph(3), 3)
        assert row.sorted_ok
        assert row.matches_theorem1
        assert row.prediction.factor_name == "path(3)"

    def test_section5_rows(self):
        rows = section5_rows([(path_graph(3), 2), (k2(), 3)])
        assert len(rows) == 2
        assert all(r.sorted_ok and r.matches_theorem1 for r in rows)


class TestRendering:
    def test_render_table_contains_headers_and_rows(self):
        rows = section5_rows([(cycle_graph(4), 3)])
        text = render_table(rows)
        assert "network" in text and "cycle(4)" in text and "measured" in text

    def test_markdown_table(self):
        md = format_markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_ledger_breakdown(self):
        ledger = CostLedger()
        ledger.charge_s2(5, detail="x")
        ledger.charge_routing(2, detail="y")
        text = ledger_breakdown(ledger)
        assert "S2" in text and "x" in text and "y" in text


class TestCostLedger:
    def test_summary(self):
        ledger = CostLedger()
        ledger.charge_s2(3, comparisons=10)
        s = ledger.summary()
        assert s["total_rounds"] == 3 and s["comparisons"] == 10

    def test_negative_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_s2(-1)
        with pytest.raises(ValueError):
            ledger.charge_routing(-1)


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("section5", "hypercube", "dirty-area", "gray", "worked-example"):
            assert cmd in text

    def test_gray_command(self, capsys):
        assert main(["gray", "--n", "3", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "00 01 02 12 11 10 20 21 22" in out

    def test_dirty_area_command(self, capsys):
        assert main(["dirty-area", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "bound" in out

    def test_hypercube_command(self, capsys):
        assert main(["hypercube", "--max-r", "3"]) == 0
        out = capsys.readouterr().out
        assert "batcher" in out

    def test_worked_example_command(self, capsys):
        assert main(["worked-example"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "0 4 4" in out  # the paper's A_0 array

    def test_section5_command(self, capsys):
        assert main(["section5", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "petersen" in out and "K2" in out

    def test_section5_json(self, capsys):
        import json

        assert main(["section5", "--n", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9
        for row in rows:
            assert row["sorted_ok"] and row["matches_theorem1"]
            assert row["measured_s2_calls"] == (row["r"] - 1) ** 2
            assert row["predicted_rounds"] == row["measured_rounds"]

    def test_dirty_area_json(self, capsys):
        import json

        assert main(["dirty-area", "--max-n", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in rows] == [2, 3]
        assert all(row["ok"] and row["max_dirty"] <= row["bound"] for row in rows)

    def test_trace_summary_command(self, capsys):
        assert main(["trace", "--factor", "path", "--n", "3", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "transposition" in out and "super-steps" in out

    def test_trace_chrome_export_is_valid(self, tmp_path):
        import json

        out_file = tmp_path / "sort.trace.json"
        # acceptance: chrome export of a 3-dimensional product network
        assert main(
            ["trace", "--factor", "k2", "--r", "3", "--export", "chrome", "--out", str(out_file)]
        ) == 0
        doc = json.loads(out_file.read_text())
        assert "traceEvents" in doc and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_trace_jsonl_lattice_backend(self, capsys):
        import json

        assert main(
            ["trace", "--factor", "path", "--n", "3", "--r", "3",
             "--backend", "lattice", "--export", "jsonl"]
        ) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.strip().splitlines()]
        s2 = [rec for rec in records if rec.get("kind") == "s2"]
        assert len(s2) == 4  # (r-1)^2 for r=3, straight from the event log


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--factor", "path", "--r", "1"], "r >= 2"),
        (["--factor", "path", "--n", "1"], "at least 2 nodes"),
    ],
    ids=["r1", "n1"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["topo"],
        ["trace", "--backend", "machine"],
        ["trace", "--backend", "lattice"],
        ["bench", "metrics"],
    ],
    ids=["topo", "trace-machine", "trace-lattice", "bench-metrics"],
)
def test_bad_geometry_is_a_usage_error(command, argv, message, capsys):
    """A refused geometry exits 2 with its one-line reason, not a traceback."""
    assert main(command + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert message in err and "\n" not in err and "Traceback" not in err
