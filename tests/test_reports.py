import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import ConvergenceReport, StageRow, emit_report, parse_report_csv
from ergodic_tiler.reports import CSV_COLUMNS

REALS = st.floats(allow_nan=False, allow_infinity=False)

rows = st.lists(
    st.builds(
        StageRow,
        stage=st.integers(0, 10_000),
        eps=REALS,
        mass_within_eps=REALS,
        max_tile=st.integers(0, 10**9),
        mean_tile=REALS,
        wall_ms=st.floats(0.0, 1e9),
    ),
    max_size=8,
)


def emitted(stage_rows, stable_timing):
    """The rows parsed back from the CSV and the JSON summary of one report."""
    report = ConvergenceReport(config={"eps": 0.05}, seed=7, status="converged")
    for row in stage_rows:
        report.add_stage(**dataclasses.asdict(row))
    with tempfile.TemporaryDirectory() as out:
        csv_path, json_path = emit_report(report, out, stable_timing=stable_timing)
        assert os.path.basename(csv_path) == "report.csv"
        assert os.path.basename(json_path) == "report.json"
        with open(json_path, encoding="utf-8") as fh:
            return parse_report_csv(csv_path), json.load(fh)


@settings(max_examples=100, deadline=None)
@given(rows)
def test_csv_round_trips(stage_rows):
    parsed, summary = emitted(stage_rows, stable_timing=False)
    assert parsed == stage_rows
    assert summary["stages"] == [dataclasses.asdict(r) for r in stage_rows]


@settings(max_examples=100, deadline=None)
@given(rows)
def test_stable_timing_zeroes_only_wall_ms(stage_rows):
    parsed, summary = emitted(stage_rows, stable_timing=True)
    assert parsed == [dataclasses.replace(r, wall_ms=0.0) for r in stage_rows]
    # the JSON summary keeps the measured times
    assert [s["wall_ms"] for s in summary["stages"]] == [r.wall_ms for r in stage_rows]


def test_same_report_same_bytes():
    def files():
        report = ConvergenceReport(seed=1, status="stalled", target_mean=0.25)
        report.add_stage(1, 0.05, 0.5, 7, 3.25, 12.5, histogram={7: 1, 2: 3})
        report.add_stage(2, 0.05, 0.875, 9, 4.5, 30.0)
        with tempfile.TemporaryDirectory() as out:
            paths = emit_report(report, out)
            return [Path(p).read_bytes() for p in paths]

    assert files() == files()


def test_parse_rejects_other_header(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text(",".join(reversed(CSV_COLUMNS)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        parse_report_csv(str(path))
