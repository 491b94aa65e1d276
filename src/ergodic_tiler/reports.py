"""Experiment reports: per-stage rows, CSV/JSON emission, and parsing."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

CSV_COLUMNS = ("stage", "eps", "mass_within_eps", "max_tile", "mean_tile", "wall_ms")


@dataclass(frozen=True)
class StageRow:
    stage: int
    eps: float
    mass_within_eps: float
    max_tile: int
    mean_tile: float
    wall_ms: float


@dataclass
class ConvergenceReport:
    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int = 0
    status: str = "empty"
    target_mean: float = 0.0
    frontier_mass: float = 0.0
    tile_histograms: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def add_stage(self, stage, eps, mass_within_eps, max_tile, mean_tile, wall_ms, histogram=None):
        self.rows.append(
            StageRow(
                stage=int(stage),
                eps=float(eps),
                mass_within_eps=float(mass_within_eps),
                max_tile=int(max_tile),
                mean_tile=float(mean_tile),
                wall_ms=float(wall_ms),
            )
        )
        self.tile_histograms.append(dict(histogram) if histogram else {})

    @property
    def final_mass(self):
        return self.rows[-1].mass_within_eps if self.rows else 0.0


def _fmt(x):
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def emit_report(report, out_dir, stable_timing=True):
    """Write report.csv and report.json under out_dir; returns the paths.

    In stable-timing mode (the default) the CSV's wall_ms column is zeroed so
    identical configurations and seeds reproduce the file byte for byte;
    measured times are always present in the JSON summary.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")

    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in report.rows:
            wall = 0.0 if stable_timing else row.wall_ms
            fh.write(
                ",".join(
                    [
                        str(row.stage),
                        _fmt(row.eps),
                        _fmt(row.mass_within_eps),
                        str(row.max_tile),
                        _fmt(row.mean_tile),
                        _fmt(wall),
                    ]
                )
                + "\n"
            )

    summary = {
        "config": report.config,
        "seed": report.seed,
        "status": report.status,
        "target_mean": report.target_mean,
        "frontier_mass": report.frontier_mass,
        "stages": [asdict(r) for r in report.rows],
        "tile_histograms": report.tile_histograms,
        "diagnostics": report.diagnostics,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


def parse_report_csv(path):
    """Read back rows written by emit_report."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            rows.append(
                StageRow(
                    stage=int(parts[0]),
                    eps=float(parts[1]),
                    mass_within_eps=float(parts[2]),
                    max_tile=int(parts[3]),
                    mean_tile=float(parts[4]),
                    wall_ms=float(parts[5]),
                )
            )
    return rows
