"""Benchmark harness: per-instance runs, sweeps, CSV output, summaries."""

from __future__ import annotations

import csv
import statistics
from dataclasses import asdict, dataclass, fields

from .automata import Nfa
from .engine import CanonConfig, Dfa, canonize
from .generator import sweep_instances

CSV_COLUMNS = [
    "instance",
    "pipeline",
    "wall_time_ms",
    "final_states",
    "peak_intermediate_states",
    "overhead",
    "minimizations",
    "explored_metastates",
    "timed_out",
]


@dataclass
class ResultRow:
    instance: str
    pipeline: str
    wall_time_ms: float
    final_states: int
    peak_intermediate_states: int
    overhead: int
    minimizations: int
    explored_metastates: int
    timed_out: bool

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> list:
        d = asdict(self)
        return [d[c] for c in CSV_COLUMNS]


assert CSV_COLUMNS == [f.name for f in fields(ResultRow)]


def run_once(
    nfa: Nfa, instance_id: str, config: CanonConfig
) -> tuple[ResultRow, Dfa | None]:
    """Canonize one instance and package the metrics as a result row."""
    dfa, stats = canonize(nfa, config)
    row = ResultRow(
        instance=instance_id,
        pipeline=config.pipeline,
        wall_time_ms=round(stats.wall_time_ms, 3),
        final_states=stats.final_states,
        peak_intermediate_states=stats.peak_intermediate_states,
        overhead=stats.overhead,
        minimizations=stats.minimizations,
        explored_metastates=stats.explored_metastates,
        timed_out=stats.timed_out,
    )
    return row, dfa


def run_sweep(
    n_values: list[int],
    seeds_per_n: int,
    density: float,
    pipelines: list[str],
    timeout_ms: float | None,
    out_csv: str,
    base_seed: int = 0,
    threshold_init: int = 5000,
) -> list[ResultRow]:
    """Run every pipeline on every generated instance; write CSV + cactus data.

    Failures and timeouts are recorded per row; the sweep always continues.
    """
    instances = sweep_instances(n_values, seeds_per_n, density, base_seed)
    rows: list[ResultRow] = []
    for instance_id, _params, nfa in instances:
        for pipeline in pipelines:
            config = CanonConfig(
                pipeline=pipeline, threshold_init=threshold_init, timeout_ms=timeout_ms
            )
            row, _ = run_once(nfa, instance_id, config)
            rows.append(row)
    write_csv(rows, out_csv)
    write_cactus(rows, cactus_path(out_csv))
    return rows


def cactus_path(out_csv: str) -> str:
    stem = out_csv[:-4] if out_csv.endswith(".csv") else out_csv
    return stem + ".cactus.csv"


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_row())


def write_cactus(rows: list[ResultRow], path: str) -> None:
    """Per-pipeline columns of sorted metric values (cactus-plot input).

    Timed-out rows are excluded; shorter columns are padded with blanks.
    """
    pipelines = sorted({r.pipeline for r in rows})
    columns: dict[str, list] = {}
    for p in pipelines:
        done = [r for r in rows if r.pipeline == p and not r.timed_out]
        columns[f"{p}_wall_time_ms"] = sorted(r.wall_time_ms for r in done)
        columns[f"{p}_overhead"] = sorted(r.overhead for r in done)
    height = max((len(c) for c in columns.values()), default=0)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank"] + list(columns))
        for i in range(height):
            writer.writerow(
                [i + 1] + [col[i] if i < len(col) else "" for col in columns.values()]
            )


def read_csv(path: str) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            rows.append(
                ResultRow(
                    instance=rec["instance"],
                    pipeline=rec["pipeline"],
                    wall_time_ms=float(rec["wall_time_ms"]),
                    final_states=int(rec["final_states"]),
                    peak_intermediate_states=int(rec["peak_intermediate_states"]),
                    overhead=int(rec["overhead"]),
                    minimizations=int(rec["minimizations"]),
                    explored_metastates=int(rec["explored_metastates"]),
                    timed_out=rec["timed_out"] == "True",
                )
            )
    return rows


def summarize(rows: list[ResultRow]) -> dict[str, dict[str, dict[str, float]]]:
    """Per-pipeline min/median/max/mean of minimizations and overhead.

    Timed-out rows are skipped (their metrics describe an aborted run).
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for pipeline in sorted({r.pipeline for r in rows}):
        done = [r for r in rows if r.pipeline == pipeline and not r.timed_out]
        metrics = {}
        for name in ("minimizations", "overhead"):
            values = [getattr(r, name) for r in done]
            if values:
                metrics[name] = {
                    "min": min(values),
                    "median": statistics.median(values),
                    "max": max(values),
                    "mean": statistics.fmean(values),
                }
            else:
                metrics[name] = {}
        out[pipeline] = metrics
    return out


def format_summary(summary: dict) -> str:
    if not summary:
        return "(no rows)"
    lines = [
        f"{'pipeline':<12} {'metric':<14} {'min':>8} {'median':>8} {'max':>8} {'mean':>10}"
    ]
    for pipeline, metrics in summary.items():
        for name, stats in metrics.items():
            if stats:
                lines.append(
                    f"{pipeline:<12} {name:<14} {stats['min']:>8g} "
                    f"{stats['median']:>8g} {stats['max']:>8g} {stats['mean']:>10.2f}"
                )
            else:
                lines.append(f"{pipeline:<12} {name:<14} {'-':>8} {'-':>8} {'-':>8} {'-':>10}")
    return "\n".join(lines)
