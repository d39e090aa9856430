"""Benchmark harness: per-instance runs, sweeps, CSV output, summaries."""

from __future__ import annotations

import csv
import statistics
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

from .automata import Nfa
from .engine import CanonConfig, Dfa, RunStats, canonize
from .generator import sweep_instances
from .io import ParseError


@dataclass
class _RowKey:
    instance: str
    pipeline: str


# A dataclass takes the fields of its last base first, so the CSV columns
# are instance, pipeline, then the RunStats fields in their order.
@dataclass
class ResultRow(RunStats, _RowKey):
    """One run: its instance and pipeline, then every ``RunStats`` field."""

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(ResultRow)]
# written since RunStats gained them; older CSVs lack them
LATER_COLUMNS = ("preprocess_ms", "exact_hits", "cover_hits", "misses")


def _parse_bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(text)
    return text == "True"


# column -> parser of its CSV text, by the field's type
_PARSERS = {
    name: _parse_bool if tp is bool else tp
    for name, tp in get_type_hints(ResultRow).items()
}


def run_once(
    nfa: Nfa, instance_id: str, config: CanonConfig
) -> tuple[ResultRow, Dfa | None]:
    """Canonize one instance and package the metrics as a result row."""
    dfa, stats = canonize(nfa, config)
    row = ResultRow(instance=instance_id, pipeline=config.pipeline, **asdict(stats))
    row.wall_time_ms = round(row.wall_time_ms, 3)
    row.preprocess_ms = round(row.preprocess_ms, 3)
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

    Timeouts are recorded per row and the sweep continues.  CSV rows are
    written as their runs end (see :func:`write_csv`); the cactus file is
    written at the end.
    """
    instances = sweep_instances(n_values, seeds_per_n, density, base_seed)
    configs = [
        CanonConfig(pipeline=p, threshold_init=threshold_init, timeout_ms=timeout_ms)
        for p in pipelines
    ]
    runs = (run_once(nfa, iid, c)[0] for iid, _params, nfa in instances for c in configs)
    rows = write_csv(runs, out_csv)
    write_cactus(rows, cactus_path(out_csv))
    return rows


def cactus_path(out_csv: str) -> str:
    stem = out_csv[:-4] if out_csv.endswith(".csv") else out_csv
    return stem + ".cactus.csv"


def write_csv(rows: Iterable[ResultRow], path: str) -> list[ResultRow]:
    """Write each row as it arrives, flushed, and return them as a list.

    A sweep that dies keeps the rows finished before it.
    """
    written = []
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_row())
            f.flush()
            written.append(row)
    return written


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
    """Rows of a sweep CSV.

    A header without some column, a row without some field or a field that
    does not parse raises ``ParseError`` naming the line and the column.
    Columns added since the first sweep CSVs (``LATER_COLUMNS``) may be
    missing from the header or a row; they then read as their default.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or CSV_COLUMNS
        missing = [c for c in CSV_COLUMNS if c not in header and c not in LATER_COLUMNS]
        if missing:
            raise ParseError(1, f"not a sweep CSV: no {missing[0]!r} column")
        return [_parse_row(rec, reader.line_num) for rec in reader]


def _parse_row(rec: dict, lineno: int) -> ResultRow:
    values = {}
    for c in CSV_COLUMNS:
        text = rec.get(c)
        if text is None:
            if c in LATER_COLUMNS:
                continue
            raise ParseError(lineno, f"no {c!r} field")
        try:
            values[c] = _PARSERS[c](text)
        except ValueError:
            raise ParseError(lineno, f"bad {c!r} field {text!r}") from None
    return ResultRow(**values)


def summarize(rows: list[ResultRow]) -> dict[str, dict]:
    """Per pipeline: its runs attempted and solved, and statistics of the solved.

    ``attempted`` counts the pipeline's rows and ``solved`` those that did
    not time out.  ``wall_time_ms`` has the median and maximum of the solved
    rows, and ``minimizations`` and ``overhead`` their min/median/max/mean.
    A timed-out row counts only as attempted: its metrics describe an
    aborted run.  A statistic with no solved row is ``{}``.
    """
    out: dict[str, dict] = {}
    for pipeline in sorted({r.pipeline for r in rows}):
        attempted = [r for r in rows if r.pipeline == pipeline]
        done = [r for r in attempted if not r.timed_out]
        walls = [r.wall_time_ms for r in done]
        summary: dict = {
            "attempted": len(attempted),
            "solved": len(done),
            "wall_time_ms": {"median": statistics.median(walls), "max": max(walls)} if walls else {},
        }
        for name in ("minimizations", "overhead"):
            values = [getattr(r, name) for r in done]
            if values:
                summary[name] = {
                    "min": min(values),
                    "median": statistics.median(values),
                    "max": max(values),
                    "mean": statistics.fmean(values),
                }
            else:
                summary[name] = {}
        out[pipeline] = summary
    return out


def format_summary(summary: dict) -> str:
    """The summary as a table: a row per pipeline and statistic, '-' where none."""
    if not summary:
        return "(no rows)"
    lines = [
        f"{'pipeline':<12} {'metric':<14} {'min':>8} {'median':>8} {'max':>8} {'mean':>10}"
    ]
    for pipeline, metrics in summary.items():
        lines.append(f"{pipeline:<12} {'solved':<14} {metrics['solved']} of {metrics['attempted']}")
        for name in ("wall_time_ms", "minimizations", "overhead"):
            stats = metrics[name]
            cells = [f"{stats[c]:>8g}" if c in stats else f"{'-':>8}" for c in ("min", "median", "max")]
            mean = f"{stats['mean']:>10.2f}" if "mean" in stats else f"{'-':>10}"
            lines.append(f"{pipeline:<12} {name:<14} {' '.join(cells)} {mean}")
    return "\n".join(lines)
