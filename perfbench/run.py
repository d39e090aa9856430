"""Canonization benchmark over the public ``nfacanon.canonize`` API.

Usage, from the repository root::

    python3 perfbench/run.py --workload modular --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: every pipeline canonizes every
instance of the workload's seeded set in turn, each call starting after the
previous one ends, and whole rounds repeat while they fit in ``--seconds``.
Every output is checked against an independent reference (``reference.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each call of half the set runs untraced and then traced,
and the line reports the per-layer metrics of ``tracer.py``.  Earlier lines
print every metric with its unit and sample count.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import dfa_canonical, reference_canonical
from workloads import WORKLOADS, instance_set, make_spec, tv_nfa, warmup_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PIPELINES = ("sc", "sc-s", "otf", "otf-s", "brz", "brz-s", "brz-otf", "brz-otf-s")
TIMEOUT_MS = 20_000  # per canonize call; far above the slowest call seen
SETUP_REPEATS = 5
# The shared machine's single-thread speed drifts by ±20% within seconds and
# by a third between runs.  End-to-end times are therefore scaled to a
# reference speed: a fixed calibration task (the benchmark's own reference on
# a fixed NFA, never program code) is timed before a call whenever
# CAL_INTERVAL_S has passed since the last time, and each timed span is
# multiplied by CAL_REF_S over the mean of the calibrations just before and
# just after it.  CAL_REF_S is the task's time
# on the machine where the bounds were set.  Program changes are not seen by
# the task, so they move the scaled times in full.
CAL_REF_S = 0.012
CAL_INTERVAL_S = 0.5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nfacanon, nfacanon.io; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibrate() -> float:
    """Median seconds of three runs of the fixed calibration task."""
    spec = tv_nfa(32, 1.25, 0.5, seed=2)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_canonical(spec)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def with_factor(fn):
    """Run ``fn``; return its result and the reference-speed factor around it."""
    before = calibrate()
    result = fn()
    return result, 2 * CAL_REF_S / (before + calibrate())


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


class Bench:
    """One workload's seeded instance set, its references and failure counts."""

    def __init__(self, workload, seed: int):
        from nfacanon import CanonConfig, Nfa
        from nfacanon.io import parse_nfa, serialize_nfa

        self.w = workload
        self.Nfa, self.parse_nfa, self.serialize_nfa = Nfa, parse_nfa, serialize_nfa
        self.configs = {
            p: CanonConfig(pipeline=p, threshold_init=workload.threshold_init, timeout_ms=TIMEOUT_MS)
            for p in PIPELINES
        }
        self.instance_seeds, self.refs = instance_set(workload, seed)
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> tuple[float, float]:
        """Generate, round-trip through the text format, warm every pipeline.

        Returns (set-up seconds, parse seconds); leaves the parsed instances
        in ``self.nfas``.
        """
        from nfacanon import canonize

        t0 = time.perf_counter()
        texts = [
            self.serialize_nfa(self.Nfa(*make_spec(self.w, self.w.n, s)))
            for s in self.instance_seeds
        ]
        t1 = time.perf_counter()
        self.nfas = [self.parse_nfa(text)[0] for text in texts]
        t2 = time.perf_counter()
        warm = self.parse_nfa(self.serialize_nfa(self.Nfa(*warmup_spec(self.w))))[0]
        for p in PIPELINES:
            canonize(warm, self.configs[p])
        return time.perf_counter() - t0, t2 - t1

    def run_round(self, count: int, canons) -> list[dict]:
        """Canonize the first ``count`` instances with every pipeline.

        Each (instance, pipeline) cell runs every callable in ``canons`` in
        turn; the result holds one record per callable, with measured
        (``raw``) and reference-speed (``wall``, ``samples``) times.
        """
        out = [
            {
                "raw": dict.fromkeys(PIPELINES, 0.0),
                "wall": dict.fromkeys(PIPELINES, 0.0),
                "samples": [],
                "stats": [],
            }
            for _ in canons
        ]
        pending: list[tuple[dict, str, float]] = []
        cal = calibrate()
        cal_at = time.perf_counter()

        def settle():
            nonlocal cal, cal_at
            new = calibrate()
            cal_at = time.perf_counter()
            factor = 2 * CAL_REF_S / (cal + new)
            for rec, p, dt in pending:
                rec["wall"][p] += dt * factor
                rec["samples"].append(dt * factor * 1000.0)
            pending.clear()
            cal = new

        for i, nfa in enumerate(self.nfas[:count]):
            for p in PIPELINES:
                for canon, rec in zip(canons, out):
                    if time.perf_counter() - cal_at >= CAL_INTERVAL_S:
                        settle()
                    gc.collect()
                    t0 = time.perf_counter()
                    try:
                        dfa, stats = canon(nfa, self.configs[p])
                    except Exception:
                        dt = time.perf_counter() - t0
                        traceback.print_exc(file=sys.stderr)
                        dfa, stats = None, None
                    else:
                        dt = time.perf_counter() - t0
                    self.attempted += 1
                    if (
                        dfa is None
                        or stats.timed_out
                        or dfa_canonical(dfa) != self.refs[i]
                    ):
                        self.failed += 1
                        print(f"FAILED instance {i} pipeline {p}", file=sys.stderr)
                    rec["raw"][p] += dt
                    rec["stats"].append(_stat_counts(stats))
                    pending.append((rec, p, dt))
        settle()
        return out


def _stat_counts(stats) -> tuple | None:
    if stats is None:
        return None
    return (
        stats.final_states,
        stats.overhead,
        stats.minimizations,
        stats.explored_metastates,
        stats.peak_intermediate_states,
    )


def tail_percentile(samples_per_round: int) -> int:
    """Highest whole percentile with at least ten of one round's samples above it."""
    return max(0, math.floor(100 * (samples_per_round - 10) / samples_per_round))


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, rounds, setup_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics; times are at reference speed (see CAL_REF_S)."""
    samples = [x for r in rounds for x in r["samples"]]
    pct = tail_percentile(len(PIPELINES) * bench.w.count)
    metrics = {"setup_s": metric(setup_s, "s")}
    for p in PIPELINES:
        metrics[f"wall_s.{p}"] = metric(statistics.median(r["wall"][p] for r in rounds), "s")
    metrics["canon_ms.p50"] = metric(statistics.median(samples), "ms")
    metrics["canon_ms.tail"] = metric(nearest_rank(samples, pct), "ms")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    raw = {p: statistics.median(r["raw"][p] for r in rounds) for p in PIPELINES}
    notes = [
        "measured wall_s (not scaled): "
        + ", ".join(f"{p} {v:.6g}" for p, v in raw.items()),
        f"setup_s: median of {SETUP_REPEATS} set-ups",
        f"wall_s.*: median of {len(rounds)} rounds of {len(bench.nfas)} instances",
        f"canon_ms.*: {len(samples)} samples; tail = p{pct}",
    ]
    return metrics, notes


def overhead_states(rnd) -> int:
    return sum(s[1] for s in rnd["stats"] if s is not None)


def layer_metrics(tracer, untraced, traced, parse_s: float) -> dict:
    """Per-layer metrics of the traced calls, summed over all pipelines."""
    span: dict[tuple[str, str], list] = {}
    for (_, layer, parent), (calls, total, self_s) in tracer.spans.items():
        rec = span.setdefault((layer, parent), [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s

    def total(layer, parent=None, field=1):
        return sum(
            rec[field]
            for (lay, par), rec in span.items()
            if lay == layer and (parent is None or par == parent)
        )

    def count(name):
        return sum(v for (_, n), v in tracer.counts.items() if n == name)

    det1, det2 = "engine.determinize.phase1", "engine.determinize.phase2"
    cover = count("registry.cover_hits")
    non_exact = cover + count("registry.misses")
    stats = [s for s in traced["stats"] if s is not None]
    s, c = "s", "count"
    m = {
        "registry.get_s": (total("registry.get"), s),
        "registry.get_calls": (total("registry.get", field=0), c),
        "registry.exact_hits": (count("registry.exact_hits"), c),
        "registry.cover_hits": (cover, c),
        "registry.misses": (count("registry.misses"), c),
        "registry.lattices_scanned": (count("registry.lattices_scanned"), c),
        "registry.cover_hit_ratio": (cover / non_exact if non_exact else 0.0, "ratio"),
        "registry.put_s": (total("registry.put"), s),
        "registry.unify_s": (total("registry.unify"), s),
        "registry.unify_calls": (total("registry.unify", field=0), c),
        "kernels.successors_s.phase1": (total("kernels.successors", det1), s),
        "kernels.successors_s.phase2": (total("kernels.successors", det2), s),
        "kernels.successors_calls.phase1": (total("kernels.successors", det1, 0), c),
        "kernels.successors_calls.phase2": (total("kernels.successors", det2, 0), c),
        "partition.minimize_final_s": (total("partition.minimize", "canonize"), s),
        "partition.minimize_intermediate_s": (
            total("partition.minimize", det1) + total("partition.minimize", det2), s),
        "partition.minimize_intermediate_calls": (
            total("partition.minimize", det1, 0) + total("partition.minimize", det2, 0), c),
        "partition.merges": (count("partition.merges"), c),
        "simulation.compute_similarity_s": (total("simulation.compute_similarity"), s),
        "simulation.compute_similarity_calls": (
            total("simulation.compute_similarity", field=0), c),
        "simulation.simulation_quotient_s": (total("simulation.simulation_quotient"), s),
        "simulation.prune_s": (total("simulation.prune"), s),
        "simulation.saturate_s": (total("simulation.saturate"), s),
        "partition.bisimulation_quotient_s": (total("partition.bisimulation_quotient"), s),
        "automata.trim_s": (total("automata.trim"), s),
        "automata.reverse_s": (total("automata.reverse"), s),
        "automata.complete_s": (total("automata.complete"), s),
        "engine.determinize_self_s": (total(det1, field=2) + total(det2, field=2), s),
        "engine.explored_metastates": (sum(x[3] for x in stats), c),
        "engine.peak_states": (sum(x[4] for x in stats), c),
        "engine.minimizations": (sum(x[2] for x in stats), c),
        "overhead_states": (overhead_states(traced), c),
        "io.parse_nfa_s": (parse_s, s),
        "trace.overhead_s": (sum(traced["raw"].values()) - sum(untraced["raw"].values()), s),
    }
    return {name: metric(v, unit) for name, (v, unit) in m.items()}


def layer_table(tracer, rnd) -> list[str]:
    """Self-time share of each layer in each pipeline's traced wall time."""
    lines = []
    for p in PIPELINES:
        layers: dict[str, list] = {}
        for (pipe, layer, parent), (calls, _, self_s) in tracer.spans.items():
            if pipe != p:
                continue
            if layer == "partition.minimize":
                kind = "intermediate" if parent.startswith("engine.determinize") else "final"
                layer = f"{layer}.{kind}"
            elif layer == "kernels.successors":
                layer = f"{layer}.{parent.rsplit('.', 1)[1]}"
            rec = layers.setdefault(layer, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        wall = rnd["raw"][p]
        ranked = sorted(layers.items(), key=lambda kv: -kv[1][1])
        parts = [f"{name} {sec / wall:.1%}" for name, (_, sec) in ranked if sec >= 0.005 * wall]
        lines.append(f"layers {p} wall {wall:.3f} s self-time shares: " + ", ".join(parts))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nfacanon" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    imports = [with_factor(import_seconds) for _ in range(SETUP_REPEATS)]
    import nfacanon
    from nfacanon.engine import canonize
    from nfacanon.kernels import default_backend

    if Path(nfacanon.__file__).resolve().parent != SRC / "nfacanon":
        print(f"error: imported nfacanon from {nfacanon.__file__}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed)
    setups = [with_factor(bench.set_up) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(t * f for t, f in imports) + statistics.median(
        t * f for (t, _), f in setups
    )
    parse_s = statistics.median(parse for (_, parse), _ in setups)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"kernel_backend {default_backend()} instances {len(bench.nfas)} "
        f"threshold_init {bench.w.threshold_init}"
    )

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

        def traced_canonize(nfa, config):
            with tracer:
                return tracer.canonize(nfa, config)

        # Half the set, each call untraced then traced, keeps a traced run
        # about as long as an untraced one.
        count = math.ceil(len(bench.nfas) / 2)
        untraced, traced = bench.run_round(count, (canonize, traced_canonize))
        for i, (a, b) in enumerate(zip(untraced["stats"], traced["stats"])):
            if a != b:
                bench.failed += 1
                print(f"FAILED traced RunStats differ in call {i}: {a} vs {b}",
                      file=sys.stderr)
        metrics = layer_metrics(tracer, untraced, traced, parse_s)
        for line in layer_table(tracer, traced):
            print(line)
        notes = [f"per-layer: {count} of {len(bench.nfas)} instances, traced once"]
    else:
        start = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            rounds.append(bench.run_round(len(bench.nfas), (canonize,))[0])
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
        metrics, notes = end_to_end(bench, rounds, setup_s)
        print(f"metric overhead_states {overhead_states(rounds[0])} count")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric failed_frac {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} canonize calls)")
    for note in notes:
        print(f"note {note}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
