"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import nfacanon.engine as engine  # noqa: E402
import nfacanon.registry as registry  # noqa: E402
from nfacanon import isomorphic  # noqa: E402
from reference import reference_canonical  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, instance_set, tv_nfa  # noqa: E402

TINY = {
    "tv": Workload(
        "tiny-tv", "tv", n=14, r=1.25, f=0.5, threshold_init=5, count=5,
        band=(8, 80), rev_band=(8, 120), sc_cap=300,
    ),
    "modular": Workload(
        "tiny-modular", "modular", n=25, density=2.0, threshold_init=20, count=2,
        band=(1, 200), rev_band=(1, 400), sc_cap=400,
    ),
}


def spec_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def spec_json_per_layer():
    return {m["name"]: m for m in spec_json()["per_layer"]}


def tiny_bench(kind: str, seed: int = 5) -> run.Bench:
    bench = run.Bench(TINY[kind], seed)
    bench.set_up()
    return bench


def traced_pair(bench: run.Bench):
    tracer = Tracer()

    def traced(nfa, config):
        with tracer:
            return tracer.canonize(nfa, config)

    untraced, traced_rec = bench.run_round(len(bench.nfas), (engine.canonize, traced))
    return tracer, untraced, traced_rec


def test_tv_generator_is_deterministic_and_follows_the_model():
    a = tv_nfa(20, 1.25, 0.5, seed=11)
    assert a == tv_nfa(20, 1.25, 0.5, seed=11)
    assert a != tv_nfa(20, 1.25, 0.5, seed=12)
    n, k, edges, initial, final = a
    assert (n, k, initial) == (20, 2, [0])
    for sym in range(2):
        pairs = [(s, t) for s, a_, t in edges if a_ == sym]
        assert len(pairs) == len(set(pairs)) == round(1.25 * 20)
    assert len(set(final)) == len(final) == 10


def test_instance_sets_repeat_per_seed():
    w = TINY["tv"]
    assert instance_set(w, 3) == instance_set(w, 3)
    seeds, refs = instance_set(w, 3)
    lo, hi = w.band
    assert len(seeds) == w.count
    assert all(lo <= len(r[0]) <= hi for r in refs)
    assert seeds != instance_set(w, 4)[0]


def test_reference_matches_known_minimal_dfa():
    # words over {0,1} ending in 0: two states, both reached from the start
    spec = (2, 2, [(0, 0, 0), (0, 0, 1), (0, 1, 0)], [0], [1])
    finals, rows = reference_canonical(spec)
    assert finals == (False, True)
    assert rows == ((1, 0), (1, 0))


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_matches_untraced_run(kind):
    bench = tiny_bench(kind)
    originals = (engine.minimize, engine.CCLRegistry, registry.prune)
    tracer, untraced, traced = traced_pair(bench)
    assert (engine.minimize, engine.CCLRegistry, registry.prune) == originals
    assert bench.failed == 0
    assert untraced["stats"] == traced["stats"]
    for nfa in bench.nfas:
        for p in run.PIPELINES:
            plain, _ = engine.canonize(nfa, bench.configs[p])
            with tracer:
                seen, _ = tracer.canonize(nfa, bench.configs[p])
            assert isomorphic(plain, seen)


def test_exact_counts_repeat_for_the_same_seed():
    exact = [
        name for name, m in spec_json_per_layer().items()
        if m["unit"] == "count"
    ]
    runs = []
    for _ in range(2):
        bench = tiny_bench("tv")
        tracer, untraced, traced = traced_pair(bench)
        m = run.layer_metrics(tracer, untraced, traced, parse_s=0.0)
        runs.append({name: m[name]["value"] for name in exact})
        assert run.overhead_states(untraced) == m["overhead_states"]["value"]
    assert runs[0] == runs[1]
    assert runs[0]["partition.minimize_intermediate_calls"] > 0
    assert runs[0]["registry.cover_hits"] > 0


def test_reported_metrics_match_benchmark_json():
    spec = spec_json()
    bench = tiny_bench("modular")
    tracer, untraced, traced = traced_pair(bench)
    layers = run.layer_metrics(tracer, untraced, traced, parse_s=0.0)
    e2e, _ = run.end_to_end(bench, [untraced], setup_s=1.0)
    for declared, reported in ((spec["per_layer"], layers), (spec["end_to_end"], e2e)):
        assert [m["name"] for m in declared] == list(reported)
        assert all(m["unit"] == reported[m["name"]]["unit"] for m in declared)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
