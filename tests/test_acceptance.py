"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
report lines interleaved with the pytest output.
"""

import random
import statistics
from contextlib import contextmanager

import pytest

from nfacanon.automata import Nfa, complete, isomorphic, to_mask
from nfacanon.engine import (
    PIPELINES,
    CanonConfig,
    RunStats,
    Threshold,
    canonize,
    otf_determinize,
)
from nfacanon.generator import GenParams, derive_seed, generate, sweep_instances
from nfacanon.io import serialize_nfa
from nfacanon.partition import minimize
from nfacanon.registry import CCLRegistry, PrunedView
from nfacanon.simulation import compute_similarity, simulation_quotient

from oracle import (
    FixedInterval,
    accepts,
    auto_members,
    auto_nfa,
    auto_tracks,
    blowup_nfa,
    canonical_dfa,
    dfa_from_metastate,
    find,
    language_equivalent,
    language_included,
    members,
    random_nfa,
    rooted_at,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] FAIL {name}")
        raise
    print(f"\n[acceptance] PASS {name}")


def _instance_set():
    """500 modular instances with n in {5..40} and fixed derived seeds."""
    out = []
    for i in range(500):
        n = 5 + i % 36
        params = GenParams(n=n, density=2.0, seed=derive_seed(7, n, i))
        out.append(generate(params))
    return out


@pytest.fixture(scope="module")
def pipeline_runs():
    """Canonize every instance under all 8 pipelines, plus the oracle DFA."""
    runs = []
    for nfa in _instance_set():
        oracle = canonical_dfa(nfa)
        outputs = {}
        for pipeline in PIPELINES:
            dfa, stats = canonize(nfa, CanonConfig(pipeline=pipeline))
            assert dfa is not None and not stats.timed_out
            outputs[pipeline] = dfa
        runs.append((nfa, oracle, outputs))
    return runs


def test_oracle_canonicity(pipeline_runs):
    with criterion("oracle canonicity: 500 instances x 8 pipelines"):
        checked = 0
        for _nfa, oracle, outputs in pipeline_runs:
            for pipeline, dfa in outputs.items():
                assert isomorphic(dfa, oracle), pipeline
                checked += 1
        assert checked == 500 * 8


def test_brzozowski_minimality(pipeline_runs):
    with criterion("Brzozowski minimality: follow-up minimize merges nothing"):
        for _nfa, _oracle, outputs in pipeline_runs:
            for pipeline in ("brz", "brz-s", "brz-otf", "brz-otf-s"):
                dfa = outputs[pipeline]
                _, merges = minimize(dfa, [])
                assert merges == []


def test_blowup_family():
    with criterion("blowup family: canonical DFA has exactly 2^n states"):
        for n in range(2, 13):
            nfa = blowup_nfa(n)
            assert canonical_dfa(nfa).num_states == 2**n
            for pipeline in ("sc", "otf", "brz"):
                dfa, _ = canonize(nfa, CanonConfig(pipeline=pipeline))
                assert dfa.num_states == 2**n


def test_registry_soundness():
    with criterion("registry soundness: every non-exact GET hit is language-exact"):
        rng = random.Random(4242)
        hits_seen = 0
        for case in range(120):
            nfa = random_nfa(rng, rng.randint(4, 12), 2)
            explored = nfa
            if case % 2:
                # as the -s pipelines do: the pruned view of the simulation quotient
                nfa, p = simulation_quotient(nfa, compute_similarity(nfa))
                explored = PrunedView(nfa, p)
            reg = CCLRegistry()
            reg.cover_hits = []
            res = otf_determinize(explored, reg, RunStats(), FixedInterval(rng.choice([1, 2])))
            full = complete(res.dfa)
            # state i of the DFA stands for the live id its metastate is put for
            ids = [reg._exact[m] for m in res.metastates]
            for mask, state in reg.cover_hits:
                hits_seen += 1
                target = ids.index(find(reg, state))
                assert language_equivalent(
                    dfa_from_metastate(nfa, mask), rooted_at(full, target)
                )
        assert hits_seen > 0  # the instrumentation actually exercised cover hits


def test_simulation_soundness():
    with criterion("simulation soundness: similarity pairs imply language inclusion"):
        rng = random.Random(512)
        for _ in range(200):
            nfa = random_nfa(rng, rng.randint(2, 8), 2)
            rel = compute_similarity(nfa)
            rooted = [
                canonical_dfa(
                    Nfa(
                        nfa.num_states,
                        nfa.alphabet_size,
                        nfa.edges(),
                        initial=[x],
                        final=members(nfa.final_mask),
                    )
                )
                for x in range(nfa.num_states)
            ]
            for x in range(nfa.num_states):
                for y in range(nfa.num_states):
                    if rel[x, y]:
                        assert language_included(rooted[x], rooted[y])


def test_threshold_unit_suite():
    with criterion("threshold updates: worked examples and 5000 floor"):
        c = Threshold(5000)
        c.after_minimize(2500)
        assert c.t == 5000
        c = Threshold(5000)
        c.after_minimize(7500)
        assert c.t == 7500
        c = Threshold(5000)
        c.t, c.s_old = 8000, 4000
        c.after_minimize(20000)
        assert c.t == 13000
        rng = random.Random(1)
        c = Threshold()
        for _ in range(1000):
            c.after_minimize(rng.randint(0, 10**6))
            assert c.t >= 5000


def test_convexity_closure_fixture():
    with criterion("convexity closure: exactly 7 of 31 subsets covered"):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, [1])
        covered = set()
        for bits in range(1, 32):
            subset = tuple(x for x in (1, 2, 3, 4, 5) if bits >> (x - 1) & 1)
            if reg.get(to_mask(subset)) is not None:
                covered.add(subset)
        assert covered == {
            (1, 2),
            (3, 4),
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
            (1, 2, 3, 4),
        }


def test_qualitative_overhead_trend():
    with criterion("qualitative trend: median OTF overhead <= median SC overhead"):
        sc_overheads, otf_overheads = [], []
        sc_done, otf_done = set(), set()
        for instance_id, _params, nfa in sweep_instances([200], 10, 2.0, base_seed=0):
            _, sc_stats = canonize(nfa, CanonConfig(pipeline="sc"))
            _, otf_stats = canonize(
                nfa, CanonConfig(pipeline="otf", threshold_init=50)
            )
            if not sc_stats.timed_out:
                sc_done.add(instance_id)
                sc_overheads.append(sc_stats.overhead)
            if not otf_stats.timed_out:
                otf_done.add(instance_id)
                otf_overheads.append(otf_stats.overhead)
        assert sc_done <= otf_done  # OTF completes everything SC completes
        assert statistics.median(otf_overheads) <= statistics.median(sc_overheads)


def test_automatic_sequence_family():
    with criterion("automatic sequences: oracle membership, OTF explores less than SC"):
        bits = 10
        for m, seed in [(6, 1), (6, 3), (6, 5), (8, 3), (8, 6)]:
            tracks = auto_tracks(random.Random(100 * seed + m), m)
            nfa = auto_nfa(tracks)
            expected = auto_members(tracks, bits)
            for x in range(1 << bits):
                word = [x >> i & 1 for i in reversed(range(bits))]
                assert accepts(nfa, word) == (x in expected), (m, seed, x)
            oracle = canonical_dfa(nfa)
            explored = {}
            for pipeline in PIPELINES:
                dfa, stats = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=50))
                assert isomorphic(dfa, oracle), (m, seed, pipeline)
                explored[pipeline] = stats.explored_metastates
            assert explored["sc"] > 50  # more than otf's first threshold
            assert explored["otf"] < explored["sc"], (m, seed)


def test_determinism():
    with criterion("determinism: byte-identical instances and sweep columns"):
        p = GenParams(n=60, density=2.0, seed=123)
        assert serialize_nfa(generate(p)) == serialize_nfa(generate(p))
        from nfacanon.bench import run_sweep

        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            rows = []
            for name in ("a.csv", "b.csv"):
                rows.append(
                    run_sweep(
                        [15, 25], 2, 2.0, ["sc", "otf", "brz-otf-s"], None,
                        os.path.join(tmp, name), base_seed=3,
                    )
                )
            strip = lambda rs: [
                (r.instance, r.pipeline, r.final_states, r.peak_intermediate_states,
                 r.overhead, r.minimizations, r.explored_metastates, r.timed_out)
                for r in rs
            ]
            assert strip(rows[0]) == strip(rows[1])
