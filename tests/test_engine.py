"""Tests for the determinization engine, thresholds, and pipelines."""

import random

import pytest

from nfacanon.automata import (
    Dfa,
    complete,
    enumerate_language,
    isomorphic,
    language_equivalent,
)
from nfacanon.engine import (
    PIPELINES,
    CanonConfig,
    CanonTrace,
    Threshold,
    build_signature,
    canonize,
    otf_determinize,
)
from nfacanon.generator import GenParams, generate
from nfacanon.partition import SIG_ACCEPTING, SIG_REJECTING, minimize, sig_unique
from nfacanon.registry import CCLRegistry, OneToOneRegistry

from oracle import (
    blowup_nfa,
    canonical_dfa,
    random_nfa,
    textbook_subset_construction,
)


class TestAdaptiveThreshold:
    def test_no_fire_before_t(self):
        c = Threshold(5000)
        assert not any(c.should_minimize() for _ in range(4999))

    def test_fires_on_t_th_call(self):
        c = Threshold(5000)
        for _ in range(4999):
            c.should_minimize()
        assert c.should_minimize()

    def test_counter_resets_after_firing(self):
        c = Threshold(3)
        fires = [c.should_minimize() for _ in range(9)]
        assert fires == [False, False, True] * 3


class TestUpdateThreshold:
    def test_floor_cap(self):
        c = Threshold(5000)
        c.after_minimize(2500)
        assert c.t == 5000
        assert c.s_old == 2500

    def test_growth_unbound_when_under_cap(self):
        c = Threshold(5000)
        c.after_minimize(7500)
        assert c.t == 7500

    def test_increase_capped(self):
        c = Threshold(5000)
        c.t, c.s_old = 8000, 4000
        c.after_minimize(20000)
        assert c.t == 13000

    def test_zero_size_treated_as_one(self):
        c = Threshold(5000)
        c.after_minimize(0)
        assert c.t == 5000
        assert c.s_old == 1

    def test_floor_holds_under_random_updates(self):
        rng = random.Random(77)
        c = Threshold()
        for _ in range(1000):
            c.after_minimize(rng.randint(0, 100000))
            assert c.t >= 5000

    def test_zero_growth_cap_keeps_interval_fixed(self):
        rng = random.Random(78)
        c = Threshold(3, max_increase=0)
        for _ in range(100):
            c.after_minimize(rng.randint(0, 100000))
            assert c.t == 3


class TestBuildSignature:
    def test_all_explored_is_boolean(self):
        d = Dfa(3, 1, 0, final={1}, explored={0, 1, 2})
        assert build_signature(d) == [SIG_REJECTING, SIG_ACCEPTING, SIG_REJECTING]

    def test_unexplored_gets_unique_tag(self):
        d = Dfa(2, 1, 0, final={1}, explored={0})
        sig = build_signature(d)
        assert sig[0] == SIG_REJECTING
        assert sig[1] == sig_unique(1)

    def test_mixed_partial_dfa(self):
        # Algorithm trace on the 2-symbols-from-the-end family, stopped after
        # exploring two metastates: 2 Boolean tags, 2 unique tags
        d = Dfa(4, 2, 0, final={3}, explored={0, 1})
        sig = build_signature(d)
        assert sig[:2] == [SIG_REJECTING, SIG_REJECTING]
        assert sig[2:] == [sig_unique(2), sig_unique(3)]
        # the two unexplored states get tags distinct from everything else
        assert len(set(sig)) == 3


class TestOtfDeterminize:
    def test_matches_classic_subset_construction(self, ends_in_a):
        res = otf_determinize(ends_in_a, OneToOneRegistry())
        oracle, _ = textbook_subset_construction(ends_in_a)
        assert isomorphic(complete(res.dfa), complete(oracle))
        assert res.dfa.num_states == 2
        assert res.minimizations == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_blowup_family_exponential_without_minimization(self, n):
        res = otf_determinize(blowup_nfa(n), OneToOneRegistry())
        assert res.dfa.num_states == 2**n

    @pytest.mark.parametrize("n", range(2, 11))
    def test_blowup_family_with_always_firing_ccl(self, n):
        nfa = blowup_nfa(n)
        res = otf_determinize(nfa, CCLRegistry(), Threshold(1, max_increase=0))
        assert res.peak_states <= 2**n
        assert language_equivalent(complete(res.dfa), canonical_dfa(nfa))

    @pytest.mark.parametrize("seed", range(20))
    def test_explored_trace_matches_textbook_order(self, seed):
        # one-to-one registry + never-firing threshold is exactly classic
        # subset construction with a LIFO worklist
        rng = random.Random(seed)
        nfa = random_nfa(rng, rng.randint(2, 7), 2)
        res = otf_determinize(nfa, OneToOneRegistry(), trace_explored=True)
        _, order = textbook_subset_construction(nfa, lifo=True)
        assert res.explored_trace == order

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved_under_minimization(self, seed):
        rng = random.Random(100 + seed)
        nfa = random_nfa(rng, rng.randint(3, 8), 2)
        interval = rng.choice([1, 2, 3])
        res = otf_determinize(
            nfa, CCLRegistry(), Threshold(interval, max_increase=0)
        )
        assert language_equivalent(complete(res.dfa), canonical_dfa(nfa))


class TestCanonize:
    def test_all_pipelines_isomorphic_on_fixed_instance(self):
        nfa = generate(GenParams(n=20, density=2.0, seed=42))
        oracle = canonical_dfa(nfa)
        for pipeline in PIPELINES:
            dfa, stats = canonize(nfa, CanonConfig(pipeline=pipeline))
            assert dfa is not None
            assert isomorphic(dfa, oracle), pipeline
            assert not stats.timed_out

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_output_already_minimal(self, pipeline):
        nfa = generate(GenParams(n=25, density=2.0, seed=9))
        dfa, _ = canonize(nfa, CanonConfig(pipeline=pipeline))
        sig = [
            SIG_ACCEPTING if s in dfa.final else SIG_REJECTING
            for s in range(dfa.num_states)
        ]
        _, merges = minimize(dfa, sig)
        assert merges == []

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_empty_language_nfa(self, pipeline):
        from nfacanon.automata import Nfa

        nfa = Nfa(3, 2, [(0, 0, 1), (1, 1, 2)], initial=[0], final=[])
        dfa, _ = canonize(nfa, CanonConfig(pipeline=pipeline))
        assert dfa.num_states == 1
        assert not dfa.final

    def test_timeout_reported(self):
        nfa = generate(GenParams(n=120, density=3.0, seed=1))
        dfa, stats = canonize(nfa, CanonConfig(pipeline="sc", timeout_ms=0.0))
        assert dfa is None
        assert stats.timed_out

    @pytest.mark.parametrize(
        "pipeline, threshold_init",
        [("sc", 5000), ("otf", 5000), ("otf", 50)],
        ids=["sc", "otf", "otf-threshold50"],
    )
    def test_timeout_keeps_partial_stats(self, pipeline, threshold_init):
        # 2^20 metastates cannot be explored in 50 ms, while preprocessing
        # the 21-state input takes far less: the deadline hits in the loop
        config = CanonConfig(
            pipeline=pipeline, threshold_init=threshold_init, timeout_ms=50.0
        )
        dfa, stats = canonize(blowup_nfa(20), config)
        assert dfa is None
        assert stats.timed_out
        assert stats.explored_metastates > 0
        assert stats.peak_intermediate_states > 0
        if threshold_init == 50:
            # the interrupted loop's intermediate minimizations are kept
            assert stats.minimizations > 0

    def test_stats_sanity(self):
        nfa = generate(GenParams(n=30, density=2.0, seed=3))
        dfa, stats = canonize(nfa, CanonConfig(pipeline="otf", threshold_init=5))
        assert stats.peak_intermediate_states >= stats.final_states
        assert stats.final_states == dfa.num_states
        assert stats.minimizations >= 1
        assert stats.overhead >= 0
        assert stats.explored_metastates >= 1

    def test_unknown_pipeline_rejected(self, ends_in_a):
        with pytest.raises(ValueError):
            canonize(ends_in_a, CanonConfig(pipeline="bogus"))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("pipeline", ["otf", "otf-s", "brz-otf-s"])
    def test_small_thresholds_still_canonical(self, pipeline, seed):
        rng = random.Random(900 + seed)
        nfa = random_nfa(rng, rng.randint(3, 8), 2)
        cfg = CanonConfig(pipeline=pipeline, threshold_init=rng.choice([1, 2, 3, 7]))
        dfa, _ = canonize(nfa, cfg)
        assert isomorphic(dfa, canonical_dfa(nfa))

    def test_no_complete_drops_sink(self, ends_in_a):
        dfa, _ = canonize(ends_in_a, CanonConfig(pipeline="sc", complete_output=False))
        # "ends in a" needs no sink: both states are live either way
        assert dfa.num_states == 2
        from nfacanon.automata import Nfa

        only_empty = Nfa(1, 2, [], initial=[0], final=[0])
        partial, _ = canonize(only_empty, CanonConfig(pipeline="sc", complete_output=False))
        total, _ = canonize(only_empty, CanonConfig(pipeline="sc"))
        assert partial.num_states == 1
        assert total.num_states == 2

    def test_trace_collects_state_map_and_explored(self):
        nfa = generate(GenParams(n=20, density=2.0, seed=4))
        trace = CanonTrace()
        dfa, _ = canonize(nfa, CanonConfig(pipeline="otf", threshold_init=3), trace)
        assert trace.explored_trace
        assert trace.state_map
        assert trace.lookup_nfa is not None
        # every created state id resolves to a live state of the output
        assert set(trace.state_map.values()) <= set(range(dfa.num_states))


class TestThresholdControllers:
    def test_never_threshold(self):
        # without a controller the loop never minimizes, however long it runs
        res = otf_determinize(blowup_nfa(8), CCLRegistry(), None)
        assert res.minimizations == 0
        assert res.dfa.num_states == 2**8

    def test_adaptive_controller_wraps_state(self):
        c = Threshold(2)
        fires = [c.should_minimize() for _ in range(4)]
        assert fires == [False, True, False, True]
        c.after_minimize(4)
        # interval rescaled by the size ratio: 2 * 4/2 = 4, within the +2 cap
        assert c.t == 4
