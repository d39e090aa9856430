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
    AdaptiveThreshold,
    CanonConfig,
    CanonTrace,
    FixedIntervalThreshold,
    NeverThreshold,
    ThresholdState,
    adaptive_threshold,
    build_signature,
    canonize,
    otf_determinize,
    update_threshold,
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
        s = ThresholdState(t=5000)
        assert not any(adaptive_threshold(s, 10) for _ in range(4999))

    def test_fires_on_t_th_call(self):
        s = ThresholdState(t=5000)
        for _ in range(4999):
            adaptive_threshold(s, 10)
        assert adaptive_threshold(s, 10)

    def test_counter_resets_after_firing(self):
        s = ThresholdState(t=3, t_min=3)
        fires = [adaptive_threshold(s, 10) for _ in range(9)]
        assert fires == [False, False, True] * 3


class TestUpdateThreshold:
    def test_floor_cap(self):
        s = ThresholdState(t=5000, s_old=5000)
        update_threshold(s, 2500)
        assert s.t == 5000
        assert s.s_old == 2500

    def test_growth_unbound_when_under_cap(self):
        s = ThresholdState(t=5000, s_old=5000)
        update_threshold(s, 7500)
        assert s.t == 7500

    def test_increase_capped(self):
        s = ThresholdState(t=8000, s_old=4000)
        update_threshold(s, 20000)
        assert s.t == 13000

    def test_zero_size_treated_as_one(self):
        s = ThresholdState(t=5000, s_old=5000)
        update_threshold(s, 0)
        assert s.t == 5000
        assert s.s_old == 1

    def test_floor_holds_under_random_updates(self):
        rng = random.Random(77)
        s = ThresholdState()
        for _ in range(1000):
            update_threshold(s, rng.randint(0, 100000))
            assert s.t >= 5000


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
        res = otf_determinize(nfa, CCLRegistry(), FixedIntervalThreshold(1))
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
        res = otf_determinize(nfa, CCLRegistry(), FixedIntervalThreshold(interval))
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

    @pytest.mark.parametrize("pipeline", ["sc", "otf"])
    def test_timeout_keeps_partial_stats(self, pipeline):
        # 2^20 metastates cannot be explored in 50 ms, while preprocessing
        # the 21-state input takes far less: the deadline hits in the loop
        config = CanonConfig(pipeline=pipeline, timeout_ms=50.0)
        dfa, stats = canonize(blowup_nfa(20), config)
        assert dfa is None
        assert stats.timed_out
        assert stats.explored_metastates > 0
        assert stats.peak_intermediate_states > 0

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
        c = NeverThreshold()
        assert not any(c.should_minimize(10) for _ in range(100))

    def test_adaptive_controller_wraps_state(self):
        c = AdaptiveThreshold(init=2)
        fires = [c.should_minimize(10) for _ in range(4)]
        assert fires == [False, True, False, True]
        c.after_minimize(4)
        # interval rescaled by the size ratio: 2 * 4/2 = 4, within the +2 cap
        assert c.state.t == 4
