"""Tests for the similarity preorder and metastate normalization."""

import random

import pytest

from nfacanon.automata import Nfa, enumerate_language, members, to_mask
from nfacanon.simulation import (
    Preorder,
    compute_similarity,
    prune,
    saturate,
    simulation_quotient,
)

from oracle import random_nfa


def _lang_from(nfa, mask, depth):
    rooted = Nfa(
        nfa.num_states,
        nfa.alphabet_size,
        nfa.edges(),
        initial=members(mask),
        final=members(nfa.final_mask),
    )
    return enumerate_language(rooted, depth)


def _strict_pair_nfa():
    """4-state NFA where state 1 simulates state 0 strictly.

    State 1 has all of state 0's moves plus an extra edge on symbol 0.
    """
    return Nfa(
        4,
        2,
        [(0, 1, 2), (1, 1, 2), (1, 0, 3), (2, 0, 2), (3, 1, 3)],
        initial=[0, 1],
        final=[2, 3],
    )


class TestComputeSimilarity:
    def test_reflexive(self, ends_in_a):
        p = compute_similarity(ends_in_a)
        for x in range(ends_in_a.num_states):
            assert p.leq(x, x)

    def test_extra_edge_dominates(self):
        p = compute_similarity(_strict_pair_nfa())
        assert p.leq(0, 1)
        assert not p.leq(1, 0)

    def test_final_not_below_nonfinal(self):
        nfa = Nfa(2, 1, [(0, 0, 0), (1, 0, 1)], initial=[0], final=[0])
        p = compute_similarity(nfa)
        assert not p.leq(0, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_implies_language_inclusion(self, seed):
        rng = random.Random(seed)
        nfa = random_nfa(rng, rng.randint(2, 8), 2)
        p = compute_similarity(nfa)
        depth = 2 * nfa.num_states
        langs = [_lang_from(nfa, 1 << x, depth) for x in range(nfa.num_states)]
        for x in range(nfa.num_states):
            for y in range(nfa.num_states):
                if p.leq(x, y):
                    assert langs[x] <= langs[y]

    @pytest.mark.parametrize("seed", range(8))
    def test_transitive(self, seed):
        rng = random.Random(50 + seed)
        nfa = random_nfa(rng, 6, 2)
        p = compute_similarity(nfa)
        n = nfa.num_states
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)


class TestPruneSaturate:
    def test_prune_strictly_dominated(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        assert prune(to_mask([0, 1]), p) == to_mask([1])

    def test_prune_incomparable_unchanged(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        # 2 and 3 accept different languages and are incomparable
        assert not p.leq(2, 3) and not p.leq(3, 2)
        assert prune(to_mask([2, 3]), p) == to_mask([2, 3])

    def test_prune_mixed(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        assert prune(to_mask([0, 1, 2]), p) == to_mask([1, 2])

    def test_saturate_adds_dominated(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        assert saturate(to_mask([1]), p) & to_mask([0, 1]) == to_mask([0, 1])

    def test_saturate_identity_preorder_unchanged(self):
        p = Preorder.identity(4)
        mask = to_mask([1, 3])
        assert saturate(mask, p) == mask
        assert prune(mask, p) == mask

    @pytest.mark.parametrize("seed", range(15))
    def test_normalization_properties(self, seed):
        rng = random.Random(100 + seed)
        nfa = random_nfa(rng, rng.randint(2, 7), 2)
        # quotient by simulation equivalence first so no two distinct states
        # are mutually similar; prune(saturate(q)) = prune(q) needs that
        nfa = simulation_quotient(nfa, compute_similarity(nfa))
        p = compute_similarity(nfa)
        mask = to_mask(
            [s for s in range(nfa.num_states) if rng.random() < 0.5]
        ) or to_mask([0])
        pruned = prune(mask, p)
        fat = saturate(mask, p)
        assert pruned & mask == pruned
        assert fat & mask == mask
        assert saturate(fat, p) == fat
        assert prune(fat, p) == prune(mask, p)
        depth = nfa.num_states + 2
        ref = _lang_from(nfa, mask, depth)
        assert _lang_from(nfa, pruned, depth) == ref
        assert _lang_from(nfa, fat, depth) == ref


class TestSimulationQuotient:
    def test_no_mutual_similarity_unchanged(self, ends_in_a):
        p = compute_similarity(ends_in_a)
        q = simulation_quotient(ends_in_a, p)
        assert q.num_states == ends_in_a.num_states

    def test_bisimilar_states_merged(self):
        nfa = Nfa(
            5,
            1,
            [(0, 0, 1), (0, 0, 3), (1, 0, 2), (3, 0, 4)],
            initial=[0],
            final=[2, 4],
        )
        q = simulation_quotient(nfa, compute_similarity(nfa))
        assert q.num_states == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_modular_generator_yields_identity(self, seed):
        # modular-structure instances show no similarity once dead states are trimmed
        from nfacanon.automata import trim
        from nfacanon.generator import GenParams, generate

        nfa = trim(generate(GenParams(n=30, density=8.0, seed=seed)))
        p = compute_similarity(nfa)
        q = simulation_quotient(nfa, p)
        assert q.num_states == nfa.num_states

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        rng = random.Random(200 + seed)
        nfa = random_nfa(rng, rng.randint(2, 10), 2)
        q = simulation_quotient(nfa, compute_similarity(nfa))
        assert enumerate_language(q, 10) == enumerate_language(nfa, 10)

