"""Tests for the similarity preorder and metastate normalization."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfacanon import simulation
from nfacanon.automata import Nfa, reverse, to_mask, trim
from nfacanon.generator import GenParams, generate
from nfacanon.simulation import (
    Preorder,
    compute_similarity,
    prune,
    saturate,
    simulation_quotient,
)

from oracle import (
    enumerate_language,
    identity_preorder,
    leq,
    members,
    preorder_rows_reference,
    prune_reference,
    random_nfa,
    saturate_reference,
    similarity_fixpoint_reference,
    similarity_reference,
    tv_nfa,
)


def _above(p):
    """Rows of ``p.rel`` as bitmasks: bit y of row x iff x <= y."""
    return [to_mask(np.flatnonzero(row).tolist()) for row in p.rel]


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


def _gappy_nfa(rng, n, k):
    """Random NFA where some symbols have no edges and some states no successors."""
    silent = {a for a in range(k) if rng.random() < 0.3}
    if k > 1 and not silent:
        silent.add(rng.randrange(k))
    dead = {s for s in range(n) if rng.random() < 0.3}
    p = min(0.5, 2 / n)
    edges = [
        (s, a, t)
        for s in range(n)
        if s not in dead
        for a in range(k)
        if a not in silent
        for t in range(n)
        if rng.random() < p
    ]
    final = {s for s in range(n) if rng.random() < 0.4}
    return Nfa(n, k, edges, initial=[0], final=final)


def _chain_nfa(m):
    """Chains x_0 -> ... -> x_m (states 0..m) and y_0 -> ... -> y_m (m+1..2m+1).

    The links of both chains alternate symbols, ending on symbol 0.  Only
    x_m is final, so y_i simulates x_i for no i, and refinement learns it
    from the end: (x_i, y_i) drops only after (x_{i+1}, y_{i+1}) has.  A round
    handles symbol 0 first, so with rows computed once per round it drops
    one pair of the chain per round; rows updated after every symbol would
    drop two.
    """
    edges = []
    for i in range(m):
        a = (m - 1 - i) % 2
        edges += [(i, a, i + 1), (m + 1 + i, a, m + 2 + i)]
    return Nfa(2 * m + 2, 2, edges, initial=[0, m + 1], final=[m])


@st.composite
def _nfas(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
        return random_nfa(rng, n, k, draw(st.sampled_from([0.05, 0.15, 0.3])))
    r, f = draw(st.sampled_from([1.0, 1.25, 2.0])), draw(st.sampled_from([0.25, 0.5]))
    return tv_nfa(rng, draw(st.integers(2, 16)), r, f)


class TestComputeSimilarity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nfa=_nfas())
    def test_matches_reference(self, nfa):
        assert _above(compute_similarity(nfa)) == similarity_reference(nfa)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
    def test_matches_reference_across_row_widths(self, n):
        # rows are packed 8 states to a byte; these sizes straddle byte and
        # uint64 boundaries, and reflexivity sets bit x of every row x
        rng = random.Random(n)
        for nfa in (tv_nfa(rng, n, 1.25, 0.5), random_nfa(rng, n, 3, min(0.3, 2 / n))):
            assert _above(compute_similarity(nfa)) == similarity_reference(nfa)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    @pytest.mark.parametrize("k", [1, 2, 5, 24])
    def test_matches_reference_with_silent_symbols_and_dead_states(self, k, n):
        rng = random.Random(1000 * k + n)
        for _ in range(2):
            nfa = _gappy_nfa(rng, n, k)
            assert _above(compute_similarity(nfa)) == similarity_reference(nfa)

    def test_removals_propagating_backwards_over_rounds(self, monkeypatch):
        rounds = []
        refine = simulation._refine
        monkeypatch.setattr(
            simulation, "_refine", lambda *args: rounds.append(1) or refine(*args)
        )
        nfa = _chain_nfa(6)
        p = compute_similarity(nfa)
        assert _above(p) == similarity_reference(nfa)
        assert not any(leq(p, i, 7 + i) for i in range(7))
        assert len(rounds) >= 3  # six rounds drop pairs, the seventh none

    @pytest.mark.parametrize(
        "params",
        [GenParams(150, 2.0, 1), GenParams(600, 2.0, 2), GenParams(1000, 8.0, 3)],
        ids=["n150-d2", "n600-d2", "n1000-d8"],
    )
    def test_matches_fixpoint_reference_on_generated(self, params):
        # sizes far beyond the pairwise reference; the reversed simulation
        # quotient is the input similarity gets in the brz-s pipelines
        nfa = generate(params)
        q, _ = simulation_quotient(nfa, compute_similarity(nfa))
        for work in (nfa, reverse(q)):
            rel = compute_similarity(work).rel
            assert np.array_equal(rel, similarity_fixpoint_reference(work))

    @pytest.mark.parametrize(
        "edges, final",
        [
            # symbol 1 has no edges
            ([(0, 0, 1), (1, 0, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2)], [1]),
            # no final states
            ([(0, 0, 1), (1, 1, 2), (2, 2, 0), (0, 1, 1)], []),
            # every state final
            ([(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 1)], [0, 1, 2]),
        ],
        ids=["symbol-without-edges", "no-final", "all-final"],
    )
    def test_matches_reference_on_edge_cases(self, edges, final):
        nfa = Nfa(3, 3, edges, initial=[0], final=final)
        assert _above(compute_similarity(nfa)) == similarity_reference(nfa)

    def test_reflexive(self, ends_in_a):
        p = compute_similarity(ends_in_a)
        for x in range(ends_in_a.num_states):
            assert leq(p, x, x)

    def test_extra_edge_dominates(self):
        p = compute_similarity(_strict_pair_nfa())
        assert leq(p, 0, 1)
        assert not leq(p, 1, 0)

    def test_final_not_below_nonfinal(self):
        nfa = Nfa(2, 1, [(0, 0, 0), (1, 0, 1)], initial=[0], final=[0])
        p = compute_similarity(nfa)
        assert not leq(p, 0, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_implies_language_inclusion(self, seed):
        rng = random.Random(seed)
        nfa = random_nfa(rng, rng.randint(2, 8), 2)
        p = compute_similarity(nfa)
        depth = 2 * nfa.num_states
        langs = [_lang_from(nfa, 1 << x, depth) for x in range(nfa.num_states)]
        for x in range(nfa.num_states):
            for y in range(nfa.num_states):
                if leq(p, x, y):
                    assert langs[x] <= langs[y]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nfa=_nfas())
    def test_similarity_and_quotient_preorders_are_preorders(self, nfa):
        # CCLS's registry relies on it: prune must keep a dominator of every
        # member it drops.  The reversed quotient is what brz-s prunes by.
        for work in (nfa, reverse(nfa)):
            p = compute_similarity(work)
            _assert_preorder(p.rel)
            q, induced = simulation_quotient(work, p)
            _assert_preorder(induced.rel)
            _assert_preorder(compute_similarity(reverse(q)).rel)

    @pytest.mark.parametrize("seed", range(8))
    def test_transitive(self, seed):
        rng = random.Random(50 + seed)
        nfa = random_nfa(rng, 6, 2)
        p = compute_similarity(nfa)
        n = nfa.num_states
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if leq(p, x, y) and leq(p, y, z):
                        assert leq(p, x, z)


def _assert_preorder(rel):
    """``rel`` is reflexive, and x <= y <= z implies x <= z."""
    assert rel.diagonal().all()
    m = rel.astype(np.int64)
    assert not (m @ m > 0)[~rel].any()


def _check_masks(p):
    """``lowered`` and ``pruners`` hold exactly the states with non-trivial rows."""
    n = len(p.below)
    assert p.lowered == to_mask(y for y in range(n) if p.below[y] & ~(1 << y))
    assert p.pruners == to_mask(y for y in range(n) if p.pruned_by[y])


def _random_preorder(rng, n):
    """Reflexive-transitive closure of about n random pairs."""
    rel = np.eye(n, dtype=bool)
    for _ in range(n):
        rel[rng.randrange(n), rng.randrange(n)] = True
    for k in range(n):
        rel |= rel[:, [k]] & rel[k]
    return Preorder(rel)


def _check_against_references(p, rng, draws=40):
    """Masked ``prune``/``saturate`` equal the loops over every member."""
    _check_masks(p)
    n = len(p.below)
    masks = [0, (1 << n) - 1] + [1 << s for s in range(min(n, 64))]
    for density in (0.02, 0.2, 0.6):
        masks += [
            to_mask(s for s in range(n) if rng.random() < density) for _ in range(draws)
        ]
    for mask in masks:
        assert prune(mask, p) == prune_reference(mask, p), mask
        assert saturate(mask, p) == saturate_reference(mask, p), mask


class TestPreorder:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65])
    def test_rows_match_reference_with_ties(self, n):
        # any relation, not only preorders; mutual pairs exercise the id
        # tie-break of pruned_by
        rng = np.random.default_rng(n)
        for density in (0.1, 0.5, 0.9):
            rel = rng.random((n, n)) < density
            rel |= rel.T & (rng.random((n, n)) < 0.5)
            p = Preorder(rel)
            assert (p.below, p.pruned_by) == preorder_rows_reference(_above(p))
            assert all(leq(p, x, y) == rel[x, y] for x in range(n) for y in range(n))
            _check_masks(p)
        p = identity_preorder(n)
        assert p.below == [1 << x for x in range(n)]
        assert p.pruned_by == [0] * n
        assert p.lowered == p.pruners == 0


class TestPruneSaturate:
    def test_prune_strictly_dominated(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        assert prune(to_mask([0, 1]), p) == to_mask([1])

    def test_prune_incomparable_unchanged(self):
        nfa = _strict_pair_nfa()
        p = compute_similarity(nfa)
        # 2 and 3 accept different languages and are incomparable
        assert not leq(p, 2, 3) and not leq(p, 3, 2)
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
        p = identity_preorder(4)
        mask = to_mask([1, 3])
        assert saturate(mask, p) == mask
        assert prune(mask, p) == mask

    def test_prune_matches_definition_with_ties(self):
        # x survives iff no other member y has x <= y, unless y <= x too and
        # x is the smaller id
        rng = random.Random(61)
        ties = 0
        for _ in range(300):
            p = _random_preorder(rng, rng.randint(1, 12))
            n = len(p.below)
            ties += sum(leq(p, x, y) and leq(p, y, x) for x in range(n) for y in range(x))
            for _ in range(50):
                q = [x for x in range(n) if rng.random() < 0.5]
                expected = [
                    x
                    for x in q
                    if not any(
                        y != x and leq(p, x, y) and (not leq(p, y, x) or y < x)
                        for y in q
                    )
                ]
                assert prune(to_mask(q), p) == to_mask(expected)
        assert ties > 0

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 130])
    def test_masked_loops_match_references_on_random_preorders(self, n):
        rng = random.Random(7000 + n)
        for _ in range(5):
            _check_against_references(_random_preorder(rng, n), rng)

    @pytest.mark.parametrize("n", [1, 9, 65])
    def test_masked_loops_match_references_on_identity(self, n):
        _check_against_references(identity_preorder(n), random.Random(n))

    @pytest.mark.parametrize(
        "params",
        [GenParams(150, 2.0, 1), GenParams(600, 2.0, 2), GenParams(100, 4.0, 3)],
        ids=["n150-d2", "n600-d2", "n100-d4"],
    )
    def test_masked_loops_match_references_on_generated(self, params):
        # the preorders the -s pipelines use: the quotient's induced one,
        # and the similarity of the reversed quotient (brz-s); untrimmed,
        # dead states make nearly every row non-trivial, trimmed only a few
        rng = random.Random(params.seed)
        for nfa in (generate(params), trim(generate(params))):
            q, induced = simulation_quotient(nfa, compute_similarity(nfa))
            for p in (compute_similarity(nfa), induced, compute_similarity(reverse(q))):
                _check_against_references(p, rng, draws=15)

    def test_masked_loops_match_references_on_tv(self):
        rng = random.Random(17)
        for _ in range(10):
            nfa = tv_nfa(rng, 32, 1.25, 0.5)
            q, induced = simulation_quotient(nfa, compute_similarity(nfa))
            for p in (induced, compute_similarity(reverse(q))):
                _check_against_references(p, rng, draws=10)

    @pytest.mark.parametrize("seed", range(15))
    def test_normalization_properties(self, seed):
        rng = random.Random(100 + seed)
        nfa = random_nfa(rng, rng.randint(2, 7), 2)
        # quotient by simulation equivalence first so no two distinct states
        # are mutually similar; prune(saturate(q)) = prune(q) needs that
        nfa, _ = simulation_quotient(nfa, compute_similarity(nfa))
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
        q, _ = simulation_quotient(ends_in_a, p)
        assert q.num_states == ends_in_a.num_states

    def test_bisimilar_states_merged(self):
        nfa = Nfa(
            5,
            1,
            [(0, 0, 1), (0, 0, 3), (1, 0, 2), (3, 0, 4)],
            initial=[0],
            final=[2, 4],
        )
        q, _ = simulation_quotient(nfa, compute_similarity(nfa))
        assert q.num_states == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_modular_generator_yields_identity(self, seed):
        # modular-structure instances show no similarity once dead states are trimmed
        nfa = trim(generate(GenParams(n=30, density=8.0, seed=seed)))
        p = compute_similarity(nfa)
        q, _ = simulation_quotient(nfa, p)
        assert q.num_states == nfa.num_states

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        rng = random.Random(200 + seed)
        nfa = random_nfa(rng, rng.randint(2, 10), 2)
        q, _ = simulation_quotient(nfa, compute_similarity(nfa))
        assert enumerate_language(q, 10) == enumerate_language(nfa, 10)


    def test_returned_preorder_is_quotient_similarity(self):
        # the induced preorder on the classes is the quotient's largest
        # simulation, so the quotient's similarity need not be recomputed
        rng = random.Random(300)
        merged = 0
        for _ in range(200):
            nfa = random_nfa(rng, rng.randint(2, 12), rng.randint(1, 3))
            q, induced = simulation_quotient(nfa, compute_similarity(nfa))
            assert np.array_equal(induced.rel, compute_similarity(q).rel)
            merged += q.num_states < nfa.num_states
        assert merged >= 20  # the check covers real merges
