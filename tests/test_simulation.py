"""Tests for the similarity preorder and metastate normalization."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfacanon import simulation
from nfacanon.automata import Nfa, reverse, to_mask, trim
from nfacanon.generator import GenParams, generate
from nfacanon.partition import bisimulation_quotient
from nfacanon.simulation import (
    Preorder,
    compute_similarity,
    prune,
    saturate,
    simulation_quotient,
)

from oracle import (
    auto_nfa,
    auto_tracks,
    blowup_nfa,
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


def _above(rel):
    """Rows of the relation ``rel`` as bitmasks: bit y of row x iff x <= y."""
    return [to_mask(np.flatnonzero(row).tolist()) for row in rel]


def _lang_from(nfa, mask, depth):
    rooted = Nfa(
        nfa.num_states,
        nfa.alphabet_size,
        nfa.edges(),
        initial=members(mask),
        final=members(nfa.final_mask),
    )
    return enumerate_language(rooted, depth)


def _order(nfa):
    """The ``Preorder`` of ``nfa``'s simulation quotient, which merges none
    of its states here, so they keep their ids."""
    q, p = simulation_quotient(nfa, compute_similarity(nfa))
    assert q.num_states == nfa.num_states
    return p


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
        rel = compute_similarity(nfa)
        assert _above(rel) == similarity_reference(nfa)
        assert not any(rel[i, 7 + i] for i in range(7))
        assert len(rounds) >= 3  # six rounds drop pairs, the seventh none

    def test_check_runs_before_every_round(self, monkeypatch):
        # the engine hands in its deadline check: each round starts after
        # one more call of it, so a check that raises stops the fixpoint
        rounds, checks = [], []
        refine = simulation._refine
        monkeypatch.setattr(
            simulation, "_refine", lambda *args: rounds.append(len(checks)) or refine(*args)
        )
        nfa = _chain_nfa(6)
        rel = compute_similarity(nfa, check=lambda: checks.append(1))
        assert _above(rel) == similarity_reference(nfa)
        assert rounds == list(range(1, len(rounds) + 1)) and len(rounds) >= 3

        class Expired(Exception):
            pass

        def expired():
            raise Expired

        rounds.clear()
        with pytest.raises(Expired):
            compute_similarity(nfa, check=expired)
        assert rounds == []

    @pytest.mark.parametrize(
        "params",
        [GenParams(150, 2.0, 1), GenParams(600, 2.0, 2), GenParams(1000, 8.0, 3)],
        ids=["n150-d2", "n600-d2", "n1000-d8"],
    )
    def test_matches_fixpoint_reference_on_generated(self, params):
        # sizes far beyond the pairwise reference, on the inputs similarity
        # gets in the -s pipelines: the bisimulation quotient of the trimmed
        # input, and its reverse for brz-s and brz-otf-s
        quotient = bisimulation_quotient(trim(generate(params)))
        for work in (quotient, reverse(quotient)):
            rel = compute_similarity(work)
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
        p = _order(ends_in_a)
        for x in range(ends_in_a.num_states):
            assert leq(p, x, x)

    def test_extra_edge_dominates(self):
        p = _order(_strict_pair_nfa())
        assert leq(p, 0, 1)
        assert not leq(p, 1, 0)

    def test_final_not_below_nonfinal(self):
        nfa = Nfa(2, 1, [(0, 0, 0), (1, 0, 1)], initial=[0], final=[0])
        p = _order(nfa)
        assert not leq(p, 0, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_implies_language_inclusion(self, seed):
        rng = random.Random(seed)
        nfa = random_nfa(rng, rng.randint(2, 8), 2)
        nfa, p = simulation_quotient(nfa, compute_similarity(nfa))
        depth = 2 * nfa.num_states
        langs = [_lang_from(nfa, 1 << x, depth) for x in range(nfa.num_states)]
        for x in range(nfa.num_states):
            for y in range(nfa.num_states):
                if leq(p, x, y):
                    assert langs[x] <= langs[y]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nfa=_nfas())
    def test_similarity_and_quotient_preorders_are_preorders(self, nfa):
        # the similarity is a preorder, whose ties the quotient merges: the
        # -s pipelines prune by the partial order left on the classes (see
        # test_quotient_orders_are_strict_partial_orders)
        for work in (nfa, reverse(nfa)):
            _assert_preorder(compute_similarity(work))

    @pytest.mark.parametrize("seed", range(8))
    def test_transitive(self, seed):
        rng = random.Random(50 + seed)
        nfa = random_nfa(rng, 6, 2)
        q, p = simulation_quotient(nfa, compute_similarity(nfa))
        n = q.num_states
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


def _assert_strict_order(p):
    """``p``'s rows are irreflexive, antisymmetric and transitive, and
    ``pruners`` holds exactly the states whose row is not empty."""
    n = len(p.below)
    for y, row in enumerate(p.below):
        assert not row >> y & 1
        for x in members(row):
            assert not p.below[x] >> y & 1
            assert p.below[x] | row == row  # z < x < y implies z < y
    assert p.pruners == to_mask(y for y in range(n) if p.below[y])


def _random_order(rng, n):
    """Reflexive-transitive closure of about n random edges x < y, where x
    ranks below y, as a boolean matrix.

    The ranks are a random permutation, so the order does not follow the
    state ids.
    """
    rank = rng.sample(range(n), n)
    rel = np.eye(n, dtype=bool)
    for _ in range(n):
        x, y = rng.randrange(n), rng.randrange(n)
        rel[x, y] |= rank[x] < rank[y]
    for k in range(n):
        rel |= rel[:, [k]] & rel[k]
    return rel


def _check_against_references(p, rng, draws=40):
    """Masked ``prune``/``saturate`` equal the loops over every member."""
    _assert_strict_order(p)
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
    def test_rows_match_reference(self, n):
        rng = random.Random(n)
        for _ in range(3):
            rel = _random_order(rng, n)
            p = Preorder(rel)
            assert p.below == preorder_rows_reference(_above(rel))
            assert all(leq(p, x, y) == rel[x, y] for x in range(n) for y in range(n))
            _assert_strict_order(p)
        p = identity_preorder(n)
        assert p.below == [0] * n
        assert p.pruners == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nfa=_nfas())
    def test_quotient_orders_are_strict_partial_orders(self, nfa):
        # every automaton an -s pipeline quotients: a bisimulation quotient
        # or its reverse; the raw input and its reverse too
        quotient = bisimulation_quotient(nfa)
        for work in (nfa, reverse(nfa), quotient, reverse(quotient)):
            _, p = simulation_quotient(work, compute_similarity(work))
            _assert_strict_order(p)


class TestPruneSaturate:
    def test_prune_strictly_dominated(self):
        p = _order(_strict_pair_nfa())
        assert prune(to_mask([0, 1]), p) == to_mask([1])

    def test_prune_incomparable_unchanged(self):
        p = _order(_strict_pair_nfa())
        # 2 and 3 accept different languages and are incomparable
        assert not leq(p, 2, 3) and not leq(p, 3, 2)
        assert prune(to_mask([2, 3]), p) == to_mask([2, 3])

    def test_prune_mixed(self):
        p = _order(_strict_pair_nfa())
        assert prune(to_mask([0, 1, 2]), p) == to_mask([1, 2])

    def test_saturate_adds_dominated(self):
        p = _order(_strict_pair_nfa())
        assert saturate(to_mask([1]), p) & to_mask([0, 1]) == to_mask([0, 1])

    def test_saturate_identity_preorder_unchanged(self):
        p = identity_preorder(4)
        mask = to_mask([1, 3])
        assert saturate(mask, p) == mask
        assert prune(mask, p) == mask

    def test_prune_matches_definition(self):
        # x survives iff no other member y has x < y
        rng = random.Random(61)
        for _ in range(300):
            p = Preorder(_random_order(rng, rng.randint(1, 12)))
            n = len(p.below)
            for _ in range(50):
                q = [x for x in range(n) if rng.random() < 0.5]
                expected = [x for x in q if not any(y != x and leq(p, x, y) for y in q)]
                assert prune(to_mask(q), p) == to_mask(expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 130])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_masked_loops_match_references_on_random_orders(self, n, seed):
        rng = random.Random(seed)
        _check_against_references(Preorder(_random_order(rng, n)), rng, draws=10)

    @pytest.mark.parametrize("n", [1, 9, 65])
    def test_masked_loops_match_references_on_identity(self, n):
        _check_against_references(identity_preorder(n), random.Random(n))

    @pytest.mark.parametrize(
        "params",
        [GenParams(150, 2.0, 1), GenParams(600, 2.0, 2), GenParams(100, 4.0, 3)],
        ids=["n150-d2", "n600-d2", "n100-d4"],
    )
    def test_masked_loops_match_references_on_generated(self, params):
        # the orders the -s pipelines use: of the simulation quotient of the
        # input and, for brz-s, of its reverse; untrimmed, dead states make
        # nearly every row non-trivial, trimmed only a few
        rng = random.Random(params.seed)
        for nfa in (generate(params), trim(generate(params))):
            for work in (nfa, reverse(nfa)):
                _, p = simulation_quotient(work, compute_similarity(work))
                _check_against_references(p, rng, draws=15)

    def test_masked_loops_match_references_on_tv(self):
        rng = random.Random(17)
        for _ in range(10):
            nfa = tv_nfa(rng, 32, 1.25, 0.5)
            for work in (nfa, reverse(nfa)):
                _, p = simulation_quotient(work, compute_similarity(work))
                _check_against_references(p, rng, draws=10)

    @pytest.mark.parametrize("seed", range(15))
    def test_normalization_properties(self, seed):
        rng = random.Random(100 + seed)
        nfa = random_nfa(rng, rng.randint(2, 7), 2)
        # the quotient's order has no two distinct states mutually similar;
        # prune(saturate(q)) = prune(q) needs that
        nfa, p = simulation_quotient(nfa, compute_similarity(nfa))
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
        rel = compute_similarity(ends_in_a)
        q, _ = simulation_quotient(ends_in_a, rel)
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
        rel = compute_similarity(nfa)
        q, _ = simulation_quotient(nfa, rel)
        assert q.num_states == nfa.num_states

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        rng = random.Random(200 + seed)
        nfa = random_nfa(rng, rng.randint(2, 10), 2)
        q, _ = simulation_quotient(nfa, compute_similarity(nfa))
        assert enumerate_language(q, 10) == enumerate_language(nfa, 10)

    def test_returned_preorder_is_quotient_similarity(self):
        # the induced order on the classes is the quotient's largest
        # simulation, so the quotient's similarity need not be recomputed
        rng = random.Random(300)
        merged = 0
        for _ in range(200):
            nfa = random_nfa(rng, rng.randint(2, 12), rng.randint(1, 3))
            q, p = simulation_quotient(nfa, compute_similarity(nfa))
            assert p.below == preorder_rows_reference(_above(compute_similarity(q)))
            merged += q.num_states < nfa.num_states
        assert merged >= 20  # the check covers real merges


class TestSimilarityAfterBisimulation:
    """The ``-s`` pipelines take the simulation quotient of the bisimulation
    quotient of the trimmed input.  Bisimilar states are mutually similar,
    so it is the simulation quotient of the trimmed input itself: the same
    ``Nfa``, state numbering included, and the same induced order."""

    @staticmethod
    def _check(nfa) -> bool:
        """Assert the property for ``nfa``; whether bisimulation merged any state."""
        work = trim(nfa)
        direct, direct_p = simulation_quotient(work, compute_similarity(work))
        bisim = bisimulation_quotient(work)
        chained, chained_p = simulation_quotient(bisim, compute_similarity(bisim))
        assert chained == direct
        assert (chained_p.below, chained_p.pruners) == (direct_p.below, direct_p.pruners)
        return bisim.num_states < work.num_states

    def test_random(self):
        rng = random.Random(88)
        merged = sum(
            self._check(random_nfa(rng, rng.randint(2, 14), rng.randint(1, 3), 0.15))
            for _ in range(200)
        )
        assert merged >= 10  # the check covers real bisimulation merges

    def test_tv(self):
        rng = random.Random(89)
        nfas = [tv_nfa(rng, n, r, 0.5) for n in (8, 16, 32, 64) for r in (1.0, 1.25, 2.0)]
        assert sum(map(self._check, nfas)) > 0

    def test_auto(self):
        nfas = [auto_nfa(auto_tracks(random.Random(s), m)) for m in (4, 5, 6, 8) for s in range(6)]
        assert sum(map(self._check, nfas)) >= 5

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_blowup(self, n):
        self._check(blowup_nfa(n))
