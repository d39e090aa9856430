"""Tests for seeded DFA minimization and bisimulation quotienting."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfacanon.automata import UNDEFINED, Dfa, Nfa
from nfacanon import partition
from nfacanon.partition import _renumber, bisimulation_quotient, minimize

from oracle import (
    bisimulation_reference,
    completed,
    dfa_to_nfa,
    enumerate_language,
    language_equivalent,
    minimize_reference,
    random_nfa,
    table_filling_minimize,
    textbook_subset_construction,
    tv_nfa,
)


class TestMinimize:
    def test_forced_merge_of_identical_accepting_states(self):
        # two accepting states with identical successors collapse into one
        d = Dfa(3, 1, 0, final={1, 2})
        d.set_transition(0, 0, 1)
        d.set_transition(1, 0, 2)
        d.set_transition(2, 0, 2)
        out, merges = minimize(d, [])
        assert out.num_states == 2
        assert merges == [(1, 2)]

    def test_unexplored_state_blocks_merge(self):
        # structurally identical states stay apart while one is unexplored
        d = Dfa(3, 1, 0, final=set())
        d.set_transition(0, 0, 1)
        d.set_transition(1, 0, 2)
        d.set_transition(2, 0, 2)
        out, merges = minimize(d, [2])
        assert out.num_states == 3
        assert merges == []

    def test_redundant_ends_in_a_dfa(self, ends_in_a_dfa_redundant, ends_in_a_dfa_min):
        out, merges = minimize(ends_in_a_dfa_redundant, [])
        assert out.num_states == 2
        assert len(merges) == 1
        assert language_equivalent(completed(out), ends_in_a_dfa_min)

    def test_partial_dfa_separated_from_total_state(self):
        # with an implicit sink, a state missing an edge differs from a looping one
        d = Dfa(2, 1, 0, final=set())
        d.set_transition(0, 0, 0)
        out, merges = minimize(d, [])
        assert out.num_states == 2
        assert merges == []

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        d, _ = textbook_subset_construction(random_nfa(rng, rng.randint(2, 6), 2))
        out, _ = minimize(d, [])
        oracle = table_filling_minimize(completed(d))
        assert completed(out).num_states == oracle.num_states
        assert language_equivalent(completed(out), d)

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent(self, seed):
        rng = random.Random(100 + seed)
        d, _ = textbook_subset_construction(random_nfa(rng, rng.randint(2, 6), 2))
        once, _ = minimize(d, [])
        twice, merges = minimize(once, [])
        assert merges == []
        assert twice.num_states == once.num_states

    def test_returns_its_input_when_nothing_merges(self, ends_in_a_dfa_min):
        out, merges = minimize(ends_in_a_dfa_min, [])
        assert out is ends_in_a_dfa_min and merges == []

    def test_returns_a_fresh_quotient_after_a_merge(self, ends_in_a_dfa_redundant):
        rows = [row[:] for row in ends_in_a_dfa_redundant.trans]
        out, merges = minimize(ends_in_a_dfa_redundant, [])
        assert out is not ends_in_a_dfa_redundant and merges
        assert ends_in_a_dfa_redundant.trans == rows

    @pytest.mark.parametrize("seed", range(8))
    def test_unique_states_never_in_merge_list(self, seed):
        rng = random.Random(200 + seed)
        d, _ = textbook_subset_construction(random_nfa(rng, rng.randint(3, 6), 2))
        uniques = {s for s in range(d.num_states) if rng.random() < 0.4}
        _, merges = minimize(d, sorted(uniques))
        for surv, gone in merges:
            assert surv not in uniques
            assert gone not in uniques


class TestBisimulationQuotient:
    def test_dfa_input_matches_minimization_size(self, ends_in_a_dfa_redundant):
        q = bisimulation_quotient(dfa_to_nfa(ends_in_a_dfa_redundant))
        out, _ = minimize(ends_in_a_dfa_redundant, [])
        assert q.num_states == out.num_states

    def test_parallel_branches_merged(self):
        # two identical a->b->accept branches out of the root collapse to one
        nfa = Nfa(
            5,
            1,
            [(0, 0, 1), (0, 0, 3), (1, 0, 2), (3, 0, 4)],
            initial=[0],
            final=[2, 4],
        )
        q = bisimulation_quotient(nfa)
        assert q.num_states == 3
        assert enumerate_language(q, 6) == enumerate_language(nfa, 6)

    def test_no_equivalent_states_unchanged(self, ends_in_a):
        q = bisimulation_quotient(ends_in_a)
        assert q.num_states == ends_in_a.num_states

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        rng = random.Random(300 + seed)
        nfa = random_nfa(rng, rng.randint(2, 10), 2)
        q = bisimulation_quotient(nfa)
        assert q.num_states <= nfa.num_states
        assert enumerate_language(q, 12) == enumerate_language(nfa, 12)


@pytest.mark.parametrize("seed", range(10))
def test_minimized_complete_language_equivalent(seed):
    rng = random.Random(400 + seed)
    d, _ = textbook_subset_construction(random_nfa(rng, rng.randint(2, 6), 2))
    out, _ = minimize(d, [])
    assert language_equivalent(completed(out), completed(d))


@st.composite
def _seeded_dfas(draw, max_symbols=3):
    """A random partial DFA and some of its states, listed as unexplored."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, max_symbols))
    # few distinct targets make equivalent states, and so merges, likely
    targets = draw(st.integers(1, n))
    undefined = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rows = [
        [UNDEFINED if rng.random() < undefined else rng.randrange(targets) for _ in range(k)]
        for _ in range(n)
    ]
    dfa = Dfa(n, k, rng.randrange(n), {s for s in range(n) if rng.random() < 0.5}, rows)
    unique = draw(st.sampled_from([0.0, 0.25]))
    return dfa, [s for s in range(n) if rng.random() < unique]


@st.composite
def _nfas(draw, max_symbols=3):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, k = draw(st.integers(1, 12)), draw(st.integers(1, max_symbols))
        return random_nfa(rng, n, k, draw(st.sampled_from([0.05, 0.15, 0.3])))
    r, f = draw(st.sampled_from([1.0, 1.25, 2.0])), draw(st.sampled_from([0.25, 0.5]))
    return tv_nfa(rng, draw(st.integers(2, 16)), r, f)


# (states, rows, final) of small DFAs; -1 is UNDEFINED
_FIXED_DFAS = {
    "single-state": (1, [[0, 0]], {0}),
    "symbol-without-edges": (4, [[1, -1], [3, -1], [3, -1], [3, -1]], {3}),
    "no-final": (3, [[1, 2], [2, 0], [2, 2]], set()),
    "all-final": (3, [[1, 2], [2, 0], [2, 2]], {0, 1, 2}),
}
# (states, edges, final) of small NFAs over 2 symbols, initial state 0
_FIXED_NFAS = {
    "single-state": (1, [(0, 0, 0)], [0]),
    "symbol-without-edges": (4, [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)], [3]),
    "no-final": (3, [(0, 0, 1), (0, 1, 2), (1, 0, 1), (2, 0, 2)], []),
    "all-final": (3, [(0, 0, 1), (0, 1, 2), (1, 0, 1), (2, 0, 2)], [0, 1, 2]),
}


def _column_widths(monkeypatch) -> list[int]:
    """The number of columns of each round of ``minimize`` from now on."""
    widths = []
    refine = partition._refine

    def spy(labels, columns):
        def counted(lab, m):
            cols, m = columns(lab, m)
            widths.append(cols.shape[1])
            return cols, m

        return refine(labels, counted)

    monkeypatch.setattr(partition, "_refine", spy)
    return widths


def _distinct_dfa(n: int, k: int) -> Dfa:
    """n pairwise distinct states over k symbols, so refinement reaches n blocks."""
    rng = random.Random(n * k)
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    for s in range(n - 1):
        rows[s][0] = s + 1
    # state s reaches the only final state by n-1-s letters 0, and no sooner
    return Dfa(n, k, 0, {n - 1}, rows)


class TestMatchesReference:
    @staticmethod
    def _check_minimize(dfa, unexplored):
        out, merges = minimize(dfa, unexplored)
        # the reference takes one tag per state: 0/1 for rejecting/accepting,
        # a tag of its own for each unexplored state
        sig = [int(s in dfa.final) for s in range(dfa.num_states)]
        for s in unexplored:
            sig[s] = 2 + s
        ref, ref_merges = minimize_reference(dfa, sig)
        assert (out.trans, out.final, out.initial) == (ref.trans, ref.final, ref.initial)
        # unify order follows the merge order, so it must match too
        assert merges == ref_merges

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_seeded_dfas())
    def test_minimize(self, case):
        self._check_minimize(*case)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nfa=_nfas())
    def test_bisimulation_quotient(self, nfa):
        assert bisimulation_quotient(nfa) == bisimulation_reference(nfa)

    @pytest.mark.parametrize("name", sorted(_FIXED_DFAS))
    def test_minimize_edge_cases(self, name):
        n, rows, final = _FIXED_DFAS[name]
        dfa = Dfa(n, 2, 0, final, [row[:] for row in rows])
        self._check_minimize(dfa, [])

    def test_minimize_on_both_sides_of_the_two_letter_rule(self, monkeypatch):
        # 600 states on 2 symbols: the 6 columns of a round fit one code
        # while the blocks are few; from about 450 blocks a round takes the
        # 2 one-letter columns alone
        widths = _column_widths(monkeypatch)
        self._check_minimize(_distinct_dfa(600, 2), [])
        assert widths[0] == 6 and set(widths) == {2, 6}

    @pytest.mark.parametrize("k", [3, 4])
    def test_minimize_takes_one_letter_rounds_from_three_symbols(self, monkeypatch, k):
        widths = _column_widths(monkeypatch)
        self._check_minimize(_distinct_dfa(60, k), [])
        assert set(widths) == {k}

    @pytest.mark.parametrize("name", sorted(_FIXED_NFAS))
    def test_bisimulation_edge_cases(self, name):
        n, edges, final = _FIXED_NFAS[name]
        nfa = Nfa(n, 2, edges, [0], final)
        assert bisimulation_quotient(nfa) == bisimulation_reference(nfa)


# far below any real code: a round takes two or three columns per chunk
_SMALL_LIMIT = 1 << 12


class TestChunkedRounds:
    """Rounds whose columns do not fit one code, so they refine chunk by chunk.

    The real bound lets a round of a small input take all its columns at
    once, so these tests lower it.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_seeded_dfas(max_symbols=24))
    def test_minimize(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CODE_LIMIT", _SMALL_LIMIT)
            TestMatchesReference._check_minimize(*case)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nfa=_nfas(max_symbols=24))
    def test_bisimulation_quotient(self, nfa):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CODE_LIMIT", _SMALL_LIMIT)
            assert bisimulation_quotient(nfa) == bisimulation_reference(nfa)

    def test_rounds_renumber_between_chunks(self, monkeypatch):
        # 12 states cycling over 24 symbols: one renumber per round at the
        # real bound, several per round at the small one
        rows = [[(s + a) % 12 for a in range(24)] for s in range(12)]
        dfa = Dfa(12, 24, 0, {0, 5}, rows)
        renumbers = []

        def counting(code):
            renumbers.append(len(code))
            return _renumber(code)

        def run():
            out, merges = minimize(dfa, [])
            return out.trans, out.final, merges

        monkeypatch.setattr(partition, "_renumber", counting)
        expected = run()
        at_real_bound = len(renumbers)
        renumbers.clear()
        monkeypatch.setattr(partition, "_CODE_LIMIT", _SMALL_LIMIT)
        assert run() == expected
        assert len(renumbers) > 2 * at_real_bound


    def test_minimize_on_both_sides_of_the_two_letter_rule(self, monkeypatch):
        # 12 states on 2 symbols: the 6 columns of a round fit the small
        # bound only at 2 blocks
        widths = _column_widths(monkeypatch)
        monkeypatch.setattr(partition, "_CODE_LIMIT", _SMALL_LIMIT)
        TestMatchesReference._check_minimize(_distinct_dfa(12, 2), [])
        assert widths[0] == 6 and set(widths) == {2, 6}


class TestTwoLetterRounds:
    def test_chain_takes_half_the_rounds(self, monkeypatch):
        # two copies of a chain of n states on letter 0; letter 1 crosses
        # to the other copy.  Moore needs about n steps to tell the chain's
        # states apart, and then it merges each state with its copy
        n = 40
        rows = [[min(s % n + 1, n - 1) + s // n * n, (s + n) % (2 * n)] for s in range(2 * n)]
        dfa = Dfa(2 * n, 2, 0, {n - 1, 2 * n - 1}, rows)
        trans = np.array(rows)
        labels = _renumber(np.array([int(s in dfa.final) for s in range(2 * n)]))[0]
        one_letter = []
        partition._refine(labels, lambda lab, m: (one_letter.append(m), (lab[trans], m))[1])
        widths = _column_widths(monkeypatch)
        out, merges = minimize(dfa, [])
        assert len(one_letter) >= n - 1
        assert set(widths) == {6} and len(widths) <= len(one_letter) // 2 + 1
        ref, ref_merges = minimize_reference(dfa, [int(s in dfa.final) for s in range(2 * n)])
        assert merges == ref_merges == [(s, s + n) for s in range(n)]
        assert (out.trans, out.final) == (ref.trans, ref.final)


class TestRenumber:
    @pytest.mark.parametrize(
        "values",
        [[7], [-3], [5, 5, 5], [3, -1, 3, 0, -1, 7], [-(2**62), 2**62, 0, -(2**62)], list(range(9, -1, -1))],
        ids=["one", "one-negative", "all-equal", "repeats-and-negatives", "extremes", "descending"],
    )
    def test_dense_codes_in_value_order(self, values):
        self._check(values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_random(self, values):
        self._check(values)

    @staticmethod
    def _check(values):
        codes, count = _renumber(np.array(values, dtype=np.int64))
        assert count == len(set(values))
        assert sorted(set(codes.tolist())) == list(range(count))
        for i, x in enumerate(values):
            for j, y in enumerate(values):
                assert (codes[i] < codes[j]) == (x < y)
                assert (codes[i] == codes[j]) == (x == y)
