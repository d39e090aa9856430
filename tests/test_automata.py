import random

import numpy as np
import pytest

from nfacanon.automata import WIDE_MEMBERS, Dfa, Nfa, isomorphic, reverse, to_mask, trim
from nfacanon.partition import bisimulation_quotient
from nfacanon.simulation import compute_similarity, simulation_quotient
from oracle import (
    accepts,
    completed,
    dfa_accepts,
    dfa_to_nfa,
    edges_reference,
    enumerate_language,
    language_equivalent,
    members,
    random_nfa,
    succ_mask,
    successor_mask,
    successors,
    trim_reference,
)


def word(s: str):
    return tuple({"a": 0, "b": 1}[c] for c in s)


class TestSuccessors:
    def test_single_state_union(self, ends_in_a):
        assert successors(ends_in_a, {0}, 0) == {0, 1}

    def test_empty_metastate(self, ends_in_a):
        assert successors(ends_in_a, frozenset(), 0) == frozenset()

    def test_union_of_rows(self):
        nfa = Nfa(4, 1, [(0, 0, 1), (2, 0, 1), (2, 0, 3)], [0], [3])
        assert successors(nfa, {0, 2}, 0) == {1, 3}

    def test_symbol_out_of_range(self, ends_in_a):
        with pytest.raises(ValueError):
            successors(ends_in_a, {0}, 2)


class TestNfaSuccessors:
    @pytest.mark.parametrize("k", [1, 2, 24])
    def test_matches_successor_mask(self, k):
        rng = random.Random(k)
        # byte tables up to 64 states, the loop and the gather above
        for n in (1, 5, 30, 63, 64, 65, 70):
            nfa = random_nfa(rng, n, k, min(0.3, 3 / n))
            # one member copies its row; two OR in a single other row
            masks = [0] + [1 << s for s in range(n)]
            masks += [1 << s | 1 << t for s in range(min(n, 30)) for t in range(s)]
            masks += [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(30)]
            # either side of the gather's cutoff
            cutoff = (WIDE_MEMBERS, WIDE_MEMBERS + 1)
            masks += [to_mask(rng.sample(range(n), c)) for c in cutoff if c <= n]
            masks.append((1 << n) - 1)
            for mask in masks:
                expect = [successor_mask(nfa, mask, a) for a in range(k)]
                assert nfa.successors(mask) == expect, mask

    @pytest.mark.parametrize("n", [3, 70])
    def test_result_belongs_to_the_caller(self, n):
        # byte tables at 3 states; at 70, the loop, and the gather for the
        # full metastate
        nfa = random_nfa(random.Random(n), n, 2, 0.3)
        before = [succ_mask(nfa, s, a) for s in range(n) for a in range(2)]
        for mask in (to_mask([0]), to_mask([0, 1]), 0, (1 << n) - 1):
            expect = nfa.successors(mask)
            out = nfa.successors(mask)
            out[0] = out[1] = 0b111
            out.append(5)
            assert nfa.successors(mask) == expect
        assert [succ_mask(nfa, s, a) for s in range(n) for a in range(2)] == before


class TestEdges:
    def test_order_is_symbol_then_source_then_target(self):
        given = [(2, 0, 1), (0, 1, 2), (0, 0, 2), (1, 1, 1), (0, 0, 1), (1, 0, 0)]
        nfa = Nfa(3, 3, given, [0], [2])
        assert list(nfa.edges()) == [
            (0, 0, 1),
            (0, 0, 2),
            (1, 0, 0),
            (2, 0, 1),
            (0, 1, 2),
            (1, 1, 1),
        ]



def _raw_transitions(rng, n: int, k: int, edge_prob: float) -> list[tuple[int, int, int]]:
    """Random transitions, shuffled and with some repeated."""
    edges = [
        (s, a, t)
        for s in range(n)
        for a in range(k)
        for t in range(n)
        if rng.random() < edge_prob
    ]
    edges += rng.sample(edges, len(edges) // 3)
    rng.shuffle(edges)
    return edges


def _varied_nfas(seed: int):
    """NFAs from shuffled transitions with repeats, and the edge cases.

    Among them: no transitions at all, an empty language (no final state,
    or none reachable), states without edges, and symbols no edge uses.
    """
    rng = random.Random(seed)
    for _ in range(40):
        n, k = rng.randint(1, 12), rng.randint(1, 4)
        raw = _raw_transitions(rng, n, k, rng.choice([0.05, 0.2, 0.5]))
        initial = rng.sample(range(n), rng.randint(0, min(n, 2)))
        final = rng.sample(range(n), rng.randint(0, n))
        yield Nfa(n, k, raw, initial, final)
    yield Nfa(5, 3, [], [0], [4])
    yield Nfa(4, 2, [(0, 0, 1), (1, 1, 0)], [0], [])
    yield Nfa(4, 2, [(0, 0, 1), (2, 1, 3)], [0], [3])  # final not reachable
    # symbol 2 and states 3, 4 have no edge
    yield Nfa(5, 3, [(1, 0, 0), (0, 1, 2), (0, 0, 1), (1, 0, 0)], [0], [2])


class TestEdgeArrays:
    def test_edges_match_the_mask_walk(self):
        for nfa in _varied_nfas(1):
            assert list(nfa.edges()) == edges_reference(nfa)
            assert nfa.num_transitions() == len(edges_reference(nfa))

    def test_edges_are_python_ints(self):
        nfa = Nfa(3, 2, np.array([[0, 1, 2], [2, 0, 0]]), [0], [2])
        assert all(type(x) is int for edge in nfa.edges() for x in edge)

    def test_trim_matches_reference(self):
        for nfa in _varied_nfas(3):
            assert trim(nfa) == trim_reference(nfa)

    def test_trim_matches_reference_on_uneven_depths(self):
        # one search over two copies of the states: the forward and the
        # backward search reach their ends after different numbers of rounds
        n = 20
        chain = [(s, 0, s + 1) for s in range(n - 1)]
        cases = [
            Nfa(n, 2, chain, [0], [n - 1]),  # both searches n - 1 deep
            Nfa(n, 2, chain, [0], [3, n - 1]),
            Nfa(n, 2, chain, [n - 4], [n - 1]),  # shallow forward search
            Nfa(n, 2, chain, [0], [2]),  # shallow backward search
            Nfa(n, 2, chain + [(5, 1, 19), (19, 1, 0)], [9], [4]),  # a cycle
            Nfa(n, 2, chain, [n - 1], [0]),  # nothing useful
            Nfa(n, 2, chain, [7], [7]),  # one state, no edge kept
        ]
        for nfa in cases:
            assert trim(nfa) == trim_reference(nfa)
            assert trim(reverse(nfa)) == trim_reference(reverse(nfa))

    def test_successor_masks_built_on_first_use(self):
        def has_masks(nfa):
            try:
                Nfa.__dict__["_succ"].__get__(nfa, Nfa)  # the slot, unset or not
            except AttributeError:
                return False
            return True

        for nfa in _varied_nfas(5):
            derived = [trim(nfa), reverse(nfa), bisimulation_quotient(nfa), nfa]
            assert not any(map(has_masks, derived))
            for d in derived:
                expect = [[0] * d.alphabet_size for _ in range(d.num_states)]
                for s, a, t in d.edges():
                    expect[s][a] |= 1 << t
                full = (1 << d.num_states) - 1
                assert d.successors(full) == [
                    successor_mask(d, full, a) for a in range(d.alphabet_size)
                ]
                assert has_masks(d) and d._succ == expect
        for nfa in _varied_nfas(6):
            # the other reader of the masks builds them too
            expect = [[0] * nfa.alphabet_size for _ in range(nfa.num_states)]
            for s, a, t in nfa.edges():
                expect[s][a] |= 1 << t
            assert [[succ_mask(nfa, s, a) for a in range(nfa.alphabet_size)]
                    for s in range(nfa.num_states)] == expect

    def test_reverse_is_an_involution(self):
        for nfa in _varied_nfas(4):
            rev = reverse(nfa)
            assert reverse(rev) == nfa
            flipped = sorted((a, t, s) for (s, a, t) in edges_reference(nfa))
            assert list(rev.edges()) == [(s, a, t) for (a, s, t) in flipped]

    def test_produced_automata_keep_edge_order(self):
        # each producer hands its arrays over unsorted and unchecked
        for nfa in _varied_nfas(5):
            sim_quotient, _ = simulation_quotient(nfa, compute_similarity(nfa))
            for out in (trim(nfa), reverse(nfa), bisimulation_quotient(nfa), sim_quotient):
                assert list(out.edges()) == edges_reference(out)
                assert out == Nfa(
                    out.num_states, out.alphabet_size, edges_reference(out),
                    out.initial, out.final,
                )


class TestInputForms:
    def test_every_form_builds_the_same_nfa(self):
        rng = random.Random(6)
        for _ in range(20):
            n, k = rng.randint(1, 10), rng.randint(1, 3)
            raw = _raw_transitions(rng, n, k, 0.3)
            forms = [
                raw,
                set(raw),
                (edge for edge in raw),
                np.array(raw, dtype=np.int64).reshape(-1, 3),
                np.array(raw, dtype=np.int32).reshape(-1, 3),
            ]
            built = [Nfa(n, k, form, [0], [n - 1]) for form in forms]
            assert all(nfa == built[0] for nfa in built)
            assert list(built[0].edges()) == sorted(set(raw), key=lambda e: (e[1], e[0], e[2]))

    def test_edge_arrays_are_read_only(self):
        given = np.array([[0, 0, 1], [1, 1, 0]])
        nfa = Nfa(2, 2, given, [0], [1])
        for column in nfa.edge_arrays():
            with pytest.raises(ValueError):
                column[0] = 1
        for out in (trim(nfa), reverse(nfa)):
            assert not any(c.flags.writeable for c in out.edge_arrays())
        # the caller's array is neither frozen nor changed
        given[0, 0] = 1
        assert list(nfa.edges()) == [(0, 0, 1), (1, 1, 0)]

    @pytest.mark.parametrize(
        "transitions, message",
        [
            ([(0, 0, 1), (0, 0, 5)], "transition (0,0,5) out of range"),
            ([(0, 0, 1), (-1, 0, 0)], "transition (-1,0,0) out of range"),
            ([(0, 0, 1), (0, 3, 1)], "symbol 3 out of range"),
            ([(0, -1, 1)], "symbol -1 out of range"),
            # the first bad transition in the given order names the error
            ([(0, 7, 0), (9, 0, 0)], "symbol 7 out of range"),
            ([(0, 0, 9), (0, 7, 0)], "transition (0,0,9) out of range"),
            ([(2, 9, 0)], "transition (2,9,0) out of range"),
        ],
    )
    def test_out_of_range_messages(self, transitions, message):
        for form in (transitions, np.array(transitions)):
            with pytest.raises(ValueError) as exc:
                Nfa(2, 2, form, [0], [1])
            assert str(exc.value) == message

    def test_state_out_of_range_message(self):
        with pytest.raises(ValueError, match="state 4 out of range"):
            Nfa(2, 2, [(0, 0, 1)], [0], [4])

    @pytest.mark.parametrize(
        "transitions",
        [[(0, 0)], [(0, 0, 1), (0, 1)], [(0, 0, 1, 1)], np.zeros((2, 2), dtype=int)],
    )
    def test_not_triples_rejected(self, transitions):
        with pytest.raises(ValueError, match="triples"):
            Nfa(2, 2, transitions, [0], [1])

    @pytest.mark.parametrize(
        "transitions",
        [[(0, 0, 1.5)], [(0, "1", 1)], np.array([[0.0, 0.0, 1.0]]), np.array([["0", "0", "1"]])],
    )
    def test_non_integers_rejected(self, transitions):
        with pytest.raises(TypeError, match="integers"):
            Nfa(2, 2, transitions, [0], [1])

    def test_numpy_integer_triples_accepted(self):
        given = [(np.int64(0), np.int32(1), np.uint8(1)), (1, 0, 0)]
        assert list(Nfa(2, 2, given, [0], [1]).edges()) == [(1, 0, 0), (0, 1, 1)]

    def test_empty_forms(self):
        for form in ([], (), set(), iter([]), np.zeros((0, 3), dtype=int), np.array([])):
            nfa = Nfa(2, 2, form, [0], [1])
            assert nfa.num_transitions() == 0
            assert list(nfa.edges()) == []
            assert nfa.successors(0b11) == [0, 0]

class TestAccepts:
    @pytest.mark.parametrize(
        "w,expected",
        [("", False), ("aba", True), ("ab", False), ("a", True), ("ba", True)],
    )
    def test_ends_in_a(self, ends_in_a, ends_in_a_dfa_min, w, expected):
        assert accepts(ends_in_a, word(w)) is expected
        assert dfa_accepts(ends_in_a_dfa_min, word(w)) is expected


class TestReverse:
    def test_self_loop_fixpoint(self):
        nfa = Nfa(1, 1, [(0, 0, 0)], [0], [0])
        assert reverse(nfa) == nfa

    def test_reversed_language(self, ends_in_a):
        rev = reverse(ends_in_a)
        expected = {tuple(reversed(w)) for w in enumerate_language(ends_in_a, 4)}
        assert enumerate_language(rev, 4) == expected

    def test_involution(self, ends_in_a):
        assert reverse(reverse(ends_in_a)) == ends_in_a


class TestTrim:
    def test_unreachable_state_removed(self):
        # state 2 has no incoming path from the initial state
        nfa = Nfa(3, 2, [(0, 0, 1), (1, 1, 1), (2, 0, 1)], [0], [1])
        trimmed = trim(nfa)
        assert trimmed.num_states == 2
        assert enumerate_language(trimmed, 6) == enumerate_language(nfa, 6)

    def test_idempotent(self, ends_in_a):
        assert trim(ends_in_a).num_states == ends_in_a.num_states

    def test_empty_final_set(self):
        nfa = Nfa(3, 2, [(0, 0, 1)], [0], [])
        trimmed = trim(nfa)
        assert trimmed.num_states == 1
        assert trimmed.final == frozenset()
        assert trimmed.num_transitions() == 0


class TestComplete:
    """The oracle's ``completed``, which the tests use to make a DFA total."""

    def test_total_unchanged(self, ends_in_a_dfa_min):
        assert completed(ends_in_a_dfa_min).num_states == 2

    def test_no_transitions(self):
        d = Dfa(1, 2, 0, final={0})
        c = completed(d)
        assert c.num_states == 2
        assert c.is_total()

    def test_one_missing_edge(self):
        d = Dfa(3, 2, 0, final={2})
        for s in range(3):
            d.set_transition(s, 0, (s + 1) % 3)
            if s != 1:
                d.set_transition(s, 1, s)
        c = completed(d)
        assert c.num_states == 4
        assert c.trans[1][1] == 3  # routed to the sink
        assert 3 not in c.final
        assert language_equivalent(c, d)


class TestLanguageEquivalent:
    def test_reflexive(self, ends_in_a_dfa_min):
        assert language_equivalent(ends_in_a_dfa_min, ends_in_a_dfa_min)

    def test_redundant_variant(self, ends_in_a_dfa_min, ends_in_a_dfa_redundant):
        assert language_equivalent(ends_in_a_dfa_min, ends_in_a_dfa_redundant)

    def test_ends_in_b_differs(self, ends_in_a_dfa_min):
        ends_in_b = Dfa(2, 2, 0, final={1})
        ends_in_b.set_transition(0, 1, 1)
        ends_in_b.set_transition(0, 0, 0)
        ends_in_b.set_transition(1, 1, 1)
        ends_in_b.set_transition(1, 0, 0)
        assert not language_equivalent(ends_in_a_dfa_min, ends_in_b)

    def test_alphabet_mismatch(self, ends_in_a_dfa_min):
        with pytest.raises(ValueError):
            language_equivalent(ends_in_a_dfa_min, Dfa(1, 3, 0))


class TestEnumerateLanguage:
    def test_empty_language(self):
        nfa = Nfa(1, 2, [], [0], [])
        assert enumerate_language(nfa, 5) == set()

    def test_ends_in_a(self, ends_in_a):
        assert enumerate_language(ends_in_a, 2) == {word("a"), word("aa"), word("ba")}

    def test_universal(self):
        nfa = Nfa(1, 2, [(0, 0, 0), (0, 1, 0)], [0], [0])
        assert enumerate_language(nfa, 1) == {(), (0,), (1,)}


class TestIsomorphic:
    def test_identity(self, ends_in_a_dfa_min):
        assert isomorphic(ends_in_a_dfa_min, ends_in_a_dfa_min)

    def test_renumbering(self, ends_in_a_dfa_min):
        d = Dfa(2, 2, 1, final={0})
        d.set_transition(1, 0, 0)
        d.set_transition(1, 1, 1)
        d.set_transition(0, 0, 0)
        d.set_transition(0, 1, 1)
        assert isomorphic(ends_in_a_dfa_min, d)

    def test_size_mismatch(self, ends_in_a_dfa_min, ends_in_a_dfa_redundant):
        assert not isomorphic(ends_in_a_dfa_min, ends_in_a_dfa_redundant)

    def test_non_total_rejected(self, ends_in_a_dfa_min):
        with pytest.raises(ValueError):
            isomorphic(ends_in_a_dfa_min, Dfa(2, 2, 0))


def test_mask_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        states = tuple(sorted(rng.sample(range(40), rng.randint(0, 10))))
        assert members(to_mask(states)) == states


def test_trim_preserves_language_random():
    rng = random.Random(11)
    for _ in range(30):
        nfa = random_nfa(rng, rng.randint(2, 10), 2)
        depth = min(2 * nfa.num_states, 12)
        assert enumerate_language(trim(nfa), depth) == enumerate_language(nfa, depth)


def test_reverse_language_random():
    rng = random.Random(12)
    for _ in range(30):
        nfa = random_nfa(rng, rng.randint(2, 8), 2)
        fwd = enumerate_language(nfa, 8)
        rev = enumerate_language(reverse(nfa), 8)
        assert rev == {tuple(reversed(w)) for w in fwd}


def _random_total_dfa(rng, num_states: int, alphabet_size: int = 2) -> Dfa:
    d = Dfa(
        num_states,
        alphabet_size,
        0,
        final={s for s in range(num_states) if rng.random() < 0.4},
    )
    for s in range(num_states):
        for a in range(alphabet_size):
            d.set_transition(s, a, rng.randrange(num_states))
    return d


def test_language_equivalent_matches_enumeration():
    # word enumeration up to length |d1|*|d2| decides equivalence exactly
    rng = random.Random(13)
    for _ in range(40):
        d1 = _random_total_dfa(rng, rng.randint(1, 3))
        d2 = _random_total_dfa(rng, rng.randint(1, 3))
        depth = d1.num_states * d2.num_states
        agree = (
            enumerate_language(dfa_to_nfa(d1), depth)
            == enumerate_language(dfa_to_nfa(d2), depth)
        )
        assert language_equivalent(d1, d2) is agree
