import random

import pytest

from nfacanon.automata import (
    Dfa,
    Nfa,
    accepts,
    complete,
    enumerate_language,
    isomorphic,
    language_equivalent,
    members,
    reverse,
    successor_mask,
    successors,
    to_mask,
    trim,
)
from oracle import random_nfa


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
        for n in (1, 5, 30, 70):
            nfa = random_nfa(rng, n, k, min(0.3, 3 / n))
            # one member copies its row; two gather a single other row
            masks = [0] + [1 << s for s in range(n)]
            masks += [1 << s | 1 << t for s in range(min(n, 30)) for t in range(s)]
            masks += [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(30)]
            masks.append((1 << n) - 1)
            for mask in masks:
                expect = [successor_mask(nfa, mask, a) for a in range(k)]
                assert nfa.successors(mask) == expect, mask

    def test_result_belongs_to_the_caller(self):
        nfa = Nfa(3, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2)], [0], [2])
        before = [nfa.succ_mask(s, a) for s in range(3) for a in range(2)]
        for mask in (to_mask([0]), to_mask([0, 1]), 0):
            expect = nfa.successors(mask)
            out = nfa.successors(mask)
            out[0] = out[1] = 0b111
            out.append(5)
            assert nfa.successors(mask) == expect
        assert [nfa.succ_mask(s, a) for s in range(3) for a in range(2)] == before


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


class TestAccepts:
    @pytest.mark.parametrize(
        "w,expected",
        [("", False), ("aba", True), ("ab", False), ("a", True), ("ba", True)],
    )
    def test_ends_in_a(self, ends_in_a, w, expected):
        assert accepts(ends_in_a, word(w)) is expected


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
    def test_total_unchanged(self, ends_in_a_dfa_min):
        assert complete(ends_in_a_dfa_min).num_states == 2

    def test_no_transitions(self):
        d = Dfa(1, 2, 0, final={0})
        c = complete(d)
        assert c.num_states == 2
        assert c.is_total()

    def test_one_missing_edge(self):
        d = Dfa(3, 2, 0, final={2})
        for s in range(3):
            d.set_transition(s, 0, (s + 1) % 3)
            if s != 1:
                d.set_transition(s, 1, s)
        c = complete(d)
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
            enumerate_language(d1.to_nfa(), depth) == enumerate_language(d2.to_nfa(), depth)
        )
        assert language_equivalent(d1, d2) is agree
