"""Tests for the one-to-one, residual and CCL equivalence registries and the pruned view."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfacanon.automata import Nfa, isomorphic, reverse, to_mask
from nfacanon.engine import RunStats, otf_determinize
from nfacanon.registry import (
    CCLRegistry,
    Lattice,
    OneToOneRegistry,
    PrunedView,
    RegistryContractError,
    ResidualRegistry,
)
from nfacanon.simulation import Preorder, compute_similarity, prune, saturate, simulation_quotient
from oracle import (
    FixedInterval,
    antichain_reference,
    canonical_dfa,
    covers,
    dfa_from_metastate,
    dfa_to_nfa,
    find,
    lattice_of_puts,
    leq,
    lookup,
    prune_reference,
    random_nfa,
    textbook_subset_construction,
    tv_nfa,
)


def _registry_with(members):
    """A CCL registry with the singleton metastate ``{members[q]}`` put for each state q."""
    reg = CCLRegistry()
    for q, x in enumerate(members):
        reg.put(1 << x, q)
    return reg


def _unify_classes(reg, q1, q2):
    """Unify the classes of two states ever put, by their roots, smaller first.

    Returns whether they were two classes.
    """
    r1, r2 = sorted((find(reg, q1), find(reg, q2)))
    if r1 != r2:
        reg.unify(r1, r2)
    return r1 != r2


class TestFind:
    """Class roots through the oracle ``find``: the smallest id of a class."""

    def test_smallest_id_is_root(self):
        reg = _registry_with([2, 5, 9])
        reg.unify(0, 1)
        reg.unify(0, 2)
        assert find(reg, 1) == find(reg, 2) == 0

    def test_unrelated_ids_stay_apart(self):
        reg = _registry_with([0, 1, 2])
        reg.unify(0, 1)
        assert find(reg, 2) == 2
        assert find(reg, 1) == 0

    def test_chain_of_merges_keeps_smallest_root(self):
        reg = _registry_with([0, 1, 4, 7, 9])
        # merge the chain 4 -> 3 -> 2 -> 1 one link at a time: every exact
        # entry names the root directly, with no chain to follow
        reg.unify(3, 4)
        reg.unify(2, 3)
        reg.unify(1, 2)
        assert reg._exact == {1: 0, 2: 1, 16: 1, 128: 1, 512: 1}
        assert find(reg, 4) == 1
        reg.unify(0, 1)
        assert [find(reg, x) for x in range(5)] == [0] * 5
        assert set(reg._exact.values()) == {0}
        assert list(reg.lattices) == [0] and reg.lattices[0].puts == reg.metastates

    @pytest.mark.parametrize("seed", range(6))
    def test_random_merges_match_a_class_model(self, seed):
        rng = random.Random(seed)
        reg = CCLRegistry()
        classes: dict[int, set[int]] = {}  # state -> the ids of its class
        for _ in range(200):
            if rng.random() < 0.5 or len(classes) < 2:
                mask = to_mask([s for s in range(14) if rng.random() < 0.4])
                if lookup(reg, mask) is not None:
                    continue  # the loop puts only the metastates its lookup missed
                state = len(reg.metastates)
                reg.put(mask, state)
                classes[state] = {state}
            else:
                q1, q2 = rng.sample(sorted(classes), 2)
                if _unify_classes(reg, q1, q2):
                    merged = classes[q1] | classes[q2]
                    for q in merged:
                        classes[q] = merged
            for state, mask in enumerate(reg.metastates):
                assert lookup(reg, mask) == find(reg, state) == min(classes[state])
        absorbed = [q for q in classes if min(classes[q]) != q]
        assert absorbed
        for q in absorbed:
            with pytest.raises(RegistryContractError):
                reg.put(to_mask([20]), q)
            with pytest.raises(RegistryContractError):
                reg.unify(min(classes[q]), q)


class TestContract:
    """``put`` takes the next id only, and ``unify`` two live roots in order."""

    @pytest.mark.parametrize("kind", ["one-to-one", "residual", "ccl"])
    def test_put_of_a_non_next_id_rejected(self, kind):
        reg = {
            "one-to-one": OneToOneRegistry,
            "residual": lambda: ResidualRegistry([0b1001, 0b1010, 0b0100], 4),
            "ccl": CCLRegistry,
        }[kind]()
        for bad in (1, -1):  # ahead of the next id, and an id before it
            with pytest.raises(RegistryContractError):
                reg.put(to_mask([0]), bad)
        assert reg._exact == {} and reg.metastates == []
        reg.put(to_mask([0]), 0)
        for bad in (0, 2):
            with pytest.raises(RegistryContractError):
                reg.put(to_mask([1]), bad)
        reg.put(to_mask([1]), 1)
        assert reg.metastates == _masks([0], [1])
        assert reg._exact == {to_mask([0]): 0, to_mask([1]): 1}

    def test_put_of_a_covered_metastate_rejected(self):
        # every put but the first follows the miss of its metastate, so a
        # metastate that a merged lattice covers is refused; the exact map
        # would otherwise answer it apart from the lattice's class
        reg = CCLRegistry()
        reg.put(0b001, 0)
        reg.put(0b100, 1)
        reg.unify(0, 1)  # [{0} | {2}, {0, 2}]
        with pytest.raises(RegistryContractError):
            reg.put(0b101, 2)
        assert reg.metastates == [0b001, 0b100] and 0b101 not in reg._exact
        assert lookup(reg, 0b101) == 0
        # a miss recorded before a unify is checked again: the join covers it
        reg.put(0b1000, 2)
        assert lookup(reg, 0b1001) is None
        reg.unify(0, 2)
        with pytest.raises(RegistryContractError):
            reg.put(0b1001, 3)
        # the metastate the last lookup missed is put unchecked
        assert lookup(reg, 0b10000) is None
        reg.put(0b10000, 3)
        assert lookup(reg, 0b10000) == 3 and lookup(reg, 0b1001) == 0

    def test_unify_needs_two_live_roots_in_order(self):
        reg = CCLRegistry()
        for q in range(4):
            reg.put(to_mask([q]), q)
        bad_pairs = [(1, 0), (2, 2), (0, 4), (-1, 0)]  # out of order, self, never put
        for pair in bad_pairs:
            with pytest.raises(RegistryContractError):
                reg.unify(*pair)
        assert reg.lattices == {} and reg._index.rows == []
        reg.unify(0, 2)
        # 2 is absorbed: neither side of a pair may name it
        for pair in [(0, 2), (2, 3), (1, 2), (2, 1)] + bad_pairs:
            with pytest.raises(RegistryContractError):
                reg.unify(*pair)
        assert list(reg.lattices) == [0] and len(reg._index.rows) == 1
        reg.unify(1, 3)
        reg.unify(0, 1)
        assert [find(reg, q) for q in range(4)] == [0] * 4
        assert len(reg._index.rows) == 3


class TestOneToOne:
    def test_put_then_get(self):
        reg = OneToOneRegistry()
        reg.put(to_mask([0]), 0)
        reg.put(to_mask([1]), 1)
        assert lookup(reg, to_mask([0])) == 0
        # an exact registry covers nothing beyond its keys
        assert lookup(reg, to_mask([0, 1])) is None

    def test_unseen_undefined(self):
        reg = OneToOneRegistry()
        assert lookup(reg, to_mask([1, 2])) is None

    def test_conflicting_put_rejected(self):
        reg = OneToOneRegistry()
        reg.put(to_mask([0]), 0)
        with pytest.raises(RegistryContractError):
            reg.put(to_mask([0]), 1)  # the next id, for a metastate put before
        assert reg._exact == {to_mask([0]): 0} and reg.metastates == [to_mask([0])]


def _masks(*sets):
    return [to_mask(s) for s in sets]


class TestCCL:
    def test_put_creates_singleton_lattice(self):
        # a put's lattice is the point [q, q]: only the exact entry and the
        # metastate put for the state are stored, and the point is built
        # when its class is first unified
        reg = CCLRegistry()
        q = to_mask([1, 2])
        reg.put(q, 0)
        assert reg.lattices == {} and reg._index.live == 0
        assert reg._exact == {q: 0} and reg.metastates == [q]
        lat = reg._take(find(reg, 0))
        assert lat.greatest == q
        assert lat.minimals == [q]
        assert lat.rep == 0
        reg.put(to_mask([1, 2, 3]), 1)
        reg.unify(0, 1)
        lat = reg.lattices[0]
        assert lat.greatest == to_mask([1, 2, 3])
        assert lat.minimals == [q]
        assert lat.rep == 0

    def test_disjoint_puts_independent(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        assert reg.lattices == {}
        assert lookup(reg, to_mask([1, 2])) == 0 and lookup(reg, to_mask([3, 4])) == 1
        assert lookup(reg, to_mask([1, 2, 3, 4])) is None

    def test_empty_metastate_is_valid_key(self):
        reg = CCLRegistry()
        reg.put(0, 0)
        assert lookup(reg, 0) == 0

    def test_unify_joins_lattices(self):
        reg = CCLRegistry()
        a, b = _masks([1, 2], [3, 4])
        reg.put(a, 0)
        reg.put(b, 1)
        reg.unify(0, 1)
        assert len(reg.lattices) == 1
        lat = reg.lattices[0]
        assert lat.greatest == a | b
        assert sorted(lat.minimals) == sorted([a, b])

    def test_unify_filters_dominated_minimals(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([1]), 1)
        reg.unify(0, 1)
        assert reg.lattices[0].minimals == [to_mask([1])]

    def test_unify_of_one_class_rejected(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        with pytest.raises(RegistryContractError):
            reg.unify(0, 0)  # and builds no lattice for the point
        assert reg.lattices == {} and reg._index.rows == []
        reg.put(to_mask([3]), 1)
        reg.unify(0, 1)
        assert reg.lattices[0].puts == _masks([1, 2], [3])
        before = (reg.lattices[0].greatest, list(reg.lattices[0].minimals))
        for pair in [(1, 0), (0, 1), (0, 0)]:
            with pytest.raises(RegistryContractError):
                reg.unify(*pair)
        assert (reg.lattices[0].greatest, reg.lattices[0].minimals) == before
        assert before == (to_mask([1, 2, 3]), _masks([1, 2], [3]))

    def test_get_covered_metastate(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, 1)
        assert lookup(reg, to_mask([1, 2, 3])) == 0

    def test_get_above_cover_fails(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, 1)
        assert lookup(reg, to_mask([1, 5])) is None

    def test_get_below_cover_fails(self):
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, 1)
        assert lookup(reg, to_mask([2, 4])) is None

    def test_convexity_closure_has_exactly_seven_elements(self):
        # merging regions {1,2} and {3,4}: of the 31 nonempty subsets of
        # {1..5}, exactly the 7 sandwiched between a minimal and the union
        # are covered
        reg = CCLRegistry()
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, 1)
        covered = []
        universe = [1, 2, 3, 4, 5]
        for bits in range(1, 32):
            subset = [universe[i] for i in range(5) if bits >> i & 1]
            if lookup(reg, to_mask(subset)) is not None:
                covered.append(tuple(subset))
        expected = {
            (1, 2),
            (3, 4),
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
            (1, 2, 3, 4),
        }
        assert set(covered) == expected

    def test_cover_hits_recorded(self):
        reg = CCLRegistry()
        reg.cover_hits = []
        reg.put(to_mask([1, 2]), 0)
        reg.put(to_mask([3, 4]), 1)
        reg.unify(0, 1)
        assert lookup(reg, to_mask([1, 2])) == 0
        assert reg.cover_hits == []
        assert lookup(reg, to_mask([1, 2, 3])) == 0
        assert reg.cover_hits == [(to_mask([1, 2, 3]), 0)]

    def test_antichain_invariant_random_ops(self):
        rng = random.Random(11)
        reg = CCLRegistry()
        states = []
        for _ in range(300):
            mask = to_mask([s for s in range(10) if rng.random() < 0.4])
            if lookup(reg, mask) is None:
                states.append(len(reg.metastates))
                reg.put(mask, states[-1])
            if len(states) >= 2 and rng.random() < 0.3:
                _unify_classes(reg, *rng.sample(states, 2))
            for lat in reg.lattices.values():
                for m in lat.minimals:
                    assert m | lat.greatest == lat.greatest
                for a in lat.minimals:
                    for b in lat.minimals:
                        if a != b:
                            assert a & b not in (a, b)

    def test_put_to_a_used_state_rejected(self):
        reg = CCLRegistry()
        reg.put(to_mask([1]), 0)
        reg.put(to_mask([2]), 1)
        q = to_mask([3])
        with pytest.raises(RegistryContractError):
            reg.put(q, 0)  # a live state
        reg.unify(0, 1)
        with pytest.raises(RegistryContractError):
            reg.put(q, 1)  # absorbed by the unify
        with pytest.raises(RegistryContractError):
            reg.put(q, 0)  # the root of the merged class
        assert q not in reg._exact and lookup(reg, q) is None
        reg.put(q, 2)  # a fresh state is accepted
        assert lookup(reg, q) == 2

    def test_put_then_get_identity(self):
        rng = random.Random(3)
        reg = CCLRegistry()
        mapping = {}
        for _ in range(100):
            mask = to_mask([s for s in range(12) if rng.random() < 0.5])
            if mask not in mapping:
                mapping[mask] = len(reg.metastates)
                reg.put(mask, mapping[mask])
        for mask, state in mapping.items():
            assert lookup(reg, mask) == state


def _strict_preorder():
    """Preorder over 3 states where 1 is strictly below 0."""
    nfa = Nfa(3, 1, [(0, 0, 2), (1, 0, 2), (0, 0, 0)], initial=[0], final=[2])
    q, p = simulation_quotient(nfa, compute_similarity(nfa))
    assert q.num_states == 3 and leq(p, 1, 0) and not leq(p, 0, 1)
    return p


class TestCCLOnPrunedForms:
    """CCL as an -s run drives it: every query and put is a pruned form."""

    def test_unify_joins_pruned_puts(self):
        # a put is a pruned form, and its lattice, the point [{0}, {0}], is
        # built when its class is first unified
        p = _strict_preorder()
        reg = CCLRegistry()
        reg.put(to_mask([0]), 0)
        assert reg.lattices == {} and reg._exact == {to_mask([0]): 0}
        reg.put(to_mask([2]), 1)
        reg.unify(0, 1)
        lat = reg.lattices[find(reg, 0)]
        assert lat.greatest == to_mask([0, 2])
        assert lat.minimals == _masks([0], [2])
        assert lat.puts == _masks([0], [2])
        # a pruned query between the minimals and the greatest element
        assert prune(to_mask([0, 2]), p) == to_mask([0, 2])
        assert lookup(reg, to_mask([0, 2])) == 0

    def test_unseen_uncovered_undefined(self):
        reg = CCLRegistry()
        reg.put(to_mask([0]), 0)
        assert lookup(reg, to_mask([2])) is None

    def test_put_of_an_unmerged_key_rejected(self):
        # {0, 1} prunes to {0}, the key of a put: the exact map answers it,
        # and a put of it again is refused
        p = _strict_preorder()
        reg = CCLRegistry()
        reg.put(to_mask([0]), 0)
        q = prune(to_mask([0, 1]), p)
        assert q == to_mask([0]) and lookup(reg, q) == 0
        with pytest.raises(RegistryContractError):
            reg.put(q, 1)
        assert reg.metastates == [to_mask([0])] and reg._exact == {q: 0}
        assert reg.lattices == {}
        reg.put(to_mask([2]), 1)  # the refused state is still the next id
        assert lookup(reg, q) == 0 and lookup(reg, to_mask([2])) == 1


def _random_relation_order(rank, pairs):
    """Reflexive-transitive closure of the ``pairs`` (x, y) with x ranked below y."""
    rel = np.eye(len(rank), dtype=bool)
    for x, y in pairs:
        rel[x, y] |= rank[x] < rank[y]
    for k in range(len(rank)):
        rel |= rel[:, [k]] & rel[k]
    return Preorder(rel)


@st.composite
def _preorder_and_masks(draw):
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    p = _random_relation_order(
        draw(st.permutations(range(n))), draw(st.lists(pair, max_size=2 * n))
    )
    m = draw(st.integers(0, (1 << n) - 1))
    q = draw(st.integers(0, (1 << n) - 1))
    if draw(st.booleans()):
        q = m | q & saturate(m, p)  # a metastate between m and saturate(m)
    return p, m, q


class TestUnmergedLattice:
    """The lemma by which the exact map answers for a class never unified."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(case=_preorder_and_masks())
    def test_covers_a_pruned_query_iff_same_pruned_form(self, case):
        # on random partial orders, the kind simulation_quotient returns:
        # the point lattice of the pruned put prune(m) covers a pruned query
        # only when it is that put
        p, m, q = case
        put = prune(m, p)
        lat = Lattice(0, put, [put], [put])
        assert covers(lat, prune(q, p)) == (prune(q, p) == put)


_antichains = st.lists(st.one_of(st.just(0), st.integers(1, 63)), max_size=8).map(
    antichain_reference
)


class TestPrunedView:
    @pytest.mark.parametrize("seed", range(8))
    def test_prunes_the_initial_metastate_and_every_successor(self, seed):
        # against pruning every successor; ``feeds`` holds exactly the
        # states with an edge into ``pruners``.  Each input and its reverse
        # are quotiented by simulation first, as the -s pipelines do
        rng = random.Random(seed)
        nfa = tv_nfa(rng, rng.randint(4, 14), 1.25, 0.5)
        for work in (nfa, reverse(nfa)):
            work, p = simulation_quotient(work, compute_similarity(work))
            view = PrunedView(work, p)
            assert view.initial_mask == prune_reference(work.initial_mask, p)
            assert (view.alphabet_size, view.final_mask) == (work.alphabet_size, work.final_mask)
            feeds = [s for s, _, t in work.edges() if p.pruners >> t & 1]
            assert view.feeds == to_mask(feeds)
            for _ in range(50):
                mask = rng.getrandbits(work.num_states)
                expect = [prune_reference(m, p) for m in work.successors(mask)]
                assert view.successors(mask) == expect

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 200]),
        k=st.sampled_from([1, 2, 24]),
        pairs_per_state=st.sampled_from([0, 0.1, 4]),  # no, few and many pruners
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folded_table_matches_pruning_each_successor(self, n, k, pairs_per_state, seed):
        # on random automata and partial orders, around the word boundaries
        # of the table's two n-bit halves
        rng = random.Random(seed)
        edges = [
            (rng.randrange(n), rng.randrange(k), rng.randrange(n))
            for _ in range(rng.randint(1, 3 * n * k))
        ]
        nfa = Nfa(n, k, edges, [rng.randrange(n)], [])
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(round(pairs_per_state * n))]
        p = _random_relation_order(rng.sample(range(n), n), pairs)
        view = PrunedView(nfa, p)
        for _ in range(10):
            mask = rng.getrandbits(n)
            masks = [mask, mask & ~view.feeds]
            if view.feeds:
                fed = [s for s in range(n) if view.feeds >> s & 1]
                masks.append(mask | 1 << rng.choice(fed))
            for m in masks:
                expect = [prune(s, p) if s & p.pruners else s for s in nfa.successors(m)]
                out = view.successors(m)
                assert out == expect
                out[:] = [-1] * k  # the caller's own list: the view is unchanged
                assert view.successors(m) == expect


class TestResidual:
    @pytest.mark.parametrize("seed", range(12))
    def test_equal_signatures_iff_equal_languages(self, seed):
        rng = random.Random(seed)
        if seed % 2:
            nfa = random_nfa(rng, rng.randint(2, 8), rng.randint(1, 3))
        else:
            nfa = tv_nfa(rng, rng.randint(4, 12), 1.25, 0.5)
        _, reached = textbook_subset_construction(nfa)
        canon = [canonical_dfa(dfa_to_nfa(dfa_from_metastate(nfa, m))) for m in reached]
        # phase 1 without merges, and merging after every explored state
        for registry, controller in (
            (OneToOneRegistry(), None),
            (CCLRegistry(), FixedInterval(1)),
        ):
            phase1 = otf_determinize(reverse(nfa), registry, RunStats(), controller)
            reg = ResidualRegistry(phase1.metastates, nfa.num_states)
            sigs = [reg.signature(m) for m in reached]
            for i in range(len(reached)):
                for j in range(i):
                    same = isomorphic(canon[i], canon[j])
                    assert (sigs[i] == sigs[j]) == same, (reached[i], reached[j])

    def test_hit_caches_metastate(self):
        # states 0 and 2 lie in the same phase-1 metastates
        reg = ResidualRegistry([0b101, 0b010], 3)
        reg.put(to_mask([0]), 0)
        assert lookup(reg, to_mask([1])) is None
        assert lookup(reg, to_mask([2])) == 0
        assert reg._exact[to_mask([2])] == 0
        assert lookup(reg, to_mask([0, 2])) == 0
        assert lookup(reg, to_mask([0, 1])) is None

    def test_each_metastate_signed_once(self):
        signed = []

        class Counting(ResidualRegistry):
            def signature(self, mask):
                signed.append(mask)
                return super().signature(mask)

        nfa = tv_nfa(random.Random(4), 14, 1.25, 0.5)
        phase1 = otf_determinize(reverse(nfa), OneToOneRegistry(), RunStats())
        reg = Counting(phase1.metastates, nfa.num_states)
        res = otf_determinize(nfa, reg, RunStats())
        # a put after a miss reuses its signature, and a hit is cached
        assert sorted(signed) == sorted(reg._exact)
        assert len(reg._exact) > res.dfa.num_states

    def test_conflicting_put_rejected(self):
        reg = ResidualRegistry([0b101, 0b010], 3)
        reg.put(to_mask([0]), 0)
        with pytest.raises(RegistryContractError):
            reg.put(to_mask([0]), 1)
        # a new metastate whose signature is already taken
        with pytest.raises(RegistryContractError):
            reg.put(to_mask([2]), 1)
        reg.put(to_mask([1]), 1)
        assert lookup(reg, to_mask([1])) == 1


class TestLattice:
    def test_covers_membership_rule(self):
        lat = Lattice(0, to_mask([0, 1, 2]), _masks([0], [1, 2]), _masks([0], [1, 2]))
        assert covers(lat, to_mask([0, 2]))
        assert covers(lat, to_mask([1, 2]))
        assert not covers(lat, to_mask([2]))
        assert not covers(lat, to_mask([0, 3]))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(old=_antichains, fresh=_antichains, shared=st.lists(st.integers(0, 7)))
    def test_absorb_matches_pairwise_filter(self, old, fresh, shared):
        # some of the old minimals also arrive with the new antichain
        new = antichain_reference([old[i] for i in shared if i < len(old)] + fresh)
        lat = Lattice(0, 0, list(old), list(old))
        lat.absorb(0, new)
        assert lat.minimals == antichain_reference(old + new)

    def test_absorb_fixed_cases(self):
        a, b, ab, c = _masks([1], [2], [1, 2], [3])
        cases = [
            ([a, b], [ab], [a, b]),  # new above an old one: dropped
            ([ab], [a, c], [a, c]),  # new below an old one: replaces it
            ([a, c], [c, b], [a, c, b]),  # shared element kept once
            ([a, b], [0], [0]),  # the empty metastate is below everything
            ([0], [a, b], [0]),
            ([], [a], [a]),
            ([a], [], [a]),
        ]
        for old, new, expected in cases:
            lat = Lattice(0, 0, list(old), list(old))
            lat.absorb(0, new)
            assert lat.minimals == expected == antichain_reference(old + new)


# -- cover index against a linear scan ---------------------------------------

_UNIVERSE = 1000  # metastates span up to 16 uint64 words


def _reference_get(reg, classes, mask):
    """Lookup by a scan of every class's lattice, which the registry replaces.

    ``classes`` maps each class root to the metastates put for the class,
    in the order the lattices were inserted: a class never unified at its
    put, a merged one at its last ``unify``.  Returns the state and the
    ``cover_hits`` entry the lookup should append.
    """
    for root, puts in classes.items():
        if mask in puts:
            return root, None
    for root, puts in classes.items():
        if covers(lattice_of_puts(root, puts), mask):
            return root, (mask, root)
    return None, None


def _checked_get(reg, classes, mask):
    expected, hit = _reference_get(reg, classes, mask)
    before = len(reg.cover_hits)
    assert lookup(reg, mask) == expected
    assert reg.cover_hits[before:] == ([hit] if hit else [])
    return expected


def _random_preorder(rng, positions):
    """Reflexive-transitive closure of random edges x < y among ``positions``,
    where x ranks below y in a random ranking."""
    rank = {x: r for r, x in enumerate(rng.sample(positions, len(positions)))}
    rel = np.eye(_UNIVERSE, dtype=bool)
    for _ in range(len(positions)):
        x, y = sorted(rng.sample(positions, 2), key=rank.get)
        rel[x, y] = True
    for k in positions:
        rel |= rel[:, [k]] & rel[k]
    return Preorder(rel)


def _run_ops(reg, rng, positions, steps, p=None):
    """Random put/unify/lookup sequence over subsets of ``positions``.

    With an order ``p`` every metastate is drawn pruned by it, as in an
    -s run.  A model keeps the puts of each class by class root, in the
    order of ``_reference_get``, and the root of each state.
    """
    reg.cover_hits = []
    classes: dict[int, list[int]] = {}
    root_of: list[int] = []  # by state id
    unifies = 0

    def draw_mask():
        mask = to_mask([x for x in positions if rng.random() < 0.4])
        return mask if p is None else prune_reference(mask, p)

    for _ in range(steps):
        op = rng.random()
        if op < 0.4:
            mask = draw_mask()
            if _checked_get(reg, classes, mask) is not None:
                continue  # the loop puts only the metastates its lookup missed
            state = len(reg.metastates)  # the next id
            reg.put(mask, state)
            classes[state] = [mask]
            root_of.append(state)
        elif op < 0.65 and len(root_of) >= 2:
            r1, r2 = sorted(root_of[q] for q in rng.sample(range(len(root_of)), 2))
            if r1 != r2:
                reg.unify(r1, r2)
                classes[r1] = classes.pop(r1) + classes.pop(r2)
                root_of = [r1 if r == r2 else r for r in root_of]
                unifies += 1
        else:
            _checked_get(reg, classes, draw_mask())
    for mask in list(reg._exact):
        _checked_get(reg, classes, mask)
    _check_invariants(reg, classes, unifies, p)


def _check_invariants(reg, classes, unifies, p):
    """The layout of CCL registry ``reg`` against the model's classes."""
    # the exact map names the class root of every put
    assert reg._exact == {m: root for root, puts in classes.items() for m in puts}
    # ``lattices`` holds exactly the classes of more than one put, each
    # keyed by its root, with the class's puts and its lattice; no lattice
    # is built before its class is unified
    assert set(reg.lattices) == {root for root, puts in classes.items() if len(puts) > 1}
    for root, lat in reg.lattices.items():
        ref = lattice_of_puts(root, classes[root])
        assert lat.rep == root and lat.puts == classes[root]
        assert lat.greatest == ref.greatest and sorted(lat.minimals) == sorted(ref.minimals)
    # pruned draws give pruned puts
    if p is not None:
        assert all(prune_reference(m, p) == m for m in reg.metastates)
    # the index's live rows are the lattices, in the dict's order; every
    # unify added one row
    index = reg._index
    assert len(index.rows) == unifies and index.live >> unifies == 0
    live_rows = [lat for b, lat in enumerate(index.rows) if index.live >> b & 1]
    assert live_rows == list(reg.lattices.values())


_positions = st.tuples(
    st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(64, 127), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(128, 199), min_size=1, max_size=4, unique=True),
    # as wide as the widest metastates of the automatic-sequence family
    st.lists(st.integers(870, _UNIVERSE - 1), min_size=1, max_size=12, unique=True),
).map(lambda parts: sorted(set().union(*parts)))


class TestCoverIndex:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(positions=_positions, seed=st.integers(0, 2**32 - 1))
    def test_ccl_matches_linear_scan(self, positions, seed):
        _run_ops(CCLRegistry(), random.Random(seed), positions, 60)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(positions=_positions, seed=st.integers(0, 2**32 - 1))
    def test_ccl_on_pruned_masks_matches_linear_scan(self, positions, seed):
        rng = random.Random(seed)
        p = _random_preorder(rng, positions)
        _run_ops(CCLRegistry(), rng, positions, 60, p)

    def test_one_row_per_unify(self):
        # a discarded lattice's bit only leaves ``live``: nothing is rebuilt
        rng = random.Random(4)
        reg = CCLRegistry()
        states, unifies = [], 0
        for _ in range(300):
            mask = to_mask([x for x in (3, 40, 70, 100, 150, 250) if rng.random() < 0.4])
            if lookup(reg, mask) is None:
                states.append(len(reg.metastates))
                reg.put(mask, states[-1])
            if len(states) >= 2 and rng.random() < 0.5:
                rows = len(reg._index.rows)
                merged = _unify_classes(reg, *rng.sample(states, 2))
                assert len(reg._index.rows) == rows + merged
                unifies += merged
        index = reg._index
        assert len(index.rows) == unifies > 2 * index.live.bit_count()
        assert index.live.bit_count() == len(reg.lattices)

    def test_point_lattices_get_no_rows(self):
        reg = CCLRegistry()
        a, b = _masks([1, 2], [3, 70])
        reg.put(a, 0)
        reg.put(b, 1)
        assert reg._index.rows == reg._index.in_greatest == []  # no slices
        reg.unify(0, 1)
        # one bit for the merged lattice, however many minimals it has
        assert len(reg.lattices[0].minimals) == 2
        assert reg._index.rows == [reg.lattices[0]] and reg._index.live == 1

    def test_pruned_point_lattices_get_no_rows(self):
        p = _strict_preorder()
        reg = CCLRegistry()
        reg.put(to_mask([2]), 0)
        assert reg._index.rows == [] and reg.lattices == {}
        reg.put(prune(to_mask([0, 1]), p), 1)  # {0}: no lattice before a unify
        assert reg._index.rows == [] and reg.lattices == {}
        assert reg._exact == {to_mask([2]): 0, to_mask([0]): 1}
        reg.unify(0, 1)  # the merged lattice is indexed
        assert reg._index.rows == [reg.lattices[0]] and reg._index.live == 1

    def test_empty_minimal_covers_everything_below_greatest(self):
        reg = CCLRegistry()
        reg.put(0, 0)
        reg.put(to_mask([1, 2]), 1)
        reg.unify(0, 1)
        assert reg.lattices[0].minimals == [0]
        for query in _masks([1], [2]):
            assert lookup(reg, query) == 0
        for query in _masks([3], [1, 3]):
            assert lookup(reg, query) is None

    def test_member_outside_every_greatest_misses(self):
        reg = CCLRegistry()
        for mask, state in zip(_masks([1, 2], [1, 3], [5, 6], [6]), range(4)):
            reg.put(mask, state)
        reg.unify(0, 1)
        reg.unify(2, 3)  # {6} .. {5,6} widens the slices to state 6
        assert lookup(reg, to_mask([1, 2, 3])) == 0
        # 4 is inside the slices' width but in no greatest element
        assert lookup(reg, to_mask([1, 2, 4])) is None
        assert lookup(reg, to_mask([1, 2, 99])) is None

    def test_earliest_inserted_lattice_wins(self):
        reg = CCLRegistry()
        reg.put(to_mask([5]), 0)
        reg.put(to_mask([5, 6]), 1)
        reg.unify(0, 1)  # C: {5} .. {5,6}
        reg.put(to_mask([1, 2]), 2)
        reg.put(to_mask([3]), 3)
        reg.unify(2, 3)  # A: {1,2} | {3} .. {1,2,3}
        reg.put(to_mask([7]), 4)
        reg.put(to_mask([7, 8]), 5)
        reg.unify(4, 5)  # D: {7} .. {7,8}
        reg.put(to_mask([1]), 6)
        reg.put(to_mask([1, 2, 3, 4]), 7)
        reg.unify(6, 7)  # B: {1} .. {1,2,3,4}
        reg.unify(0, 6)  # B joins C, keyed lower than A but re-inserted last
        query = to_mask([1, 3])
        assert covers(reg.lattices[2], query) and covers(reg.lattices[0], query)
        index = reg._index
        # one bit per unify, in insertion order; the old bits of B and C are dead
        assert [lat.rep for lat in index.rows] == [0, 2, 4, 6, 0]
        assert index.live == 0b10110
        live_rows = [lat for b, lat in enumerate(index.rows) if index.live >> b & 1]
        assert live_rows == list(reg.lattices.values())
        assert [lat.rep for lat in live_rows] == [2, 4, 0]
        assert lookup(reg, query) == 2

    def test_cover_hits_records_every_hit(self):
        reg = CCLRegistry()
        reg.cover_hits = []
        reg.put(to_mask([1]), 0)
        reg.put(to_mask([1, 2, 3]), 1)
        reg.unify(0, 1)
        reg.put(to_mask([4]), 2)
        reg.put(to_mask([4, 5]), 3)
        reg.unify(2, 3)
        queries = _masks([1, 2], [4], [1, 3], [2], [1, 4], [4, 5], [1, 2])
        got = [lookup(reg, q) for q in queries]
        assert got == [0, 2, 0, None, None, 2, 0]
        # exact hits ({4}, {4, 5}) and misses record nothing; a repeated
        # cover hit is recorded each time
        q12, q13 = _masks([1, 2], [1, 3])
        assert reg.cover_hits == [(q12, 0), (q13, 0), (q12, 0)]
