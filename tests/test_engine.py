"""Tests for the determinization engine, thresholds, and pipelines."""

import random
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfacanon.automata import Nfa, isomorphic, reverse, trim
import nfacanon.engine as engine
import nfacanon.registry as registry_module
import nfacanon.simulation as simulation
from nfacanon.engine import (
    PIPELINES,
    CanonConfig,
    RunStats,
    Threshold,
    canonize,
    otf_determinize,
)
from nfacanon.generator import GenParams, generate
from nfacanon.partition import bisimulation_quotient, minimize
from nfacanon.registry import (
    CCLRegistry,
    OneToOneRegistry,
    PrunedView,
    RegistryContractError,
    ResidualRegistry,
)
from nfacanon.simulation import Preorder, compute_similarity, prune, simulation_quotient

from oracle import (
    FixedInterval,
    LinearScanCCLRegistry,
    auto_nfa,
    auto_tracks,
    blowup_nfa,
    canonical_dfa,
    class_lattices,
    completed,
    covers,
    dfa_to_nfa,
    find,
    language_equivalent,
    random_nfa,
    textbook_subset_construction,
    tv_nfa,
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


class _LoggedMap(dict):
    """An exact map that appends each ``get`` on it to ``log``."""

    def __init__(self, log: list):
        super().__init__()
        self.log = log

    def get(self, mask, default=None):
        state = super().get(mask, default)
        self.log.append(("exact", mask, state))
        return state


class _CountedMap(dict):
    """An exact map that counts the ``get`` calls on it in ``made``."""

    made = 0

    def get(self, mask, default=None):
        self.made += 1
        return super().get(mask, default)


def _counting(registry_cls, explored: list[int] | None = None):
    """Subclass of a registry class that logs its lookups, puts and unifies.

    ``log`` lists, in call order, each ``get`` on the exact map as
    ("exact", mask, answer), each ``get`` call as ("get", mask, answer) and
    each ``put`` as ("put", mask, state).  A registry's own ``get`` and
    ``put`` read no exact entry this way, or the loop's pattern would break.
    ``unified`` lists each ``unify`` call as (root, absorbed ids, number of
    metastates of ``explored`` explored when it was called).
    """

    class Counting(registry_cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.log: list[tuple] = []
            self._exact = _LoggedMap(self.log)
            self.unified: list[tuple[int, list[int], int]] = []

        def get(self, mask):
            state = super().get(mask)
            self.log.append(("get", mask, state))
            return state

        def put(self, mask, state):
            super().put(mask, state)
            self.log.append(("put", mask, state))

        def unify(self, root, gone):
            self.unified.append((root, gone, len(explored or ())))
            super().unify(root, gone)

    return Counting


def _contract_checked(registry_cls, preorder=None):
    """Subclass of a registry class that checks how the loop calls it.

    ``get`` must not be asked about a key of the exact map, and ``put``
    must not be given a metastate that is a key or that the lattice of one
    of the registry's classes covers, built or not.  On the pruned view by
    ``preorder`` it must be asked about and given pruned metastates only.
    It counts the ``get`` calls in ``gets``.
    """

    class Checked(registry_cls):
        gets = 0

        def _pruned(self, mask):
            return preorder is None or prune(mask, preorder) == mask

        def get(self, mask):
            assert mask not in self._exact and self._pruned(mask)
            self.gets += 1
            return super().get(mask)

        def put(self, mask, state):
            assert mask not in self._exact and self._pruned(mask)
            if isinstance(self, CCLRegistry):
                for lat in class_lattices(self).values():
                    assert not covers(lat, mask), (mask, lat.rep)
            super().put(mask, state)

    return Checked


def _family(name, rng):
    """Small inputs of one family: ``tv``, ``random`` or ``blowup``."""
    if name == "tv":
        return [tv_nfa(rng, n, 1.25, 0.5) for n in (10, 16, 24)]
    if name == "random":
        return [random_nfa(rng, rng.randint(3, 9), 2) for _ in range(6)]
    return [blowup_nfa(4), blowup_nfa(7)]


def _lookup_registries(nfa):
    """(registry class, its arguments, threshold interval, automaton, order) cases.

    The automaton is the one to determinize: ``nfa``, or the
    ``PrunedView`` of its simulation quotient by the quotient's order, as
    the ``-s`` pipelines run it; the order is that of the view, or
    ``None``.  The residual registry keys ``nfa``'s subsets by a first
    pass over its reverse, as Brzozowski's second pass does.
    """
    q, p = simulation_quotient(nfa, compute_similarity(nfa))
    view = PrunedView(q, p)
    phase1 = otf_determinize(reverse(nfa), OneToOneRegistry(), RunStats())
    return [
        (OneToOneRegistry, (), None, nfa, None),
        (CCLRegistry, (), None, nfa, None),
        (CCLRegistry, (), 2, nfa, None),
        (CCLRegistry, (), None, view, p),
        (CCLRegistry, (), 2, view, p),
        (ResidualRegistry, (phase1.metastates, nfa.num_states), None, nfa, None),
    ]


class TestOtfDeterminize:
    def test_matches_classic_subset_construction(self, ends_in_a):
        stats = RunStats()
        res = otf_determinize(ends_in_a, OneToOneRegistry(), stats)
        oracle, _ = textbook_subset_construction(ends_in_a)
        assert isomorphic(completed(res.dfa), completed(oracle))
        assert res.dfa.num_states == 2
        assert stats.minimizations == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_blowup_family_exponential_without_minimization(self, n):
        res = otf_determinize(blowup_nfa(n), OneToOneRegistry(), RunStats())
        assert res.dfa.num_states == 2**n

    @pytest.mark.parametrize("n", range(2, 11))
    def test_blowup_family_with_always_firing_ccl(self, n):
        nfa = blowup_nfa(n)
        stats = RunStats()
        res = otf_determinize(nfa, CCLRegistry(), stats, FixedInterval(1))
        assert stats.peak_intermediate_states <= 2**n
        assert language_equivalent(completed(res.dfa), canonical_dfa(nfa))

    @pytest.mark.parametrize("seed", range(20))
    def test_explored_trace_matches_textbook_order(self, explored_masks, seed):
        # one-to-one registry + never-firing threshold is exactly classic
        # subset construction with a LIFO worklist
        rng = random.Random(seed)
        nfa = random_nfa(rng, rng.randint(2, 7), 2)
        otf_determinize(nfa, OneToOneRegistry(), RunStats())
        _, order = textbook_subset_construction(nfa, lifo=True)
        assert explored_masks == order

    def test_one_get_per_successor(self):
        # a popped metastate carries its id, so each explored metastate
        # costs exactly k lookups in the exact map, one per successor; a
        # successor reaches ``get`` exactly when the exact map misses it,
        # and is put exactly when ``get`` misses it too
        rng = random.Random(31)
        inputs = [random_nfa(rng, rng.randint(3, 8), 2) for _ in range(6)]
        inputs += [tv_nfa(rng, 10, 1.25, 0.5), blowup_nfa(6)]
        cover_hits = 0
        for nfa in inputs:
            for cls, args, interval, explored, _ in _lookup_registries(nfa):
                reg = _counting(cls)(*args)
                controller = interval and FixedInterval(interval)
                stats = RunStats()
                otf_determinize(explored, reg, stats, controller)
                log = iter(reg.log)
                assert next(log) == ("put", explored.initial_mask, 0)
                counts = {"exact": 0, "cover": 0, "miss": 0}
                for kind, mask, state in log:
                    assert kind == "exact"
                    if state is None:
                        kind, got, state = next(log)
                        assert (kind, got) == ("get", mask)
                        if state is None:
                            kind, put, _ = next(log)
                            assert (kind, put) == ("put", mask)
                            counts["miss"] += 1
                        else:
                            counts["cover"] += 1
                    else:
                        counts["exact"] += 1
                assert sum(counts.values()) == nfa.alphabet_size * stats.explored_metastates
                assert (stats.exact_hits, stats.cover_hits, stats.misses) == (
                    counts["exact"], counts["cover"], counts["miss"]
                )
                cover_hits += counts["cover"]
        assert cover_hits > 0

    @pytest.mark.parametrize("family", ["tv", "random", "blowup"])
    def test_loop_keeps_the_registry_contract(self, family):
        # ``get`` is asked only past the exact map, and a put follows its
        # own miss, so no lattice covers what is put; each of the four
        # registries, with and without intermediate minimization
        hits = 0
        for nfa in _family(family, random.Random(41)):
            for cls, args, interval, explored, p in _lookup_registries(nfa):
                reg = _contract_checked(cls, p)(*args)
                controller = interval and FixedInterval(interval)
                stats = RunStats()
                otf_determinize(explored, reg, stats, controller)
                assert reg.gets == stats.cover_hits + stats.misses
                hits += stats.cover_hits
        assert hits > 0 or family == "blowup"  # its states are pairwise inequivalent

    @pytest.mark.parametrize("family", ["tv", "random", "blowup"])
    def test_ccl_on_pruned_view_matches_linear_scan_registry(self, family):
        # on pruned metastates, the exact map and the cover index answer
        # every lookup as a scan of all lattices in insertion order does;
        # each input and its reverse are quotiented by simulation first, as
        # the -s pipelines do
        rng = random.Random(77)
        if family == "tv":
            inputs = [tv_nfa(rng, n, 1.25, 0.5) for n in (10, 16, 16, 24)]
        elif family == "random":
            inputs = [random_nfa(rng, rng.randint(3, 9), 2) for _ in range(8)]
        else:
            inputs = [blowup_nfa(4), blowup_nfa(7)]
        hits = 0
        for nfa in inputs:
            for work in (nfa, reverse(nfa)):
                work, p = simulation_quotient(work, compute_similarity(work))
                for interval in (None, 2):
                    runs = []
                    for reg in (CCLRegistry(), LinearScanCCLRegistry()):
                        reg.cover_hits = []
                        controller = interval and FixedInterval(interval)
                        stats = RunStats()
                        res = otf_determinize(PrunedView(work, p), reg, stats, controller)
                        d = res.dfa
                        explored = stats.explored_metastates
                        # the linear scan keeps its exact map in ``put_state``
                        exact = getattr(reg, "put_state", reg._exact)
                        ids = [exact[m] for m in res.metastates]
                        runs.append((
                            (d.num_states, sorted(d.final), [list(r) for r in d.trans]),
                            (ids, res.metastates, explored, stats.peak_intermediate_states),
                            (stats.minimizations, res.sizes_after_min, reg.cover_hits),
                        ))
                    assert runs[0] == runs[1]
                    hits += len(reg.cover_hits)
        assert hits > 0 or family == "blowup"

    @pytest.mark.parametrize("family", ["tv", "random", "blowup"])
    def test_result_metastates_are_the_registrys(self, family):
        # the registry keeps the one table of puts, by state id; the result
        # lists its entries for the live ids, in id order
        for nfa in _family(family, random.Random(43)):
            for cls, args, interval, explored, _ in _lookup_registries(nfa):
                reg = cls(*args)
                stats = RunStats()
                res = otf_determinize(explored, reg, stats, interval and FixedInterval(interval))
                assert len(reg.metastates) == stats.misses + 1
                # the live ids the DFA's states stand for, off the exact map
                ids = [reg._exact[m] for m in res.metastates]
                assert ids == sorted(set(ids)) and len(ids) == res.dfa.num_states
                assert res.metastates == [reg.metastates[s] for s in ids]

    @pytest.mark.parametrize("seed", range(5))
    def test_only_explored_states_are_unified(self, explored_masks, seed):
        # minimizing after every step merges only explored states, which is
        # why a popped id needs no resolving; the registry then resolves
        # each absorbed id to its survivor.  (blowup_nfa's states are pairwise
        # inequivalent, so nothing is ever merged there.)
        nfa = tv_nfa(random.Random(seed), 12, 1.25, 0.5)
        explored = explored_masks
        q, p = simulation_quotient(nfa, compute_similarity(nfa))
        for work in (nfa, PrunedView(q, p)):
            explored.clear()
            reg = _counting(CCLRegistry, explored)()
            stats = RunStats()
            otf_determinize(work, reg, stats, FixedInterval(1))
            assert stats.minimizations == stats.explored_metastates
            assert reg.unified
            for surv, gone, seen in reg.unified:
                done = set(explored[:seen])
                assert reg.metastates[surv] in done
                for absorbed in gone:
                    assert reg.metastates[absorbed] in done
                    assert find(reg, absorbed) == find(reg, surv) <= surv

    @pytest.mark.parametrize("seed", range(5))
    def test_one_unify_per_block(self, monkeypatch, seed):
        # each intermediate minimization hands the registry one ``unify``
        # per block of merged states: the survivor, the smallest id, with
        # its absorbed ids ascending, blocks in survivor order
        merges = []  # per minimization: its merges, and the unify calls before it
        real = engine.minimize

        def recording(dfa, unexplored):
            out = real(dfa, unexplored)
            merges.append((out[1], len(reg.unified)))
            return out

        monkeypatch.setattr(engine, "minimize", recording)
        nfa = tv_nfa(random.Random(seed), 12, 1.25, 0.5)
        reg = _counting(CCLRegistry)()
        otf_determinize(nfa, reg, RunStats(), FixedInterval(2))
        ends = [start for _, start in merges[1:]] + [len(reg.unified)]
        blocks = 0
        for (pairs, start), end in zip(merges, ends):
            calls = reg.unified[start:end]
            assert len(calls) == len({surv for surv, _ in pairs})
            assert sum(len(gone) for _, gone, _ in calls) == len(pairs)
            roots = [root for root, _, _ in calls]
            assert roots == sorted(set(roots))
            for root, gone, _ in calls:
                assert [root] + gone == sorted(set([root] + gone))
            blocks += len(calls)
        assert blocks > 0 and len(reg.unified) == blocks
        assert any(len(gone) > 1 for _, gone, _ in reg.unified)

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved_under_minimization(self, seed):
        rng = random.Random(100 + seed)
        nfa = random_nfa(rng, rng.randint(3, 8), 2)
        interval = rng.choice([1, 2, 3])
        res = otf_determinize(nfa, CCLRegistry(), RunStats(), FixedInterval(interval))
        assert language_equivalent(completed(res.dfa), canonical_dfa(nfa))

    @staticmethod
    def _run_to_failure(explored_masks, cls, interval, fail_get=0, fail_put=0):
        """Run ``blowup_nfa(8)`` through ``cls`` until its ``fail_get``-th
        ``get`` or its ``fail_put``-th ``put`` raises; (registry, stats,
        counts).  The registry's exact map counts the lookups in it."""

        class Failing(cls):
            gets = puts = 0

            def __init__(self):
                super().__init__()
                self._exact = _CountedMap()

            def get(self, mask):
                self.gets += 1
                if self.gets == fail_get:
                    raise RegistryContractError("lost")
                return super().get(mask)

            def put(self, mask, state):
                self.puts += 1
                if self.puts == fail_put:
                    raise RegistryContractError("no room")
                super().put(mask, state)

        explored_masks.clear()
        reg = Failing()
        stats = RunStats()
        with pytest.raises(RegistryContractError):
            otf_determinize(blowup_nfa(8), reg, stats, interval and FixedInterval(interval))
        counts = (stats.explored_metastates, stats.exact_hits, stats.cover_hits, stats.misses)
        assert min(counts) >= 0
        return reg, stats, counts

    @pytest.mark.parametrize("cls, interval", [(OneToOneRegistry, None), (CCLRegistry, 2)])
    def test_counts_survive_a_registry_error(self, explored_masks, cls, interval):
        # the loop adds its counts into ``stats`` on every exit, so an
        # exception raised inside it leaves the partial counts behind, the
        # lookups of the row it cut short included
        def run(fail_at):
            reg, stats, counts = self._run_to_failure(
                explored_masks, cls, interval, fail_put=fail_at
            )
            assert stats.exact_hits + stats.cover_hits + stats.misses == reg._exact.made
            return reg, stats, counts

        # the second put fails at the first successor of the initial state:
        # one lookup, missed by the exact map and by ``get``, and no row done
        reg, stats, counts = run(2)
        assert counts == (0, 0, 0, 1) and reg._exact.made == reg.gets == 1
        reg, stats, counts = run(21)
        # the row being built when the put failed asked for its successors
        explored = len(explored_masks) - 1
        assert stats.explored_metastates == explored > 0
        # every put but the initial one follows a miss, the failed one too
        assert stats.misses == reg.puts - 1 == 20
        assert stats.cover_hits + stats.misses == reg.gets
        assert stats.minimizations == (explored // interval if interval else 0)
        assert 0 < stats.peak_intermediate_states <= 20

    @pytest.mark.parametrize("cls, interval", [(OneToOneRegistry, None), (CCLRegistry, 2)])
    def test_a_raising_get_has_no_outcome(self, explored_masks, cls, interval):
        # a lookup whose ``get`` raised is neither a hit nor a miss, so the
        # counts leave it out; every lookup before it is counted
        def run(fail_at):
            reg, stats, counts = self._run_to_failure(
                explored_masks, cls, interval, fail_get=fail_at
            )
            assert stats.exact_hits + stats.cover_hits + stats.misses == reg._exact.made - 1
            assert stats.cover_hits + stats.misses == reg.gets - 1
            return stats, counts

        # the first get fails, at the first successor of the initial state
        _, counts = run(1)
        assert counts == (0, 0, 0, 0)
        stats, _ = run(21)
        assert stats.explored_metastates == len(explored_masks) - 1 > 0
        assert stats.misses == 20  # each get before the failed one missed


# (input, automaton, threshold) -> (explored metastates, minimizations, cover
# hits, CRC-32 of repr(sizes_after_min)) of a CCL registry, recorded with the
# row-signature refinement that oracle.minimize_reference keeps.  "ccl" runs
# on the input, "pruned" on the pruned view of its simulation quotient, as
# the -s pipelines do.  A change to which merges an intermediate
# minimization finds, or to the registry's answers, moves these counts even
# where every DFA stays correct.  The pruned tuples held when the -s
# pipelines' registry stopped saturating the greatest elements of lattices.
_PINNED_COUNTS = {
    ("blowup8", "ccl", 1): (256, 256, 0, 3986797982),
    ("blowup8", "ccl", 3): (256, 85, 0, 1382524850),
    ("blowup8", "pruned", 1): (256, 256, 0, 3986797982),
    ("blowup8", "pruned", 3): (256, 85, 0, 1382524850),
    ("gen-11", "ccl", 1): (51, 51, 4, 3133591500),
    ("gen-11", "ccl", 3): (52, 17, 2, 324806570),
    ("gen-11", "pruned", 1): (45, 45, 3, 3325745160),
    ("gen-11", "pruned", 3): (46, 15, 1, 209424496),
    ("gen-26", "ccl", 1): (33, 33, 3, 3422275683),
    ("gen-26", "ccl", 3): (34, 11, 1, 2923428515),
    ("gen-26", "pruned", 1): (24, 24, 0, 3865957783),
    ("gen-26", "pruned", 3): (24, 8, 0, 361821571),
    ("tv-16", "ccl", 1): (39, 39, 14, 2603261490),
    ("tv-16", "ccl", 3): (40, 13, 14, 2886686006),
    ("tv-16", "pruned", 1): (34, 34, 9, 3058309205),
    ("tv-16", "pruned", 3): (36, 12, 8, 4264544606),
    ("tv-28", "ccl", 1): (51, 51, 8, 2586691289),
    ("tv-28", "ccl", 3): (53, 17, 5, 2997803591),
    ("tv-28", "pruned", 1): (48, 48, 8, 1472493387),
    ("tv-28", "pruned", 3): (49, 16, 8, 1650208079),
}


def _pinned_input(name):
    if name == "blowup8":
        return blowup_nfa(8)
    model, seed = name.split("-")
    if model == "gen":
        return generate(GenParams(n=24, density=2.0, seed=int(seed)))
    return tv_nfa(random.Random(int(seed)), 16, 1.25, 0.5)


@pytest.mark.parametrize("case", sorted(_PINNED_COUNTS), ids=lambda c: "-".join(map(str, c)))
def test_counts_match_pinned_values(case):
    name, kind, interval = case
    nfa = _pinned_input(name)
    if kind == "pruned":
        nfa = PrunedView(*simulation_quotient(nfa, compute_similarity(nfa)))
    reg = CCLRegistry()
    reg.cover_hits = []
    stats = RunStats()
    res = otf_determinize(nfa, reg, stats, FixedInterval(interval))
    sizes = res.sizes_after_min
    got = (
        stats.explored_metastates,
        stats.minimizations,
        len(reg.cover_hits),
        zlib.crc32(repr(sizes).encode()),
    )
    assert got == _PINNED_COUNTS[case], sizes


# peak_intermediate_states of the same runs, recorded before the loop kept its own list of
# live ids (it used to count every id ever created, minus the absorbed ones); the
# gen-11 pruned peak at threshold 3 was re-pinned with the pruned counts above
_PINNED_PEAKS = {
    "blowup8": (256, 256, 256, 256),
    "gen-11": (42, 45, 41, 45),
    "gen-26": (26, 27, 20, 20),
    "tv-16": (15, 16, 15, 15),
    "tv-28": (26, 26, 26, 26),
}


@pytest.mark.parametrize("name", sorted(_PINNED_PEAKS))
def test_peak_states_match_pinned_values(name):
    nfa = _pinned_input(name)
    q, preorder = simulation_quotient(nfa, compute_similarity(nfa))
    peaks = []
    for work in (nfa, PrunedView(q, preorder)):
        for interval in (1, 3):
            stats = RunStats()
            otf_determinize(work, CCLRegistry(), stats, FixedInterval(interval))
            peaks.append(stats.peak_intermediate_states)
    assert tuple(peaks) == _PINNED_PEAKS[name]


# (input, pipeline, threshold_init) -> the ``_RUNSTATS_FIELDS`` of
# ``canonize``, every RunStats count but the timings.  Recorded before the
# registries kept the one table of puts and the cover index stopped
# rebuilding; a change that must not move any output or count keeps these.
# The gen-26 brz-s and brz-otf-s tuples were re-pinned when those pipelines
# began to quotient the reversed automaton by its own similarity, and the
# exact and cover hits of the tv -s tuples when the -s pipelines began to
# prune every explored metastate (their sum did not move).
_RUNSTATS_FIELDS = (
    "final_states",
    "peak_intermediate_states",
    "overhead",
    "minimizations",
    "explored_metastates",
    "exact_hits",
    "cover_hits",
    "misses",
)
_PINNED_RUNSTATS = {
    ("blowup8", "sc", 3): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "sc-s", 3): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "otf", 3): (256, 256, 0, 13, 256, 257, 0, 255),
    ("blowup8", "otf-s", 3): (256, 256, 0, 13, 256, 257, 0, 255),
    ("blowup8", "brz", 3): (256, 256, 0, 0, 266, 268, 0, 264),
    ("blowup8", "brz-s", 3): (256, 256, 0, 0, 266, 268, 0, 264),
    ("blowup8", "brz-otf", 3): (256, 256, 0, 2, 266, 268, 0, 264),
    ("blowup8", "brz-otf-s", 3): (256, 256, 0, 2, 266, 268, 0, 264),
    ("blowup8", "sc", 5000): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "sc-s", 5000): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "otf", 5000): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "otf-s", 5000): (256, 256, 0, 1, 256, 257, 0, 255),
    ("blowup8", "brz", 5000): (256, 256, 0, 0, 266, 268, 0, 264),
    ("blowup8", "brz-s", 5000): (256, 256, 0, 0, 266, 268, 0, 264),
    ("blowup8", "brz-otf", 5000): (256, 256, 0, 0, 266, 268, 0, 264),
    ("blowup8", "brz-otf-s", 5000): (256, 256, 0, 0, 266, 268, 0, 264),
    ("gen-11", "sc", 3): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "sc-s", 3): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "otf", 3): (6, 6, 0, 2, 6, 19, 0, 5),
    ("gen-11", "otf-s", 3): (6, 6, 0, 2, 6, 19, 0, 5),
    ("gen-11", "brz", 3): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-11", "brz-s", 3): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-11", "brz-otf", 3): (6, 6, 0, 1, 12, 38, 0, 10),
    ("gen-11", "brz-otf-s", 3): (6, 6, 0, 1, 12, 38, 0, 10),
    ("gen-11", "sc", 5000): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "sc-s", 5000): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "otf", 5000): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "otf-s", 5000): (6, 6, 0, 1, 6, 19, 0, 5),
    ("gen-11", "brz", 5000): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-11", "brz-s", 5000): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-11", "brz-otf", 5000): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-11", "brz-otf-s", 5000): (6, 6, 0, 0, 12, 38, 0, 10),
    ("gen-26", "sc", 3): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "sc-s", 3): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "otf", 3): (19, 19, 0, 4, 19, 58, 0, 18),
    ("gen-26", "otf-s", 3): (19, 19, 0, 4, 19, 58, 0, 18),
    ("gen-26", "brz", 3): (19, 19, 0, 0, 37, 113, 0, 35),
    ("gen-26", "brz-s", 3): (19, 19, 0, 0, 36, 110, 0, 34),
    ("gen-26", "brz-otf", 3): (19, 19, 0, 3, 37, 113, 0, 35),
    ("gen-26", "brz-otf-s", 3): (19, 19, 0, 2, 36, 110, 0, 34),
    ("gen-26", "sc", 5000): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "sc-s", 5000): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "otf", 5000): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "otf-s", 5000): (19, 19, 0, 1, 19, 58, 0, 18),
    ("gen-26", "brz", 5000): (19, 19, 0, 0, 37, 113, 0, 35),
    ("gen-26", "brz-s", 5000): (19, 19, 0, 0, 36, 110, 0, 34),
    ("gen-26", "brz-otf", 5000): (19, 19, 0, 0, 37, 113, 0, 35),
    ("gen-26", "brz-otf-s", 5000): (19, 19, 0, 0, 36, 110, 0, 34),
    ("tv-16", "sc", 3): (5, 55, 50, 1, 55, 56, 0, 54),
    ("tv-16", "sc-s", 3): (5, 44, 39, 1, 44, 45, 0, 43),
    ("tv-16", "otf", 3): (5, 22, 8, 7, 44, 32, 13, 43),
    ("tv-16", "otf-s", 3): (5, 19, 7, 6, 40, 37, 4, 39),
    ("tv-16", "brz", 3): (5, 20, 15, 0, 25, 21, 6, 23),
    ("tv-16", "brz-s", 3): (5, 12, 7, 0, 17, 13, 6, 15),
    ("tv-16", "brz-otf", 3): (5, 17, 6, 3, 25, 21, 6, 23),
    ("tv-16", "brz-otf-s", 3): (5, 11, 2, 2, 17, 13, 6, 15),
    ("tv-16", "sc", 5000): (5, 55, 50, 1, 55, 56, 0, 54),
    ("tv-16", "sc-s", 5000): (5, 44, 39, 1, 44, 45, 0, 43),
    ("tv-16", "otf", 5000): (5, 55, 50, 1, 55, 56, 0, 54),
    ("tv-16", "otf-s", 5000): (5, 44, 39, 1, 44, 45, 0, 43),
    ("tv-16", "brz", 5000): (5, 20, 15, 0, 25, 21, 6, 23),
    ("tv-16", "brz-s", 5000): (5, 12, 7, 0, 17, 13, 6, 15),
    ("tv-16", "brz-otf", 5000): (5, 20, 15, 0, 25, 21, 6, 23),
    ("tv-16", "brz-otf-s", 5000): (5, 12, 7, 0, 17, 13, 6, 15),
    ("tv-28", "sc", 3): (25, 60, 35, 1, 60, 61, 0, 59),
    ("tv-28", "sc-s", 3): (25, 58, 33, 1, 58, 59, 0, 57),
    ("tv-28", "otf", 3): (25, 32, 1, 7, 53, 49, 5, 52),
    ("tv-28", "otf-s", 3): (25, 32, 1, 7, 52, 49, 4, 51),
    ("tv-28", "brz", 3): (25, 46, 21, 0, 71, 63, 10, 69),
    ("tv-28", "brz-s", 3): (25, 46, 21, 0, 71, 63, 10, 69),
    ("tv-28", "brz-otf", 3): (25, 41, 8, 5, 71, 63, 10, 69),
    ("tv-28", "brz-otf-s", 3): (25, 41, 8, 5, 71, 63, 10, 69),
    ("tv-28", "sc", 5000): (25, 60, 35, 1, 60, 61, 0, 59),
    ("tv-28", "sc-s", 5000): (25, 58, 33, 1, 58, 59, 0, 57),
    ("tv-28", "otf", 5000): (25, 60, 35, 1, 60, 61, 0, 59),
    ("tv-28", "otf-s", 5000): (25, 58, 33, 1, 58, 59, 0, 57),
    ("tv-28", "brz", 5000): (25, 46, 21, 0, 71, 63, 10, 69),
    ("tv-28", "brz-s", 5000): (25, 46, 21, 0, 71, 63, 10, 69),
    ("tv-28", "brz-otf", 5000): (25, 46, 21, 0, 71, 63, 10, 69),
    ("tv-28", "brz-otf-s", 5000): (25, 46, 21, 0, 71, 63, 10, 69),
}


@pytest.mark.parametrize("threshold_init", [3, 5000])
@pytest.mark.parametrize("name", sorted(_PINNED_PEAKS))
def test_run_stats_match_pinned_values(name, threshold_init):
    nfa = _pinned_input(name)
    for pipeline in PIPELINES:
        _, stats = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=threshold_init))
        assert not stats.timed_out
        got = tuple(getattr(stats, f) for f in _RUNSTATS_FIELDS)
        assert got == _PINNED_RUNSTATS[name, pipeline, threshold_init], pipeline


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
        _, merges = minimize(dfa, [])
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

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_lookup_counts_add_up(self, pipeline):
        # each successor lookup is an exact hit, a cover hit or a miss, and
        # each miss makes a state that is explored later: every state but
        # the initial one of each determinization
        passes = 2 if pipeline.startswith("brz") else 1
        for seed in range(3):
            nfa = tv_nfa(random.Random(seed), 20, 1.25, 0.5)
            _, stats = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=4))
            lookups = stats.exact_hits + stats.cover_hits + stats.misses
            assert lookups == nfa.alphabet_size * stats.explored_metastates
            assert stats.misses == stats.explored_metastates - passes
            assert stats.exact_hits > 0
            if pipeline == "sc":
                assert stats.cover_hits == 0  # the exact map is all there is

    @pytest.mark.parametrize("pipeline", ["otf", "otf-s"])
    def test_cover_hits_match_the_registry(self, monkeypatch, pipeline):
        made = []

        class Recording(CCLRegistry):
            def __init__(self):
                super().__init__()
                self.cover_hits = []
                made.append(self)

        monkeypatch.setattr(engine, "CCLRegistry", Recording)
        hits = 0
        for seed in range(4):
            nfa = tv_nfa(random.Random(seed), 32, 1.25, 0.5)
            _, stats = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=3))
            assert stats.cover_hits == len(made[-1].cover_hits)
            hits += stats.cover_hits
        assert hits > 0

    @pytest.mark.parametrize("pipeline", ["sc-s", "otf-s", "brz-s", "brz-otf-s"])
    def test_deadline_checked_inside_similarity(self, monkeypatch, pipeline):
        # the deadline has passed when similarity starts: the check the
        # engine hands in runs before each round of the fixpoint, so no
        # round runs, and the run reports a timeout
        rounds = []
        refine = simulation._refine
        monkeypatch.setattr(simulation, "_refine", lambda *args: rounds.append(1) or refine(*args))
        nfa = tv_nfa(random.Random(3), 16, 1.25, 0.5)
        canonize(nfa, CanonConfig(pipeline=pipeline))
        assert len(rounds) >= 2  # untimed, the fixpoint takes several rounds
        rounds.clear()
        now = [0.0]  # the engine's clock, in seconds
        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        similarity = engine.compute_similarity

        def late(nfa, **kwargs):
            now[0] = 1.0  # far past the 1 ms deadline
            return similarity(nfa, **kwargs)

        monkeypatch.setattr(engine, "compute_similarity", late)
        dfa, stats = canonize(nfa, CanonConfig(pipeline=pipeline, timeout_ms=1.0))
        assert dfa is None and stats.timed_out
        assert len(rounds) <= 1

    def test_timeout_keeps_lookup_counts(self):
        config = CanonConfig(pipeline="otf", threshold_init=50, timeout_ms=50.0)
        _, stats = canonize(blowup_nfa(20), config)
        assert stats.timed_out and stats.misses > 0
        lookups = stats.exact_hits + stats.cover_hits + stats.misses
        assert lookups == 2 * stats.explored_metastates

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

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_no_complete_drops_sink(self, ends_in_a, pipeline):
        from nfacanon.automata import Nfa

        partial_cfg = CanonConfig(pipeline=pipeline, complete_output=False)
        dfa, _ = canonize(ends_in_a, partial_cfg)
        # "ends in a" needs no sink: both states are live either way
        assert dfa.num_states == 2
        only_empty = Nfa(1, 2, [], initial=[0], final=[0])
        partial, _ = canonize(only_empty, partial_cfg)
        total, _ = canonize(only_empty, CanonConfig(pipeline=pipeline))
        assert partial.num_states == 1
        assert total.num_states == 2
        one_a = Nfa(2, 2, [(0, 0, 1)], [0], [1])
        partial, stats = canonize(one_a, partial_cfg)
        total, _ = canonize(one_a, CanonConfig(pipeline=pipeline))
        assert (partial.num_states, stats.final_states) == (2, 2)
        assert total.num_states == 3
        assert language_equivalent(completed(partial), total)

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_output_total_by_default(self, pipeline):
        # no pipeline completes its result: every explored row is filled,
        # and minimizing a total DFA adds no sink
        rng = random.Random(950)
        inputs = [random_nfa(rng, rng.randint(2, 9), rng.randint(1, 3)) for _ in range(12)]
        inputs += [Nfa(3, 2, [(0, 0, 1), (1, 1, 0)], [0], []), blowup_nfa(8)]
        for nfa in inputs:
            dfa, stats = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=3))
            assert dfa.is_total()
            assert stats.final_states == dfa.num_states
            assert isomorphic(dfa, canonical_dfa(nfa))

    @pytest.mark.parametrize("threshold_init", [0, -1])
    def test_threshold_below_one_rejected(self, threshold_init):
        nfa = generate(GenParams(n=20, density=2.0, seed=1))
        config = CanonConfig(pipeline="otf", threshold_init=threshold_init)
        with pytest.raises(ValueError, match="threshold_init"):
            canonize(nfa, config)

    def test_nan_timeout_rejected(self):
        # no time exceeds a NaN deadline, so it would never fire
        nfa = generate(GenParams(n=100, density=4.0, seed=1))
        with pytest.raises(ValueError, match="timeout_ms"):
            canonize(nfa, CanonConfig(timeout_ms=float("nan")))
        # zero and below still mean the deadline has passed
        for timeout_ms in (0.0, -1.0):
            dfa, stats = canonize(nfa, CanonConfig(timeout_ms=timeout_ms))
            assert dfa is None and stats.timed_out

    def test_one_preprocessing_chain(self, monkeypatch):
        # every pipeline quotients the trimmed input by bisimulation once;
        # an -s run packs one Preorder, in its simulation quotient, a plain run none
        quotients, preorders = [], []
        real_quotient, real_init = engine.bisimulation_quotient, Preorder.__init__

        def counting_quotient(nfa):
            quotients.append(nfa.num_states)
            return real_quotient(nfa)

        def counting_init(self, rel):
            preorders.append(len(rel))
            real_init(self, rel)

        monkeypatch.setattr(engine, "bisimulation_quotient", counting_quotient)
        monkeypatch.setattr(Preorder, "__init__", counting_init)
        nfa = generate(GenParams(n=20, density=2.0, seed=4))
        for pipeline in PIPELINES:
            quotients.clear()
            preorders.clear()
            canonize(nfa, CanonConfig(pipeline=pipeline))
            assert quotients == [trim(nfa).num_states], pipeline
            assert len(preorders) == pipeline.endswith("-s"), pipeline

    def test_similarity_computed_once(self, monkeypatch):
        # an -s pipeline computes the similarity of the automaton it
        # determinizes, the reversed bisimulation quotient for Brzozowski,
        # and reuses the preorder its quotient step induces
        calls = []

        def counting(nfa, **kwargs):
            calls.append(nfa)
            return compute_similarity(nfa, **kwargs)

        monkeypatch.setattr(engine, "compute_similarity", counting)
        nfa = generate(GenParams(n=20, density=2.0, seed=4))
        quotient = bisimulation_quotient(trim(nfa))

        def parts(a):
            return a.num_states, a.initial, a.final, list(a.edges())

        for pipeline in PIPELINES:
            calls.clear()
            canonize(nfa, CanonConfig(pipeline=pipeline))
            if not pipeline.endswith("-s"):
                assert calls == [], pipeline
                continue
            expect = reverse(quotient) if pipeline.startswith("brz") else quotient
            assert [parts(a) for a in calls] == [parts(expect)], pipeline

    def test_s_pipelines_prune_while_exploring(self, monkeypatch):
        # an -s run determinizes a pruned view: its successor table carries
        # the order, so ``prune`` runs once per -s pass, on the initial
        # metastate, the registry's puts are all pruned forms, and
        # ``unify`` prunes nothing.  The registry is CCL with a controller
        # and the one-to-one registry without one
        prunes = []
        real_prune = registry_module.prune

        def counting_prune(mask, preorder):
            prunes.append(mask)
            return real_prune(mask, preorder)

        monkeypatch.setattr(registry_module, "prune", counting_prune)

        orders = []
        real_quotient = engine.simulation_quotient

        def recording_quotient(nfa, rel):
            quotient, order = real_quotient(nfa, rel)
            orders.append(order)
            return quotient, order

        monkeypatch.setattr(engine, "simulation_quotient", recording_quotient)

        class Checked(CCLRegistry):
            unifies = 0

            def unify(self, root, gone):
                before = len(prunes)
                super().unify(root, gone)
                assert len(prunes) == before
                Checked.unifies += 1

        monkeypatch.setattr(engine, "CCLRegistry", Checked)
        first_passes = []
        determinize = engine.otf_determinize

        def recording(nfa, registry, *args):
            if isinstance(nfa, PrunedView):
                first_passes.append((nfa, registry))
            return determinize(nfa, registry, *args)

        monkeypatch.setattr(engine, "otf_determinize", recording)
        rng = random.Random(5)
        inputs = [tv_nfa(random.Random(seed), 16, 1.25, 0.5) for seed in range(4)]
        inputs += [auto_nfa(auto_tracks(rng, m)) for m in (3, 4, 5)]
        pruned = 0
        for nfa in inputs:
            for pipeline in ("sc-s", "otf-s", "brz-s", "brz-otf-s"):
                prunes.clear()
                first_passes.clear()
                orders.clear()
                canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=3))
                [(view, reg)] = first_passes
                [p] = orders
                assert [real_prune(m, p) for m in prunes] == [view.initial_mask], pipeline
                expect = Checked if "otf" in pipeline else OneToOneRegistry
                assert type(reg) is expect, pipeline
                assert all(prune(m, p) == m for m in reg.metastates), pipeline
                # puts with a member that has states below it to drop
                pruned += any(m & p.pruners for m in reg.metastates)
        assert Checked.unifies > 0 and pruned > 0


class TestBrzozowskiPhase2:
    @staticmethod
    def _inputs():
        rng = random.Random(77)
        yield from (tv_nfa(rng, n, 1.25, 0.5) for n in (6, 10, 14, 18, 24))
        yield from (random_nfa(rng, rng.randint(3, 9), 2) for _ in range(5))
        yield generate(GenParams(n=30, density=3.0, seed=2))
        yield from (blowup_nfa(4), blowup_nfa(7))
        yield from (auto_nfa(auto_tracks(rng, m)) for m in (3, 4, 5, 6))

    @pytest.mark.parametrize("pipeline", [p for p in PIPELINES if p.startswith("brz")])
    def test_two_passes_sum_into_one_run_stats(self, pipeline):
        # both passes add their counts into the RunStats they are given, so
        # running them by hand on one RunStats gives canonize's counts.  An
        # -s pipeline determinizes the pruned view of the reversed quotient's
        # own simulation quotient, and runs phase 2 on its reverse
        otf = "otf" in pipeline
        simulated = pipeline.endswith("-s")
        merged = 0
        for nfa in self._inputs():
            rev = explored = reverse(bisimulation_quotient(trim(nfa)))
            if simulated:
                n = rev.num_states
                rev, p = simulation_quotient(rev, compute_similarity(rev))
                merged += rev.num_states < n
                explored = PrunedView(rev, p)
            registry = CCLRegistry() if otf else OneToOneRegistry()
            stats = RunStats()
            first = otf_determinize(explored, registry, stats, Threshold(3) if otf else None)
            residual = ResidualRegistry(first.metastates, rev.num_states)
            otf_determinize(reverse(rev), residual, stats)
            _, expect = canonize(nfa, CanonConfig(pipeline=pipeline, threshold_init=3))
            counts = (
                "peak_intermediate_states",
                "minimizations",
                "explored_metastates",
                "exact_hits",
                "cover_hits",
                "misses",
            )
            for name in counts:
                assert getattr(stats, name) == getattr(expect, name), name
        if simulated:
            # the reverse simulation quotient merges states on some input
            assert merged > 0

    @pytest.mark.parametrize("pipeline", [p for p in PIPELINES if p.startswith("brz")])
    def test_forward_pass_matches_reversed_dfa_pass(self, monkeypatch, pipeline):
        # the second pass runs forward on the quotient, keyed by residual
        # signatures; it must give the subset construction of the reversed
        # phase-1 DFA, state for state and count for count
        config = CanonConfig(pipeline=pipeline, threshold_init=3)
        runs = []
        determinize = engine.otf_determinize

        def recording(nfa, registry, stats, *args):
            own = RunStats()  # each pass counts into a RunStats of its own
            runs.append((determinize(nfa, registry, own, *args), own))
            return runs[-1][0]

        monkeypatch.setattr(engine, "otf_determinize", recording)
        minimized = 0
        for nfa in self._inputs():
            runs.clear()
            canonize(nfa, config)
            (first, first_stats), (second, second_stats) = runs
            # one metastate per state of the phase-1 DFA, merged ids left out
            assert len(first.metastates) == first.dfa.num_states
            expect_stats = RunStats()
            expect = determinize(
                reverse(dfa_to_nfa(first.dfa)), OneToOneRegistry(), expect_stats
            )
            assert second.dfa.trans == expect.dfa.trans
            assert second.dfa.final == expect.dfa.final
            assert second_stats.explored_metastates == expect_stats.explored_metastates
            assert (
                second_stats.peak_intermediate_states
                == expect_stats.peak_intermediate_states
            )
            minimized += first_stats.minimizations
        if "otf" in pipeline:
            # threshold 3 makes phase 1 minimize a partly explored DFA
            assert minimized > 0

    # 8, 64 and their neighbours sit on the byte and word edges of the masks
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
    @pytest.mark.parametrize("count", [1, 8, 9, 65])
    def test_columns_transpose_metastates(self, n, count):
        rng = random.Random(1000 * n + count)
        metastates = [(1 << n) - 1, 0] + [rng.getrandbits(n) for _ in range(count)]
        metastates = metastates[:count]
        expect = [0] * n
        for j, m in enumerate(metastates):
            for q in range(n):
                if m >> q & 1:
                    expect[q] |= 1 << j
        assert ResidualRegistry(metastates, n).columns == expect


@st.composite
def _small_nfas(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_nfa(rng, draw(st.integers(1, 8)), draw(st.integers(1, 3)))
    r, f = draw(st.sampled_from([1.25, 1.5, 2.0])), draw(st.sampled_from([0.25, 0.5]))
    return tv_nfa(rng, draw(st.integers(2, 12)), r, f)


class TestDifferential:
    # thresholds 1-7 make the otf pipelines minimize while most of the
    # DFA is still unexplored, so merges and cover hits reach the oracle check
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nfa=_small_nfas())
    def test_every_pipeline_and_threshold_matches_oracle(self, nfa):
        expected = canonical_dfa(nfa)
        for pipeline in PIPELINES:
            for threshold_init in (1, 2, 3, 7):
                config = CanonConfig(pipeline=pipeline, threshold_init=threshold_init)
                dfa, _ = canonize(nfa, config)
                assert isomorphic(dfa, expected), (pipeline, threshold_init)


class TestThresholdControllers:
    def test_never_threshold(self):
        # without a controller the loop never minimizes, however long it runs
        stats = RunStats()
        res = otf_determinize(blowup_nfa(8), CCLRegistry(), stats, None)
        assert stats.minimizations == 0
        assert res.dfa.num_states == 2**8

    def test_adaptive_controller_wraps_state(self):
        c = Threshold(2)
        fires = [c.should_minimize() for _ in range(4)]
        assert fires == [False, True, False, True]
        c.after_minimize(4)
        # interval rescaled by the size ratio: 2 * 4/2 = 4, within the +2 cap
        assert c.t == 4

    def test_fixed_interval_never_rescales(self):
        # the tests' fixed-interval controller: fires every t-th call, and
        # no minimized size moves t
        rng = random.Random(78)
        c = FixedInterval(3)
        for _ in range(100):
            assert [c.should_minimize() for _ in range(3)] == [False, False, True]
            c.after_minimize(rng.randint(0, 100000))
            assert c.t == 3
