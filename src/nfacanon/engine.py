"""On-the-fly determinization and the eight canonization pipelines.

Determinization is classic subset construction with two twists: the
metastate-to-state mapping goes through an equivalence registry, and a
threshold predicate may interrupt exploration to minimize the partial DFA,
feeding the discovered state equivalences back into the registry.  The
registry alone resolves merged state ids and keeps the metastate put for
each; the loop keeps only a row table indexed by state id and its worklist.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .automata import UNDEFINED, Dfa, Nfa, complete, int_rows, reverse, trim
from .kernels import successor_kernel
from .partition import bisimulation_quotient, minimize
from .registry import CCLRegistry, OneToOneRegistry, PrunedView, Registry, ResidualRegistry
from .simulation import compute_similarity, simulation_quotient

# an alias only for perfbench/tracer.py, which patches this name (ROADMAP item 4)
CCLSRegistry = CCLRegistry

PIPELINES = ("sc", "sc-s", "otf", "otf-s", "brz", "brz-s", "brz-otf", "brz-otf-s")


class CanonTimeout(Exception):
    """Raised internally when a run exceeds its deadline.

    It carries nothing: a loop it interrupts has already added its counts
    to the run's ``RunStats``, as every loop does on every exit.
    """


class Threshold:
    """Adaptive minimization interval.

    Fires after every ``t`` explored states.  After each minimization ``t``
    is rescaled by the ratio of the new minimized size to the previous one
    (``s_old``), never dropping below ``t_min`` and never growing by more
    than ``t_min`` at once.  ``t``, ``s_old`` and ``t_min`` start at ``init``.
    """

    def __init__(self, init: int = 5000):
        self.t = self.s_old = self.t_min = init
        self.calls_since_last = 0

    def should_minimize(self) -> bool:
        self.calls_since_last += 1
        if self.calls_since_last >= self.t:
            self.calls_since_last = 0
            return True
        return False

    def after_minimize(self, new_size: int) -> None:
        s_new = max(1, new_size)
        scaled = round(self.t * s_new / self.s_old)
        self.t = max(self.t_min, min(scaled, self.t + self.t_min))
        self.s_old = s_new


@dataclass
class DeterminizeResult:
    """The DFA a determinization loop built; its counts went into ``stats``."""

    dfa: Dfa
    metastates: list[int]  # metastates[i]: the metastate put for state i of `dfa`
    sizes_after_min: list[int]


def otf_determinize(
    nfa: Nfa | PrunedView,
    registry: Registry,
    stats: RunStats,
    controller: Threshold | None = None,
    deadline: float | None = None,
) -> DeterminizeResult:
    """Subset construction with registry lookups and on-the-fly minimization.

    ``nfa`` is an ``Nfa``, or in the first pass of an ``-s`` pipeline the
    ``PrunedView`` of one; the loop reads only its successors, masks and
    alphabet size.  Exploration uses a LIFO worklist (depth-first) of
    (metastate, state id) pairs; the unexplored states are exactly the ids
    on it.  The table is
    ``rows``, indexed by state id; the row of a state merged away is
    ``None``.  Each state is put under the next id, and its final flag is
    read off ``registry.metastates``, the registry's table of puts.  The
    loop keeps the sorted live ids itself: each new id is appended, and
    each minimization drops the ids it absorbs.  The registry resolves
    every id: lookups return representatives, and intermediate
    minimizations report their blocks to it with ``unify`` and rewrite the
    rows that named an absorbed id, so every row names live ids only.  Only
    explored states are ever merged, because minimization keeps each
    unexplored state in a block of its own.  The returned DFA is the final,
    *not* finally-minimized automaton; all of its states are explored and
    total; its state i stands for the i-th smallest live id, and the root
    of an absorbed id ``s`` is the exact map's entry for
    ``registry.metastates[s]``.
    Without a ``controller`` no intermediate minimization happens; with
    one, the registry must be able to ``unify``, so it is a CCL registry.
    Each block of merged states goes to it as one ``unify(survivor,
    absorbed)``: the survivor is the smallest live id of the block and
    ``absorbed`` lists the others, ascending; blocks go in survivor order.
    The loop calls only the controller's ``should_minimize()``, once per
    explored state, and ``after_minimize(size)``; the pipelines pass a
    ``Threshold``.
    ``metastates`` lists the metastate each live id was put for, in id
    order, which Brzozowski's second pass reads.

    Each successor is looked up in the registry's exact map first, whose
    hits are final; only a metastate it misses goes to ``registry.get``,
    and one that ``get`` misses too is put as a new state right away.  So
    ``get`` is never asked about a key of the exact map, every put but the
    initial one follows the miss of its metastate, an exact hit costs one
    dict lookup and no call, and the counts of the three outcomes follow
    from the number of ``get`` calls alone.

    The loop adds its counts into ``stats`` on every exit: a normal
    return, a ``CanonTimeout`` from ``deadline``, or any other exception.
    They are the explored metastates, the intermediate minimizations, the
    peak number of live states (kept as a max over the calls on one
    ``stats``) and the three lookup outcomes; a lookup whose ``get``
    raised has none, and is not counted.  So the two calls of a
    Brzozowski pipeline sum into one ``RunStats``, and an interrupted call
    leaves its partial counts there.
    """
    kern = successor_kernel(nfa)
    exact = registry._exact.get
    k = nfa.alphabet_size
    final_mask = nfa.final_mask
    init_mask = nfa.initial_mask

    rows: list[list[int] | None] = [[UNDEFINED] * k]
    registry.put(init_mask, 0)
    stack = [(init_mask, 0)]

    explored_count = 0
    a = -1  # the successor being looked up, or -1 between rows
    n = 0  # its answer; None from the exact map's miss until ``get`` returns
    gets = 0  # registry.get calls: lookups the exact map missed
    live = [0]  # sorted live ids
    peak = 1
    sizes_after_min: list[int] = []

    try:
        while stack:
            if deadline is not None and time.perf_counter() > deadline:
                raise CanonTimeout
            # c is unexplored, so no minimization has merged it: it is still live
            current, c = stack.pop()
            row = rows[c]
            succs = kern.successors(current)
            for a in range(k):
                nxt = succs[a]
                n = exact(nxt)
                if n is None:
                    gets += 1
                    n = registry.get(nxt)
                    if n is None:
                        n = len(rows)
                        rows.append([UNDEFINED] * k)
                        registry.put(nxt, n)
                        stack.append((nxt, n))
                        live.append(n)
                row[a] = n
            explored_count += 1
            a = -1
            if len(live) > peak:
                peak = len(live)
            if controller is not None and controller.should_minimize():
                live = _intermediate_minimize(rows, final_mask, live, stack, registry, k)
                sizes_after_min.append(len(live))
                controller.after_minimize(len(live))
    finally:
        # each explored row looked up k successors, and a row cut short by
        # an exception a + 1, or a if ``get`` raised: that lookup has no
        # outcome.  ``gets`` of them missed the exact map, and each miss of
        # ``get`` put one of the states but the initial one
        unanswered = n is None
        lookups = k * explored_count + a + 1 - unanswered
        gets -= unanswered
        misses = len(rows) - 1
        stats.explored_metastates += explored_count
        stats.minimizations += len(sizes_after_min)
        stats.peak_intermediate_states = max(stats.peak_intermediate_states, peak)
        stats.exact_hits += lookups - gets
        stats.cover_hits += gets - misses
        stats.misses += misses

    metastates = registry.metastates
    if len(live) < len(rows):  # some id was absorbed
        trans = _dense(rows, live, k).tolist()
        metastates = [metastates[s] for s in live]
    else:
        trans = rows
    finals = [i for i, m in enumerate(metastates) if m & final_mask]
    dfa = Dfa(len(live), k, 0, finals, trans)
    return DeterminizeResult(dfa, metastates, sizes_after_min)


def _dense(rows, ids: list[int], k: int) -> np.ndarray:
    """The rows of the sorted live ``ids``, renumbered to dense positions.

    Every row names live ids or ``UNDEFINED``.  Id 0 is the smallest, so it
    survives every merge and stays dense state 0, the initial state.
    """
    # pos[id] = dense position; pos[-1] keeps UNDEFINED undefined
    pos = np.full(len(rows) + 1, UNDEFINED)
    pos[ids] = np.arange(len(ids))
    return pos[int_rows(map(rows.__getitem__, ids), len(ids), k)]


def _intermediate_minimize(rows, final_mask, ids, stack, registry, k) -> list[int]:
    """Minimize the partial DFA of the sorted live ``ids`` in place.

    Each block goes to the registry as one ``unify``: ``minimize`` lists
    its merges sorted by survivor, then by absorbed id, so grouping them
    in list order gives the blocks in survivor order, each with its
    absorbed ids ascending.  Rows that named an absorbed id are rewritten
    to name its survivor.  Returns the live ids left, sorted.
    """
    table = _dense(rows, ids, k)
    n = len(ids)
    finals = [i for i, s in enumerate(ids) if registry.metastates[s] & final_mask]
    # the table is an array here: minimize reads it without copying
    snap = Dfa(n, k, 0, finals, table)
    _, merges = minimize(snap, np.searchsorted(ids, [s for _, s in stack]))
    if not merges:
        return ids
    # target[i]: id that dense state i now stands for; the extra last entry
    # keeps UNDEFINED undefined
    target = ids + [UNDEFINED]
    blocks: dict[int, list[int]] = {}  # survivor -> its absorbed ids, ascending
    for surv, dead in merges:
        blocks.setdefault(ids[surv], []).append(ids[dead])
        rows[ids[dead]] = None
        target[dead] = ids[surv]
    for root, absorbed in blocks.items():
        registry.unify(root, absorbed)
    target = np.array(target)
    gone = target != ids + [UNDEFINED]  # the dense states absorbed
    kept = ~gone[:n]
    for i in np.flatnonzero(gone[table].any(axis=1) & kept).tolist():
        rows[ids[i]] = target[table[i]].tolist()
    return target[:n][kept].tolist()


@dataclass
class CanonConfig:
    pipeline: str = "sc"
    threshold_init: int = 5000
    complete_output: bool = True
    timeout_ms: float | None = None


@dataclass
class RunStats:
    wall_time_ms: float = 0.0
    final_states: int = 0
    peak_intermediate_states: int = 0
    overhead: int = 0
    minimizations: int = 0
    explored_metastates: int = 0
    timed_out: bool = False
    # from the start of ``canonize`` to the first determinization; 0.0 when
    # the run timed out before it
    preprocess_ms: float = 0.0
    # successor lookups over both determinizations: answered by the exact
    # map, by the registry past it (cover hits, or signature hits in
    # Brzozowski's second pass), or by nobody
    exact_hits: int = 0
    cover_hits: int = 0
    misses: int = 0


def canonize(nfa: Nfa, config: CanonConfig) -> tuple[Dfa | None, RunStats]:
    """Run one canonization pipeline; returns the canonical DFA and metrics.

    On timeout the DFA is ``None`` and ``stats.timed_out`` is set.
    """
    if config.pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {config.pipeline!r}")
    if config.threshold_init < 1:
        raise ValueError(f"threshold_init must be at least 1: {config.threshold_init}")
    if config.timeout_ms is not None and math.isnan(config.timeout_ms):
        # no time exceeds a NaN deadline: it would never fire
        raise ValueError("timeout_ms must not be NaN")
    stats = RunStats()
    start = time.perf_counter()
    deadline = (
        start + config.timeout_ms / 1000.0 if config.timeout_ms is not None else None
    )
    try:
        dfa = _run_pipeline(nfa, config, stats, start, deadline)
    except CanonTimeout:
        stats.timed_out = True
        dfa = None
    stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return dfa, stats


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise CanonTimeout


def _run_pipeline(nfa, config, stats, start, deadline):
    """Preprocess, determinize, then minimize or run Brzozowski's second pass.

    Every pipeline quotients the trimmed input by bisimulation, and a
    Brzozowski pipeline reverses that quotient.  Call the result B, the
    automaton to determinize.  An ``-s`` pipeline replaces B by its
    quotient under simulation equivalence, which keeps its language (Ilie,
    Navarro & Yu, "On NFA Reductions", 2004), and ``simulation_quotient``
    returns with it one ``Preorder``, the partial order that B's similarity
    induces on the classes: one similarity per run.  It determinizes the
    ``PrunedView`` of B by that order, so every metastate it explores is
    pruned.  The registry is chosen by ``otf`` alone: CCL with a
    controller, the one-to-one registry without one, and neither reads the
    order.
    For the subset pipelines, bisimilar states are mutually similar, so
    similarity runs on the smaller automaton and finds the simulation
    quotient of the trimmed input, state numbering included.

    The Brzozowski pipelines determinize B into D1 and write A = rev(B).
    Write S_i for the metastate of D1's dense state i.  The second pass is
    det(rev(D1)), the minimal DFA, and the metastate it reaches by a word w
    is ``{i : S_i ∩ P_w ≠ ∅}``, where P_w is the forward subset of A after w
    (Brzozowski 1962; Bonchi et al., ACM TOCL 2014).  So it runs as a
    forward subset construction of A whose ``ResidualRegistry`` keys each
    subset by that set, its signature: it finds the same states in the same
    order as a subset construction of rev(D1), with the same counts.  The
    key is exact for the reachable subsets, the only ones it is asked about.
    Pruning S_i keeps it so: a member x that S_i drops is simulated in B by
    a member y it keeps, so y is reached by every word of A that reaches x,
    and y lies in each P_w that holds x.  Phase 2 runs on A itself,
    unpruned.
    """
    simulated = config.pipeline.endswith("-s")
    brz = config.pipeline.startswith("brz")
    uses_otf = "otf" in config.pipeline

    work = bisimulation_quotient(trim(nfa))
    if brz:
        work = reverse(work)
    _check_deadline(deadline)

    # ``explored`` is the automaton the registry lookups refer to
    explored: Nfa | PrunedView = work
    if simulated:
        work, preorder = simulation_quotient(
            work, compute_similarity(work, check=lambda: _check_deadline(deadline))
        )
        _check_deadline(deadline)
        explored = PrunedView(work, preorder)
    registry: Registry = CCLRegistry() if uses_otf else OneToOneRegistry()
    controller = Threshold(config.threshold_init) if uses_otf else None
    stats.preprocess_ms = (time.perf_counter() - start) * 1000.0
    res = otf_determinize(explored, registry, stats, controller, deadline)
    reference = max([res.dfa.num_states] + res.sizes_after_min)
    _check_deadline(deadline)

    if brz:
        registry = ResidualRegistry(res.metastates, work.num_states)
        res = otf_determinize(reverse(work), registry, stats, None, deadline)
        dfa = res.dfa
    else:
        # the determinized DFA is total and fully explored
        dfa, _ = minimize(res.dfa, [])
        stats.minimizations += 1
    dfa = complete(dfa) if config.complete_output else _drop_sink(dfa)
    stats.final_states = dfa.num_states
    stats.overhead = max(0, reference - dfa.num_states)
    return dfa


def _drop_sink(dfa: Dfa) -> Dfa:
    """Remove the sink of a minimal total DFA, leaving it trim and partial.

    All dead states of a minimal DFA are one non-final state looping to
    itself on every symbol.  The initial state stays even when it is dead.
    """
    k = dfa.alphabet_size
    for sink in range(dfa.num_states):
        dead = sink not in dfa.final and dfa.trans[sink] == [sink] * k
        if dead and sink != dfa.initial:
            break
    else:
        return dfa
    keep = [s for s in range(dfa.num_states) if s != sink]
    new_id = {s: i for i, s in enumerate(keep)}
    new_id[sink] = UNDEFINED  # transitions into the sink become undefined
    rows = [[new_id[t] for t in dfa.trans[s]] for s in keep]
    return Dfa(len(keep), k, new_id[dfa.initial], [new_id[s] for s in dfa.final], rows)
