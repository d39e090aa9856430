"""On-the-fly determinization and the eight canonization pipelines.

Determinization is classic subset construction with two twists: the
metastate-to-state mapping goes through an equivalence registry, and a
threshold predicate may interrupt exploration to minimize the partial DFA,
feeding the discovered state equivalences back into the registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .automata import UNDEFINED, Dfa, Nfa, complete, reverse, trim
from .kernels import successor_kernel
from .partition import (
    SIG_ACCEPTING,
    SIG_REJECTING,
    Signature,
    bisimulation_quotient,
    minimize,
    sig_unique,
)
from .registry import CCLRegistry, CCLSRegistry, OneToOneRegistry, Registry
from .simulation import compute_similarity, simulation_quotient

PIPELINES = ("sc", "sc-s", "otf", "otf-s", "brz", "brz-s", "brz-otf", "brz-otf-s")


class CanonTimeout(Exception):
    """Raised internally when a run exceeds its deadline.

    Raised inside the determinization loop, it carries that loop's explored
    count, peak state count and intermediate minimization count so far, so a
    timed-out run keeps them.
    """

    def __init__(
        self, explored_count: int = 0, peak_states: int = 0, minimizations: int = 0
    ):
        super().__init__()
        self.explored_count = explored_count
        self.peak_states = peak_states
        self.minimizations = minimizations


class Threshold:
    """Adaptive minimization interval.

    Fires after every ``t`` explored states.  After each minimization ``t``
    is rescaled by the ratio of the new minimized size to the previous one
    (``s_old``), never dropping below ``t_min`` and never growing by more
    than ``max_increase``.  ``t``, ``s_old`` and ``t_min`` start at ``init``;
    ``max_increase`` defaults to ``init``, and ``max_increase=0`` gives a
    fixed interval (``init=1``: minimize after every explored state).
    """

    def __init__(self, init: int = 5000, max_increase: int | None = None):
        self.t = self.s_old = self.t_min = init
        self.max_increase = init if max_increase is None else max_increase
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
        self.t = max(self.t_min, min(scaled, self.t + self.max_increase))
        self.s_old = s_new


def build_signature(dfa: Dfa) -> Signature:
    """Boolean acceptance tags for explored states, unique tags otherwise."""
    return [
        (SIG_ACCEPTING if i in dfa.final else SIG_REJECTING)
        if i in dfa.explored
        else sig_unique(i)
        for i in range(dfa.num_states)
    ]


@dataclass
class DeterminizeResult:
    dfa: Dfa
    state_map: dict[int, int]  # every created state id -> state in `dfa`
    explored_count: int
    peak_states: int
    minimizations: int
    sizes_after_min: list[int] = field(default_factory=list)
    explored_trace: list[int] | None = None


def otf_determinize(
    nfa: Nfa,
    registry: Registry,
    controller: Threshold | None = None,
    deadline: float | None = None,
    trace_explored: bool = False,
) -> DeterminizeResult:
    """Subset construction with registry lookups and on-the-fly minimization.

    Exploration uses a LIFO worklist (depth-first).  The returned DFA is the
    final, *not* finally-minimized automaton; all of its states are explored
    and total.  ``state_map`` resolves every state id ever created (including
    ids absorbed by intermediate minimizations) to a state of the result.
    Without a ``controller`` no intermediate minimization happens.
    """
    kern = successor_kernel(nfa)
    uf = registry.uf
    k = nfa.alphabet_size
    final_mask = nfa.final_mask
    init_mask = nfa.initial_mask

    counter = 0
    trans: dict[int, list[int]] = {0: [UNDEFINED] * k}
    final: set[int] = {0} if init_mask & final_mask else set()
    explored: set[int] = set()
    registry.put(init_mask, 0)
    stack = [init_mask]

    explored_trace: list[int] | None = [] if trace_explored else None
    explored_count = 0
    peak = 1
    minimizations = 0
    sizes_after_min: list[int] = []

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            raise CanonTimeout(explored_count, peak, minimizations)
        current = stack.pop()
        c = uf.find(registry.get(current))
        if c in explored:
            continue  # absorbed into an already-explored state
        row = trans[c]
        succs = kern.successors(current)
        for a in range(k):
            nxt = succs[a]
            n = registry.get(nxt)
            if n is None:
                counter += 1
                n = counter
                trans[n] = [UNDEFINED] * k
                if nxt & final_mask:
                    final.add(n)
                registry.put(nxt, n)
                stack.append(nxt)
            else:
                n = uf.find(n)
            row[a] = n
        explored.add(c)
        explored_count += 1
        if explored_trace is not None:
            explored_trace.append(current)
        if len(trans) > peak:
            peak = len(trans)
        if controller is not None and controller.should_minimize():
            _intermediate_minimize(trans, final, explored, registry, uf, k)
            minimizations += 1
            sizes_after_min.append(len(trans))
            controller.after_minimize(len(trans))

    dfa, _, pos = _snapshot(trans, final, explored, uf, k)
    state_map = {i: pos[uf.find(i)] for i in range(counter + 1)}
    return DeterminizeResult(
        dfa=dfa,
        state_map=state_map,
        explored_count=explored_count,
        peak_states=peak,
        minimizations=minimizations,
        sizes_after_min=sizes_after_min,
        explored_trace=explored_trace,
    )


def _intermediate_minimize(trans, final, explored, registry, uf, k) -> None:
    """Minimize the partial DFA in place and forward merges to the registry."""
    snap, ids, _ = _snapshot(trans, final, explored, uf, k)
    _, merges = minimize(snap, build_signature(snap))
    for surv_dense, absorbed_dense in merges:
        surv, absorbed = ids[surv_dense], ids[absorbed_dense]
        registry.unify(surv, absorbed)
        uf.union(surv, absorbed)  # no-op for registries that already merged
        del trans[absorbed]
        final.discard(absorbed)
        explored.discard(absorbed)


def _snapshot(trans, final, explored, uf, k) -> tuple[Dfa, list[int], dict[int, int]]:
    """Dense copy of the sparse partial DFA, with its id maps.

    Returns the DFA, the sorted sparse ids (dense index -> id) and their
    inverse (id -> dense index).
    """
    ids = sorted(trans)
    pos = {s: i for i, s in enumerate(ids)}
    dfa = Dfa(
        len(ids),
        k,
        pos[uf.find(0)],
        final={pos[s] for s in ids if s in final},
        explored={pos[s] for s in ids if s in explored},
    )
    for s in ids:
        row = trans[s]
        dense_row = dfa.trans[pos[s]]
        for a in range(k):
            if row[a] != UNDEFINED:
                dense_row[a] = pos[uf.find(row[a])]
    return dfa, ids, pos


@dataclass
class CanonConfig:
    pipeline: str = "sc"
    threshold_init: int = 5000
    complete_output: bool = True
    timeout_ms: float | None = None


@dataclass
class RunStats:
    wall_time_ms: float = 0.0
    peak_intermediate_states: int = 0
    final_states: int = 0
    overhead: int = 0
    minimizations: int = 0
    explored_metastates: int = 0
    timed_out: bool = False


@dataclass
class CanonTrace:
    """Optional instrumentation collected during :func:`canonize`."""

    cover_hits: list[tuple[int, int]] = field(default_factory=list)
    explored_trace: list[int] = field(default_factory=list)
    state_map: dict[int, int] = field(default_factory=dict)
    preprocessed: Nfa | None = None
    lookup_nfa: Nfa | None = None  # automaton the registry lookups refer to


def canonize(
    nfa: Nfa, config: CanonConfig, trace: CanonTrace | None = None
) -> tuple[Dfa | None, RunStats]:
    """Run one canonization pipeline; returns the canonical DFA and metrics.

    On timeout the DFA is ``None`` and ``stats.timed_out`` is set.
    """
    if config.pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {config.pipeline!r}")
    stats = RunStats()
    start = time.perf_counter()
    deadline = (
        start + config.timeout_ms / 1000.0 if config.timeout_ms is not None else None
    )
    try:
        dfa = _run_pipeline(nfa, config, stats, deadline, trace)
    except CanonTimeout as e:
        stats.timed_out = True
        stats.explored_metastates += e.explored_count
        stats.minimizations += e.minimizations
        stats.peak_intermediate_states = max(
            stats.peak_intermediate_states, e.peak_states
        )
        stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return None, stats
    stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return dfa, stats


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise CanonTimeout


def _run_pipeline(nfa, config, stats, deadline, trace):
    simulated = config.pipeline.endswith("-s")
    brz = config.pipeline.startswith("brz")
    uses_otf = "otf" in config.pipeline

    work = trim(nfa)
    _check_deadline(deadline)
    if simulated:
        pre = compute_similarity(work)
        work = simulation_quotient(work, pre)
    else:
        work = bisimulation_quotient(work)
    _check_deadline(deadline)
    if trace is not None:
        trace.preprocessed = work

    def controller():
        return Threshold(config.threshold_init) if uses_otf else None

    def registry_for(phase_nfa: Nfa) -> Registry:
        if simulated:
            reg: Registry = CCLSRegistry(compute_similarity(phase_nfa))
        elif uses_otf:
            reg = CCLRegistry()
        else:
            reg = OneToOneRegistry()
        if trace is not None and isinstance(reg, CCLRegistry):
            reg.cover_hits = []
        return reg

    def det(phase_nfa: Nfa, reg: Registry, ctrl) -> DeterminizeResult:
        res = otf_determinize(
            phase_nfa,
            reg,
            controller=ctrl,
            deadline=deadline,
            trace_explored=trace is not None,
        )
        stats.explored_metastates += res.explored_count
        stats.minimizations += res.minimizations
        stats.peak_intermediate_states = max(
            stats.peak_intermediate_states, res.peak_states
        )
        if trace is not None and res.explored_trace is not None:
            trace.explored_trace.extend(res.explored_trace)
        return res

    if brz:
        rev = reverse(work)
        if trace is not None:
            trace.lookup_nfa = rev
        reg1 = registry_for(rev)
        phase1 = det(rev, reg1, controller())
        _record_cover_hits(trace, reg1)
        phase1_size = phase1.dfa.num_states
        # second phase: plain subset construction, no minimization needed
        phase2_input = reverse(phase1.dfa.to_nfa())
        reg2 = OneToOneRegistry()
        phase2 = det(phase2_input, reg2, None)
        result = phase2.dfa
        if trace is not None:
            trace.state_map = phase2.state_map
        if config.complete_output:
            result = complete(result)
        stats.final_states = result.num_states
        reference = max([phase1_size] + phase1.sizes_after_min)
        stats.overhead = max(0, reference - stats.final_states)
        return result

    if trace is not None:
        trace.lookup_nfa = work
    reg = registry_for(work)
    res = det(work, reg, controller())
    _record_cover_hits(trace, reg)
    pre_min_size = res.dfa.num_states
    _check_deadline(deadline)
    # final minimization (counts toward the minimization total)
    d = complete(res.dfa) if config.complete_output else res.dfa
    d.explored = set(range(d.num_states))
    minimized, _ = minimize(d, build_signature(d))
    stats.minimizations += 1
    if not config.complete_output:
        minimized = _drop_dead_states(minimized)
    stats.final_states = minimized.num_states
    reference = max([pre_min_size] + res.sizes_after_min)
    stats.overhead = max(0, reference - stats.final_states)
    if trace is not None:
        # compose determinization id map with the final minimization map
        final_map = _minimization_map(d, minimized)
        trace.state_map = {
            orig: final_map[dense] for orig, dense in res.state_map.items()
        }
    return minimized


def _record_cover_hits(trace, reg) -> None:
    hits = getattr(reg, "cover_hits", None)
    if trace is not None and hits:
        trace.cover_hits.extend(hits)


def _minimization_map(before: Dfa, after: Dfa) -> dict[int, int]:
    """Map states of ``before`` onto the quotient by replaying words.

    Both automata are total here; parallel BFS assigns each reachable state
    of ``before`` its image in ``after``.
    """
    mapping = {before.initial: after.initial}
    stack = [before.initial]
    while stack:
        s = stack.pop()
        for a in range(before.alphabet_size):
            t = before.trans[s][a]
            if t not in mapping:
                mapping[t] = after.trans[mapping[s]][a]
                stack.append(t)
    return mapping


def _drop_dead_states(dfa: Dfa) -> Dfa:
    """Remove states that cannot reach a final state (trim-partial form)."""
    preds: list[list[int]] = [[] for _ in range(dfa.num_states)]
    for s in range(dfa.num_states):
        for a in range(dfa.alphabet_size):
            t = dfa.trans[s][a]
            if t != UNDEFINED:
                preds[t].append(s)
    alive = set(dfa.final)
    stack = list(alive)
    while stack:
        s = stack.pop()
        for p in preds[s]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    alive.add(dfa.initial)  # keep the initial state even for the empty language
    keep = sorted(alive)
    new_id = {s: i for i, s in enumerate(keep)}
    out = Dfa(
        len(keep),
        dfa.alphabet_size,
        new_id[dfa.initial],
        final={new_id[s] for s in keep if s in dfa.final},
        explored={new_id[s] for s in keep},
    )
    for s in keep:
        for a in range(dfa.alphabet_size):
            t = dfa.trans[s][a]
            if t != UNDEFINED and t in new_id:
                out.set_transition(new_id[s], a, new_id[t])
    return out
