"""On-the-fly determinization and the eight canonization pipelines.

Determinization is classic subset construction with two twists: the
metastate-to-state mapping goes through an equivalence registry, and a
threshold predicate may interrupt exploration to minimize the partial DFA,
feeding the discovered state equivalences back into the registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .automata import UNDEFINED, Dfa, Nfa, ReversedDfa, complete, reverse, trim
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
    nfa: Nfa | ReversedDfa,
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
    Without a ``controller`` no intermediate minimization happens.  ``nfa``
    may be a ``ReversedDfa``, the input of Brzozowski's second pass.
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


def canonize(nfa: Nfa, config: CanonConfig) -> tuple[Dfa | None, RunStats]:
    """Run one canonization pipeline; returns the canonical DFA and metrics.

    On timeout the DFA is ``None`` and ``stats.timed_out`` is set.
    """
    if config.pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {config.pipeline!r}")
    if config.threshold_init < 1:
        raise ValueError(f"threshold_init must be at least 1: {config.threshold_init}")
    stats = RunStats()
    start = time.perf_counter()
    deadline = (
        start + config.timeout_ms / 1000.0 if config.timeout_ms is not None else None
    )
    try:
        dfa = _run_pipeline(nfa, config, stats, deadline)
    except CanonTimeout as e:
        stats.timed_out = True
        _fold(stats, e)
        dfa = None
    stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return dfa, stats


def _fold(stats: RunStats, run: DeterminizeResult | CanonTimeout) -> None:
    """Add one determinization loop's counts to the run's totals."""
    stats.explored_metastates += run.explored_count
    stats.minimizations += run.minimizations
    stats.peak_intermediate_states = max(
        stats.peak_intermediate_states, run.peak_states
    )


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise CanonTimeout


def _run_pipeline(nfa, config, stats, deadline):
    simulated = config.pipeline.endswith("-s")
    brz = config.pipeline.startswith("brz")
    uses_otf = "otf" in config.pipeline

    work = trim(nfa)
    _check_deadline(deadline)
    if simulated:
        work, preorder = simulation_quotient(work, compute_similarity(work))
    else:
        work = bisimulation_quotient(work)
    if brz:
        work = reverse(work)
        if simulated:
            preorder = compute_similarity(work)
    _check_deadline(deadline)

    # ``work`` is the automaton the registry lookups refer to
    if simulated:
        registry: Registry = CCLSRegistry(preorder)
    elif uses_otf:
        registry = CCLRegistry()
    else:
        registry = OneToOneRegistry()
    controller = Threshold(config.threshold_init) if uses_otf else None
    res = otf_determinize(work, registry, controller, deadline)
    _fold(stats, res)
    reference = max([res.dfa.num_states] + res.sizes_after_min)
    _check_deadline(deadline)

    if brz:
        # subset construction of a reversed reachable DFA yields the minimal DFA
        res = otf_determinize(ReversedDfa(res.dfa), OneToOneRegistry(), None, deadline)
        _fold(stats, res)
        dfa = res.dfa
    else:
        # the determinized DFA is total and fully explored
        dfa, _ = minimize(res.dfa, build_signature(res.dfa))
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
    out = Dfa(len(keep), k, new_id[dfa.initial], final=[new_id[s] for s in dfa.final])
    out.trans = [[new_id[t] for t in dfa.trans[s]] for s in keep]
    out.explored = set(range(len(keep)))
    return out
