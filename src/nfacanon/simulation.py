"""Similarity preorders on NFA states and metastate normalization.

``compute_similarity`` returns the coarsest simulation preorder as a
boolean matrix ``rel``: ``rel[x, y]`` means y simulates x, hence L(x) is a
subset of L(y).  ``simulation_quotient`` merges mutually similar states and
packs the relation induced on the classes, a partial order, into the
``Preorder`` whose rows ``prune`` reads.  It is the one producer of a
``Preorder``: an ``-s`` pipeline takes one quotient, and the pruning view
it determinizes is the one reader of its order; no registry reads it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .automata import Nfa, bit_rows, quotient, to_mask


class Preorder:
    """Partial order over NFA states, as per-state bitmask rows.

    It is packed from a boolean matrix ``rel`` (``rel[x, y]``: x <= y),
    which must be a partial order: reflexive, antisymmetric and transitive,
    as the relation that similarity induces on its own quotient is.  It
    does not keep ``rel``, only the strict rows: ``below[y]`` holds the x
    with x < y.  ``pruners`` holds the states whose row is not empty, the
    only ones that ``prune`` and ``saturate`` read.  An ``-s``
    determinization runs on a ``PrunedView`` of its automaton by one
    ``Preorder``, which folds ``below`` into its successor table.
    """

    __slots__ = ("below", "pruners")

    def __init__(self, rel: np.ndarray):
        # column y of rel holds the x <= y; y itself is dropped from it
        self.below = [row & ~(1 << y) for y, row in enumerate(bit_rows(rel.T))]
        self.pruners = to_mask(y for y, row in enumerate(self.below) if row)


def compute_similarity(nfa: Nfa, check: Callable[[], None] = lambda: None) -> np.ndarray:
    """Coarsest simulation preorder, by greatest-fixpoint refinement.

    Returns the boolean matrix ``R``, reflexive and transitive: ``R[x, y]``
    means y simulates x.  ``R`` starts as the relation respecting acceptance
    (x final implies y final) and, for every symbol, enabledness (x has a
    successor implies y has one).  Each round then drops every pair of
    sources (x, y) where, on some symbol, a successor of x is simulated by
    no successor of y.  Rounds repeat until none drops a pair (Ilie,
    Navarro & Yu, "On NFA Reductions", 2004).

    The rounds work on the transpose, whose row y lists the states that y
    simulates, so every reduction runs over whole rows.  A round packs the
    rows into ``uint64`` words and ORs them over the edges of every (symbol,
    source) group in one call, for all symbols at once: the existential
    quantifier.  Each symbol then ANDs the unpacked results of its groups
    over its edges, grouped by source: the universal one.

    ``check`` is called before each round and before each symbol's step
    within it; the engine passes one that raises once the run's deadline
    has passed.
    """
    n = nfa.num_states
    final = np.zeros(n, dtype=bool)
    final[list(nfa.final)] = True
    rel = ~final[:, None] | final[None, :]
    # the edges run by symbol, then source, then target
    src, sym, dst = nfa.edge_arrays()
    # first[g]: the first edge of group g, the g-th (symbol, source) pair
    first = np.flatnonzero(np.diff(sym * n + src, prepend=-1))
    symbols = np.arange(nfa.alphabet_size + 1)
    edge_cuts = np.searchsorted(sym, symbols).tolist()
    group_cuts = np.searchsorted(sym[first], symbols).tolist()
    steps = []
    for glo, ghi, lo, hi in zip(group_cuts, group_cuts[1:], edge_cuts, edge_cuts[1:]):
        if glo == ghi:
            continue
        sources = src[first[glo:ghi]]
        enabled = np.zeros(n, dtype=bool)
        enabled[sources] = True
        rel[sources] &= enabled  # a source is simulated only by sources
        steps.append((glo, sources, dst[lo:hi], first[glo:ghi] - lo))

    # sim[y, x] = R[x, y], its rows padded to whole uint64 words.  Each n x n
    # matrix is dropped as soon as it is copied, so at most two are alive.
    sim = np.zeros((n, -(-n // 64) * 64), dtype=bool)
    sim[:, :n] = rel.T
    del rel
    pairs, before = np.count_nonzero(sim), None
    while pairs != before:
        check()
        _refine(sim, dst, first, steps, check)
        pairs, before = np.count_nonzero(sim), pairs
    return np.ascontiguousarray(sim[:, :n].T)


def _refine(
    sim: np.ndarray, dst: np.ndarray, first: np.ndarray, steps: list, check: Callable[[], None]
) -> None:
    """One round of ``compute_similarity``, clearing pairs of ``sim`` in place.

    ``check`` is called before each symbol's step.

    The existential rows are computed once, from the relation the round
    starts with.  Pairs cleared earlier in the round leave them stale, but a
    stale row only holds more states, so a round may clear less than it
    could, never more; the round that clears nothing has exact rows.
    """
    n = len(sim)
    packed = np.packbits(sim, axis=1, bitorder="little").view(np.uint64)
    # exists[g]: the states that some edge target of group g simulates; the
    # 7 zero rows past the last group let every symbol read whole words below
    exists = np.zeros((len(first) + 7, packed.shape[1]), dtype=np.uint64)
    np.bitwise_or.reduceat(packed[dst], first, axis=0, out=exists[: len(first)])
    exists = exists.view(np.uint8)
    for glo, sources, dst_a, starts in steps:
        check()
        width = -(-len(sources) // 8) * 8
        # has[x', j]: source j has a successor on the symbol simulating x';
        # the columns past the symbol's sources are read and dropped
        has = np.unpackbits(exists[glo : glo + width].T, axis=0, count=n, bitorder="little")
        # keep[i, j]: every successor of source i is simulated by one of j's;
        # 0/1 bytes AND eight at a time as words
        keep = np.bitwise_and.reduceat(has[dst_a].view(np.uint64), starts, axis=0)
        # whole rows, then columns: np.ix_ indexes a boolean matrix several
        # times slower
        rows = sim[sources]
        rows[:, sources] &= keep.view(bool)[:, : len(sources)].T
        sim[sources] = rows


def _dominated(metastate: int, p: Preorder) -> int:
    """The states strictly below some member of ``metastate``.

    Only members in ``p.pruners`` have any.
    """
    out = 0
    m = metastate & p.pruners
    while m:
        low = m & -m
        m ^= low
        out |= p.below[low.bit_length() - 1]
    return out


def prune(metastate: int, p: Preorder) -> int:
    """Drop the members strictly below another member.

    In a partial order every dropped member lies below a kept one: a
    maximal member above it.
    """
    return metastate & ~_dominated(metastate, p)


def saturate(metastate: int, p: Preorder) -> int:
    """Add every state strictly below some member."""
    return metastate | _dominated(metastate, p)


def simulation_quotient(nfa: Nfa, rel: np.ndarray) -> tuple[Nfa, Preorder]:
    """Merge mutually similar states of ``nfa``; language is preserved.

    ``rel`` is the similarity of ``nfa`` as ``compute_similarity`` returns
    it.  Also returns the quotient's similarity as a ``Preorder``: the
    relation ``rel`` induces on the classes, ``[x] <= [y]`` iff ``x <= y``,
    which is a partial order because mutually similar states share a class.
    """
    # each state's class is named by its smallest mutually similar state,
    # the first true column of its row (x itself, by reflexivity, at worst)
    reps, block = np.unique(np.argmax(rel & rel.T, axis=1), return_inverse=True)
    # two 1-D takes: np.ix_ indexes a boolean matrix several times slower
    return quotient(nfa, block, len(reps)), Preorder(rel[reps][:, reps])
