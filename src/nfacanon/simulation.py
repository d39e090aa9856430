"""Similarity preorders on NFA states and metastate normalization.

``compute_similarity`` returns the coarsest simulation preorder as a
boolean matrix ``rel``: ``rel[x, y]`` means y simulates x, hence L(x) is a
subset of L(y).  ``simulation_quotient`` merges mutually similar states and
returns the relation induced on the classes.  ``Preorder`` packs such a
relation into the bitmask rows that ``prune`` and ``saturate`` read; the
simulation-enabled pipelines pack one, which both the pruning view they
determinize and their CCLS registry read.
"""

from __future__ import annotations

import numpy as np

from .automata import Nfa, bit_rows, quotient


class Preorder:
    """Preorder over NFA states, as per-state bitmask rows.

    It is packed from a boolean matrix ``rel`` (``rel[x, y]``: x <= y),
    which it does not keep: only the rows that ``prune`` and ``saturate``
    read, and two masks of the members whose row is not trivial.
    ``lowered`` holds the states whose ``below`` row has a bit besides
    their own, ``pruners`` those whose ``pruned_by`` row is not empty.
    ``rel`` must be reflexive and transitive.  ``saturate`` counts on every
    other state's ``below`` row being the state alone, and ``prune`` keeps a
    member that dominates each member it drops only when ``rel`` is
    transitive.  An ``-s`` determinization runs on a ``PrunedView`` of its
    automaton by one ``Preorder``, which relies on that to keep each pruned
    metastate's language, and its CCLS registry saturates lattices by the
    same one.
    ``compute_similarity`` and ``simulation_quotient`` return such
    relations.
    """

    __slots__ = ("below", "pruned_by", "lowered", "pruners")

    def __init__(self, rel: np.ndarray):
        self.below = bit_rows(rel.T)  # below[y] = bitmask of all x with x <= y
        # pruned_by[y] = the x that y drops from a metastate holding both:
        # x <= y but not y <= x, or x and y mutually similar and x > y
        pruned_by = rel.T & ~(rel & np.tri(len(rel), dtype=bool))
        self.pruned_by = bit_rows(pruned_by)
        # column y of rel is below[y]: it has a bit besides y's own when it
        # counts more than its diagonal entry
        lowered = np.count_nonzero(rel, axis=0) > rel.diagonal()
        self.lowered, self.pruners = bit_rows(np.stack([lowered, pruned_by.any(axis=1)]))


def compute_similarity(nfa: Nfa) -> np.ndarray:
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
        _refine(sim, dst, first, steps)
        pairs, before = np.count_nonzero(sim), pairs
    return np.ascontiguousarray(sim[:, :n].T)


def _refine(sim: np.ndarray, dst: np.ndarray, first: np.ndarray, steps: list) -> None:
    """One round of ``compute_similarity``, clearing pairs of ``sim`` in place.

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


def prune(metastate: int, p: Preorder) -> int:
    """Drop members strictly dominated by another member.

    Among mutually similar members the smallest identifier survives.  Only
    members in ``p.pruners`` can drop any.
    """
    dropped = 0
    m = metastate & p.pruners
    while m:
        low = m & -m
        m ^= low
        dropped |= p.pruned_by[low.bit_length() - 1]
    return metastate & ~dropped


def saturate(metastate: int, p: Preorder) -> int:
    """Add every state dominated by some member.

    Only members in ``p.lowered`` dominate a state besides themselves.
    """
    out = metastate
    m = metastate & p.lowered
    while m:
        low = m & -m
        m ^= low
        out |= p.below[low.bit_length() - 1]
    return out


def simulation_quotient(nfa: Nfa, rel: np.ndarray) -> tuple[Nfa, np.ndarray]:
    """Merge mutually similar states of ``nfa``; language is preserved.

    ``rel`` is the similarity of ``nfa`` as ``compute_similarity`` returns
    it.  Also returns the quotient's similarity, which is the relation
    ``rel`` induces on the classes: ``[x] <= [y]`` iff ``x <= y``.
    """
    # each state's class is named by its smallest mutually similar state,
    # the first true column of its row (x itself, by reflexivity, at worst)
    reps, block = np.unique(np.argmax(rel & rel.T, axis=1), return_inverse=True)
    # two 1-D takes: np.ix_ indexes a boolean matrix several times slower
    return quotient(nfa, block, len(reps)), rel[reps][:, reps]
