"""Similarity preorders on NFA states and metastate normalization.

``leq(x, y)`` means y simulates x, hence L(x) is a subset of L(y).  The
preorder powers metastate pruning/saturation and simulation-equivalence
quotienting used by the simulation-enabled pipelines.
"""

from __future__ import annotations

import numpy as np

from .automata import Nfa


class Preorder:
    """Boolean relation over NFA states, with per-state bitmask rows.

    ``rel[x, y]`` is the relation as a boolean matrix; the rows are packed
    from it for the bit loops of ``prune`` and ``saturate``.
    """

    __slots__ = ("rel", "below", "pruned_by")

    def __init__(self, rel: np.ndarray):
        self.rel = rel
        self.below = _rows(rel.T)  # below[y] = bitmask of all x with x <= y
        # pruned_by[y] = the x that y drops from a metastate holding both:
        # x <= y but not y <= x, or x and y mutually similar and x > y
        self.pruned_by = _rows(rel.T & ~(rel & np.tri(len(rel), dtype=bool)))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.rel[x, y])

    @classmethod
    def identity(cls, num_states: int) -> "Preorder":
        return cls(np.eye(num_states, dtype=bool))


def _rows(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as the bitmask of its true columns."""
    width = (matrix.shape[1] + 7) // 8
    # a transposed view packs several times slower than a C-ordered copy
    packed = np.packbits(np.ascontiguousarray(matrix), axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


def compute_similarity(nfa: Nfa) -> Preorder:
    """Coarsest simulation preorder, by greatest-fixpoint refinement.

    ``R[x, y]`` (y simulates x) is a boolean matrix.  It starts as the
    relation respecting acceptance (x final implies y final) and, for every
    symbol, enabledness (x has a successor implies y has one).  Each round
    then drops, symbol by symbol, every pair of sources (x, y) where some
    successor of x is simulated by no successor of y, as whole-array
    operations over the symbol's edges grouped by source.  Rounds repeat
    until no pair is dropped (Ilie, Navarro & Yu, "On NFA Reductions", 2004).
    """
    n = nfa.num_states
    final = np.zeros(n, dtype=bool)
    final[list(nfa.final)] = True
    rel = ~final[:, None] | final[None, :]
    # edges() runs by symbol, then source, then target
    src, sym, dst = np.array(list(nfa.edges()), dtype=np.intp).reshape(-1, 3).T
    cuts = np.searchsorted(sym, np.arange(nfa.alphabet_size + 1)).tolist()
    steps = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            continue
        src_a = src[lo:hi]
        starts = np.flatnonzero(np.r_[True, src_a[1:] != src_a[:-1]])
        sources = src_a[starts]
        enabled = np.zeros(n, dtype=bool)
        enabled[sources] = True
        rel &= ~enabled[:, None] | enabled[None, :]
        steps.append((np.ix_(sources, sources), dst[lo:hi], starts))

    changed = True
    while changed:
        changed = False
        for block, dst_a, starts in steps:
            # has_match[x', j]: source j has a successor that simulates x'
            has_match = np.logical_or.reduceat(rel[:, dst_a], starts, axis=1)
            # fails[i, j]: some successor of source i is matched by none of j's
            fails = np.logical_or.reduceat(~has_match[dst_a], starts, axis=0)
            kept = rel[block]
            if (kept & fails).any():
                rel[block] = kept & ~fails
                changed = True
    return Preorder(rel)


def prune(metastate: int, p: Preorder) -> int:
    """Drop members strictly dominated by another member.

    Among mutually similar members the smallest identifier survives.
    """
    dropped = 0
    m = metastate
    while m:
        low = m & -m
        m ^= low
        dropped |= p.pruned_by[low.bit_length() - 1]
    return metastate & ~dropped


def saturate(metastate: int, p: Preorder) -> int:
    """Add every state dominated by some member."""
    out = 0
    m = metastate
    while m:
        low = m & -m
        m ^= low
        out |= p.below[low.bit_length() - 1]
    return out


def simulation_quotient(nfa: Nfa, p: Preorder) -> tuple[Nfa, Preorder]:
    """Merge mutually similar states; language is preserved.

    Also returns the quotient's similarity preorder, which is the one ``p``
    induces on the classes: ``[x] <= [y]`` iff ``x <= y``.
    """
    # each state's class is named by its smallest mutually similar state,
    # the first true column of its row (x itself, by reflexivity, at worst)
    reps, block = np.unique(np.argmax(p.rel & p.rel.T, axis=1), return_inverse=True)
    block = block.tolist()
    edges = {(block[s], a, block[t]) for (s, a, t) in nfa.edges()}
    quotient = Nfa(
        len(reps),
        nfa.alphabet_size,
        sorted(edges),
        {block[s] for s in nfa.initial},
        {block[s] for s in nfa.final},
    )
    # two 1-D takes: np.ix_ indexes a boolean matrix several times slower
    return quotient, Preorder(p.rel[reps][:, reps])
