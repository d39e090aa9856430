"""Similarity preorders on NFA states and metastate normalization.

``leq(x, y)`` means y simulates x, hence L(x) is a subset of L(y).  The
preorder powers metastate pruning/saturation and simulation-equivalence
quotienting used by the simulation-enabled pipelines.
"""

from __future__ import annotations

import numpy as np

from .automata import Nfa, members


class Preorder:
    """Boolean relation over NFA states stored as per-state bitmask rows."""

    __slots__ = ("num_states", "above", "below", "pruned_by")

    def __init__(self, above: list[int]):
        self.num_states = len(above)
        self.above = above  # above[x] = bitmask of all y with x <= y
        below = [0] * self.num_states
        for x, row in enumerate(above):
            m = row
            while m:
                low = m & -m
                below[low.bit_length() - 1] |= 1 << x
                m ^= low
        self.below = below  # below[y] = bitmask of all x with x <= y
        # pruned_by[y] = the x that y drops from a metastate holding both:
        # x <= y but not y <= x, or x and y mutually similar and x > y
        self.pruned_by = [
            below[y] & ~(above[y] & ((2 << y) - 1)) for y in range(self.num_states)
        ]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.above[x] >> y & 1)

    @classmethod
    def identity(cls, num_states: int) -> "Preorder":
        return cls([1 << x for x in range(num_states)])


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
    steps = []
    for a in range(nfa.alphabet_size):
        src, dst = [], []
        for s, mask in enumerate(nfa.succ_masks(a)):
            for t in members(mask):
                src.append(s)
                dst.append(t)
        if not src:
            continue
        src_arr = np.array(src, dtype=np.intp)
        starts = np.flatnonzero(np.r_[True, src_arr[1:] != src_arr[:-1]])
        sources = src_arr[starts]
        enabled = np.zeros(n, dtype=bool)
        enabled[sources] = True
        rel &= ~enabled[:, None] | enabled[None, :]
        steps.append((np.ix_(sources, sources), np.array(dst, dtype=np.intp), starts))

    changed = True
    while changed:
        changed = False
        for block, dst, starts in steps:
            # has_match[x', j]: source j has a successor that simulates x'
            has_match = np.logical_or.reduceat(rel[:, dst], starts, axis=1)
            # fails[i, j]: some successor of source i is matched by none of j's
            fails = np.logical_or.reduceat(~has_match[dst], starts, axis=0)
            kept = rel[block]
            if (kept & fails).any():
                rel[block] = kept & ~fails
                changed = True
    rows = np.packbits(rel, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    return Preorder(
        [int.from_bytes(rows[x * width : (x + 1) * width], "little") for x in range(n)]
    )


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
    n = nfa.num_states
    rep = [0] * n
    for x in range(n):
        mutual = p.above[x] & p.below[x]  # includes x by reflexivity
        rep[x] = (mutual & -mutual).bit_length() - 1
    reps = sorted(set(rep))
    dense = {r: i for i, r in enumerate(reps)}
    rep_mask = sum(1 << r for r in reps)
    above = [sum(1 << dense[y] for y in members(p.above[r] & rep_mask)) for r in reps]
    edges = {(dense[rep[s]], a, dense[rep[t]]) for (s, a, t) in nfa.edges()}
    quotient = Nfa(
        len(reps),
        nfa.alphabet_size,
        sorted(edges),
        {dense[rep[s]] for s in nfa.initial},
        {dense[rep[s]] for s in nfa.final},
    )
    return quotient, Preorder(above)
