"""Similarity preorders on NFA states and metastate normalization.

``leq(x, y)`` means y simulates x, hence L(x) is a subset of L(y).  The
preorder powers metastate pruning/saturation and simulation-equivalence
quotienting used by the simulation-enabled pipelines.
"""

from __future__ import annotations

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

    Starts from the full acceptance-respecting relation and removes pairs
    violating the step condition until stable.
    """
    n = nfa.num_states
    k = nfa.alphabet_size
    final = nfa.final_mask
    all_states = (1 << n) - 1
    above = [all_states if not (final >> x & 1) else final for x in range(n)]

    changed = True
    while changed:
        changed = False
        for x in range(n):
            keep = above[x]
            cand = keep
            while cand:
                low = cand & -cand
                cand ^= low
                y = low.bit_length() - 1
                for a in range(k):
                    ys = nfa.succ_mask(y, a)
                    ok = True
                    xs = nfa.succ_mask(x, a)
                    while xs:
                        xl = xs & -xs
                        xs ^= xl
                        if not (ys & above[xl.bit_length() - 1]):
                            ok = False
                            break
                    if not ok:
                        keep ^= low
                        break
            if keep != above[x]:
                above[x] = keep
                changed = True
    return Preorder(above)


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
