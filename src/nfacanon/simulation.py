"""Similarity preorders on NFA states and metastate normalization.

``leq(x, y)`` means y simulates x, hence L(x) is a subset of L(y).  The
preorder powers metastate pruning/saturation and simulation-equivalence
quotienting used by the simulation-enabled pipelines.
"""

from __future__ import annotations

from .automata import Nfa, members


class Preorder:
    """Boolean relation over NFA states stored as per-state bitmask rows."""

    __slots__ = ("num_states", "above", "below")

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

    def leq(self, x: int, y: int) -> bool:
        return bool(self.above[x] >> y & 1)

    @classmethod
    def identity(cls, num_states: int) -> "Preorder":
        return cls([1 << x for x in range(num_states)])

    def is_identity(self) -> bool:
        return all(row == 1 << x for x, row in enumerate(self.above))


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
    keep = 0
    m = metastate
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        dominators = metastate & p.above[x] & ~low
        dominated = False
        while dominators:
            ylow = dominators & -dominators
            dominators ^= ylow
            y = ylow.bit_length() - 1
            if not p.leq(y, x) or y < x:
                dominated = True
                break
        if not dominated:
            keep |= low
    return keep


def saturate(metastate: int, p: Preorder) -> int:
    """Add every state dominated by some member."""
    out = 0
    m = metastate
    while m:
        low = m & -m
        m ^= low
        out |= p.below[low.bit_length() - 1]
    return out


def simulation_quotient(nfa: Nfa, p: Preorder) -> Nfa:
    """Merge mutually similar states; language is preserved."""
    n = nfa.num_states
    rep = [0] * n
    for x in range(n):
        mutual = p.above[x] & p.below[x]  # includes x by reflexivity
        rep[x] = (mutual & -mutual).bit_length() - 1
    reps = sorted(set(rep))
    dense = {r: i for i, r in enumerate(reps)}
    edges = {(dense[rep[s]], a, dense[rep[t]]) for (s, a, t) in nfa.edges()}
    return Nfa(
        len(reps),
        nfa.alphabet_size,
        sorted(edges),
        {dense[rep[s]] for s in nfa.initial},
        {dense[rep[s]] for s in nfa.final},
    )

