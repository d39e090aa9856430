"""Partition refinement: seeded DFA minimization and NFA bisimulation quotients.

Minimization accepts a caller-supplied initial partition (the *signature*),
which lets the on-the-fly engine keep half-explored states in singleton
blocks so they are never merged before their behavior is fully determined.
"""

from __future__ import annotations

import numpy as np

from .automata import UNDEFINED, Dfa, Nfa, members

# Signature tags: explored states carry a Boolean acceptance tag, unexplored
# states carry a unique per-state tag so refinement can only ever split them.
SIG_REJECTING = 0
SIG_ACCEPTING = 1


def sig_unique(state: int) -> int:
    """Unique signature tag for an unexplored state."""
    return 2 + state

Signature = list[int]
MergeList = list[tuple[int, int]]


def minimize(dfa: Dfa, sig: Signature) -> tuple[Dfa, MergeList]:
    """Quotient ``dfa`` by the coarsest transition-stable refinement of ``sig``.

    Undefined transitions are routed to an implicit sink during refinement
    (completed-language semantics); the sink never appears in the result.
    Returns the quotient DFA (states renumbered densely, survivor of each
    block = smallest original id) and the list of (survivor, absorbed) pairs.
    """
    n = dfa.num_states
    if len(sig) != n:
        raise ValueError(f"signature covers {len(sig)} states, DFA has {n}")
    k = dfa.alphabet_size

    trans = np.asarray(dfa.trans, dtype=np.int64)
    partial = bool((trans == UNDEFINED).any())
    total = n + 1 if partial else n
    if partial:
        # implicit sink at index n, in its own initial block
        trans = np.vstack([trans, np.full((1, k), n, dtype=np.int64)])
        trans[trans == UNDEFINED] = n

    init_tags = sig + [-1] if partial else list(sig)
    _, labels = np.unique(np.asarray(init_tags), return_inverse=True)
    num_blocks = int(labels.max()) + 1
    mat = np.empty((total, k + 1), dtype=np.int64)
    while True:
        mat[:, 0] = labels
        for a in range(k):
            mat[:, a + 1] = labels[trans[:, a]]
        _, labels = np.unique(mat, axis=0, return_inverse=True)
        new_blocks = int(labels.max()) + 1
        if new_blocks == num_blocks:
            break
        num_blocks = new_blocks

    # group real states by block; survivor = smallest id
    blocks: dict[int, list[int]] = {}
    for s in range(n):
        blocks.setdefault(int(labels[s]), []).append(s)
    merges: MergeList = []
    survivor_of = [0] * n
    for group in blocks.values():
        surv = group[0]
        for s in group:
            survivor_of[s] = surv
        merges.extend((surv, s) for s in group[1:])

    survivors = sorted({survivor_of[s] for s in range(n)})
    new_id = {s: i for i, s in enumerate(survivors)}
    out = Dfa(
        len(survivors),
        k,
        new_id[survivor_of[dfa.initial]],
        final={new_id[s] for s in survivors if s in dfa.final},
    )
    for s in survivors:
        row = dfa.trans[s]
        for a in range(k):
            t = row[a]
            if t != UNDEFINED:
                out.set_transition(new_id[s], a, new_id[survivor_of[t]])
    return out, merges


def bisimulation_quotient(nfa: Nfa) -> Nfa:
    """Merge states of ``nfa`` under the coarsest bisimulation.

    Signature-refinement loop: split on acceptance, then repeatedly refine by
    the per-symbol sets of successor blocks until a fixpoint is reached.
    """
    n = nfa.num_states
    block = [1 if s in nfa.final else 0 for s in range(n)]
    num_blocks = len(set(block))
    while True:
        keys = {}
        new_block = [0] * n
        for s in range(n):
            key = (
                block[s],
                tuple(
                    frozenset(block[t] for t in members(nfa.succ_mask(s, a)))
                    for a in range(nfa.alphabet_size)
                ),
            )
            new_block[s] = keys.setdefault(key, len(keys))
        if len(keys) == num_blocks:
            break
        block, num_blocks = new_block, len(keys)

    # renumber blocks by smallest member for deterministic output
    rep: dict[int, int] = {}
    for s in range(n):
        rep.setdefault(block[s], s)
    order = sorted(rep, key=rep.get)
    dense = {b: i for i, b in enumerate(order)}
    edges = {
        (dense[block[s]], a, dense[block[t]])
        for (s, a, t) in nfa.edges()
    }
    return Nfa(
        len(order),
        nfa.alphabet_size,
        sorted(edges),
        {dense[block[s]] for s in nfa.initial},
        {dense[block[s]] for s in nfa.final},
    )
