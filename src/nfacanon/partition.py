"""Partition refinement: seeded DFA minimization and NFA bisimulation quotients.

Both are Moore-style refinements over integer block labels (Moore 1956;
Valmari & Lehtinen, STACS 2008, for the array form).  A round keys every
state by its block and a list of integer columns, chained into 1-D integer
codes that ``np.unique`` renumbers densely, and rounds repeat until the
block count stops growing.  ``minimize`` passes the successor block on each
symbol; ``bisimulation_quotient`` passes the set of (symbol, successor
block) pairs.

Minimization starts from the final/non-final split and gives each state
the caller lists as unexplored a block of its own, which lets the
on-the-fly engine keep half-explored states apart so they are never merged
before their behavior is fully determined.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .automata import UNDEFINED, Dfa, Nfa, quotient, sorted_distinct

MergeList = list[tuple[int, int]]

# (labels, block count) -> (states x c matrix of keys in 0..m-1, m)
Columns = Callable[[np.ndarray, int], tuple[np.ndarray, int]]

# codes stay below this bound, so no int64 product overflows
_CODE_LIMIT = 1 << 62


def _refine(labels: np.ndarray, columns: Columns) -> np.ndarray:
    """Coarsest refinement of the dense block ``labels`` stable under ``columns``.

    Each round chains ``code = code * m + col`` over the columns of
    ``columns(labels, num_blocks)``, starting from the labels themselves, and
    renumbers ``code`` densely with ``np.unique`` whenever the next column
    could overflow ``int64`` and at the end, so two states share a new block
    iff they share a block and every column.  The fixpoint is reached when a
    round adds no block.
    """
    num_blocks = int(labels.max()) + 1
    while True:
        cols, m = columns(labels, num_blocks)
        code, bound = labels, num_blocks
        for col in cols.T:
            if bound * m > _CODE_LIMIT:
                _, code = np.unique(code, return_inverse=True)
                bound = int(code.max()) + 1
            code = code * m + col
            bound *= m
        _, code = np.unique(code, return_inverse=True)
        new_blocks = int(code.max()) + 1
        if new_blocks == num_blocks:
            return labels
        labels, num_blocks = code, new_blocks


def minimize(dfa: Dfa, unexplored: Sequence[int] | np.ndarray) -> tuple[Dfa, MergeList]:
    """Quotient ``dfa`` by its coarsest transition-stable partition.

    Refinement starts from the final/non-final split, with each state listed
    in ``unexplored`` in a block of its own, so those are never merged.
    Undefined transitions are routed to an implicit sink during refinement
    (completed-language semantics); the sink never appears in the result.
    The columns of a round are the successor blocks, one per symbol.
    ``dfa.trans`` may be a list of rows or an integer array.  Returns the
    quotient DFA (states renumbered densely, survivor of each block =
    smallest original id) and the (survivor, absorbed) pairs, sorted.
    """
    n = dfa.num_states
    k = dfa.alphabet_size

    trans = np.asarray(dfa.trans, dtype=np.int64)
    is_final = np.zeros(n, dtype=bool)
    is_final[list(dfa.final)] = True
    # initial blocks: 0 rejecting, 1 accepting, 2.. one per unexplored state
    tags = is_final.astype(np.int64)
    tags[np.asarray(unexplored, dtype=np.int64)] = 2 + np.arange(len(unexplored))
    undefined = trans == UNDEFINED
    if undefined.any():
        # implicit sink at index n, in its own initial block
        trans = np.vstack([np.where(undefined, n, trans), np.full((1, k), n)])
        tags = np.append(tags, -1)
    _, labels = np.unique(tags, return_inverse=True)
    labels = _refine(labels, lambda lab, m: (lab[trans], m))[:n]

    # survivor = smallest member of the block
    _, first, block = np.unique(labels, return_index=True, return_inverse=True)
    survivor = first[block]
    states = np.arange(n)
    absorbed = np.flatnonzero(survivor != states)
    # a stable sort keeps ascending absorbed ids within each survivor
    absorbed = absorbed[np.argsort(survivor[absorbed], kind="stable")]
    merges = list(zip(survivor[absorbed].tolist(), absorbed.tolist()))

    kept = survivor == states
    # new id of every state's block; the sink (index n) maps to UNDEFINED
    new_id = np.append((np.cumsum(kept) - 1)[survivor], UNDEFINED)
    out = Dfa(
        len(first),
        k,
        int(new_id[dfa.initial]),
        np.flatnonzero(is_final[kept]).tolist(),
        new_id[trans[:n][kept]].tolist(),
    )
    return out, merges


def bisimulation_quotient(nfa: Nfa) -> Nfa:
    """Merge states of ``nfa`` under the coarsest bisimulation.

    Signature refinement from the acceptance split.  The columns of a round
    are each state's sorted distinct (symbol, successor block) pairs, coded
    ``symbol * blocks + block`` and padded with a value below every pair.
    Blocks are numbered by their smallest member.
    """
    n, k = nfa.num_states, nfa.alphabet_size
    src, sym, dst = nfa.edge_arrays()

    def successor_pairs(labels: np.ndarray, num_blocks: int):
        m = k * num_blocks
        owner, key = np.divmod(sorted_distinct(src * m + sym * num_blocks + labels[dst]), m)
        counts = np.bincount(owner, minlength=n)
        rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        pairs = np.zeros((n, counts.max()), dtype=np.int64)
        pairs[owner, rank] = key + 1
        return pairs, m + 1

    is_final = np.zeros(n, dtype=np.int64)
    is_final[list(nfa.final)] = 1
    _, labels = np.unique(is_final, return_inverse=True)
    labels = _refine(labels, successor_pairs)

    # renumber blocks by smallest member for deterministic output
    _, first = np.unique(labels, return_index=True)
    num_blocks = len(first)
    dense = np.empty(num_blocks, dtype=np.int64)
    dense[np.argsort(first)] = np.arange(num_blocks)
    return quotient(nfa, dense[labels], num_blocks)
