"""Partition refinement: seeded DFA minimization and NFA bisimulation quotients.

Both are Moore-style refinements over integer block labels (Moore 1956;
Valmari & Lehtinen, STACS 2008, for the array form).  A round keys every
state by its block and a list of integer columns.  The columns are packed,
as many as fit, into 1-D ``int64`` codes by matrix-vector products, and
each code is renumbered densely by one sort.  Rounds repeat until the
block count stops growing.  ``minimize`` passes the successor block on
each symbol, and on at most two symbols also on each word of length 2
while all those columns fit one code, so such a round takes two of
Moore's steps; ``bisimulation_quotient`` passes the set of (symbol,
successor block) pairs.

Minimization starts from the final/non-final split and gives each state
the caller lists as unexplored a block of its own, which lets the
on-the-fly engine keep half-explored states apart so they are never merged
before their behavior is fully determined.  When it merges nothing,
``minimize`` returns its input DFA itself rather than an identical quotient.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .automata import UNDEFINED, Dfa, Nfa, int_rows, quotient, sorted_distinct

MergeList = list[tuple[int, int]]

# (labels, block count) -> (states x c matrix of keys in 0..m-1, m)
Columns = Callable[[np.ndarray, int], tuple[np.ndarray, int]]

# codes stay below this bound, so no int64 product overflows
_CODE_LIMIT = 1 << 62


def _renumber(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes ``0..c-1`` of the values of ``code``, in their order, and c.

    One sort: equal values lie next to each other in it, so a running count
    of value changes numbers them, and one scatter puts the numbers back.
    """
    order = code.argsort()
    ordered = code[order]
    starts = np.empty(len(code), dtype=bool)
    starts[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    ranks = starts.cumsum()
    dense = np.empty(len(code), dtype=np.int64)
    dense[order] = ranks
    return dense, int(ranks[-1]) + 1


def _survivors(labels: np.ndarray) -> np.ndarray:
    """The smallest state in the block of each state, for labels below the state count."""
    first = np.full(len(labels), len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))
    return first[labels]


def _refine(labels: np.ndarray, columns: Columns) -> np.ndarray:
    """Coarsest refinement of the dense block ``labels`` stable under ``columns``.

    A round reads the columns of ``columns(labels, num_blocks)``, each in
    ``0..m-1``, as base-m digits appended to the state's block.  It splits
    them into chunks of as many columns as fit in an ``int64`` code under
    ``_CODE_LIMIT``.  Each chunk is folded into the code with one
    matrix-vector product by the columns' place values, and the code is
    renumbered densely with ``_renumber``, one sort per chunk.  So two states
    share a new block iff they share a block and every column.  The fixpoint
    is reached when a round adds no block.
    """
    num_blocks = int(labels.max()) + 1
    while True:
        cols, m = columns(labels, num_blocks)
        # codes stay below states * m**width, as the renumbered code < states
        width = 1
        while width < cols.shape[1] and len(labels) * m ** (width + 1) <= _CODE_LIMIT:
            width += 1
        place = m ** np.arange(width - 1, -1, -1)
        code, count = labels, num_blocks
        for start in range(0, cols.shape[1], width):
            chunk = cols[:, start : start + width]
            code, count = _renumber(code * m ** chunk.shape[1] + chunk @ place[-chunk.shape[1] :])
        if count == num_blocks:
            return labels
        labels, num_blocks = code, count


def minimize(dfa: Dfa, unexplored: Sequence[int] | np.ndarray) -> tuple[Dfa, MergeList]:
    """Quotient ``dfa`` by its coarsest transition-stable partition.

    Refinement starts from the final/non-final split, with each state listed
    in ``unexplored`` in a block of its own, so those are never merged.
    Undefined transitions are routed to an implicit sink during refinement
    (completed-language semantics); the sink never appears in the result.
    ``dfa.trans`` may be a list of rows or an integer array.  Returns the
    quotient DFA (states renumbered densely, survivor of each block =
    smallest original id) and the (survivor, absorbed) pairs, sorted.  When
    nothing is absorbed the quotient would equal ``dfa``, so ``dfa`` itself
    is returned.

    The columns of a round are the successor blocks, one per symbol.  On at
    most two symbols they are those on every word of length 1 and 2, read
    from ``trans`` and ``trans[trans]``, built once with the sink's row.  By
    Moore, P_{i+2} = P_i ∧ δ⁻¹P_i ∧ δ⁻²P_i, so such a round takes two steps,
    and one that adds no block still marks the fixpoint.  A round whose
    columns would not all fit one code under ``_CODE_LIMIT`` (on 2 symbols,
    about 460 blocks on as many states) takes the one-letter columns alone.  Both limits
    are measured: a two-letter round reads k + k² columns for the k of a
    one-letter round to save one round, which from 3 symbols on costs as
    much as it saves or more, and on binary DFAs of 2,000-4,000 states
    refining in chunks past the bound took 6-10% longer than this rule.
    """
    n = dfa.num_states
    k = dfa.alphabet_size

    if isinstance(dfa.trans, np.ndarray):
        trans = np.asarray(dfa.trans, dtype=np.int64)
    else:
        trans = int_rows(dfa.trans, n, k)
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
    # the targets of every word of length 1 and 2
    words = trans
    if k <= 2:
        ab = np.take(trans, trans, axis=0).reshape(len(trans), k * k)
        words = np.concatenate([trans, ab], axis=1)

    def successor_blocks(labels: np.ndarray, m: int):
        fits = len(labels) * m ** words.shape[1] <= _CODE_LIMIT
        return (labels[words] if fits else labels[trans]), m

    labels = _refine(_renumber(tags)[0], successor_blocks)
    # the sink is alone in its block, so no state of the DFA survives in it
    survivor = _survivors(labels)[:n]
    states = np.arange(n)
    absorbed = np.flatnonzero(survivor != states)
    if not len(absorbed):
        return dfa, []
    # a stable sort keeps ascending absorbed ids within each survivor
    absorbed = absorbed[np.argsort(survivor[absorbed], kind="stable")]
    merges = list(zip(survivor[absorbed].tolist(), absorbed.tolist()))

    kept = survivor == states
    heads = np.cumsum(kept)
    # new id of every state's block; the sink (index n) maps to UNDEFINED
    new_id = np.append((heads - 1)[survivor], UNDEFINED)
    out = Dfa(
        int(heads[-1]),
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
    labels = _refine(_renumber(is_final)[0], successor_pairs)

    # number blocks in the order of their smallest members
    survivor = _survivors(labels)
    heads = np.cumsum(survivor == np.arange(n))
    return quotient(nfa, (heads - 1)[survivor], int(heads[-1]))
