"""Independent reference canonization for checking benchmark outputs.

Uses none of ``nfacanon``: automata are plain ``(num_states, alphabet_size,
edges, initial, final)`` tuples.  The reference is textbook subset
construction from the initial metastate (the empty metastate becomes the
sink, so the DFA is total) followed by Moore refinement on tuple signatures.
A minimal DFA is unique up to renaming, so two automata accept the same
language iff their breadth-first canonical forms are equal.
"""

from __future__ import annotations


class TooLarge(Exception):
    """Subset construction exceeded its state cap."""


def subset_construction(spec, cap: int | None = None):
    """Total DFA of ``spec`` as (rows, finals); state 0 is initial."""
    num_states, k, edges, initial, final = spec
    succ = [[0] * num_states for _ in range(k)]
    for s, a, t in edges:
        succ[a][s] |= 1 << t
    final_mask = sum(1 << q for q in set(final))
    start = sum(1 << q for q in set(initial))
    index = {start: 0}
    masks = [start]
    rows = []
    for mask in masks:  # grows while iterating: BFS order
        row = []
        for a in range(k):
            out = 0
            m = mask
            while m:
                low = m & -m
                out |= succ[a][low.bit_length() - 1]
                m ^= low
            target = index.get(out)
            if target is None:
                target = index[out] = len(masks)
                masks.append(out)
                if cap is not None and len(masks) > cap:
                    raise TooLarge(len(masks))
            row.append(target)
        rows.append(row)
    finals = [bool(m & final_mask) for m in masks]
    return rows, finals


def reverse_spec(spec):
    """The NFA with every transition flipped and initial/final swapped."""
    num_states, k, edges, initial, final = spec
    return (num_states, k, [(t, a, s) for s, a, t in edges], final, initial)


def moore_minimize(rows, finals):
    """Block id of every state under the coarsest stable partition."""
    block = [1 if f else 0 for f in finals]
    count = len(set(block))
    while True:
        keys: dict[tuple, int] = {}
        new = [
            keys.setdefault((block[s],) + tuple(block[t] for t in row), len(keys))
            for s, row in enumerate(rows)
        ]
        if len(keys) == count:
            return new
        block, count = new, len(keys)


def canonical_form(rows, finals, initial: int = 0) -> tuple:
    """Breadth-first renumbering from ``initial``: (finals, transitions)."""
    order = {initial: 0}
    queue = [initial]
    out_rows = []
    for s in queue:
        out_row = []
        for t in rows[s]:
            if t not in order:
                order[t] = len(queue)
                queue.append(t)
            out_row.append(order[t])
        out_rows.append(tuple(out_row))
    return tuple(finals[s] for s in queue), tuple(out_rows)


def reference_canonical(spec, cap: int | None = None) -> tuple:
    """Canonical form of the minimal total DFA for ``spec``'s language."""
    rows, finals = subset_construction(spec, cap)
    block = moore_minimize(rows, finals)
    num_blocks = max(block) + 1
    q_rows = [None] * num_blocks
    q_finals = [False] * num_blocks
    for s, row in enumerate(rows):
        b = block[s]
        if q_rows[b] is None:
            q_rows[b] = [block[t] for t in row]
            q_finals[b] = finals[s]
    return canonical_form(q_rows, q_finals, block[0])


def dfa_canonical(dfa) -> tuple | None:
    """Canonical form of a total DFA object (``trans``/``final``/``initial``).

    Returns ``None`` if the DFA is partial or has unreachable states; a
    canonical minimal output has neither.
    """
    rows = dfa.trans
    if any(t < 0 for row in rows for t in row):
        return None
    finals = [s in dfa.final for s in range(dfa.num_states)]
    form = canonical_form(rows, finals, dfa.initial)
    return form if len(form[0]) == dfa.num_states else None
