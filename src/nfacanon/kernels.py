"""Successor kernels: every per-symbol successor metastate of a metastate.

Subset construction asks the automaton it determinizes for the successors
of each metastate, so every input is its own kernel.  An ``Nfa``, including
the reversed quotient of Brzozowski's first pass, ORs the successor masks
of the metastate's members (``Nfa.successors``).  Brzozowski's second pass
determinizes the reverse of the first pass's total DFA, a ``ReversedDfa``:
there a successor set is a preimage, so one numpy gather through the DFA's
transition table computes it without a loop over the metastate's members
and without building the reversed NFA.
"""

from __future__ import annotations

import numpy as np

from .automata import Dfa, Nfa, to_mask


class ReversedDfa:
    """The reverse of a total DFA, as its own successor kernel.

    It is the input of Brzozowski's second subset pass: the initial metastate
    is the DFA's final states and the only final state is its initial state.
    The successor of Q on symbol a is the preimage ``{t : delta(t, a) in Q}``:
    Q's bit vector gathered through row a of the transposed transition
    table, with no loop over Q's members and no reversed NFA.  Rows are
    padded to whole bytes with index n, a padding bit of the unpacked mask
    that is always 0, so one flat ``packbits`` yields every symbol's mask
    bytes in turn.
    """

    def __init__(self, dfa: Dfa):
        # the gather would read an UNDEFINED (-1) entry as a state
        if not dfa.is_total():
            raise ValueError("ReversedDfa requires a total DFA")
        n, k = dfa.num_states, dfa.alphabet_size
        self.num_states = n
        self.alphabet_size = k
        self.initial_mask = to_mask(dfa.final)
        self.final_mask = 1 << dfa.initial
        self._nbytes = (n + 7) // 8
        width = 8 * self._nbytes
        self._delta = np.full((k, width), n, np.intp)
        self._delta[:, :n] = np.asarray(dfa.trans, np.intp).T
        self._bits = np.empty((k, width), np.uint8)

    def successors(self, mask: int) -> list[int]:
        nb = self._nbytes
        bits = np.unpackbits(
            np.frombuffer(mask.to_bytes(nb, "little"), np.uint8), bitorder="little"
        )
        # indices are in range, and "clip" skips the bounds-checked copy
        np.take(bits, self._delta, out=self._bits, mode="clip")
        raw = np.packbits(self._bits, bitorder="little").tobytes()
        return [
            int.from_bytes(raw[i : i + nb], "little") for i in range(0, len(raw), nb)
        ]


def default_backend() -> str:
    # kept because perfbench/run.py imports it to print the backend it ran
    return "python"


def successor_kernel(
    nfa: Nfa | ReversedDfa, backend: str | None = None
) -> Nfa | ReversedDfa:
    # kept as the engine's call site, which perfbench/tracer.py and the
    # tests patch; the backend argument stays because the tracer passes one
    if backend not in (None, "python"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    return nfa
