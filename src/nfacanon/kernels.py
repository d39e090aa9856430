"""Successor kernel: every per-symbol successor metastate of a metastate."""

from __future__ import annotations

from .automata import Nfa


class SuccessorKernel:
    """Computes all per-symbol successor metastates of a metastate.

    Transition rows are pre-grouped by source state so one pass over the set
    bits of the metastate fills every symbol's accumulator.
    """

    def __init__(self, nfa: Nfa):
        self.alphabet_size = nfa.alphabet_size
        rows = [nfa.succ_masks(a) for a in range(nfa.alphabet_size)]
        self._by_state = [
            tuple(rows[a][s] for a in range(nfa.alphabet_size))
            for s in range(nfa.num_states)
        ]

    def successors(self, mask: int) -> list[int]:
        out = [0] * self.alphabet_size
        by_state = self._by_state
        m = mask
        while m:
            low = m & -m
            m ^= low
            for a, v in enumerate(by_state[low.bit_length() - 1]):
                out[a] |= v
        return out


def default_backend() -> str:
    # kept because perfbench/run.py imports it to print the backend it ran
    return "python"


def successor_kernel(nfa: Nfa, backend: str | None = None) -> SuccessorKernel:
    # the backend argument stays because perfbench/tracer.py passes one
    if backend not in (None, "python"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    return SuccessorKernel(nfa)
