"""Successor kernels: every per-symbol successor metastate of a metastate.

Subset construction asks the automaton it determinizes for the successors
of each metastate, so every input is its own kernel.  A determinization
runs on an ``Nfa``, which ORs the successor masks of the metastate's
members (``Nfa.successors``), or on the ``registry.PrunedView`` of one
(the ``-s`` pipelines), which runs the same steps over a table whose rows
also carry the states a similarity preorder puts strictly below their
targets, and prunes each successor with one AND.  The step is chosen by
the automaton's state count and the metastate's member count: byte
tables, one lookup per byte of the metastate, for automata of at most
``automata.SMALL_STATES`` states; above that, a numpy gather over a
``uint64`` table for metastates of more than ``automata.WIDE_MEMBERS``
members, and for the others the first member's row ORed with each
further member's row by ``map(operator.or_, ...)``, one C-level pass per
member.  In Brzozowski's first pass that automaton is the reversed
quotient, or the view of its own simulation quotient for ``-s``, and in
his second the reverse of that quotient, whose registry turns forward
subsets into the states of the reversed first-pass DFA
(``registry.ResidualRegistry``).
"""

from __future__ import annotations

from .automata import Nfa


def default_backend() -> str:
    # kept because perfbench/run.py imports it to print the backend it ran
    return "python"


def successor_kernel(nfa: Nfa, backend: str | None = None) -> Nfa:
    # kept as the engine's call site, which perfbench/tracer.py and the
    # tests patch; the backend argument stays because the tracer passes one.
    # A ``registry.PrunedView`` is returned as it is, like an ``Nfa``
    if backend not in (None, "python"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    return nfa
