"""Core automaton representations and exact language oracles.

NFA states are integers ``0..num_states-1`` and symbols are integers
``0..alphabet_size-1``.  Metastates (sets of NFA states) are represented as
integer bitmasks throughout the hot paths; :func:`to_mask` / :func:`members`
convert between masks and explicit state collections.  Subset construction
asks an ``Nfa`` for every per-symbol successor of a metastate
(``Nfa.successors``); every determinization, both Brzozowski passes
included, runs on an ``Nfa``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

Word = tuple[int, ...]

UNDEFINED = -1


def to_mask(states: Iterable[int]) -> int:
    """Pack a collection of state identifiers into a bitmask."""
    m = 0
    for s in states:
        m |= 1 << s
    return m


def members(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the sorted tuple of its state identifiers."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Nfa:
    """A nondeterministic finite automaton without epsilon transitions."""

    __slots__ = ("num_states", "alphabet_size", "initial", "final", "_succ")

    def __init__(
        self,
        num_states: int,
        alphabet_size: int,
        transitions: Iterable[tuple[int, int, int]],
        initial: Iterable[int],
        final: Iterable[int],
    ):
        if num_states < 1:
            raise ValueError("num_states must be >= 1")
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        self.num_states = num_states
        self.alphabet_size = alphabet_size
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        for s in self.initial | self.final:
            if not 0 <= s < num_states:
                raise ValueError(f"state {s} out of range")
        # _succ[s][a] = bitmask of successors of s on symbol a
        self._succ = [[0] * alphabet_size for _ in range(num_states)]
        for (src, sym, dst) in transitions:
            if not 0 <= src < num_states or not 0 <= dst < num_states:
                raise ValueError(f"transition ({src},{sym},{dst}) out of range")
            if not 0 <= sym < alphabet_size:
                raise ValueError(f"symbol {sym} out of range")
            self._succ[src][sym] |= 1 << dst

    @property
    def initial_mask(self) -> int:
        return to_mask(self.initial)

    @property
    def final_mask(self) -> int:
        return to_mask(self.final)

    def succ_mask(self, state: int, symbol: int) -> int:
        return self._succ[state][symbol]

    def successors(self, mask: int) -> list[int]:
        """Every per-symbol successor metastate of ``mask``, a new list.

        The first member's row is copied; the other members' rows are
        gathered once and each symbol's column is ORed over them.
        """
        if not mask:
            return [0] * self.alphabet_size
        succ = self._succ
        low = mask & -mask
        mask ^= low
        out = succ[low.bit_length() - 1][:]
        if mask:
            rows = []
            while mask:
                low = mask & -mask
                mask ^= low
                rows.append(succ[low.bit_length() - 1])
            for a in range(len(out)):
                v = out[a]
                for row in rows:
                    v |= row[a]
                out[a] = v
        return out

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Every transition ``(src, symbol, dst)``, by symbol, source, target."""
        for a, column in enumerate(zip(*self._succ)):
            for s, mask in enumerate(column):
                while mask:  # inlined: most masks are empty
                    low = mask & -mask
                    yield (s, a, low.bit_length() - 1)
                    mask ^= low

    def num_transitions(self) -> int:
        return sum(m.bit_count() for row in self._succ for m in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.alphabet_size == other.alphabet_size
            and self.initial == other.initial
            and self.final == other.final
            and self._succ == other._succ
        )

    def __repr__(self) -> str:
        return (
            f"Nfa(states={self.num_states}, symbols={self.alphabet_size}, "
            f"transitions={self.num_transitions()})"
        )


class Dfa:
    """A possibly partial deterministic automaton with integer states."""

    __slots__ = ("num_states", "alphabet_size", "initial", "final", "trans")

    def __init__(
        self,
        num_states: int,
        alphabet_size: int,
        initial: int,
        final: Iterable[int] = (),
        trans: list[list[int]] | None = None,
    ):
        if num_states < 1:
            raise ValueError("num_states must be >= 1")
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if not 0 <= initial < num_states:
            raise ValueError("initial state out of range")
        self.num_states = num_states
        self.alphabet_size = alphabet_size
        self.initial = initial
        self.final = set(final)
        # trans[s][a]: successor of s on a, or UNDEFINED; taken, not copied
        if trans is None:
            trans = [[UNDEFINED] * alphabet_size for _ in range(num_states)]
        self.trans = trans

    def set_transition(self, src: int, symbol: int, dst: int) -> None:
        self.trans[src][symbol] = dst

    def is_total(self) -> bool:
        return all(UNDEFINED not in row for row in self.trans)

    def accepts(self, word: Word) -> bool:
        s = self.initial
        for a in word:
            s = self.trans[s][a]
            if s == UNDEFINED:
                return False
        return s in self.final

    def to_nfa(self) -> Nfa:
        edges = [
            (s, a, t)
            for s, row in enumerate(self.trans)
            for a, t in enumerate(row)
            if t != UNDEFINED
        ]
        return Nfa(self.num_states, self.alphabet_size, edges, [self.initial], self.final)

    def __repr__(self) -> str:
        return f"Dfa(states={self.num_states}, symbols={self.alphabet_size})"


def successors(nfa: Nfa, metastate: Iterable[int] | int, symbol: int) -> frozenset[int]:
    """Union of per-state successor sets: the metastate transition function."""
    if not 0 <= symbol < nfa.alphabet_size:
        raise ValueError(f"symbol {symbol} out of range")
    mask = metastate if isinstance(metastate, int) else to_mask(metastate)
    return frozenset(members(successor_mask(nfa, mask, symbol)))


def successor_mask(nfa: Nfa, mask: int, symbol: int) -> int:
    # apart from Nfa.successors, so the oracles built on it check that loop
    out = 0
    while mask:
        low = mask & -mask
        out |= nfa.succ_mask(low.bit_length() - 1, symbol)
        mask ^= low
    return out


def accepts(nfa: Nfa, word: Word) -> bool:
    """Membership test by running the metastate semantics over the word."""
    mask = nfa.initial_mask
    for a in word:
        if not 0 <= a < nfa.alphabet_size:
            raise ValueError(f"symbol {a} out of range")
        mask = successor_mask(nfa, mask, a)
    return bool(mask & nfa.final_mask)


def reverse(nfa: Nfa) -> Nfa:
    """Flip every transition and swap initial/final state sets."""
    edges = [(t, a, s) for (s, a, t) in nfa.edges()]
    return Nfa(nfa.num_states, nfa.alphabet_size, edges, nfa.final, nfa.initial)


EMPTY_LANGUAGE_STATES = 1


def trim(nfa: Nfa) -> Nfa:
    """Keep only states both reachable from initial and co-reachable to final.

    Surviving states are renumbered densely in ascending order.  If nothing
    survives, a canonical one-state automaton with no transitions and no final
    states is returned.
    """
    edges = list(nfa.edges())
    succ = [0] * nfa.num_states
    pred = [0] * nfa.num_states
    for (s, _, t) in edges:
        succ[s] |= 1 << t
        pred[t] |= 1 << s
    keep = members(_closure(nfa.initial_mask, succ) & _closure(nfa.final_mask, pred))
    if not keep:
        return Nfa(EMPTY_LANGUAGE_STATES, nfa.alphabet_size, [], [0], [])
    remap = {s: i for i, s in enumerate(keep)}
    edges = [
        (remap[s], a, remap[t])
        for (s, a, t) in edges
        if s in remap and t in remap
    ]
    return Nfa(
        len(keep),
        nfa.alphabet_size,
        edges,
        [remap[s] for s in nfa.initial if s in remap],
        [remap[s] for s in nfa.final if s in remap],
    )


def _closure(seed: int, adj: list[int]) -> int:
    """Mask of the states reachable from ``seed`` along ``adj[s]`` masks."""
    seen = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen


def complete(dfa: Dfa) -> Dfa:
    """Route every undefined transition to a fresh non-final sink state."""
    if dfa.is_total():
        return dfa
    sink = dfa.num_states
    rows = [
        [sink if t == UNDEFINED else t for t in row]
        for row in dfa.trans + [[UNDEFINED] * dfa.alphabet_size]
    ]
    return Dfa(sink + 1, dfa.alphabet_size, dfa.initial, dfa.final, rows)


def language_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Exact equivalence check via synchronized BFS over the product."""
    return _product_check(d1, d2, symmetric=True)


def language_included(d1: Dfa, d2: Dfa) -> bool:
    """Exact check of L(d1) being a subset of L(d2)."""
    return _product_check(d1, d2, symmetric=False)


def _product_check(d1: Dfa, d2: Dfa, symmetric: bool) -> bool:
    if d1.alphabet_size != d2.alphabet_size:
        raise ValueError("alphabet size mismatch")
    c1, c2 = complete(d1), complete(d2)
    start = (c1.initial, c2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        s1, s2 = queue.popleft()
        in1, in2 = s1 in c1.final, s2 in c2.final
        if (in1 != in2) if symmetric else (in1 and not in2):
            return False
        for a in range(c1.alphabet_size):
            nxt = (c1.trans[s1][a], c2.trans[s2][a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def enumerate_language(nfa: Nfa, max_len: int) -> set[Word]:
    """Brute-force oracle: all accepted words of length <= max_len."""
    out: set[Word] = set()
    final = nfa.final_mask
    frontier: list[tuple[Word, int]] = [((), nfa.initial_mask)]
    if nfa.initial_mask & final:
        out.add(())
    for _ in range(max_len):
        nxt = []
        for word, mask in frontier:
            if not mask:
                continue
            for a in range(nfa.alphabet_size):
                m2 = successor_mask(nfa, mask, a)
                w2 = word + (a,)
                if m2 & final:
                    out.add(w2)
                nxt.append((w2, m2))
        frontier = nxt
    return out


def isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """Structural identity up to state renaming, via parallel canonical BFS.

    Both inputs must be total; states unreachable from the initial state make
    the notion ill-defined and are rejected by a size check against the
    reachable part.
    """
    if not d1.is_total() or not d2.is_total():
        raise ValueError("isomorphism check requires total DFAs")
    if d1.alphabet_size != d2.alphabet_size or d1.num_states != d2.num_states:
        return False
    mapping = {d1.initial: d2.initial}
    inverse = {d2.initial: d1.initial}
    queue = deque([(d1.initial, d2.initial)])
    while queue:
        s1, s2 = queue.popleft()
        if (s1 in d1.final) != (s2 in d2.final):
            return False
        for a in range(d1.alphabet_size):
            t1, t2 = d1.trans[s1][a], d2.trans[s2][a]
            if t1 in mapping:
                if mapping[t1] != t2:
                    return False
            else:
                if t2 in inverse:
                    return False
                mapping[t1] = t2
                inverse[t2] = t1
                queue.append((t1, t2))
    return len(mapping) == d1.num_states
