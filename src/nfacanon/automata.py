"""Core automaton representations and the transformations on them.

NFA states are integers ``0..num_states-1`` and symbols are integers
``0..alphabet_size-1``.  An ``Nfa`` keeps its transitions in two views: edge
arrays, every transition once in (symbol, source, target) order, which
trimming, reversal and the quotients read and produce whole; and
per-state, per-symbol successor bitmasks, which subset construction reads.
Metastates (sets of NFA states) are integer bitmasks throughout;
:func:`to_mask` packs a collection of states into one, and
:func:`bit_rows` each row of a boolean matrix.  Subset construction asks
an ``Nfa`` for every per-symbol successor of a metastate
(``Nfa.successors``); every determinization runs on an ``Nfa``, except
the first pass of an ``-s`` pipeline, which runs on the
``registry.PrunedView`` of one.  Language checks (membership, equivalence,
inclusion, enumeration) are test oracles and live with the tests.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import or_
from typing import Iterable, Iterator

import numpy as np

UNDEFINED = -1

# The successor step's cutoffs (``Nfa.successors``), chosen by measured sweeps
# recorded in CHANGES.md: byte tables up to this many states ...
SMALL_STATES = 64
# ... and above it, the numpy gather for metastates of more members than this,
# while its table takes at most this many bytes
WIDE_MEMBERS = 32
WIDE_TABLE_BYTES = 1 << 26


def to_mask(states: Iterable[int]) -> int:
    """Pack a collection of state identifiers into a bitmask."""
    m = 0
    for s in states:
        m |= 1 << s
    return m


def bit_rows(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as the bitmask of its true columns."""
    width = (matrix.shape[1] + 7) // 8
    # a transposed view packs several times slower than a C-ordered copy
    packed = np.packbits(np.ascontiguousarray(matrix), axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


def int_rows(rows: Iterable[Iterable[int]], num_rows: int, width: int) -> np.ndarray:
    """The integer ``rows``, each ``width`` long, as a ``(num_rows, width)`` array.

    One flat iterator over all entries converts faster than a list of rows.
    """
    return np.fromiter(chain.from_iterable(rows), np.int64, num_rows * width).reshape(num_rows, width)


class Nfa:
    """A nondeterministic finite automaton without epsilon transitions.

    ``transitions`` is any iterable of ``(src, symbol, dst)`` triples or an
    ``(m, 3)`` integer array; duplicates are dropped.  The automaton keeps
    two views of them.  ``edge_arrays()`` gives the read-only ``src``,
    ``sym`` and ``dst`` integer arrays, every transition once, sorted by
    symbol, source, target; trimming, reversal and the quotients work on
    these.  ``_succ[s][a]``, built from them on first use, is the bitmask of
    the targets of ``s`` on ``a``; ``successors`` reads it for subset
    construction, so an automaton that is only trimmed, reversed or
    quotiented never builds it.  ``_step`` (the plan of ``_step_plan``) and
    ``_words`` (the table of ``_word_table``) are built from it by
    ``successors``, the first when it is first called, the second at its
    first metastate of more than ``WIDE_MEMBERS`` members.
    """

    __slots__ = (
        "num_states", "alphabet_size", "initial", "final", "_edges", "_succ", "_step", "_words",
    )
    # each mask of ``_succ`` spans ``_fold`` x n bits: a ``registry.PrunedView``
    # folds a second n into its rows
    _fold = 1

    def __init__(
        self,
        num_states: int,
        alphabet_size: int,
        transitions: Iterable[tuple[int, int, int]] | np.ndarray,
        initial: Iterable[int],
        final: Iterable[int],
    ):
        self._set_states(num_states, alphabet_size, initial, final)
        self._set_edges(*_sorted_columns(transitions, num_states, alphabet_size))

    @classmethod
    def _ordered(
        cls,
        num_states: int,
        alphabet_size: int,
        src: np.ndarray,
        sym: np.ndarray,
        dst: np.ndarray,
        initial: Iterable[int],
        final: Iterable[int],
    ) -> Nfa:
        """An ``Nfa`` from edge arrays already in range, unique and in order.

        For producers that derive their edges from another ``Nfa``'s in
        (symbol, source, target) order: the arrays are made read-only and
        kept, not copied, checked or sorted.
        """
        nfa = cls.__new__(cls)
        nfa._set_states(num_states, alphabet_size, initial, final)
        nfa._set_edges(src, sym, dst)
        return nfa

    def _set_states(self, num_states, alphabet_size, initial, final) -> None:
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

    def _set_edges(self, src: np.ndarray, sym: np.ndarray, dst: np.ndarray) -> None:
        for column in (src, sym, dst):
            column.flags.writeable = False
        self._edges = (src, sym, dst)

    def _masks(self) -> list[list[int]]:
        """``_succ``, built from the edge arrays on the first call."""
        try:
            return self._succ
        except AttributeError:
            pass
        # _succ[s][a] = bitmask of successors of s on symbol a
        succ = [[0] * self.alphabet_size for _ in range(self.num_states)]
        for s, a, t in self.edges():
            succ[s][a] |= 1 << t
        self._succ = succ
        return succ

    @property
    def initial_mask(self) -> int:
        return to_mask(self.initial)

    @property
    def final_mask(self) -> int:
        return to_mask(self.final)

    def successors(self, mask: int) -> list[int]:
        """Every per-symbol successor metastate of ``mask``, a new list.

        The step is chosen by two sizes.  An automaton of at most
        ``SMALL_STATES`` states ORs one table entry per byte of ``mask``:
        each entry holds the successors of that byte's members on every
        symbol side by side, and k shifts split them (``_step_plan``).  On
        a larger automaton, whose plan is None, a metastate of more than
        ``WIDE_MEMBERS`` members ORs its members' rows of a ``uint64``
        table in one numpy reduction (``_gather`` over ``_word_table``).
        Any other ORs its first member's row with each further member's
        row by ``map(operator.or_, ...)``, so the member loop only chains
        the maps and ``list()`` runs them at C level; a single member's row
        is copied.  The tables are built on first use.  It reads only
        ``_succ``, ``_step``, ``_fold`` and ``alphabet_size``, so
        ``registry.PrunedView`` runs it over a table and a plan of its own,
        whose rows are twice as wide.
        """
        # a try costs nothing until it raises: only the first call builds
        # the plan (a ``__getattr__`` hook would slow every attribute read)
        try:
            step = self._step
        except AttributeError:
            step = self._step = _step_plan(self._masks(), self.num_states, self.num_states)
        if step is None:
            succ = self._succ
            low = mask & -mask
            if not low:
                return [0] * self.alphabet_size
            out = succ[low.bit_length() - 1]
            rest = mask ^ low
            if not rest:  # one member: a copy of its row, and no width test
                return out[:]
            if rest.bit_count() >= WIDE_MEMBERS:
                try:
                    words = self._words
                except AttributeError:
                    words = self._words = _word_table(succ, self._fold * len(succ))
                if words is not None:
                    return _gather(words, mask, self.alphabet_size)
            while rest:
                low = rest & -rest
                rest ^= low
                out = map(or_, out, succ[low.bit_length() - 1])
            return list(out)
        tables, nbytes, shifts, full = step
        acc = 0
        for table, byte in zip(tables, mask.to_bytes(nbytes, "little")):
            acc |= table[byte]
        # a loop, not a comprehension: before Python 3.12 that is a call
        out = []
        for s in shifts:
            out.append(acc >> s & full)
        return out

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``src``, ``sym`` and ``dst`` arrays of the transitions.

        Each transition appears once; they run by symbol, source, target.
        """
        return self._edges

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Every transition ``(src, symbol, dst)``, by symbol, source, target."""
        src, sym, dst = self._edges
        return zip(src.tolist(), sym.tolist(), dst.tolist())

    def num_transitions(self) -> int:
        return len(self._edges[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.alphabet_size == other.alphabet_size
            and self.initial == other.initial
            and self.final == other.final
            and all(map(np.array_equal, self._edges, other._edges))
        )

    def __repr__(self) -> str:
        return (
            f"Nfa(states={self.num_states}, symbols={self.alphabet_size}, "
            f"transitions={self.num_transitions()})"
        )


def _step_plan(rows: list[list[int]], n: int, w: int) -> tuple | None:
    """``Nfa.successors``' plan over ``rows``, n of them, each symbol's ``w`` bits wide.

    None above ``SMALL_STATES``.  Otherwise it is ``(tables, nbytes,
    shifts, full)``: a metastate's ``nbytes`` bytes, the offsets of the
    symbols' successors in an entry of ``tables`` and the mask of one of
    them.  State s holds its k successor masks side by side, symbol a at
    bits a*w to a*w+w-1, and the table of byte j holds the OR of the
    members of each byte value, states 8j to 8j+7 (the "Four Russians"
    tables of Arlazarov, Dinic, Kronrod & Faradzev, 1970).  A table is built
    by doubling: each member appends a copy of the entries so far, each
    ORed with it.
    """
    if n > SMALL_STATES:
        return None
    shifts = [w * a for a in range(len(rows[0]))]
    packed = [sum(x << s for x, s in zip(row, shifts)) for row in rows]
    tables = []
    for j in range(0, n, 8):
        # the last byte's bits past n are never set, so its table stops short
        table = [0]
        for x in packed[j : j + 8]:
            table += [t | x for t in table]
        tables.append(table)
    return tables, (n + 7) // 8, shifts, (1 << w) - 1


def _gather(words: np.ndarray, mask: int, k: int) -> list[int]:
    """The k successors of ``mask``: its members' rows of ``words``, ORed."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
    acc = np.bitwise_or.reduce(words[np.flatnonzero(bits)]).tobytes()
    size = len(acc) // k
    return [int.from_bytes(acc[i : i + size], "little") for i in range(0, len(acc), size)]


def _word_table(rows: list[list[int]], w: int) -> np.ndarray | None:
    """``rows`` as a ``uint64`` array, a row per state, ``w``-bit masks per symbol.

    Row s holds the masks of ``rows[s]`` one after another, each in whole
    little-endian words.  None if the array would take more than
    ``WIDE_TABLE_BYTES``.
    """
    size = (w + 63) // 64 * 8
    if len(rows) * len(rows[0]) * size > WIDE_TABLE_BYTES:
        return None
    data = b"".join(x.to_bytes(size, "little") for row in rows for x in row)
    return np.frombuffer(data, "<u8").reshape(len(rows), -1)


def _sorted_columns(transitions, num_states: int, alphabet_size: int):
    """The distinct ``transitions`` as ``src``, ``sym``, ``dst`` arrays, in edge order.

    The first transition out of range, in the given order, names the error.
    """
    if not isinstance(transitions, np.ndarray):
        triples = list(transitions)
        if set(map(len, triples)) - {3}:
            raise ValueError("transitions must be (src, symbol, dst) triples")
        # a flat list converts several times faster than a list of tuples
        transitions = np.array(list(chain.from_iterable(triples))).reshape(-1, 3)
    if transitions.size and (transitions.ndim != 2 or transitions.shape[1] != 3):
        raise ValueError("transitions must be (src, symbol, dst) triples")
    if transitions.size and transitions.dtype.kind not in "biu":
        raise TypeError("transitions must be integers")
    edges = transitions.astype(np.int64, copy=False).reshape(-1, 3)
    src, sym, dst = edges.T
    shape = (alphabet_size, num_states, num_states)
    try:
        keys = np.ravel_multi_index((sym, src, dst), shape)
    except ValueError:
        bad_state = (src < 0) | (src >= num_states) | (dst < 0) | (dst >= num_states)
        first = int(np.argmax(bad_state | (sym < 0) | (sym >= alphabet_size)))
        s, a, t = edges[first].tolist()
        if bad_state[first]:
            raise ValueError(f"transition ({s},{a},{t}) out of range") from None
        raise ValueError(f"symbol {a} out of range") from None
    sym, src, dst = np.unravel_index(sorted_distinct(keys), shape)
    return src, sym, dst


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending; sorts ``keys`` in place.

    A sort and a mask.  ``np.unique`` without ``return_inverse`` or
    ``return_index`` hashes first, and is ten times slower on a thousand
    keys.
    """
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


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
        if self.final and not 0 <= min(self.final) <= max(self.final) < num_states:
            raise ValueError("final state out of range")
        # trans[s][a]: successor of s on a, or UNDEFINED; taken, not copied
        if trans is None:
            trans = [[UNDEFINED] * alphabet_size for _ in range(num_states)]
        self.trans = trans

    def set_transition(self, src: int, symbol: int, dst: int) -> None:
        self.trans[src][symbol] = dst

    def is_total(self) -> bool:
        return all(UNDEFINED not in row for row in self.trans)

    def __repr__(self) -> str:
        return f"Dfa(states={self.num_states}, symbols={self.alphabet_size})"


def reverse(nfa: Nfa) -> Nfa:
    """Flip every transition and swap initial/final state sets."""
    src, sym, dst = nfa.edge_arrays()
    # a stable sort by (symbol, target) keeps the sources ascending within
    # each, so the flipped edges come out in (symbol, source, target) order
    order = np.argsort(sym * nfa.num_states + dst, kind="stable")
    return Nfa._ordered(
        nfa.num_states, nfa.alphabet_size, dst[order], sym[order], src[order],
        nfa.final, nfa.initial,
    )


EMPTY_LANGUAGE_STATES = 1


def trim(nfa: Nfa) -> Nfa:
    """Keep only states both reachable from initial and co-reachable to final.

    Surviving states are renumbered densely in ascending order.  If nothing
    survives, a canonical one-state automaton with no transitions and no final
    states is returned.
    """
    src, sym, dst = nfa.edge_arrays()
    n = nfa.num_states
    # one search over two copies of the states: the edges forward from the
    # initial states in the first, reversed from the final states in the
    # second, so it takes as many rounds as the deeper of the two searches
    seeds = [*nfa.initial, *(s + n for s in nfa.final)]
    heads = np.concatenate((src, dst + n))
    tails = np.concatenate((dst, src + n))
    seen = _reachable(seeds, heads, tails, 2 * n)
    keep = seen[:n] & seen[n:]
    if not keep.any():
        return Nfa(EMPTY_LANGUAGE_STATES, nfa.alphabet_size, [], [0], [])
    # the renumbering is increasing, so the kept edges stay in order
    new_id = np.where(keep, np.cumsum(keep) - 1, UNDEFINED)
    kept = np.flatnonzero(keep[src] & keep[dst])
    ids = new_id.tolist()
    return Nfa._ordered(
        int(np.count_nonzero(keep)),
        nfa.alphabet_size,
        new_id[src[kept]],
        sym[kept],
        new_id[dst[kept]],
        [ids[s] for s in nfa.initial if ids[s] != UNDEFINED],
        [ids[s] for s in nfa.final if ids[s] != UNDEFINED],
    )


def _reachable(seeds: Iterable[int], heads: np.ndarray, tails: np.ndarray, n: int) -> np.ndarray:
    """Flags of the states reachable from ``seeds`` along ``heads[i] -> tails[i]``.

    Each round adds the tails of every edge whose head is already reached,
    until a round adds none.
    """
    seen = np.zeros(n, dtype=bool)
    seen[list(seeds)] = True
    count = np.count_nonzero(seen)
    while True:
        seen[tails[seen[heads]]] = True
        count, before = np.count_nonzero(seen), count
        if count == before:
            return seen


def quotient(nfa: Nfa, block: np.ndarray, num_blocks: int) -> Nfa:
    """Merge the states of ``nfa`` by ``block``, their classes in ``0..num_blocks-1``.

    The class of an edge's ends gives its quotient edge; an initial or
    final state makes its class initial or final.
    """
    src, sym, dst = nfa.edge_arrays()
    # keyed symbol first, so the sorted distinct keys are in edge order
    shape = (nfa.alphabet_size, num_blocks, num_blocks)
    keys = np.ravel_multi_index((sym, block[src], block[dst]), shape)
    q_sym, q_src, q_dst = np.unravel_index(sorted_distinct(keys), shape)
    block_of = block.tolist()
    return Nfa._ordered(
        num_blocks,
        nfa.alphabet_size,
        q_src,
        q_sym,
        q_dst,
        {block_of[s] for s in nfa.initial},
        {block_of[s] for s in nfa.final},
    )


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
