"""Equivalence registries mapping metastates to DFA states modulo language.

A registry is the one owner of which DFA state ids stand for the same
language.  Metastates are integer bitmasks over NFA states.  The contract:

* ``_exact``, a dict from metastates to states, is the registry's exact
  map, and a hit there is the final answer.  The determinization loop
  reads it itself, and a registry may keep it empty;
* ``get(mask)`` is asked only about a metastate the exact map missed, and
  returns the current representative of a state whose language equals
  the metastate's, or ``None``;
* ``metastates``, a list by state id, holds the metastate put for each
  state; it is the one table of puts, and the loop reads it too;
* ``put(mask, state)`` links a metastate to the next state id,
  ``len(metastates)``.  Every put but the first follows the ``get`` that
  missed its metastate.  A metastate is put at most once; a put of another
  id or of a metastate put before raises ``RegistryContractError``.

The CCL registry also merges: ``unify(root, gone)`` records that the
states of one block of intermediate minimization were found
language-equivalent and merges their classes.  All must be live class
roots, and ``gone`` ascending above ``root``: the survivor of a block is
its smallest id, and the loop passes each block once, with its absorbed
ids in order.  The root of a class is its smallest id.  Its exact map
names class roots, and ``unify`` rewrites the entries of the classes it
absorbs, so an exact hit needs no further lookup.  A minimization
controller needs a registry that can ``unify``, so it runs with CCL only.

Three implementations are provided:

* ``OneToOneRegistry`` -- the exact hash map alone; reproduces classic
  subset construction, which never merges states.  The others extend it.
* ``ResidualRegistry`` -- Brzozowski's second pass: metastates of the
  forward automaton keyed by their signature over the first pass's
  metastates, so forward subset construction yields the minimal DFA.
* ``CCLRegistry`` -- convexity-closure lattices: each known equivalence class
  is summarized by a greatest element plus an antichain of minimal elements,
  covering every metastate sandwiched in between.

An ``-s`` determinization runs on a ``PrunedView`` of the automaton, whose
initial metastate and successors are pruned by a similarity order, so the
queries and puts of its registry are all pruned forms.  The registry reads
no order: simulation reaches it only through the view.

A class is kept in one of two ways.  Lemma: the lattice ``[m, m]`` of a
single put m, never merged, covers a query p iff m ⊆ p ⊆ m, that is,
iff p == m.  Hence:

* an *unmerged* class, the single put m of a state, builds no lattice: its
  entries in the exact map and in ``metastates`` are all there is, because
  by the lemma the exact map answers every query the lattice would cover;
* a *merged* class has a ``Lattice``, the join of its block's lattices,
  built once per ``unify``, and the lattice goes to the cover index.  The
  index has one bit per lattice: per NFA state, one Python int holds the
  bits of the lattices whose greatest element contains it.  A query ANDs
  the ints of its members, so a miss usually stops after a few of them,
  then tests the minimals of the lattices left in bit order.  Bit order
  is the order in which ``unify`` built them.  ``unify`` adds one bit and
  clears those of the lattices it joins, so the index holds one bit per
  block, live or dead.

So ``lattices`` holds exactly the lattices of the unified classes, keyed
by class root; a registry that never merged builds none and costs what its
exact map costs.  Past the exact map, ``get`` answers with the
earliest-inserted covering lattice, the first hit in bit order.  The
lattice of a class never unified covers its exact key alone, so it needs
no place in that order.  CCL refuses a ``put`` of a metastate that a
merged lattice covers, unless it is the one its last ``get`` missed and
no ``unify`` came between.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from .automata import Nfa, _step_plan, bit_rows, to_mask
# ``saturate`` stays only for perfbench/tracer.py, which patches it (ROADMAP item 4)
from .simulation import Preorder, prune, saturate  # noqa: F401


class RegistryContractError(Exception):
    """A registry operation violated its contract (e.g. conflicting put)."""


class Lattice:
    """Convexity-closed equivalence region of metastates.

    A metastate Q is covered iff Q is a subset of ``greatest`` and some
    element of ``minimals`` is a subset of Q.  ``minimals`` is an antichain.
    ``puts`` lists the metastates put for the states of the class.  ``bit``
    is the lattice's bit in the cover index, or 0 while it has none.
    """

    __slots__ = ("rep", "greatest", "minimals", "puts", "bit")

    def __init__(self, rep: int, greatest: int, minimals: list[int], puts: list[int]):
        self.rep = rep
        self.greatest = greatest
        self.minimals = minimals
        self.puts = puts
        self.bit = 0


class _CoverIndex:
    """Greatest-element slices over the merged lattices of a CCL registry.

    A class never unified has no lattice to index: by the lemma of the
    module docstring, its exact entry answers for it.  ``rows[b]`` is the
    lattice that took bit ``b``, ``in_greatest[s]`` holds the bits of the
    lattices whose greatest element contains NFA state ``s``, and ``live``
    the bits in use.  A lattice keeps its bit from ``insert`` until
    ``CCLRegistry.unify`` joins it into another and clears the bit from
    ``live``, so bit order is insertion order.  The index gains one row per
    block, and there are fewer of those than states made, so its slices
    hold at most (NFA states) x (states made) bits, as ``metastates`` does.
    """

    def __init__(self):
        self.in_greatest: list[int] = []  # indexed by NFA state
        self.live = 0
        self.rows: list[Lattice] = []  # by bit, live or dead

    def insert(self, lat: Lattice) -> None:
        """Index a lattice that takes the last place in insertion order."""
        bit = 1 << len(self.rows)
        self.in_greatest += [0] * (lat.greatest.bit_length() - len(self.in_greatest))
        in_greatest = self.in_greatest
        rest = lat.greatest
        while rest:
            low = rest & -rest
            in_greatest[low.bit_length() - 1] |= bit
            rest ^= low
        self.live |= bit
        self.rows.append(lat)
        lat.bit = bit

    def first_cover(self, query: int) -> Optional[int]:
        """Representative of the earliest-inserted lattice covering ``query``."""
        hits = self.live
        in_greatest = self.in_greatest
        if not hits or query.bit_length() > len(in_greatest):
            return None  # no lattices, or a member outside every greatest element
        # the bit loops are inlined: this is the registry's innermost loop
        rest = query
        while rest:
            low = rest & -rest
            hits &= in_greatest[low.bit_length() - 1]
            if not hits:
                return None
            rest ^= low
        rows = self.rows
        while hits:
            low = hits & -hits
            lat = rows[low.bit_length() - 1]
            for m in lat.minimals:
                if m & query == m:
                    return lat.rep
            hits ^= low
        return None


class Registry(Protocol):
    _exact: dict[int, int]  # hits are final, and ``get`` is asked past them
    metastates: list[int]  # by state id: the metastate put for it

    def get(self, mask: int) -> Optional[int]: ...
    def put(self, mask: int, state: int) -> None: ...


class OneToOneRegistry:
    """Exact hash-based registry: one state per metastate, never merged.

    The registries that extend it call its ``put`` directly: a ``super()``
    frame costs about as much as the check.
    """

    def __init__(self):
        self._exact: dict[int, int] = {}
        self.metastates: list[int] = []  # by state id: the metastate put for it

    def get(self, mask: int) -> Optional[int]:
        return None  # nothing beyond the exact map

    def put(self, mask: int, state: int) -> None:
        new = len(self.metastates)
        if state != new or self._exact.setdefault(mask, state) != state:
            raise RegistryContractError(f"put({mask}, {state}) needs a new metastate and id {new}")
        self.metastates.append(mask)


class ResidualRegistry(OneToOneRegistry):
    """Brzozowski's second pass, run forward: metastates keyed by signature.

    Phase 1 determinizes rev(A), the reverse of the forward automaton A,
    into D1.  The registry is built from the metastate S_j of each dense D1
    state j, the constructor's ``metastates[j]``, and from A's
    ``num_states``.  ``columns[q]``, their bit transpose, has bit j set when
    S_j contains A's state q.  The signature of a metastate P of A is the
    OR of ``columns[q]`` over q in P, the set ``{j : S_j ∩ P ≠ ∅}``.
    Lemma (Brzozowski 1962; Bonchi et al., ACM TOCL 2014): if P is the
    forward subset reached from A's initial states by a word w, its
    signature is the metastate that the subset construction of rev(D1)
    reaches by w.  So a forward subset construction keyed by signatures
    discovers the states of det(rev(D1)) in the same order, with the same
    final flags, and never builds rev(D1) or computes a preimage.

    Signatures are exact only for reachable metastates: when phase 1
    merged states, S_j is merely language-equivalent to the subset that
    rev(w) reaches in rev(A), so two unreachable metastates may share a
    signature without sharing a language.  The determinization loop only
    asks about reachable ones.  A hit caches its metastate in the exact
    map, and a ``put`` right after a miss reuses the signature of that
    miss, so each distinct metastate is signed once.
    """

    def __init__(self, metastates: list[int], num_states: int):
        super().__init__()
        nb = (num_states + 7) // 8
        raw = b"".join(m.to_bytes(nb, "little") for m in metastates)
        rows = np.frombuffer(raw, np.uint8).reshape(len(metastates), nb)
        bits = np.unpackbits(rows, axis=1, count=num_states, bitorder="little")
        self.columns = bit_rows(bits.T)
        self._by_signature: dict[int, int] = {}
        # (metastate, signature) of the last ``get``
        self._last = (-1, 0)

    def signature(self, mask: int) -> int:
        columns = self.columns
        sig = 0
        while mask:
            low = mask & -mask
            sig |= columns[low.bit_length() - 1]
            mask ^= low
        return sig

    def get(self, mask: int) -> Optional[int]:
        sig = self.signature(mask)
        self._last = (mask, sig)
        state = self._by_signature.get(sig)
        if state is not None:
            self._exact[mask] = state
        return state

    def put(self, mask: int, state: int) -> None:
        last, sig = self._last
        if last != mask:
            sig = self.signature(mask)
        if sig in self._by_signature:
            raise RegistryContractError(f"signature of {mask} already mapped to a state")
        OneToOneRegistry.put(self, mask, state)
        self._by_signature[sig] = state


class CCLRegistry(OneToOneRegistry):
    """Convexity-closure-lattice registry, the one that merges states.

    The exact map names class roots, so an exact hit is one dict lookup,
    and the root of any state ``s`` ever put is ``_exact[metastates[s]]``.
    The lattice of a put is a point, so a put builds none.  ``unify`` takes
    the lattices of every class of its block out of the index, a class
    never unified counting as the point of its put, points the exact
    entries of all their puts at the root, and indexes their join once,
    under the root.  ``get`` asks the cover index, which holds the
    lattices of the unified classes: it returns the first covering lattice
    in insertion order (most recently merged last), answered by a
    bit-sliced index rather than a scan, and returns at once while the
    index is empty.  ``get`` records the metastate it last missed, and
    ``unify`` clears the record: a ``put`` of that metastate is checked by
    no lookup, and any other ``put`` raises ``RegistryContractError`` if a
    lattice covers its metastate.  Setting ``cover_hits`` to a list records
    every hit of ``get`` as a (queried metastate, returned state) pair.
    """

    def __init__(self):
        super().__init__()
        self.lattices: dict[int, Lattice] = {}  # class root -> lattice, once unified
        self.cover_hits: list[tuple[int, int]] | None = None
        self._index = _CoverIndex()
        self._missed = -1  # the metastate ``get`` last missed, or -1

    def get(self, mask: int) -> Optional[int]:
        # a live lattice's rep is its class root: unify keeps the root's lattice
        rep = self._index.first_cover(mask) if self._index.live else None
        if rep is None:
            self._missed = mask
        elif self.cover_hits is not None:
            self.cover_hits.append((mask, rep))
        return rep

    def put(self, mask: int, state: int) -> None:
        if mask != self._missed and (covering := self._index.first_cover(mask)) is not None:
            raise RegistryContractError(f"metastate {mask} is covered by state {covering}")
        OneToOneRegistry.put(self, mask, state)

    def unify(self, root: int, gone: list[int]) -> None:
        """Merge one block: the classes of the live roots ``gone`` into ``root``'s.

        ``gone`` is ascending and nonempty, and ``root``, a live root too,
        is below all of it.  The join of the block's lattices is built once:
        a class never unified is the point of its one put.  Its minimals are
        those of the union of the antichains, kept smallest first.
        """
        exact, metastates = self._exact, self.metastates
        block = [root, *gone]
        ordered = gone and block == sorted(set(block)) and 0 <= root and block[-1] < len(metastates)
        if not (ordered and all(exact[metastates[q]] == q for q in block)):
            raise RegistryContractError(f"unify({root}, {gone}) needs live roots, ascending")
        self._missed = -1  # the join may cover it
        greatest, minimals, puts = 0, [], []
        for q in block:
            # a class never unified is the point of its one put
            if (lat := self.lattices.pop(q, None)) is None:
                greatest |= metastates[q]
                minimals.append(metastates[q])
                puts.append(metastates[q])
            else:
                self._index.live &= ~lat.bit
                greatest |= lat.greatest
                minimals += lat.minimals
                puts += lat.puts
        exact.update(dict.fromkeys(puts, root))
        kept: list[int] = []
        for m in sorted(minimals, key=int.bit_count):
            if m not in map(m.__or__, kept):  # no kept k is a subset: k | m == m
                kept.append(m)
        merged = self.lattices[root] = Lattice(root, greatest, kept, puts)
        self._index.insert(merged)


class PrunedView:
    """An ``Nfa`` seen through ``prune``: what an ``-s`` determinization runs on.

    It has what the determinization loop reads: the automaton's
    ``alphabet_size`` and ``final_mask``, its ``initial_mask`` pruned, and
    ``successors``, each successor pruned.  A pruned metastate has the
    language of the metastate and the same final flag: each member it
    drops is simulated by one it keeps, a final one by a final one
    (Abdulla, Chen, Holík, Mayr & Vojnar, "When Simulation Meets
    Antichains", TACAS 2010).

    The order is folded into the successor table.  Write D(S) for the
    states strictly below some member of S; the pruned form of S is
    ``S & ~D(S)``, and D of a union is the union of the D's.  So with n
    the automaton's states, ``_succ[q][a]`` holds the successors T of q on
    a in its low n bits and D(T) in the next n, and the successors of a
    metastate, ORed over its members' rows by ``Nfa.successors``' own
    steps, carry their D above them: one AND per successor prunes it.  The
    steps are chosen by n, not 2n, and read each symbol's 2n bits: a view
    of at most ``automata.SMALL_STATES`` states takes the byte tables, with
    2n bits per symbol in an entry.  Only a target in ``preorder.pruners``
    has a D, so only the rows of ``feeds``, the states with an edge into
    ``pruners``, are copied and widened; the other rows are the
    automaton's own, and a metastate without a member in ``feeds`` has its
    successors unpruned.
    """

    def __init__(self, nfa: Nfa, preorder: Preorder):
        self.alphabet_size = nfa.alphabet_size
        self.final_mask = nfa.final_mask
        self.initial_mask = prune(nfa.initial_mask, preorder)
        n = nfa.num_states
        self._n, self._full = n, (1 << n) - 1
        src, sym, dst = nfa.edge_arrays()
        below = preorder.below
        has_below = np.fromiter(map(bool, below), bool, n)
        fed = has_below[dst]
        src, sym, dst = src[fed].tolist(), sym[fed].tolist(), dst[fed].tolist()
        self.feeds = to_mask(src)
        succ = list(nfa._masks())
        for q in set(src):
            succ[q] = succ[q][:]
        for q, a, t in zip(src, sym, dst):
            succ[q][a] |= below[t] << n
        self._succ = succ
        # the plan of the steps over it, whose rows are 2n bits wide; a view
        # is made to be determinized, so it is built here, not on first use
        self._step = _step_plan(succ, n, self._fold * n)

    # the step reads ``self._succ``, here the folded table, ``self._step``
    # and ``self._fold``
    _gather = Nfa.successors
    _fold = 2

    def successors(self, mask: int) -> list[int]:
        out = self._gather(mask)
        if mask & self.feeds:
            n, full = self._n, self._full
            out = [x & ~(x >> n) & full for x in out]
        return out
