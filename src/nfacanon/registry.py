"""Equivalence registries mapping metastates to DFA states modulo language.

A registry is the one owner of which DFA state ids stand for the same
language.  Metastates are integer bitmasks over NFA states.  The contract:

* ``get(mask)`` returns the current representative of a state whose
  language equals the metastate's, or ``None``;
* ``put(mask, state)`` links a metastate to a freshly created state (a
  metastate is put at most once, and the CCL registries also refuse a state
  that was put or absorbed before; a conflicting put raises
  ``RegistryContractError``);
* ``unify(q1, q2)`` records that two states were found language-equivalent
  (by intermediate minimization) and merges their classes;
* ``find(state)`` returns the current representative of any state id ever
  put.  The representative of a class is its smallest id.

Three implementations are provided:

* ``OneToOneRegistry`` -- plain hash map plus a union-find; reproduces
  classic subset construction, which never calls ``unify``.  It is the base
  of the other two, which share its exact map, contract check and union-find.
* ``CCLRegistry`` -- convexity-closure lattices: each known equivalence class
  is summarized by a greatest element plus an antichain of minimal elements,
  covering every metastate sandwiched in between.
* ``CCLSRegistry`` -- CCL with a similarity preorder used to prune/saturate
  metastates, widening lattices without any ``unify`` calls.

The CCL and CCLS cover test runs on a bit-sliced index: every (lattice,
minimal) pair is one row, and per NFA state one Python int holds a bit for
each row whose greatest element (or minimal) contains that state.  A query
ANDs the slices of its members, so a miss usually stops after a few of
them.  A lattice is written once, when it enters the index (at a put, or
when ``unify`` joins two), so row order is insertion order and the lowest
hit row names the earliest-inserted covering lattice.  Point lattices (a
single minimal equal to the greatest element) can only cover a metastate
that is already an exact hit, so they get no rows: a CCL index holds rows
only for states that stand for more than one metastate.
"""

from __future__ import annotations

from typing import Optional, Protocol

from .simulation import Preorder, prune, saturate


class RegistryContractError(Exception):
    """A registry operation violated its contract (e.g. conflicting put)."""


class UnionFind:
    """Growable union-find over DFA state ids; the smallest id is the root."""

    def __init__(self):
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        if x not in parent:
            return x  # roots are never keys of _parent
        root = parent[x]
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root, other = (ra, rb) if ra < rb else (rb, ra)
        self._parent[other] = root
        return root


class Lattice:
    """Convexity-closed equivalence region of metastates.

    A metastate Q is covered iff Q is a subset of ``greatest`` and some
    element of ``minimals`` is a subset of Q.  ``minimals`` is an antichain.
    """

    __slots__ = ("rep", "greatest", "minimals")

    def __init__(self, rep: int, greatest: int, minimals: list[int]):
        self.rep = rep
        self.greatest = greatest
        self.minimals = minimals

    def covers(self, mask: int) -> bool:
        if mask | self.greatest != self.greatest:
            return False
        return any(m & mask == m for m in self.minimals)

    def absorb(self, greatest: int, minimals: list[int]) -> None:
        """Join another region into this one, merging the two antichains.

        Both lists are antichains, so only cross pairs are tested: an old
        minimal stays unless a new one lies strictly below it, and a new one
        joins unless an old one lies below or equals it.  Old survivors come
        first, then new ones.
        """
        self.greatest |= greatest
        old = self.minimals
        kept = [o for o in old if not any(n != o and n & o == n for n in minimals)]
        kept += [n for n in minimals if not any(o & n == o for o in old)]
        self.minimals = kept


class _CoverIndex:
    """Bit-sliced cover test over the lattices of a CCL registry.

    Row ``r`` stands for one minimal ``m`` of one lattice with greatest
    element ``g``, and bit ``r`` of every slice stands for that row:
    ``in_greatest[s]`` holds the rows whose ``g`` contains NFA state ``s``,
    ``in_minimal[s]`` the rows whose ``m`` contains ``s``, and ``live`` the
    live rows; ``used`` is the OR of the minimals written.  A query ``q`` is
    covered by row ``r`` iff ``m <= q <= g``, i.e. ``r`` is in
    ``in_greatest[s]`` for every member ``s`` of ``q`` and in no
    ``in_minimal[s]`` for ``s`` outside ``q``; ``find`` narrows ``live``
    one member at a time and stops as soon as no row is left.  ``rows[r]``
    is the representative state of the row's lattice.  A lattice is written
    once, when it is inserted, and never changed in place, so rows follow
    insertion order and the lowest hit row belongs to the lattice an
    insertion-ordered scan finds first.  A lattice's rows are contiguous.
    Discarding them only clears their ``live`` bits; once dead rows
    outnumber live ones the slices are rebuilt from the lattices still
    indexed, in their old order.
    """

    def __init__(self):
        self.in_greatest: list[int] = []  # indexed by NFA state
        self.in_minimal: list[int] = []
        self.live = 0
        self.used = 0
        self.dead = 0
        self.rows: list[int] = []  # rows written, live or dead
        # lattice key -> (its row bits, the lattice), in row order
        self._span: dict[int, tuple[int, Lattice]] = {}

    def insert(self, key: int, lat: Lattice) -> None:
        """Index a lattice that takes the last place in insertion order."""
        mins = lat.minimals
        if len(mins) == 1 and mins[0] == lat.greatest:
            # A point lattice covers nothing but exact hits, so it needs no
            # rows.  CCL: m <= q <= m forces q == m, a metastate that was put.
            # CCLS: every metastate x put in the class has
            # m <= prune(x) <= x <= saturate(x) <= m, so x == m and
            # prune(m) == saturate(m) == m.  Covering prune(q) forces
            # prune(q) == m, and since prune only drops members dominated by
            # a kept one, q <= saturate(prune(q)) == m <= q: again q == m.
            # The exact map answers those before the index is asked.
            return
        lo = len(self.rows)
        grow = lat.greatest.bit_length() - len(self.in_greatest)
        if grow > 0:
            self.in_greatest += [0] * grow
            self.in_minimal += [0] * grow
        block = ((1 << len(mins)) - 1) << lo
        in_greatest = self.in_greatest
        rest = lat.greatest
        while rest:
            low = rest & -rest
            in_greatest[low.bit_length() - 1] |= block
            rest ^= low
        in_minimal = self.in_minimal
        for r, m in enumerate(mins, lo):
            row = 1 << r
            rest = m
            while rest:
                low = rest & -rest
                in_minimal[low.bit_length() - 1] |= row
                rest ^= low
            self.used |= m
        self.live |= block
        self.rows += [lat.rep] * len(mins)
        self._span[key] = (block, lat)

    def discard(self, key: int) -> None:
        span = self._span.pop(key, None)
        if span is None:
            return
        block, _ = span
        self.live &= ~block
        self.dead += block.bit_count()
        if self.dead > len(self.rows) - self.dead:
            self._rebuild()

    def find(self, query: int) -> Optional[int]:
        """Representative of the earliest-inserted lattice covering ``query``."""
        hits = self.live
        in_greatest = self.in_greatest
        if not hits or query.bit_length() > len(in_greatest):
            return None  # no rows, or a member outside every greatest element
        # the bit loops are inlined: this is the registry's innermost loop
        rest = query
        while rest:
            low = rest & -rest
            hits &= in_greatest[low.bit_length() - 1]
            if not hits:
                return None
            rest ^= low
        in_minimal = self.in_minimal
        rest = self.used & ~query
        while rest:
            low = rest & -rest
            hits &= ~in_minimal[low.bit_length() - 1]
            if not hits:
                return None
            rest ^= low
        return self.rows[(hits & -hits).bit_length() - 1]

    def _rebuild(self) -> None:
        """Rewrite the live rows from scratch, keeping their relative order."""
        spans = list(self._span.items())
        width = len(self.in_greatest)
        self.in_greatest = [0] * width
        self.in_minimal = [0] * width
        self.live = self.used = self.dead = 0
        self.rows = []
        for key, (_, lat) in spans:
            self.insert(key, lat)


class Registry(Protocol):
    def get(self, mask: int) -> Optional[int]: ...
    def put(self, mask: int, state: int) -> None: ...
    def unify(self, q1: int, q2: int) -> None: ...
    def find(self, state: int) -> int: ...


class OneToOneRegistry:
    """Exact hash-based registry whose ``unify`` merges in a union-find."""

    def __init__(self):
        self._exact: dict[int, int] = {}
        self.uf = UnionFind()

    def get(self, mask: int) -> Optional[int]:
        state = self._exact.get(mask)
        if state is None:
            return self._cover(mask)
        return self.uf.find(state)

    def put(self, mask: int, state: int) -> None:
        old = self._exact.setdefault(mask, state)
        if old != state:
            raise RegistryContractError(
                f"metastate already mapped to {old}, refusing remap to {state}"
            )

    def unify(self, q1: int, q2: int) -> None:
        self.uf.union(q1, q2)

    def find(self, state: int) -> int:
        return self.uf.find(state)

    def _cover(self, mask: int) -> Optional[int]:
        """State of a metastate that is not a key of the exact map."""
        return None


class CCLRegistry(OneToOneRegistry):
    """Convexity-closure-lattice registry.

    Lattices are keyed by union-find roots of their representative states;
    ``unify`` merges roots and joins the associated lattices.  A cover lookup
    returns the first covering lattice in insertion order (most recently
    merged last), answered by a bit-sliced index rather than a scan.  Setting
    ``cover_hits`` to a list records every non-exact hit as a (queried
    metastate, returned state) pair.
    """

    def __init__(self):
        super().__init__()
        self.lattices: dict[int, Lattice] = {}
        self.cover_hits: list[tuple[int, int]] | None = None
        self._index = _CoverIndex()

    def put(self, mask: int, state: int) -> None:
        self._put(mask, state, mask, mask)

    def unify(self, q1: int, q2: int) -> None:
        r1, r2 = self.uf.find(q1), self.uf.find(q2)
        if r1 == r2:
            return
        root = self.uf.union(r1, r2)
        l1 = self.lattices.pop(r1, None)
        l2 = self.lattices.pop(r2, None)
        self._index.discard(r1)
        self._index.discard(r2)
        if l1 is None:
            merged = l2
        elif l2 is None:
            merged = l1
        else:
            l1.absorb(l2.greatest, l2.minimals)
            merged = l1
        if merged is not None:
            merged.rep = root
            self.lattices[root] = merged
            self._index.insert(root, merged)

    def _put(self, mask: int, state: int, greatest: int, minimal: int) -> None:
        if state in self.lattices or self.uf.find(state) != state:
            raise RegistryContractError(f"state {state} is not fresh, refusing metastate {mask}")
        super().put(mask, state)
        lat = Lattice(state, greatest, [minimal])
        self.lattices[state] = lat
        self._index.insert(state, lat)

    def _cover(self, mask: int) -> Optional[int]:
        return self._hit(mask, self._index.find(mask))

    def _hit(self, mask: int, rep: Optional[int]) -> Optional[int]:
        """Resolve the index's answer for ``mask`` and record a cover hit."""
        if rep is None:
            return None
        state = self.uf.find(rep)
        if self.cover_hits is not None:
            self.cover_hits.append((mask, state))
        return state


class CCLSRegistry(CCLRegistry):
    """CCL refined by a similarity preorder on the input NFA.

    ``put`` stores a lattice spanning from the pruned to the saturated form
    of the metastate; a lookup that misses the exact map prunes the query
    before the cover test, and a ``put`` of that same metastate reuses the
    pruned form, so each new metastate is pruned once.
    """

    def __init__(self, preorder: Preorder):
        super().__init__()
        self.preorder = preorder
        # (metastate, its pruned form) of the last lookup that missed the
        # exact map: the engine puts a metastate right after such a miss
        self._last_pruned = (-1, 0)

    def put(self, mask: int, state: int) -> None:
        last, pruned = self._last_pruned
        if last != mask:
            pruned = prune(mask, self.preorder)
        saturated = saturate(mask, self.preorder)
        self._put(mask, state, saturated, pruned)

    def _cover(self, mask: int) -> Optional[int]:
        pruned = prune(mask, self.preorder)
        self._last_pruned = (mask, pruned)
        return self._hit(mask, self._index.find(pruned))
