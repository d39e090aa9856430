"""Equivalence registries mapping metastates to DFA states modulo language.

A registry is the one owner of which DFA state ids stand for the same
language.  Metastates are integer bitmasks over NFA states.  The contract:

* ``get(mask)`` returns the current representative of a state whose
  language equals the metastate's, or ``None``;
* ``put(mask, state)`` links a metastate to a freshly created state (a
  metastate is put at most once; a conflicting put raises
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

The CCL and CCLS cover test runs on a packed index: every (lattice, minimal)
pair is one row of ``uint64`` words, and one numpy expression tests a query
against all rows at once.  Point lattices (a single minimal equal to the
greatest element) can only cover a metastate that is already an exact hit,
so they get no rows: a CCL index holds rows only for states that stand for
more than one metastate.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

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
        """Join another region into this one, refiltering the antichain."""
        self.greatest |= greatest
        self.minimals = _antichain(self.minimals + minimals)


def _antichain(elems: list[int]) -> list[int]:
    """Dedupe and drop every element with a strict subset in the list."""
    out = []
    seen = set()
    for m in elems:
        if m in seen:
            continue
        if any(o != m and o & m == o for o in elems):
            continue
        seen.add(m)
        out.append(m)
    return out


_WORD = np.dtype("<u8")
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class _CoverIndex:
    """Packed cover test over the lattices of a CCL registry.

    Row ``r`` stands for one minimal ``m`` of one lattice with greatest
    element ``g``: column ``r`` of ``notg`` holds ``~g`` and column ``r`` of
    ``mins`` holds ``m``, each split into ``words`` little-endian ``uint64``
    words (word-major, so the OR over words runs along whole rows of the
    arrays).  A query ``q`` is covered by the row iff
    ``(notg[:, r] & q) | (mins[:, r] & ~q)`` is zero in every word, i.e.
    ``m <= q <= g``.  Dead rows are all ones in both arrays, which no query
    passes.  ``seq[r]`` is the insertion number of the row's lattice
    and ``rep[r]`` its representative state; among several hits the smallest
    ``seq`` wins, which is the lattice an insertion-ordered scan finds first.
    Nothing is allocated before the first row.
    """

    def __init__(self):
        self.words = 0
        self.size = 0  # rows written, live or dead
        self.dead = 0
        self.notg = self.mins = self.seq = self.rep = None
        self._span: dict[int, tuple[int, int]] = {}  # lattice key -> row range
        self._seq_of: dict[int, int] = {}  # lattice key -> insertion number
        self._next_seq = 0

    @property
    def live(self) -> int:
        return self.size - self.dead

    def insert(self, key: int, lat: Lattice) -> None:
        """Index a lattice that takes the last place in insertion order."""
        self._seq_of[key] = self._next_seq
        self._next_seq += 1
        self._write(key, lat)

    def update(self, key: int, lat: Lattice) -> None:
        """Re-index a lattice that changed in place, keeping its place."""
        self._kill(key)
        self._write(key, lat)

    def discard(self, key: int) -> None:
        self._kill(key)
        self._seq_of.pop(key, None)

    def find(self, query: int) -> Optional[int]:
        """Representative of the earliest-inserted lattice covering ``query``."""
        if not self.live:
            return None
        width = 8 * self.words
        if query.bit_length() > 8 * width:
            return None  # has a member outside every greatest element
        q = np.frombuffer(query.to_bytes(width, "little"), dtype=_WORD)[:, None]
        n = self.size
        fails = (self.notg[:, :n] & q) | (self.mins[:, :n] & ~q)
        hits = np.flatnonzero(np.bitwise_or.reduce(fails, axis=0) == 0)
        if hits.size == 0:
            return None
        return int(self.rep[hits[self.seq[hits].argmin()]])

    def _write(self, key: int, lat: Lattice) -> None:
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
        k = len(mins)
        words = max(self.words, 1, -(-lat.greatest.bit_length() // 64))
        cap = 0 if self.seq is None else len(self.seq)
        rows = cap if self.size + k <= cap else max(2 * cap, self.size + k, 16)
        if rows != cap or words != self.words:
            self._resize(rows, words)
        width = 8 * self.words
        lo, hi = self.size, self.size + k
        full = (1 << (8 * width)) - 1
        self.notg[:, lo:hi] = np.frombuffer(
            (~lat.greatest & full).to_bytes(width, "little"), dtype=_WORD
        )[:, None]
        self.mins[:, lo:hi] = np.frombuffer(
            b"".join(m.to_bytes(width, "little") for m in mins), dtype=_WORD
        ).reshape(k, self.words).T
        self.seq[lo:hi] = self._seq_of[key]
        self.rep[lo:hi] = lat.rep
        self._span[key] = (lo, hi)
        self.size = hi

    def _kill(self, key: int) -> None:
        span = self._span.pop(key, None)
        if span is None:
            return
        lo, hi = span
        self.notg[:, lo:hi] = _ALL_ONES
        self.mins[:, lo:hi] = _ALL_ONES
        self.dead += hi - lo
        if self.dead > self.live:
            self._compact()

    def _compact(self) -> None:
        """Move the live rows to the front, keeping their relative order."""
        spans = sorted(self._span.items(), key=lambda item: item[1][0])
        keep = np.array(
            [r for _, (lo, hi) in spans for r in range(lo, hi)], dtype=np.intp
        )
        for arr in (self.notg, self.mins, self.seq, self.rep):
            arr[..., : len(keep)] = arr[..., keep]
        pos = 0
        for key, (lo, hi) in spans:
            self._span[key] = (pos, pos + hi - lo)
            pos += hi - lo
        self.size = pos
        self.dead = 0

    def _resize(self, rows: int, words: int) -> None:
        """Reallocate to ``words`` x ``rows``; added words of ``~g`` are ones."""
        notg = np.full((words, rows), _ALL_ONES, dtype=_WORD)
        mins = np.zeros((words, rows), dtype=_WORD)
        seq = np.zeros(rows, dtype=np.int64)
        rep = np.zeros(rows, dtype=np.int64)
        if self.seq is not None:
            n, w = self.size, self.words
            notg[:w, :n] = self.notg[:, :n]
            mins[:w, :n] = self.mins[:, :n]
            seq[:n] = self.seq[:n]
            rep[:n] = self.rep[:n]
        self.notg, self.mins, self.seq, self.rep = notg, mins, seq, rep
        self.words = words


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
    merged last), answered by a packed index rather than a scan.  Setting
    ``cover_hits`` to a list records every non-exact hit as a (queried
    metastate, returned state) pair.
    """

    def __init__(self):
        super().__init__()
        self.lattices: dict[int, Lattice] = {}
        self.cover_hits: list[tuple[int, int]] | None = None
        self._index = _CoverIndex()

    def put(self, mask: int, state: int) -> None:
        self._put(mask, state, mask, [mask])

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

    def _put(self, mask: int, state: int, greatest: int, minimals: list[int]) -> None:
        super().put(mask, state)
        root = self.uf.find(state)
        existing = self.lattices.get(root)
        if existing is None:
            lat = Lattice(root, greatest, list(minimals))
            self.lattices[root] = lat
            self._index.insert(root, lat)
        else:
            existing.absorb(greatest, minimals)
            self._index.update(root, existing)

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
        self._put(mask, state, saturated, [pruned])

    def _cover(self, mask: int) -> Optional[int]:
        pruned = prune(mask, self.preorder)
        self._last_pruned = (mask, pruned)
        return self._hit(mask, self._index.find(pruned))
