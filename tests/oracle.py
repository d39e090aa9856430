"""Independent reference implementations used as test oracles.

These deliberately avoid the library's engine, partition-refinement and
similarity code paths: subset construction is a plain BFS/LIFO worklist over
dict-keyed metastates, minimization is classic table filling over completed
DFAs, and similarity is a pairwise fixpoint loop over bitmask rows.
``similarity_fixpoint_reference`` is the earlier per-symbol numpy fixpoint,
fast enough to check ``compute_similarity`` on benchmark-sized inputs.
``minimize_reference`` and ``bisimulation_reference`` are the earlier
row-signature refinements that ``nfacanon.partition`` must match exactly,
merge order and state numbering included.  ``antichain_reference`` is the
pairwise antichain filter by which ``LinearScanCCLRegistry`` keeps only
the minimal elements of each lattice.
``prune_reference`` and ``saturate_reference`` are the earlier loops over
every member that the masked ``prune`` and ``saturate`` must match.
``leq`` reads a ``Preorder``'s partial order off its strict rows, and
``identity_preorder`` builds one.
``edges_reference`` and ``trim_reference`` are the earlier walks over every
successor mask that the edge arrays of ``Nfa`` and the array ``trim`` must
match.
``LinearScanCCLRegistry`` is a CCL registry that answers every lookup by
scanning all of its lattices in insertion order; its exact map stays empty,
so the engine sends every lookup to its ``get``.  ``lookup`` asks a
registry the way the determinization loop does, ``find`` reads the class
root of a state off a CCL registry, ``covers`` tests a lattice's
membership rule over its puts, ``lattice_of_puts`` builds the lattice of a class from the
metastates put for it, ``class_lattices`` builds it for every class of a
CCL registry, and ``FixedInterval`` is a minimization controller that
never rescales its interval.

The language oracles are here too, apart from the code they check:
``members`` unpacks a bitmask, ``successor_mask`` ORs per-state successor
masks one member at a time (``Nfa.successors`` gathers them), ``accepts``
and ``enumerate_language`` run the metastate semantics word by word,
``language_equivalent`` and ``language_included`` walk the product of two
DFAs, each made total by ``completed``,
and ``dfa_accepts`` and ``dfa_to_nfa`` read a ``Dfa``'s rows.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from nfacanon.automata import EMPTY_LANGUAGE_STATES, UNDEFINED, Dfa, Nfa, to_mask, trim
from nfacanon.simulation import Preorder

Word = tuple[int, ...]


def members(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the sorted tuple of its state identifiers."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def succ_mask(nfa: Nfa, state: int, symbol: int) -> int:
    """Bitmask of the targets of ``state`` on ``symbol``."""
    return nfa._masks()[state][symbol]


def successor_mask(nfa: Nfa, mask: int, symbol: int) -> int:
    """The successor of metastate ``mask`` on ``symbol``, member by member."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ_mask(nfa, low.bit_length() - 1, symbol)
        mask ^= low
    return out


def successors(nfa: Nfa, metastate, symbol: int) -> frozenset[int]:
    """Union of per-state successor sets: the metastate transition function.

    ``metastate`` is a bitmask or a collection of states.
    """
    if not 0 <= symbol < nfa.alphabet_size:
        raise ValueError(f"symbol {symbol} out of range")
    mask = metastate if isinstance(metastate, int) else to_mask(metastate)
    return frozenset(members(successor_mask(nfa, mask, symbol)))


def accepts(nfa: Nfa, word: Word) -> bool:
    """Membership test by running the metastate semantics over the word."""
    mask = nfa.initial_mask
    for a in word:
        if not 0 <= a < nfa.alphabet_size:
            raise ValueError(f"symbol {a} out of range")
        mask = successor_mask(nfa, mask, a)
    return bool(mask & nfa.final_mask)


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


def dfa_accepts(dfa: Dfa, word: Word) -> bool:
    """Membership test by following ``dfa``'s rows; an undefined move rejects."""
    s = dfa.initial
    for a in word:
        s = dfa.trans[s][a]
        if s == UNDEFINED:
            return False
    return s in dfa.final


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    """``dfa`` as an ``Nfa`` with the same states and defined transitions."""
    edges = [
        (s, a, t)
        for s, row in enumerate(dfa.trans)
        for a, t in enumerate(row)
        if t != UNDEFINED
    ]
    return Nfa(dfa.num_states, dfa.alphabet_size, edges, [dfa.initial], dfa.final)


def completed(dfa: Dfa) -> Dfa:
    """Total form of ``dfa``: a fresh non-final sink takes every undefined move.

    A total ``dfa`` is returned as it is.
    """
    if all(UNDEFINED not in row for row in dfa.trans):
        return dfa
    sink = dfa.num_states
    rows = [[sink if t == UNDEFINED else t for t in row] for row in dfa.trans]
    rows.append([sink] * dfa.alphabet_size)
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
    c1, c2 = completed(d1), completed(d2)
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


def textbook_subset_construction(
    nfa: Nfa, start_mask: int | None = None, lifo: bool = True
) -> tuple[Dfa, list[int]]:
    """Classic subset construction; returns the DFA and the pop order."""
    start = nfa.initial_mask if start_mask is None else start_mask
    index = {start: 0}
    rows: dict[int, list[int]] = {}
    work = [start]
    popped: list[int] = []
    while work:
        mask = work.pop() if lifo else work.pop(0)
        popped.append(mask)
        row = []
        for a in range(nfa.alphabet_size):
            nxt = successor_mask(nfa, mask, a)
            if nxt not in index:
                index[nxt] = len(index)
                work.append(nxt)
            row.append(index[nxt])
        rows[index[mask]] = row
    dfa = Dfa(
        len(index),
        nfa.alphabet_size,
        0,
        final={i for m, i in index.items() if m & nfa.final_mask},
    )
    for s, row in rows.items():
        for a, t in enumerate(row):
            dfa.set_transition(s, a, t)
    return dfa, popped


def table_filling_minimize(dfa: Dfa) -> Dfa:
    """Brute-force minimization by pairwise distinguishability marking."""
    d = completed(dfa)
    n = d.num_states
    distinct = [[False] * n for _ in range(n)]
    for x, y in combinations(range(n), 2):
        if (x in d.final) != (y in d.final):
            distinct[x][y] = distinct[y][x] = True
    changed = True
    while changed:
        changed = False
        for x, y in combinations(range(n), 2):
            if distinct[x][y]:
                continue
            for a in range(d.alphabet_size):
                if distinct[d.trans[x][a]][d.trans[y][a]]:
                    distinct[x][y] = distinct[y][x] = True
                    changed = True
                    break
    rep = list(range(n))
    for x in range(n):
        for y in range(x):
            if not distinct[x][y]:
                rep[x] = rep[y]
                break
    reps = sorted(set(rep))
    new_id = {r: i for i, r in enumerate(reps)}
    out = Dfa(
        len(reps),
        d.alphabet_size,
        new_id[rep[d.initial]],
        final={new_id[rep[s]] for s in d.final},
    )
    for r in reps:
        for a in range(d.alphabet_size):
            out.set_transition(new_id[r], a, new_id[rep[d.trans[r][a]]])
    return _reachable_part(out)


def _reachable_part(dfa: Dfa) -> Dfa:
    seen = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        s = stack.pop()
        for a in range(dfa.alphabet_size):
            t = dfa.trans[s][a]
            if t != UNDEFINED and t not in seen:
                seen.add(t)
                stack.append(t)
    keep = sorted(seen)
    new_id = {s: i for i, s in enumerate(keep)}
    out = Dfa(
        len(keep),
        dfa.alphabet_size,
        new_id[dfa.initial],
        final={new_id[s] for s in keep if s in dfa.final},
    )
    for s in keep:
        for a in range(dfa.alphabet_size):
            t = dfa.trans[s][a]
            if t != UNDEFINED:
                out.set_transition(new_id[s], a, new_id[t])
    return out


def canonical_dfa(nfa: Nfa) -> Dfa:
    """Reference canonization: trim, determinize, table-fill minimize."""
    dfa, _ = textbook_subset_construction(trim(nfa))
    return table_filling_minimize(dfa)


def dfa_from_metastate(nfa: Nfa, mask: int) -> Dfa:
    """Determinization rooted at an arbitrary metastate (language probe)."""
    dfa, _ = textbook_subset_construction(nfa, start_mask=mask)
    return dfa


def rooted_at(dfa: Dfa, state: int) -> Dfa:
    """Copy of ``dfa`` with a different initial state."""
    rows = [row[:] for row in dfa.trans]
    return Dfa(dfa.num_states, dfa.alphabet_size, state, dfa.final, rows)


def similarity_reference(nfa: Nfa) -> list[int]:
    """Largest simulation as ``above`` rows: bit y of row x iff y simulates x.

    Greatest-fixpoint loop over state pairs: start from every pair that
    respects acceptance and drop (x, y) while some successor of x on some
    symbol is simulated by no successor of y on that symbol.
    """
    n = nfa.num_states
    final = nfa.final_mask
    above = [final if final >> x & 1 else (1 << n) - 1 for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            keep = above[x]
            for y in range(n):
                if not keep >> y & 1:
                    continue
                for a in range(nfa.alphabet_size):
                    ys = succ_mask(nfa, y, a)
                    if any(not ys & above[xs] for xs in members(succ_mask(nfa, x, a))):
                        keep &= ~(1 << y)
                        break
            if keep != above[x]:
                above[x] = keep
                changed = True
    return above


def similarity_fixpoint_reference(nfa: Nfa) -> np.ndarray:
    """Largest simulation as a boolean matrix: ``rel[x, y]`` iff y simulates x.

    The earlier numpy fixpoint of ``compute_similarity``, one symbol at a
    time: fast enough for inputs far beyond ``similarity_reference``.
    ``rel`` starts from acceptance and, per symbol, enabledness.  Each round
    drops, symbol by symbol, every pair of sources (x, y) where some
    successor of x is simulated by no successor of y, as whole-array
    operations over the symbol's edges grouped by source, until a round
    drops none.
    """
    n = nfa.num_states
    final = np.zeros(n, dtype=bool)
    final[list(nfa.final)] = True
    rel = ~final[:, None] | final[None, :]
    # edges() runs by symbol, then source, then target
    src, sym, dst = np.array(list(nfa.edges()), dtype=np.intp).reshape(-1, 3).T
    cuts = np.searchsorted(sym, np.arange(nfa.alphabet_size + 1)).tolist()
    steps = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            continue
        src_a = src[lo:hi]
        starts = np.flatnonzero(np.r_[True, src_a[1:] != src_a[:-1]])
        sources = src_a[starts]
        enabled = np.zeros(n, dtype=bool)
        enabled[sources] = True
        rel &= ~enabled[:, None] | enabled[None, :]
        steps.append((np.ix_(sources, sources), dst[lo:hi], starts))

    changed = True
    while changed:
        changed = False
        for block, dst_a, starts in steps:
            # has_match[x', j]: source j has a successor that simulates x'
            has_match = np.logical_or.reduceat(rel[:, dst_a], starts, axis=1)
            # fails[i, j]: some successor of source i is matched by none of j's
            fails = np.logical_or.reduceat(~has_match[dst_a], starts, axis=0)
            kept = rel[block]
            if (kept & fails).any():
                rel[block] = kept & ~fails
                changed = True
    return rel


def preorder_rows_reference(above: list[int]) -> list[int]:
    """The strict ``below`` rows of a partial order given by ``above`` rows.

    ``below[y]`` holds every x other than y whose row ``above[x]`` has bit
    y.  Derived bit by bit.
    """
    below = [0] * len(above)
    for x, row in enumerate(above):
        for y in members(row):
            if y != x:
                below[y] |= 1 << x
    return below


def leq(p: Preorder, x: int, y: int) -> bool:
    """Whether y simulates x under ``p``: x is y or in its strict row."""
    return x == y or bool(p.below[y] >> x & 1)


def identity_preorder(num_states: int) -> Preorder:
    return Preorder(np.eye(num_states, dtype=bool))


def prune_reference(metastate: int, p: Preorder) -> int:
    """``prune`` dropping the strict row of every member."""
    dropped = 0
    m = metastate
    while m:
        low = m & -m
        m ^= low
        dropped |= p.below[low.bit_length() - 1]
    return metastate & ~dropped


def saturate_reference(metastate: int, p: Preorder) -> int:
    """``saturate`` adding the strict row of every member."""
    out = metastate
    m = metastate
    while m:
        low = m & -m
        m ^= low
        out |= p.below[low.bit_length() - 1]
    return out


class LinearScanCCLRegistry:
    """CCL registry answering each lookup by a scan of every lattice.

    A lattice is a ``[class root, greatest, minimals]`` list, kept in
    insertion order, whose minimals are the antichain of the class's puts:
    it covers a metastate below its greatest element and above one of
    them.  A put appends the point ``[state, m, [m]]``; ``unify(q, gone)``
    joins the class of each id of ``gone`` into that of ``q`` in turn, one
    pair at a time: it removes the two classes' lattices and appends their
    join, rooted at the smaller root, with ``antichain_reference`` of the
    two lists of minimals.  A lookup
    of a metastate that was put returns its state's root; any other
    returns the root of the first lattice covering it, or ``None``.
    Setting ``cover_hits`` to a list records the non-exact hits, as
    ``CCLRegistry`` does.  ``_exact``, the exact map the engine reads
    before ``get``, is always empty: the metastates put are kept in
    ``put_state`` instead.
    """

    def __init__(self):
        self._exact: dict[int, int] = {}
        self.metastates: list[int] = []  # by state id, which the engine reads
        self.put_state: dict[int, int] = {}  # metastate -> the state put for it
        self.parent: dict[int, int] = {}  # absorbed root -> the root absorbing it
        self.lattices: list[list] = []
        self.cover_hits: list[tuple[int, int]] | None = None

    def find(self, state: int) -> int:
        while state in self.parent:
            state = self.parent[state]
        return state

    def get(self, mask: int) -> int | None:
        if mask in self.put_state:
            return self.find(self.put_state[mask])
        for root, greatest, minimals in self.lattices:
            if mask | greatest == greatest and any(m & mask == m for m in minimals):
                if self.cover_hits is not None:
                    self.cover_hits.append((mask, root))
                return root
        return None

    def put(self, mask: int, state: int) -> None:
        assert mask not in self.put_state and state == len(self.metastates)
        self.metastates.append(mask)
        self.put_state[mask] = state
        self.lattices.append([state, mask, [mask]])

    def unify(self, q1: int, gone: list[int]) -> None:
        for q2 in gone:
            r1, r2 = self.find(q1), self.find(q2)
            if r1 == r2:
                continue
            root, other = min(r1, r2), max(r1, r2)
            self.parent[other] = root
            (_, g1, m1), (_, g2, m2) = [lat for lat in self.lattices if lat[0] in (r1, r2)]
            self.lattices = [lat for lat in self.lattices if lat[0] not in (r1, r2)]
            self.lattices.append([root, g1 | g2, antichain_reference(m1 + m2)])


def find(reg, state: int) -> int:
    """The class root of ``state``, a state ever put into CCL registry ``reg``."""
    return reg._exact[reg.metastates[state]]


def covers(lat, mask: int) -> bool:
    """Whether ``lat`` covers ``mask``: below its greatest, above one of its puts."""
    return mask | lat.greatest == lat.greatest and any(m & mask == m for m in lat.puts)


def lattice_of_puts(rep: int, puts: list[int]) -> SimpleNamespace:
    """The lattice of a class of a CCL registry, from its puts.

    Its greatest element is the union of the puts.  The lattice of one put
    m is the point ``[m, m]``.
    """
    greatest = 0
    for m in puts:
        greatest |= m
    return SimpleNamespace(rep=rep, greatest=greatest, puts=list(puts))


def class_lattices(reg) -> dict[int, SimpleNamespace]:
    """``lattice_of_puts`` of every live class of CCL registry ``reg``, by root."""
    classes: dict[int, list[int]] = {}
    for state, mask in enumerate(reg.metastates):
        classes.setdefault(find(reg, state), []).append(mask)
    return {root: lattice_of_puts(root, puts) for root, puts in classes.items()}


def lookup(reg, mask: int) -> int | None:
    """``reg``'s answer for ``mask`` as the determinization loop asks for it.

    The exact map first, whose hits are final; ``get`` only on a miss.
    """
    state = reg._exact.get(mask)
    return reg.get(mask) if state is None else state


class FixedInterval:
    """Minimization controller firing after every ``t`` explored states.

    Unlike ``Threshold`` it never rescales ``t``.  The determinization loop
    calls only ``should_minimize`` and ``after_minimize``.
    """

    def __init__(self, t: int):
        self.t = t
        self.calls_since_last = 0

    def should_minimize(self) -> bool:
        self.calls_since_last += 1
        if self.calls_since_last >= self.t:
            self.calls_since_last = 0
            return True
        return False

    def after_minimize(self, new_size: int) -> None:
        pass


def minimize_reference(dfa: Dfa, sig: list[int]) -> tuple[Dfa, list[tuple[int, int]]]:
    """Seeded Moore refinement over whole signature rows.

    Same contract as ``partition.minimize``: undefined transitions go to an
    implicit sink during refinement; survivors are the smallest ids of their
    blocks; merges are (survivor, absorbed) pairs sorted by survivor, then
    absorbed.
    """
    n = dfa.num_states
    k = dfa.alphabet_size
    trans = np.asarray(dfa.trans, dtype=np.int64)
    partial = bool((trans == UNDEFINED).any())
    total = n + 1 if partial else n
    if partial:
        trans = np.vstack([trans, np.full((1, k), n, dtype=np.int64)])
        trans[trans == UNDEFINED] = n

    init_tags = list(sig) + [-1] if partial else list(sig)
    _, labels = np.unique(np.asarray(init_tags), return_inverse=True)
    num_blocks = int(labels.max()) + 1
    mat = np.empty((total, k + 1), dtype=np.int64)
    while True:
        mat[:, 0] = labels
        for a in range(k):
            mat[:, a + 1] = labels[trans[:, a]]
        _, labels = np.unique(mat, axis=0, return_inverse=True)
        new_blocks = int(labels.max()) + 1
        if new_blocks == num_blocks:
            break
        num_blocks = new_blocks

    blocks: dict[int, list[int]] = {}
    for s in range(n):
        blocks.setdefault(int(labels[s]), []).append(s)
    merges = []
    survivor_of = [0] * n
    for group in blocks.values():
        surv = group[0]
        for s in group:
            survivor_of[s] = surv
        merges.extend((surv, s) for s in group[1:])

    survivors = sorted({survivor_of[s] for s in range(n)})
    new_id = {s: i for i, s in enumerate(survivors)}
    out = Dfa(
        len(survivors),
        k,
        new_id[survivor_of[dfa.initial]],
        final={new_id[s] for s in survivors if s in dfa.final},
    )
    for s in survivors:
        for a in range(k):
            t = dfa.trans[s][a]
            if t != UNDEFINED:
                out.set_transition(new_id[s], a, new_id[survivor_of[t]])
    return out, merges


def bisimulation_reference(nfa: Nfa) -> Nfa:
    """Coarsest bisimulation by per-state signatures of successor-block sets.

    Blocks are numbered by their smallest member, as in
    ``partition.bisimulation_quotient``.
    """
    n = nfa.num_states
    block = [1 if s in nfa.final else 0 for s in range(n)]
    num_blocks = len(set(block))
    while True:
        keys = {}
        new_block = [0] * n
        for s in range(n):
            key = (
                block[s],
                tuple(
                    frozenset(block[t] for t in members(succ_mask(nfa, s, a)))
                    for a in range(nfa.alphabet_size)
                ),
            )
            new_block[s] = keys.setdefault(key, len(keys))
        if len(keys) == num_blocks:
            break
        block, num_blocks = new_block, len(keys)

    rep: dict[int, int] = {}
    for s in range(n):
        rep.setdefault(block[s], s)
    dense = {b: i for i, b in enumerate(sorted(rep, key=rep.get))}
    edges = {(dense[block[s]], a, dense[block[t]]) for (s, a, t) in nfa.edges()}
    return Nfa(
        len(dense),
        nfa.alphabet_size,
        sorted(edges),
        {dense[block[s]] for s in nfa.initial},
        {dense[block[s]] for s in nfa.final},
    )


def edges_reference(nfa: Nfa) -> list[tuple[int, int, int]]:
    """Every transition by symbol, source, target: a walk over all k*n masks."""
    out = []
    for a in range(nfa.alphabet_size):
        for s in range(nfa.num_states):
            out.extend((s, a, t) for t in members(succ_mask(nfa, s, a)))
    return out


def trim_reference(nfa: Nfa) -> Nfa:
    """The useful part of ``nfa``, by closures over per-state bitmasks.

    Survivors are renumbered densely in ascending order; an empty result is
    the one-state automaton without transitions or final states.
    """
    n = nfa.num_states
    succ, pred = [0] * n, [0] * n
    for (s, _, t) in edges_reference(nfa):
        succ[s] |= 1 << t
        pred[t] |= 1 << s
    keep = members(_closure(nfa.initial_mask, succ) & _closure(nfa.final_mask, pred))
    if not keep:
        return Nfa(EMPTY_LANGUAGE_STATES, nfa.alphabet_size, [], [0], [])
    remap = {s: i for i, s in enumerate(keep)}
    edges = [
        (remap[s], a, remap[t])
        for (s, a, t) in edges_reference(nfa)
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


def antichain_reference(elems: list[int]) -> list[int]:
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


def random_nfa(rng, num_states: int, alphabet_size: int, edge_prob: float = 0.25) -> Nfa:
    """Unstructured random NFA for property tests."""
    edges = [
        (s, a, t)
        for s in range(num_states)
        for a in range(alphabet_size)
        for t in range(num_states)
        if rng.random() < edge_prob
    ]
    initial = {rng.randrange(num_states)}
    final = {s for s in range(num_states) if rng.random() < 0.3}
    return Nfa(num_states, alphabet_size, edges, initial, final)


def blowup_nfa(n: int) -> Nfa:
    """Accepts words whose n-th symbol from the end is symbol 0; n+1 states."""
    edges = [(0, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(1, n):
        edges += [(i, 0, i + 1), (i, 1, i + 1)]
    return Nfa(n + 1, 2, edges, [0], [n])


def tv_nfa(rng, n: int, r: float, f: float) -> Nfa:
    """Tabakov-Vardi random NFA: 2 symbols, initial state 0.

    Each symbol gets ``round(r*n)`` distinct transitions drawn uniformly from
    all n*n state pairs; ``round(f*n)`` distinct states are final.
    """
    edges = [
        (pair // n, a, pair % n)
        for a in range(2)
        for pair in rng.sample(range(n * n), round(r * n))
    ]
    final = rng.sample(range(n), round(f * n))
    return Nfa(n, 2, edges, [0], final)



def auto_tracks(rng, m: int) -> list[tuple[list[list[int]], set[int]]]:
    """The random DFAs A, B, C of ``auto_nfa``: rows of targets and finals.

    Each has m states over {0,1}.  State 0 is initial and loops on 0, so
    leading zeros change nothing and a DFA reads a number msd-first whatever
    its padding; every other target is uniform, and each state is final with
    probability 0.5.
    """
    return [
        (
            [[0 if q == a == 0 else rng.randrange(m) for a in range(2)] for q in range(m)],
            {q for q in range(m) if rng.random() < 0.5},
        )
        for _ in range(3)
    ]


def auto_nfa(tracks) -> Nfa:
    """Automatic-sequence style NFA for ``∃y,z: x + y = z ∧ A(y) ∧ B(z) ∧ C(x)``.

    ``tracks`` is ``auto_tracks``'s (A, B, C).  Words are the bits of x,
    most significant first.  The adder's state is the carry the less
    significant side must supply: it starts and accepts at 0, and
    ``(c; x, y, z) -> c'`` iff ``x + y + c' = z + 2c``.  The NFA is the
    reachable product with the y and z tracks projected away.
    """
    (ta, fa), (tb, fb), (tc, fc) = tracks
    start = (0, 0, 0, 0)
    index = {start: 0}
    work = [start]
    edges = []
    while work:
        c, a, b, k = src = work.pop()
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    carry = z + 2 * c - x - y
                    if carry not in (0, 1):
                        continue
                    dst = (carry, ta[a][y], tb[b][z], tc[k][x])
                    if dst not in index:
                        index[dst] = len(index)
                        work.append(dst)
                    edges.append((index[src], x, index[dst]))
    final = [
        i for (c, a, b, k), i in index.items() if c == 0 and a in fa and b in fb and k in fc
    ]
    return Nfa(len(index), 2, edges, [0], final)


def auto_members(tracks, bits: int) -> set[int]:
    """The x < 2^bits with ``∃y,z < 2^bits: x + y = z ∧ A(y) ∧ B(z) ∧ C(x)``."""
    (ta, fa), (tb, fb), (tc, fc) = tracks

    def holds(rows, final, n):
        q = 0
        for i in reversed(range(bits)):
            q = rows[q][n >> i & 1]
        return q in final

    ys = [y for y in range(1 << bits) if holds(ta, fa, y)]
    zs = {z for z in range(1 << bits) if holds(tb, fb, z)}
    return {x for x in range(1 << bits) if holds(tc, fc, x) and any(x + y in zs for y in ys)}
