"""Tests for the successor kernels."""

import random

import pytest

from nfacanon import automata
from nfacanon.automata import SMALL_STATES, WIDE_MEMBERS, Nfa, to_mask
from nfacanon.kernels import default_backend, successor_kernel

from oracle import random_nfa, successor_mask


def test_python_backend_always_available(ends_in_a):
    assert default_backend() == "python"
    for backend in (None, "python"):
        kern = successor_kernel(ends_in_a, backend)
        assert kern.successors(to_mask([0])) == [to_mask([0, 1]), to_mask([0])]


def test_unknown_backend_rejected(ends_in_a):
    with pytest.raises(ValueError):
        successor_kernel(ends_in_a, "fortran")


def _sparse_nfa(rng, n, k):
    """Random NFA with edgeless odd symbols and successor-free states ``0 mod 3``."""
    edges = [
        (s, a, rng.randrange(n))
        for s in range(n)
        if s % 3
        for a in range(0, k, 2)
        for _ in range(rng.randint(0, 3))
    ]
    return Nfa(n, k, edges, [0], [n - 1])


class TestKernelCorrectness:
    """``Nfa.successors``, the kernel of every determinization."""

    def test_ends_in_a(self, ends_in_a):
        assert ends_in_a.successors(to_mask([0])) == [to_mask([0, 1]), to_mask([0])]

    def test_empty_metastate(self, ends_in_a):
        assert ends_in_a.successors(0) == [0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_successor(self, seed):
        rng = random.Random(seed)
        k = (1, 2, 3, 4, 5, 8, 12, 16, 23, 24)[seed]
        # 8, 64 and their neighbours sit on the byte and word edges of the masks
        for n in (1, 7, 8, 9, 63, 64, 65, 200):
            full = (1 << n) - 1
            for nfa in (random_nfa(rng, n, k, 0.1), _sparse_nfa(rng, n, k)):
                masks = [0, full] + [rng.getrandbits(n) for _ in range(20)]
                masks += [1 << s for s in range(min(n, 10))]
                for mask in masks:
                    expect = [successor_mask(nfa, mask, a) for a in range(k)]
                    assert nfa.successors(mask) == expect, mask

    def test_silent_states_and_symbols_give_empty_successors(self):
        nfa = _sparse_nfa(random.Random(2), 30, 4)
        silent = to_mask(range(0, 30, 3))
        assert nfa.successors(silent) == [0, 0, 0, 0]
        succs = nfa.successors((1 << 30) - 1)
        assert succs[1] == succs[3] == 0


def _members(rng, n, count):
    return to_mask(rng.sample(range(n), count))


class TestSteps:
    """Each step of ``Nfa.successors`` against the member-by-member oracle.

    Automata of at most ``SMALL_STATES`` states take the byte tables; above
    that, metastates of more than ``WIDE_MEMBERS`` members take the numpy
    gather, and the others OR their members' rows, a chain of one OR per
    member past the first (``WIDE_MEMBERS`` members make the longest).
    """

    @pytest.mark.parametrize("k", [1, 2, 10, 24])
    @pytest.mark.parametrize("n", [63, 64, 65, 200])
    def test_each_step_matches_reference(self, n, k):
        rng = random.Random(100 * n + k)
        small = n <= SMALL_STATES
        for nfa in (random_nfa(rng, n, k, 0.05), _sparse_nfa(rng, n, k)):
            narrow = [0, 1, 1 << (n - 1)]
            counts = (2, 3, 4, 8, 9, WIDE_MEMBERS)
            narrow += [_members(rng, n, c) for c in counts for _ in range(3)]
            for mask in narrow:
                assert nfa.successors(mask) == [successor_mask(nfa, mask, a) for a in range(k)]
            assert (nfa._step is not None) == small
            # no metastate was wider than the cutoff, so no gather table yet
            assert not hasattr(nfa, "_words")
            wide = [(1 << n) - 1]
            wide += [_members(rng, n, c) for c in (WIDE_MEMBERS + 1, n - 1) for _ in range(3)]
            for mask in wide:
                assert nfa.successors(mask) == [successor_mask(nfa, mask, a) for a in range(k)]
            assert hasattr(nfa, "_words") != small

    def test_gather_over_its_cap_takes_the_loop(self, monkeypatch):
        monkeypatch.setattr(automata, "WIDE_TABLE_BYTES", 0)
        rng = random.Random(4)
        nfa = _sparse_nfa(rng, 200, 3)
        for mask in [(1 << 200) - 1] + [_members(rng, 200, 120) for _ in range(5)]:
            assert nfa.successors(mask) == [successor_mask(nfa, mask, a) for a in range(3)]
        assert nfa._words is None


def test_factory_returns_its_input(ends_in_a):
    nfa = random_nfa(random.Random(3), 5, 2)
    for kern in (nfa, ends_in_a):
        assert successor_kernel(kern) is kern
        assert successor_kernel(kern, "python") is kern
