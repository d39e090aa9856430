"""Tests for the successor kernel."""

import random

import pytest

from nfacanon.automata import successor_mask, to_mask
from nfacanon.kernels import default_backend, successor_kernel

from oracle import random_nfa


def test_python_backend_always_available(ends_in_a):
    assert default_backend() == "python"
    for backend in (None, "python"):
        kern = successor_kernel(ends_in_a, backend)
        assert kern.successors(to_mask([0])) == [to_mask([0, 1]), to_mask([0])]


def test_unknown_backend_rejected(ends_in_a):
    with pytest.raises(ValueError):
        successor_kernel(ends_in_a, "fortran")


class TestKernelCorrectness:
    def test_ends_in_a(self, ends_in_a):
        kern = successor_kernel(ends_in_a)
        assert kern.successors(to_mask([0])) == [to_mask([0, 1]), to_mask([0])]

    def test_empty_metastate(self, ends_in_a):
        kern = successor_kernel(ends_in_a)
        assert kern.successors(0) == [0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_successor(self, seed):
        rng = random.Random(seed)
        # the 200-state input has masks wider than one 64-bit word
        for n in (rng.randint(1, 80), 200):
            nfa = random_nfa(rng, n, rng.randint(1, 4))
            kern = successor_kernel(nfa)
            for _ in range(20):
                mask = to_mask(
                    [s for s in range(nfa.num_states) if rng.random() < 0.3]
                )
                expect = [
                    successor_mask(nfa, mask, a) for a in range(nfa.alphabet_size)
                ]
                assert kern.successors(mask) == expect
