"""Tests for the modular-structure random NFA generator."""

import pytest

from nfacanon.generator import (
    GenParams,
    derive_seed,
    generate,
    instance_meta,
    sweep_instances,
)
from nfacanon.io import serialize_nfa


class TestParams:
    def test_n20_gives_four_classes(self):
        assert GenParams(n=20).num_classes == 4

    def test_n300_gives_seventeen_classes(self):
        assert GenParams(n=300).num_classes == 17

    def test_n1_single_class(self):
        p = GenParams(n=1)
        assert p.num_classes == 1
        nfa = generate(p)
        assert nfa.num_states == 1
        assert nfa.alphabet_size == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(n=0)
        with pytest.raises(ValueError):
            GenParams(n=5, density=0.0)

    @pytest.mark.parametrize("density", [float("inf"), float("nan")])
    def test_non_finite_density_rejected(self, density):
        with pytest.raises(ValueError, match="finite"):
            GenParams(n=4, density=density)


class TestGenerate:
    def test_state_class_membership(self):
        nfa = generate(GenParams(n=20, seed=1))
        # k=4: state 5 is in class 1, and so on for every state
        assert 5 % 4 == 1
        assert nfa.alphabet_size == 4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [7, 20, 50, 300])
    def test_class_discipline_all_edges(self, n, seed):
        p = GenParams(n=n, density=2.0, seed=seed)
        k = p.num_classes
        nfa = generate(p)
        for q, a, r in nfa.edges():
            assert r % k == (q % k + a) % k

    @pytest.mark.parametrize("n", [7, 20, 50])
    def test_one_initial_and_final_per_class(self, n):
        p = GenParams(n=n, seed=3)
        k = p.num_classes
        nfa = generate(p)
        initials = [s for s in range(n) if nfa.initial_mask >> s & 1]
        finals = [s for s in range(n) if nfa.final_mask >> s & 1]
        assert initials == finals == list(range(k))
        assert sorted({s % k for s in initials}) == list(range(k))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [100, 200, 300])
    def test_mean_out_degree_near_density(self, n, seed):
        density = 2.0
        nfa = generate(GenParams(n=n, density=density, seed=seed))
        mean = nfa.num_transitions() / n
        assert abs(mean - density) / density <= 0.15

    def test_deterministic(self):
        p = GenParams(n=40, density=2.0, seed=12345)
        assert generate(p) == generate(p)
        assert serialize_nfa(generate(p)) == serialize_nfa(generate(p))

    def test_different_seeds_differ(self):
        a = generate(GenParams(n=40, seed=1))
        b = generate(GenParams(n=40, seed=2))
        assert a != b


class TestSweep:
    def test_paper_default_grid_count(self):
        n_values = list(range(20, 301, 10))
        assert len(n_values) == 29
        instances = sweep_instances(n_values, seeds_per_n=10)
        assert len(instances) == 290

    def test_single_instance(self):
        instances = sweep_instances([20], seeds_per_n=1)
        assert len(instances) == 1
        assert instances[0][0] == "mod-n20-i0"

    def test_byte_identical_across_runs(self):
        a = sweep_instances([20, 30], seeds_per_n=3, base_seed=7)
        b = sweep_instances([20, 30], seeds_per_n=3, base_seed=7)
        for (ida, pa, na), (idb, pb, nb) in zip(a, b):
            assert ida == idb and pa == pb
            assert serialize_nfa(na, meta=instance_meta(pa)) == serialize_nfa(
                nb, meta=instance_meta(pb)
            )

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed(0, n, j) for n in range(20, 60, 10) for j in range(10)}
        assert len(seeds) == 40


def test_instance_meta_contents():
    meta = instance_meta(GenParams(n=20, density=2.0, seed=9))
    assert meta["model"] == "modular"
    assert meta["n"] == "20"
    assert meta["k"] == "4"
    assert meta["seed"] == "9"
    assert meta["prng"] and meta["generator_version"]
