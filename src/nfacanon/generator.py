"""Random NFA generator with modular structure.

States ``{0..n-1}`` are partitioned into ``k = max(1, floor(sqrt(n)))``
classes by residue mod k; the alphabet also has k symbols and every
transition on symbol ``a`` from class ``C_i`` targets class ``C_{(i+a) mod
k}``.  Each class contributes one initial and one accepting state.  The
expected total out-degree per state is the density parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite, isqrt

from .automata import Nfa

PRNG_ID = "python-mt19937"
GENERATOR_VERSION = "1"

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GenParams:
    n: int
    density: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.density > 0 and isfinite(self.density)):
            raise ValueError("density must be finite and > 0")

    @property
    def num_classes(self) -> int:
        return max(1, isqrt(self.n))


def generate(params: GenParams) -> Nfa:
    """Deterministically generate one modular-structure NFA."""
    n, k = params.n, params.num_classes
    rng = random.Random(params.seed)
    classes = [[q for q in range(n) if q % k == i] for i in range(k)]
    edges: set[tuple[int, int, int]] = set()
    for i in range(k):
        sources = classes[i]
        for a in range(k):
            targets = classes[(i + a) % k]
            count = round(params.density * len(sources) / k)
            picked = [rng.choice(sources) for _ in range(count)]
            order = targets[:]
            rng.shuffle(order)
            for j, src in enumerate(picked):
                edges.add((src, a, order[j % len(order)]))
    # smallest id of class C_i is i itself
    marked = range(k)
    return Nfa(n, k, sorted(edges), marked, marked)


def instance_meta(params: GenParams) -> dict[str, str]:
    """Reproducibility metadata recorded alongside serialized instances."""
    return {
        "model": "modular",
        "n": str(params.n),
        "k": str(params.num_classes),
        "density": repr(params.density),
        "seed": str(params.seed),
        "prng": PRNG_ID,
        "generator_version": GENERATOR_VERSION,
    }


def derive_seed(base_seed: int, n: int, j: int) -> int:
    """Stable per-instance seed from (base seed, size, index)."""
    x = (
        base_seed * 0x9E3779B97F4A7C15
        + n * 0xBF58476D1CE4E5B9
        + j * 0x94D049BB133111EB
    ) & _MASK64
    # splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def sweep_instances(
    n_values: list[int],
    seeds_per_n: int,
    density: float = 2.0,
    base_seed: int = 0,
) -> list[tuple[str, GenParams, Nfa]]:
    """Deterministic benchmark instance list: (instance id, params, NFA)."""
    out = []
    for n in n_values:
        for j in range(seeds_per_n):
            params = GenParams(n=n, density=density, seed=derive_seed(base_seed, n, j))
            out.append((f"mod-n{n}-i{j}", params, generate(params)))
    return out
