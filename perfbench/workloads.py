"""Seeded benchmark workloads: instance specs and their reference forms.

An instance spec is a plain ``(num_states, alphabet_size, edges, initial,
final)`` tuple.  ``modular`` and ``sparse`` come from the paper's generator
(``nfacanon.generator.generate``); ``tv`` uses the Tabakov-Vardi random model
defined here.  Per-instance seeds are derived from the workload seed with
``random.Random`` on a string, which is stable across processes and Python
versions, so the same ``--seed`` always gives the same instance set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import TooLarge, reference_canonical, reverse_spec, subset_construction


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "modular" or "tv"
    n: int
    count: int  # instances per set
    band: tuple[int, int]  # accepted canonical-DFA sizes
    rev_band: tuple[int, int]  # accepted sizes of the reversed NFA's subset DFA
    sc_cap: int  # largest subset-construction DFA tried for the band
    density: float = 0.0  # modular only
    r: float = 0.0  # tv only: transitions per symbol / n
    f: float = 0.0  # tv only: final states / n
    threshold_init: int = 5000


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Instance costs grow steeply with DFA size, so each set keeps only instances
# whose canonical DFA and whose reversed subset DFA (the Brzozowski first pass)
# lie in size bands: otherwise one seed's set can cost twice another's and
# run-to-run spread hides real changes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "modular", "modular", n=100, density=4.0, count=3,
            band=(3300, 3700), rev_band=(2150, 2450), sc_cap=4500,
        ),
        Workload(
            "tv", "tv", n=32, r=1.25, f=0.5, threshold_init=150, count=36,
            band=(250, 450), rev_band=(350, 750), sc_cap=1000,
        ),
        Workload(
            "sparse", "modular", n=600, density=2.0, count=5,
            band=(380, 420), rev_band=(470, 520), sc_cap=2000,
        ),
    )
}


def tv_nfa(n: int, r: float, f: float, seed: int):
    """Tabakov-Vardi random NFA over 2 symbols with initial state 0.

    Each symbol gets ``round(r*n)`` distinct transitions drawn uniformly from
    all n*n state pairs; ``round(f*n)`` distinct states are final.
    """
    rng = random.Random(seed)
    edges = []
    for a in range(2):
        for pair in rng.sample(range(n * n), round(r * n)):
            edges.append((pair // n, a, pair % n))
    final = sorted(rng.sample(range(n), round(f * n)))
    return (n, 2, sorted(edges), [0], final)


def modular_nfa(n: int, density: float, seed: int):
    from nfacanon.generator import GenParams, generate

    nfa = generate(GenParams(n=n, density=density, seed=seed))
    return (
        nfa.num_states,
        nfa.alphabet_size,
        sorted(nfa.edges()),
        sorted(nfa.initial),
        sorted(nfa.final),
    )


def make_spec(w: Workload, n: int, seed: int):
    if w.model == "tv":
        return tv_nfa(n, w.r, w.f, seed)
    return modular_nfa(n, w.density, seed)


def instance_seed(workload: str, seed: int, j: int) -> int:
    return random.Random(f"{workload}/{seed}/{j}").getrandbits(63)


def instance_set(w: Workload, seed: int):
    """(instance seeds, reference canonical forms) for one workload seed.

    Candidates are drawn in seed order; those outside either size band are
    skipped.
    """
    seeds, refs = [], []
    for j in range(10_000):
        if len(seeds) == w.count:
            return seeds, refs
        s = instance_seed(w.name, seed, j)
        spec = make_spec(w, w.n, s)
        try:
            ref = reference_canonical(spec, cap=w.sc_cap)
            if not w.band[0] <= len(ref[0]) <= w.band[1]:
                continue
            rev_size = len(subset_construction(reverse_spec(spec), cap=w.rev_band[1])[0])
        except TooLarge:
            continue
        if w.rev_band[0] <= rev_size:
            seeds.append(s)
            refs.append(ref)
    raise RuntimeError(f"{w.name}: band {w.band} too narrow, no instance set found")


def warmup_spec(w: Workload):
    """A fixed small instance of the workload's model, for warming every pipeline."""
    return make_spec(w, 10, instance_seed(w.name + "-warmup", 0, 0))
