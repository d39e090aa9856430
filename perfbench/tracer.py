"""Outside-in layer tracer for ``nfacanon.canonize``.

While active (``with Tracer() as tr:``) it replaces the names that
``nfacanon.engine`` binds at import -- the preprocessing and minimization
functions, ``otf_determinize``, ``successor_kernel`` and the three registry
classes -- plus ``nfacanon.registry.prune``/``saturate`` with timing
wrappers, and restores the originals on exit.  No program file changes.

Spans nest on a stack whose root is the ``canonize`` call.  Hot calls are
not stored one by one: each span adds its duration and self time (duration
minus the time covered by its children) to an aggregate keyed by
``(pipeline, layer, parent layer)``.  Intermediate and final ``minimize``
calls are told apart by their parent (``otf_determinize`` vs the pipeline);
the two Brzozowski passes by call order within one ``canonize`` call.
Registry hit and miss counts come from the public ``cover_hits`` and
``lattices`` attributes.
"""

from __future__ import annotations

import time
from collections import defaultdict

import nfacanon.engine as engine
import nfacanon.registry as registry

ROOT = "canonize"
DETERMINIZE = "engine.determinize.phase"  # + 1 or 2

_FUNCTIONS = {
    "trim": "automata.trim",
    "reverse": "automata.reverse",
    "complete": "automata.complete",
    "bisimulation_quotient": "partition.bisimulation_quotient",
    "compute_similarity": "simulation.compute_similarity",
    "simulation_quotient": "simulation.simulation_quotient",
}
_REGISTRY_FUNCTIONS = {"prune": "simulation.prune", "saturate": "simulation.saturate"}
_REGISTRY_CLASSES = ("OneToOneRegistry", "CCLRegistry", "CCLSRegistry")


class Tracer:
    def __init__(self):
        # (pipeline, layer, parent) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (pipeline, counter) -> count
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.pipeline = ""
        self._stack: list[list] = [["", 0.0]]  # frames: [layer, child seconds]
        self._phase = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for name, layer in _FUNCTIONS.items():
            self._patch(engine, name, self._wrap(layer, getattr(engine, name)))
        self._patch(engine, "minimize", self._wrap_minimize(engine.minimize))
        self._patch(engine, "otf_determinize", self._wrap_determinize(engine.otf_determinize))
        self._patch(engine, "successor_kernel", self._wrap_kernel(engine.successor_kernel))
        for name in _REGISTRY_CLASSES:
            self._patch(engine, name, self._traced_registry(getattr(engine, name)))
        for name, layer in _REGISTRY_FUNCTIONS.items():
            self._patch(registry, name, self._wrap(layer, getattr(registry, name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    # -- spans ------------------------------------------------------------
    def canonize(self, nfa, config):
        """Run ``nfacanon.canonize`` as the root span of one traced call."""
        self.pipeline = config.pipeline
        self._phase = 0
        return self._call(ROOT, engine.canonize, nfa, config)

    def _call(self, layer: str, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1]
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            parent[1] += dur
            rec = self.spans[(self.pipeline, layer, parent[0])]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]

    def parent(self) -> str:
        return self._stack[-1][0]

    def _count(self, name: str, k: int = 1) -> None:
        self.counts[(self.pipeline, name)] += k

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self._call(layer, fn, *args, **kwargs)

        return traced

    def _wrap_minimize(self, fn):
        def traced(dfa, sig):
            intermediate = self.parent().startswith(DETERMINIZE)
            result = self._call("partition.minimize", fn, dfa, sig)
            if intermediate:
                self._count("partition.merges", len(result[1]))
            return result

        return traced

    def _wrap_determinize(self, fn):
        def traced(*args, **kwargs):
            self._phase += 1
            return self._call(f"{DETERMINIZE}{self._phase}", fn, *args, **kwargs)

        return traced

    def _wrap_kernel(self, make_kernel):
        tracer = self

        class TracedKernel:
            __slots__ = ("_successors",)

            def __init__(self, kernel):
                self._successors = kernel.successors

            def successors(self, mask):
                return tracer._call("kernels.successors", self._successors, mask)

        def traced(nfa, backend=None):
            return TracedKernel(make_kernel(nfa, backend))

        return traced

    def _traced_registry(self, cls):
        tracer = self
        has_lattices = issubclass(cls, registry.CCLRegistry)

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if has_lattices:
                    self.cover_hits = []

            def get(self, mask):
                before = len(self.cover_hits) if has_lattices else 0
                state = tracer._call("registry.get", super().get, mask)
                if state is None:
                    tracer._count("registry.misses")
                    if has_lattices:
                        tracer._count("registry.lattices_scanned", len(self.lattices))
                elif has_lattices and len(self.cover_hits) > before:
                    tracer._count("registry.cover_hits")
                else:
                    tracer._count("registry.exact_hits")
                return state

            def put(self, mask, state):
                return tracer._call("registry.put", super().put, mask, state)

            def unify(self, q1, q2):
                return tracer._call("registry.unify", super().unify, q1, q2)

        Traced.__name__ = Traced.__qualname__ = f"Traced{cls.__name__}"
        return Traced

