import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import nfacanon.engine as engine
from nfacanon.automata import Nfa


@pytest.fixture
def explored_masks(monkeypatch) -> list[int]:
    """Every metastate the engine's successor kernels are asked for, in order.

    The engine explores a metastate exactly when it asks for its successors,
    so the list is the exploration order.
    """
    masks: list[int] = []
    make_kernel = engine.successor_kernel

    class Recording:
        def __init__(self, kernel):
            self._successors = kernel.successors

        def successors(self, mask):
            masks.append(mask)
            return self._successors(mask)

    monkeypatch.setattr(
        engine, "successor_kernel", lambda nfa, backend=None: Recording(make_kernel(nfa))
    )
    return masks


@pytest.fixture
def ends_in_a() -> Nfa:
    """Two-state NFA over {a=0, b=1} accepting words that end in a."""
    return Nfa(2, 2, [(0, 0, 0), (0, 0, 1), (0, 1, 0)], [0], [1])


@pytest.fixture
def ends_in_a_dfa_min():
    """Minimal total DFA for 'ends in a'."""
    from nfacanon.automata import Dfa

    d = Dfa(2, 2, 0, final={1})
    d.set_transition(0, 0, 1)
    d.set_transition(0, 1, 0)
    d.set_transition(1, 0, 1)
    d.set_transition(1, 1, 0)
    return d


@pytest.fixture
def ends_in_a_dfa_redundant():
    """Non-minimal 3-state variant with a duplicated accepting state."""
    from nfacanon.automata import Dfa

    d = Dfa(3, 2, 0, final={1, 2})
    d.set_transition(0, 0, 1)
    d.set_transition(0, 1, 0)
    d.set_transition(1, 0, 2)
    d.set_transition(1, 1, 0)
    d.set_transition(2, 0, 1)
    d.set_transition(2, 1, 0)
    return d
