"""NFA canonization with on-the-fly minimization and equivalence registries."""

from .automata import Dfa, Nfa, isomorphic
from .engine import CanonConfig, RunStats, canonize
from .generator import GenParams, generate

__all__ = [
    "Nfa",
    "Dfa",
    "CanonConfig",
    "RunStats",
    "canonize",
    "GenParams",
    "generate",
    "isomorphic",
]

__version__ = "0.1.0"
