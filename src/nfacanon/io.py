"""Text file format for automata.

Layout (UTF-8, one record per file)::

    nfa <num_states> <alphabet_size>
    initial <id> ...
    final <id> ...
    meta <key> <value>          # optional, repeatable
    t <src> <sym> <dst>         # one line per transition

Lines starting with ``#`` are comments.  DFA files use the header ``dfa``
and a single initial state; only defined transitions are listed.
"""

from __future__ import annotations

import numpy as np

from .automata import UNDEFINED, Dfa, Nfa


class ParseError(Exception):
    """Malformed automaton file; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def serialize_nfa(nfa: Nfa, meta: dict[str, str] | None = None) -> str:
    lines = [f"nfa {nfa.num_states} {nfa.alphabet_size}"]
    lines.append("initial " + " ".join(str(s) for s in sorted(nfa.initial)))
    lines.append("final " + " ".join(str(s) for s in sorted(nfa.final)))
    for key, value in (meta or {}).items():
        lines.append(f"meta {key} {value}")
    src, sym, dst = nfa.edge_arrays()
    order = np.lexsort((dst, sym, src))  # by source, symbol, target
    for s, a, t in zip(src[order].tolist(), sym[order].tolist(), dst[order].tolist()):
        lines.append(f"t {s} {a} {t}")
    return "\n".join(lines) + "\n"


def parse_nfa(text: str) -> tuple[Nfa, dict[str, str]]:
    header, initial, final, meta, edges = _parse_body(text, "nfa")
    num_states, alphabet_size = header
    try:
        return Nfa(num_states, alphabet_size, edges, initial, final), meta
    except ValueError as e:
        raise ParseError(0, str(e)) from e


def serialize_dfa(dfa: Dfa, meta: dict[str, str] | None = None) -> str:
    lines = [f"dfa {dfa.num_states} {dfa.alphabet_size}"]
    lines.append(f"initial {dfa.initial}")
    lines.append("final " + " ".join(str(s) for s in sorted(dfa.final)))
    for key, value in (meta or {}).items():
        lines.append(f"meta {key} {value}")
    for s, row in enumerate(dfa.trans):
        for a, t in enumerate(row):
            if t != UNDEFINED:
                lines.append(f"t {s} {a} {t}")
    return "\n".join(lines) + "\n"


def parse_dfa(text: str) -> tuple[Dfa, dict[str, str]]:
    header, initial, final, meta, edges = _parse_body(text, "dfa")
    num_states, alphabet_size = header
    if len(initial) != 1:
        raise ParseError(0, "dfa requires exactly one initial state")
    try:
        dfa = Dfa(num_states, alphabet_size, initial[0], final)
        for (s, a, t) in edges:
            if dfa.trans[s][a] != UNDEFINED and dfa.trans[s][a] != t:
                raise ValueError(f"conflicting transition from ({s},{a})")
            dfa.set_transition(s, a, t)
    except (ValueError, IndexError) as e:
        raise ParseError(0, str(e)) from e
    return dfa, meta


def _parse_body(text: str, kind: str):
    header = None
    ids: dict[str, list[int]] = {}  # the initial and the final line, once each
    meta: dict[str, str] = {}
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if header is None:
            if tag != kind or len(fields) != 3:
                raise ParseError(lineno, f"expected header '{kind} <states> <symbols>'")
            header = _ints(fields[1:], lineno)
            if header[0] < 1 or header[1] < 1:
                raise ParseError(lineno, "state and symbol counts must be >= 1")
            continue
        if tag in ("initial", "final"):
            if tag in ids:
                raise ParseError(lineno, f"repeated '{tag}' line")
            ids[tag] = _ints(fields[1:], lineno)
        elif tag == "meta":
            if len(fields) < 3:
                raise ParseError(lineno, "meta requires a key and a value")
            meta[fields[1]] = " ".join(fields[2:])
        elif tag == "t":
            if len(fields) != 4:
                raise ParseError(lineno, "expected 't <src> <sym> <dst>'")
            s, a, t = _ints(fields[1:], lineno)
            num_states, alphabet_size = header
            if not (0 <= s < num_states and 0 <= t < num_states):
                raise ParseError(lineno, f"state id out of range in '{line}'")
            if not 0 <= a < alphabet_size:
                raise ParseError(lineno, f"symbol out of range in '{line}'")
            edges.append((s, a, t))
        else:
            raise ParseError(lineno, f"unknown directive {tag!r}")
    if header is None:
        raise ParseError(0, "empty file")
    for tag in ("initial", "final"):
        if tag not in ids:
            raise ParseError(0, f"missing '{tag}' line")
        for s in ids[tag]:
            if not 0 <= s < header[0]:
                raise ParseError(0, f"{tag} state {s} out of range")
    return header, ids["initial"], ids["final"], meta, edges


def _ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {fields!r}") from None
