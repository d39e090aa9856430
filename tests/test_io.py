"""Tests for the automaton text file format."""

import random

import pytest

from nfacanon.automata import Dfa
from nfacanon.generator import GenParams, generate, instance_meta
from nfacanon.io import ParseError, parse_dfa, parse_nfa, serialize_dfa, serialize_nfa
from oracle import edges_reference, random_nfa


def _serialize_reference(nfa, meta=None) -> str:
    """The text layout with transitions by source, symbol, target."""
    lines = [f"nfa {nfa.num_states} {nfa.alphabet_size}"]
    lines.append("initial " + " ".join(str(s) for s in sorted(nfa.initial)))
    lines.append("final " + " ".join(str(s) for s in sorted(nfa.final)))
    lines += [f"meta {key} {value}" for key, value in (meta or {}).items()]
    lines += [f"t {s} {a} {t}" for (s, a, t) in sorted(edges_reference(nfa))]
    return "\n".join(lines) + "\n"


class TestNfaRoundTrip:
    def test_ends_in_a_byte_stable(self, ends_in_a):
        text = serialize_nfa(ends_in_a)
        parsed, meta = parse_nfa(text)
        assert parsed == ends_in_a
        assert meta == {}
        assert serialize_nfa(parsed) == text

    def test_generator_output_preserves_meta(self):
        params = GenParams(n=20, density=2.0, seed=5)
        nfa = generate(params)
        text = serialize_nfa(nfa, instance_meta(params))
        parsed, meta = parse_nfa(text)
        assert parsed == nfa
        assert meta == instance_meta(params)

    def test_random_text_matches_layout_and_round_trips(self):
        rng = random.Random(21)
        for _ in range(40):
            n, k = rng.randint(1, 14), rng.randint(1, 5)
            nfa = random_nfa(rng, n, k, rng.choice([0.0, 0.05, 0.3]))
            meta = {"seed": str(rng.random())} if rng.random() < 0.5 else None
            text = serialize_nfa(nfa, meta)
            assert text == _serialize_reference(nfa, meta)
            parsed, parsed_meta = parse_nfa(text)
            assert parsed == nfa
            assert parsed_meta == (meta or {})
            assert serialize_nfa(parsed, meta) == text

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nnfa 2 1\ninitial 0\n# another\nfinal 1\nt 0 0 1\n"
        nfa, _ = parse_nfa(text)
        assert nfa.num_states == 2
        assert list(nfa.edges()) == [(0, 0, 1)]


class TestNfaErrors:
    def test_out_of_range_target_names_line(self):
        text = "nfa 2 1\ninitial 0\nfinal 1\nt 0 0 5\n"
        with pytest.raises(ParseError) as exc:
            parse_nfa(text)
        assert exc.value.lineno == 4
        assert "line 4" in str(exc.value)

    def test_out_of_range_symbol(self):
        text = "nfa 2 1\ninitial 0\nfinal 1\nt 0 3 1\n"
        with pytest.raises(ParseError) as exc:
            parse_nfa(text)
        assert exc.value.lineno == 4

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_nfa("dfa 2 1\ninitial 0\nfinal 1\n")

    def test_missing_initial(self):
        with pytest.raises(ParseError):
            parse_nfa("nfa 2 1\nfinal 1\n")

    def test_non_integer_field(self):
        with pytest.raises(ParseError) as exc:
            parse_nfa("nfa 2 1\ninitial 0\nfinal 1\nt 0 zero 1\n")
        assert exc.value.lineno == 4

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_nfa("")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_nfa("nfa 1 1\ninitial 0\nfinal 0\nfrob 1\n")

    def test_initial_out_of_range(self):
        with pytest.raises(ParseError):
            parse_nfa("nfa 2 1\ninitial 7\nfinal 1\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("nfa 2 1\ninitial 0\nfinal 0\nfinal 1\nt 0 0 1\n", 4),
            ("nfa 2 1\ninitial 0\nfinal 1\n# again\ninitial 1\n", 5),
        ],
        ids=["final", "initial"],
    )
    def test_repeated_line_names_the_second(self, text, lineno):
        # neither line wins: the file is rejected at the second
        with pytest.raises(ParseError, match="repeated") as exc:
            parse_nfa(text)
        assert exc.value.lineno == lineno


class TestDfaFormat:
    def test_round_trip(self, ends_in_a_dfa_min):
        text = serialize_dfa(ends_in_a_dfa_min, {"pipeline": "sc"})
        parsed, meta = parse_dfa(text)
        assert parsed.num_states == ends_in_a_dfa_min.num_states
        assert parsed.trans == ends_in_a_dfa_min.trans
        assert parsed.final == ends_in_a_dfa_min.final
        assert meta == {"pipeline": "sc"}
        assert serialize_dfa(parsed, meta) == text

    def test_partial_dfa_round_trip(self):
        d = Dfa(2, 2, 0, final={1})
        d.set_transition(0, 0, 1)
        parsed, _ = parse_dfa(serialize_dfa(d))
        assert parsed.trans == d.trans

    def test_multiple_initial_rejected(self):
        with pytest.raises(ParseError):
            parse_dfa("dfa 2 1\ninitial 0 1\nfinal 1\n")

    @pytest.mark.parametrize("tag", ["initial", "final"])
    def test_repeated_line_rejected(self, tag):
        text = f"dfa 2 1\ninitial 0\nfinal 1\n{tag} 1\nt 0 0 1\n"
        with pytest.raises(ParseError, match=f"repeated '{tag}'") as exc:
            parse_dfa(text)
        assert exc.value.lineno == 4

    def test_conflicting_transition_rejected(self):
        with pytest.raises(ParseError):
            parse_dfa("dfa 2 1\ninitial 0\nfinal 1\nt 0 0 1\nt 0 0 0\n")
