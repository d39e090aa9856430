"""End-to-end tests for the command-line interface."""

import json

import pytest

from nfacanon.automata import isomorphic
from nfacanon.cli import EXIT_OK, EXIT_PARSE, EXIT_TIMEOUT, main
from nfacanon.io import parse_dfa, parse_nfa, serialize_nfa

from oracle import canonical_dfa


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "a.nfa"
    assert main(["generate", "--n", "20", "--seed", "3", "--out", str(path)]) == EXIT_OK
    return str(path)


class TestGenerate:
    def test_writes_parseable_file_with_meta(self, instance_file):
        nfa, meta = parse_nfa(open(instance_file).read())
        assert nfa.num_states == 20
        assert meta["model"] == "modular"
        assert meta["seed"] == "3"

    def test_stdout_output(self, capsys):
        assert main(["generate", "--n", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        nfa, _ = parse_nfa(out)
        assert nfa.num_states == 10

    def test_deterministic_output(self, tmp_path):
        p1, p2 = str(tmp_path / "1.nfa"), str(tmp_path / "2.nfa")
        main(["generate", "--n", "30", "--seed", "9", "--out", p1])
        main(["generate", "--n", "30", "--seed", "9", "--out", p2])
        assert open(p1).read() == open(p2).read()


class TestCanonize:
    def test_emits_json_row(self, instance_file, capsys):
        assert main(["canonize", instance_file, "--pipeline", "otf"]) == EXIT_OK
        row = json.loads(capsys.readouterr().out)
        assert row["pipeline"] == "otf"
        assert row["final_states"] >= 1
        assert row["timed_out"] is False

    def test_emit_dfa_is_canonical(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "out.dfa")
        assert main(["canonize", instance_file, "--emit-dfa", out]) == EXIT_OK
        dfa, meta = parse_dfa(open(out).read())
        nfa, _ = parse_nfa(open(instance_file).read())
        assert isomorphic(dfa, canonical_dfa(nfa))
        assert meta["pipeline"] == "sc"

    def test_stdin_input(self, ends_in_a, capsys, monkeypatch):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO(serialize_nfa(ends_in_a)))
        assert main(["canonize", "-"]) == EXIT_OK
        row = json.loads(capsys.readouterr().out)
        assert row["final_states"] == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.nfa"
        bad.write_text("nfa 2 1\ninitial 0\nfinal 1\nt 0 0 9\n")
        assert main(["canonize", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""  # no result row
        assert "line 4" in captured.err

    def test_timeout_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.nfa"
        main(["generate", "--n", "100", "--density", "3", "--out", str(path)])
        rc = main(["canonize", str(path), "--timeout-ms", "0"])
        assert rc == EXIT_TIMEOUT
        assert json.loads(capsys.readouterr().out)["timed_out"] is True

    @pytest.mark.parametrize(
        "pipeline", ["sc", "sc-s", "otf", "otf-s", "brz", "brz-s", "brz-otf", "brz-otf-s"]
    )
    def test_all_pipelines_agree(self, instance_file, capsys, pipeline):
        assert main(["canonize", instance_file, "--pipeline", pipeline]) == EXIT_OK
        row = json.loads(capsys.readouterr().out)
        nfa, _ = parse_nfa(open(instance_file).read())
        assert row["final_states"] == canonical_dfa(nfa).num_states


class TestSweepAndSummarize:
    def test_sweep_then_summarize(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        rc = main(
            [
                "sweep",
                "--n-values",
                "10,15",
                "--seeds-per-n",
                "2",
                "--pipelines",
                "sc,otf",
                "--out",
                out,
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        json_out = str(tmp_path / "summary.json")
        assert main(["summarize", out, "--json", json_out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "otf" in text and "minimizations" in text
        summary = json.load(open(json_out))
        assert set(summary) == {"sc", "otf"}

    def test_n_values_range_syntax(self, tmp_path):
        out = str(tmp_path / "r.csv")
        main(
            [
                "sweep", "--n-values", "10:20:5", "--seeds-per-n", "1",
                "--pipelines", "sc", "--out", out,
            ]
        )
        from nfacanon.bench import read_csv

        rows = read_csv(out)
        assert [r.instance for r in rows] == ["mod-n10-i0", "mod-n15-i0", "mod-n20-i0"]

    def test_empty_csv_warns(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text(
            "instance,pipeline,wall_time_ms,final_states,peak_intermediate_states,"
            "overhead,minimizations,explored_metastates,timed_out\n"
        )
        assert main(["summarize", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "empty" in captured.err
        assert "(no rows)" in captured.out

