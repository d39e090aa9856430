"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from nfacanon.automata import isomorphic
from nfacanon.bench import CSV_COLUMNS
from nfacanon.cli import EXIT_CONTRACT, EXIT_OK, EXIT_PARSE, EXIT_TIMEOUT, main
from nfacanon.io import parse_dfa, parse_nfa, serialize_nfa
from nfacanon.registry import CCLRegistry, OneToOneRegistry, RegistryContractError

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

    @pytest.mark.parametrize(
        "args, option",
        [
            (["--n", "0"], "--n"),
            (["--n", "5", "--density", "0"], "--density"),
            (["--n", "5", "--density", "-1.5"], "--density"),
            (["--n", "4", "--density", "inf"], "--density"),
        ],
        ids=["n-zero", "density-zero", "density-negative", "density-inf"],
    )
    def test_bad_value_rejected(self, capsys, args, option):
        with pytest.raises(SystemExit) as exc:
            main(["generate", *args])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}:" in captured.err
        assert "Traceback" not in captured.err


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

    def test_no_complete_drops_the_sink(self, tmp_path, capsys):
        # the minimal total DFA of the NFA accepting only "a" has a sink,
        # which --no-complete leaves out; --complete is the default
        nfa = tmp_path / "a.nfa"
        nfa.write_text("nfa 2 1\ninitial 0\nfinal 1\nt 0 0 1\n")
        out = tmp_path / "out.dfa"
        dfas = {}
        for flags in ([], ["--complete"], ["--no-complete"]):
            assert main(["canonize", str(nfa), *flags, "--emit-dfa", str(out)]) == EXIT_OK
            dfa, _ = parse_dfa(out.read_text())
            assert json.loads(capsys.readouterr().out)["final_states"] == dfa.num_states
            dfas[tuple(flags)] = dfa
        assert [d.num_states for d in dfas.values()] == [3, 3, 2]
        assert dfas[()].is_total() and not dfas[("--no-complete",)].is_total()

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

    def test_repeated_final_line_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.nfa"
        bad.write_text("nfa 2 1\ninitial 0\nfinal 0\nfinal 1\nt 0 0 1\n")
        assert main(["canonize", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 4: repeated 'final' line" in captured.err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.nfa")
        assert main(["canonize", missing]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and missing in captured.err

    def test_timeout_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.nfa"
        main(["generate", "--n", "100", "--density", "3", "--out", str(path)])
        rc = main(["canonize", str(path), "--timeout-ms", "0.001"])
        assert rc == EXIT_TIMEOUT
        assert json.loads(capsys.readouterr().out)["timed_out"] is True

    @pytest.mark.parametrize("pipeline", ["sc", "otf-s"])
    def test_contract_violation_exit_code(self, instance_file, capsys, monkeypatch, pipeline):
        # every registry's put ends in the exact map's; refusing it there
        # raises inside canonize, on the initial put
        def refuse(self, mask, state):
            raise RegistryContractError(f"refusing state {state}")

        monkeypatch.setattr(OneToOneRegistry, "put", refuse)
        assert main(["canonize", instance_file, "--pipeline", pipeline]) == EXIT_CONTRACT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: registry contract violation: refusing state 0\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_timeout_not_positive_rejected(self, instance_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["canonize", instance_file, "--timeout-ms", value])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --timeout-ms:" in captured.err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threshold_below_one_rejected(self, instance_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["canonize", instance_file, "--threshold-init", value])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threshold-init" in captured.err

    @pytest.mark.parametrize(
        "pipeline", ["sc", "sc-s", "otf", "otf-s", "brz", "brz-s", "brz-otf", "brz-otf-s"]
    )
    def test_all_pipelines_agree(self, instance_file, capsys, pipeline):
        assert main(["canonize", instance_file, "--pipeline", pipeline]) == EXIT_OK
        row = json.loads(capsys.readouterr().out)
        nfa, _ = parse_nfa(open(instance_file).read())
        assert row["final_states"] == canonical_dfa(nfa).num_states

    @pytest.mark.parametrize(
        "pipeline, threshold", [("otf", 1), ("otf-s", 1), ("brz-otf", 1), ("brz-otf-s", 3)]
    )
    def test_tv12_runs_unify(self, capsys, monkeypatch, pipeline, threshold):
        # the CI steps on the committed tv-12 NFA run these commands to cover
        # ``unify`` in CCL, on the input and on the pruned view of an -s
        # run, forward and in Brzozowski's first pass
        calls = []
        unify = CCLRegistry.unify

        def counting(self, root, gone):
            calls.append((root, gone))
            unify(self, root, gone)

        monkeypatch.setattr(CCLRegistry, "unify", counting)
        path = str(Path(__file__).parent / "data" / "tv-12.nfa")
        args = ["canonize", path, "--pipeline", pipeline, "--threshold-init", str(threshold)]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["minimizations"] > 0
        assert calls


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

    def test_threshold_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n-values", "10", "--threshold-init", "0", "--out", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "--threshold-init" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_non_finite_density_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n-values", "5", "--density", "inf", "--out", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "argument --density:" in capsys.readouterr().err
        assert not out.exists()

    # 5,5 would canonize mod-n5-i0 twice and write rows that summarize pools
    @pytest.mark.parametrize(
        "spec", ["5:10:0", "5:10:-1", "0,5", "5:x", "10:5", ",", "5,5", "5:6:1:9"]
    )
    def test_bad_n_values_rejected(self, tmp_path, capsys, spec):
        out = tmp_path / "n.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n-values", spec, "--out", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "argument --n-values:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, option",
        [
            (["--pipelines", "bogus"], "--pipelines"),
            (["--pipelines", "sc,bogus"], "--pipelines"),
            (["--pipelines", "sc,otf,sc"], "--pipelines"),
            (["--seeds-per-n", "-1"], "--seeds-per-n"),
            (["--seeds-per-n", "0"], "--seeds-per-n"),
            (["--timeout-ms", "-1"], "--timeout-ms"),
        ],
        ids=[
            "pipeline-unknown",
            "pipeline-one-unknown",
            "pipeline-repeated",
            "seeds-negative",
            "seeds-zero",
            "timeout-negative",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, args, option):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n-values", "5", "--seeds-per-n", "1", *args, "--out", str(out)])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert f"argument {option}:" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

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

    def test_summarize_rejects_non_sweep_file(self, instance_file, capsys):
        assert main(["summarize", instance_file]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'instance'" in captured.err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("i0,sc,x,3,3,0,0,3,False", "line 3: bad 'wall_time_ms' field 'x'"),
            ("i0,sc,1.5", "line 3: no 'final_states' field"),
            ("i0,sc,1.5,3,3,0,0,3,maybe", "line 3: bad 'timed_out' field 'maybe'"),
        ],
        ids=["not-a-number", "short-row", "not-a-bool"],
    )
    def test_summarize_rejects_malformed_row(self, tmp_path, capsys, row, message):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\ni0,sc,1.5,3,3,0,0,3,False\n" + row + "\n")
        assert main(["summarize", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

