"""Tests for the benchmark harness and CSV emission."""

import csv

import pytest

from nfacanon.bench import (
    CSV_COLUMNS,
    ResultRow,
    cactus_path,
    format_summary,
    read_csv,
    run_once,
    run_sweep,
    summarize,
    write_csv,
)
from nfacanon.engine import PIPELINES, CanonConfig, canonize
from nfacanon.generator import GenParams, generate


def _row(pipeline="sc", minimizations=0, overhead=0, timed_out=False, instance="i0", wall_time_ms=1.0):
    return ResultRow(
        instance=instance,
        pipeline=pipeline,
        wall_time_ms=wall_time_ms,
        final_states=10,
        peak_intermediate_states=12,
        overhead=overhead,
        minimizations=minimizations,
        timed_out=timed_out,
        explored_metastates=12,
    )


class TestRunOnce:
    def test_sc_has_single_final_minimization(self):
        nfa = generate(GenParams(n=20, density=2.0, seed=0))
        row, dfa = run_once(nfa, "i", CanonConfig(pipeline="sc"))
        assert row.minimizations == 1
        assert dfa is not None
        assert row.final_states == dfa.num_states
        assert not row.timed_out

    def test_otf_small_threshold_minimizes_intermediately(self):
        nfa = generate(GenParams(n=30, density=2.0, seed=1))
        row, _ = run_once(nfa, "i", CanonConfig(pipeline="otf", threshold_init=2))
        assert row.minimizations >= 2  # at least one intermediate + the final

    def test_timeout_row(self):
        nfa = generate(GenParams(n=80, density=3.0, seed=2))
        row, dfa = run_once(nfa, "i", CanonConfig(pipeline="sc", timeout_ms=0.0))
        assert row.timed_out
        assert dfa is None


class TestPreprocessTime:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_within_wall_time(self, pipeline):
        nfa = generate(GenParams(n=40, density=2.0, seed=3))
        row, _ = run_once(nfa, "i", CanonConfig(pipeline=pipeline))
        assert 0 < row.preprocess_ms <= row.wall_time_ms
        _, stats = canonize(nfa, CanonConfig(pipeline=pipeline))
        assert 0 < stats.preprocess_ms <= stats.wall_time_ms

    def test_zero_when_timed_out_before_determinizing(self):
        nfa = generate(GenParams(n=40, density=2.0, seed=3))
        _, stats = canonize(nfa, CanonConfig(pipeline="sc-s", timeout_ms=0.0))
        assert stats.timed_out
        assert stats.preprocess_ms == 0.0

    def test_survives_csv_round_trip(self, tmp_path):
        out = str(tmp_path / "p.csv")
        rows = run_sweep([10, 20], 1, 2.0, list(PIPELINES), None, out)
        back = read_csv(out)
        assert [r.preprocess_ms for r in back] == [r.preprocess_ms for r in rows]
        assert all(0 < r.preprocess_ms <= r.wall_time_ms for r in back)

    def test_old_header_csv_still_summarizes(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(
            "instance,pipeline,wall_time_ms,final_states,peak_intermediate_states,"
            "overhead,minimizations,explored_metastates,timed_out\n"
            "i0,sc,1.5,3,3,0,1,3,False\n"
            "i1,sc,2.5,4,5,1,1,5,False\n"
        )
        rows = read_csv(str(path))
        assert [r.preprocess_ms for r in rows] == [0.0, 0.0]
        assert [r.wall_time_ms for r in rows] == [1.5, 2.5]
        assert summarize(rows)["sc"]["overhead"]["max"] == 1


class TestLookupColumns:
    def test_survive_csv_round_trip(self, tmp_path):
        out = str(tmp_path / "l.csv")
        rows = run_sweep([10, 20], 1, 2.0, list(PIPELINES), None, out)
        back = read_csv(out)
        counts = [(r.exact_hits, r.cover_hits, r.misses) for r in rows]
        assert [(r.exact_hits, r.cover_hits, r.misses) for r in back] == counts
        assert all(r.misses > 0 and r.exact_hits > 0 for r in back)

    def test_csv_before_the_lookup_columns_reads_zero(self, tmp_path):
        path = tmp_path / "older.csv"
        path.write_text(
            "instance,pipeline,wall_time_ms,final_states,peak_intermediate_states,"
            "overhead,minimizations,explored_metastates,timed_out,preprocess_ms\n"
            "i0,otf,1.5,3,3,0,1,3,False,0.5\n"
        )
        (row,) = read_csv(str(path))
        assert (row.exact_hits, row.cover_hits, row.misses) == (0, 0, 0)
        assert row.preprocess_ms == 0.5


class TestSweep:
    def test_row_count_and_files(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rows = run_sweep([10, 15], 2, 2.0, ["sc", "otf"], None, out)
        assert len(rows) == 2 * 2 * 2
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.cactus.csv").exists()

    def test_round_trip_through_csv(self, tmp_path):
        out = str(tmp_path / "s.csv")
        rows = run_sweep([10], 1, 2.0, ["sc", "brz"], None, out)
        assert read_csv(out) == rows

    def test_deterministic_non_timing_columns(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        rows1 = run_sweep([10, 20], 2, 2.0, ["sc", "otf-s"], None, out1, base_seed=5)
        rows2 = run_sweep([10, 20], 2, 2.0, ["sc", "otf-s"], None, out2, base_seed=5)

        def strip_timing(rows):
            return [
                (r.instance, r.pipeline, r.final_states, r.peak_intermediate_states,
                 r.overhead, r.minimizations, r.explored_metastates, r.timed_out)
                for r in rows
            ]

        assert strip_timing(rows1) == strip_timing(rows2)

    def test_rows_written_before_a_crash(self, tmp_path, monkeypatch):
        import nfacanon.bench as bench

        calls = []

        def crash_on_third(nfa, config):
            calls.append(config.pipeline)
            if len(calls) == 3:
                raise RuntimeError("simulated crash")
            return canonize(nfa, config)

        monkeypatch.setattr(bench, "canonize", crash_on_third)
        out = str(tmp_path / "crash.csv")
        with pytest.raises(RuntimeError):
            run_sweep([10, 15], 1, 2.0, ["sc", "otf"], None, out)
        with open(out, newline="") as f:
            recs = list(csv.reader(f))
        assert recs[0] == CSV_COLUMNS
        assert [r[1] for r in recs[1:]] == ["sc", "otf"]

    def test_all_timeout_scenario(self, tmp_path):
        out = str(tmp_path / "t.csv")
        rows = run_sweep([30], 2, 2.0, ["sc", "otf"], 0.0, out)
        assert rows
        assert all(r.timed_out for r in rows)

    def test_cactus_excludes_timeouts(self, tmp_path):
        path = str(tmp_path / "c.cactus.csv")
        from nfacanon.bench import write_cactus

        rows = [_row(overhead=3), _row(overhead=1), _row(timed_out=True, overhead=99)]
        write_cactus(rows, path)
        with open(path) as f:
            recs = list(csv.reader(f))
        assert recs[0] == ["rank", "sc_wall_time_ms", "sc_overhead"]
        assert [r[2] for r in recs[1:]] == ["1", "3"]

    def test_cactus_path(self):
        assert cactus_path("out.csv") == "out.cactus.csv"
        assert cactus_path("out") == "out.cactus.csv"


class TestSummarize:
    def test_min_max(self):
        rows = [_row(minimizations=m) for m in (0, 6, 129)]
        s = summarize(rows)["sc"]["minimizations"]
        assert s["min"] == 0
        assert s["max"] == 129

    def test_single_row_all_equal(self):
        s = summarize([_row(minimizations=4)])["sc"]["minimizations"]
        assert s["min"] == s["median"] == s["max"] == s["mean"] == 4

    def test_hand_computed_fixture(self):
        rows = [
            _row(pipeline="otf", minimizations=1, overhead=0),
            _row(pipeline="otf", minimizations=3, overhead=10),
            _row(pipeline="otf", minimizations=5, overhead=20),
            _row(pipeline="otf", minimizations=7, overhead=2),
        ]
        s = summarize(rows)["otf"]
        assert s["minimizations"] == {"min": 1, "median": 4, "max": 7, "mean": 4.0}
        assert s["overhead"]["median"] == 6
        assert s["overhead"]["mean"] == 8.0

    def test_timed_out_rows_skipped(self):
        rows = [_row(minimizations=2), _row(minimizations=100, timed_out=True)]
        assert summarize(rows)["sc"]["minimizations"]["max"] == 2

    def test_counts_solved_and_attempted_rows(self):
        rows = [
            _row(wall_time_ms=4.0),
            _row(wall_time_ms=900.0, timed_out=True),
            _row(wall_time_ms=1.0),
            _row(wall_time_ms=10.0),
            _row(pipeline="otf", wall_time_ms=500.0, timed_out=True),
            _row(pipeline="otf", wall_time_ms=700.0, timed_out=True),
        ]
        s = summarize(rows)
        assert (s["sc"]["solved"], s["sc"]["attempted"]) == (3, 4)
        assert s["sc"]["wall_time_ms"] == {"median": 4.0, "max": 10.0}
        # every row timed out: attempted, none solved, no statistic
        assert (s["otf"]["solved"], s["otf"]["attempted"]) == (0, 2)
        assert s["otf"]["wall_time_ms"] == s["otf"]["minimizations"] == s["otf"]["overhead"] == {}
        lines = format_summary(s).splitlines()
        assert "sc           solved         3 of 4" in lines
        assert "otf          solved         0 of 2" in lines
        wall = next(line for line in lines if line.startswith("sc") and "wall_time_ms" in line)
        assert wall.split()[2:] == ["-", "4", "10", "-"]
        otf_wall = next(line for line in lines if line.startswith("otf") and "wall_time_ms" in line)
        assert otf_wall.split()[2:] == ["-"] * 4

    def test_empty_summary_formats(self):
        assert format_summary({}) == "(no rows)"
        assert summarize([]) == {}

    def test_format_contains_all_pipelines(self):
        rows = [_row(pipeline="sc"), _row(pipeline="brz")]
        text = format_summary(summarize(rows))
        assert "sc" in text and "brz" in text


def test_csv_columns_match_row_fields(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv([_row()], path)
    with open(path) as f:
        header = f.readline().strip().split(",")
    assert header == CSV_COLUMNS
