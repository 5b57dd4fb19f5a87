"""The bench tooling: the regression gate script and the harness's
throughput workload."""

import json

import pytest

from benchmarks.check_regression import main as check_main
from benchmarks.harness import multiway_join_plan
from repro.core.options import ExecutionOptions


def write_bench_json(path, minima, cpus=None):
    """``cpus``: name -> core count recorded in the entry's extra_info."""
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"min": value},
             **({"extra_info": {"cpus": cpus[name]}}
                if cpus and name in cpus else {})}
            for name, value in minima.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckRegression:
    def test_identical_runs_pass(self, tmp_path, capsys):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0, "b": 0.5})
        assert check_main([base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_small_slowdown_within_threshold_passes(self, tmp_path):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"a": 1.15})
        assert check_main([base, cur, "--threshold", "0.20"]) == 0

    def test_large_slowdown_fails(self, tmp_path, capsys):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0, "b": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"a": 1.5, "b": 1.0})
        assert check_main([base, cur, "--threshold", "0.20"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_new_and_retired_benchmarks_never_fail(self, tmp_path):
        base = write_bench_json(tmp_path / "base.json", {"old": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"new": 9.9})
        assert check_main([base, cur]) == 0

    def test_unlike_core_counts_are_reported_not_gated(self, tmp_path,
                                                       capsys):
        """A slowdown measured on another core count is no regression;
        the same slowdown on like cores -- or where either side never
        recorded its cores -- still is."""
        base = write_bench_json(tmp_path / "base.json",
                                {"procs": 1.0, "inline": 1.0, "old": 1.0},
                                cpus={"procs": 1, "inline": 2})
        cur = write_bench_json(tmp_path / "cur.json",
                               {"procs": 3.0, "inline": 1.0, "old": 1.0},
                               cpus={"procs": 2, "inline": 2, "old": 2})
        assert check_main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "skipped (cpus 1≠2)" in out and "(2 compared)" in out
        like = write_bench_json(tmp_path / "like.json", {"procs": 3.0},
                                cpus={"procs": 1})
        assert check_main([base, like]) == 1
        unrecorded = write_bench_json(tmp_path / "bare.json", {"old": 3.0},
                                      cpus={"old": 2})
        assert check_main([base, unrecorded]) == 1

    def test_committed_baseline_matches_current_bench_names(self):
        """The seeded baseline must gate the benchmarks that exist."""
        with open("benchmarks/BENCH_baseline.json") as handle:
            names = {b["fullname"] for b in json.load(handle)["benchmarks"]}
        assert any("test_throughput_multiway_join[inline]" in n for n in names)
        assert any("test_throughput_multiway_join[processes]" in n
                   for n in names)


class TestBenchHelpers:
    def test_multiway_join_plan_is_deterministic(self):
        a = multiway_join_plan(n_rows=50)
        b = multiway_join_plan(n_rows=50)
        assert a.sources[0].relation.rows == b.sources[0].relation.rows
        assert a.joins[0].machines == b.joins[0].machines

    def test_plan_runs_under_every_backend(self):
        from collections import Counter

        from repro.engine import run_plan

        plan = multiway_join_plan(n_rows=120)
        expected = None
        for executor in ("inline", "processes"):
            result = run_plan(plan,
                              options=ExecutionOptions(batch_size=32,
                                                       executor=executor,
                                                       parallelism=2))
            counted = Counter(result.results)
            if expected is None:
                expected = counted
            assert counted == expected
        assert expected


@pytest.mark.parametrize("args", [["--help"]])
def test_bench_cli_help_exits_cleanly(args, capsys):
    """The one benchmark CLI, squallbench, answers --help without running
    a workload."""
    from benchmarks.squallbench.cli import main

    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert "--workload" in capsys.readouterr().out
