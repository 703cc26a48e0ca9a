"""End-to-end tests of the command-line interface."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def skew_file(tmp_path):
    path = tmp_path / "skew.txt"
    path.write_text("# write skew\nT1: R[x] W[y]\nT2: R[y] W[x]\n")
    return str(path)


@pytest.fixture
def disjoint_file(tmp_path):
    path = tmp_path / "disjoint.txt"
    path.write_text("T1: R[a] W[b]\nT2: R[c] W[d]\n")
    return str(path)


def _error_line(capsys, stdout=None):
    """The one ``repro: error:`` line on stderr (no traceback); with
    ``stdout`` given, stdout must be exactly that."""
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    if stdout is not None:
        assert captured.out == stdout
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("repro: error: ")
    return lines[0]


class TestCheck:
    def test_non_robust_exit_code_and_output(self, skew_file, capsys):
        code = main(["check", skew_file, "--uniform", "SI"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT ROBUST" in out
        assert "Cycle:" in out

    def test_robust_exit_code(self, disjoint_file, capsys):
        code = main(["check", disjoint_file, "--uniform", "RC"])
        assert code == 0
        assert "ROBUST" in capsys.readouterr().out

    def test_explicit_allocation(self, skew_file, capsys):
        code = main(["check", skew_file, "--allocation", "T1=SSI,T2=SSI"])
        assert code == 0

    def test_default_uniform_is_si(self, skew_file):
        assert main(["check", skew_file]) == 1

    def test_allocation_and_uniform_conflict(self, skew_file, capsys):
        code = main(
            ["check", skew_file, "--allocation", "T1=RC,T2=RC", "--uniform", "SI"]
        )
        assert code == 2
        assert "not both" in _error_line(capsys)

    def test_incomplete_allocation_rejected(self, skew_file, capsys):
        assert main(["check", skew_file, "--allocation", "T1=RC"]) == 2
        assert "misses transactions [2]" in _error_line(capsys)

    def test_malformed_allocation_rejected(self, skew_file, capsys):
        assert main(["check", skew_file, "--allocation", "banana"]) == 2
        assert "banana" in _error_line(capsys)

    def test_bad_level_is_not_a_verdict(self, skew_file, capsys):
        """A bad level exits 2; only a non-robust verdict exits 1."""
        assert main(["check", skew_file, "--uniform", "BOGUS"]) == 2
        assert "BOGUS" in _error_line(capsys)
        assert main(["check", skew_file, "--uniform", "SI"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--allocation", "T1=BOGUS,T2=SI"],
            ["allocate", "--levels", "RC,BOGUS"],
        ],
        ids=["check-allocation", "allocate-levels"],
    )
    def test_bad_level_in_spec_exits_2(self, skew_file, argv, capsys):
        assert main([argv[0], skew_file, *argv[1:]]) == 2
        assert "unknown isolation level 'BOGUS'" in _error_line(capsys)


class TestAllocate:
    def test_postgres_default(self, skew_file, capsys):
        code = main(["allocate", skew_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "T1: SSI" in out

    def test_oracle_levels(self, skew_file, capsys):
        code = main(["allocate", skew_file, "--levels", "RC,SI"])
        out = capsys.readouterr().out
        assert code == 1
        assert "No robust allocation" in out

    def test_disjoint_gets_rc(self, disjoint_file, capsys):
        main(["allocate", disjoint_file])
        out = capsys.readouterr().out
        assert "T1: RC" in out and "T2: RC" in out


class TestSharding:
    @pytest.fixture
    def multi_file(self, tmp_path):
        path = tmp_path / "multi.txt"
        path.write_text(
            "T1: R[x] W[y]\nT2: R[y] W[x]\nT3: R[a] W[b]\n"
            "T4: R[b] W[a]\nT5: R[p] W[q]\n"
        )
        return str(path)

    def test_stats_always_print_the_shard_line(self, multi_file, capsys):
        assert main(["allocate", multi_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Shards: 3 (sizes: 2, 2, 1)" in out
        assert "T5: RC" in out

    def test_stats_block_names_the_context_counters(self, multi_file, capsys):
        """The block is the six ``ContextStats`` counters, in order."""
        assert main(["allocate", multi_file, "--stats"]) == 0
        out = capsys.readouterr().out
        block = out[out.index("Analysis statistics:"):].splitlines()
        assert block == [
            "Analysis statistics:",
            "  checks: 9",
            "  index builds: 1",
            "  pair builds: 0",
            "  pair hits: 0",
            "  kernel row builds: 3",
            "  kernel row hits: 6",
        ]

    def test_check_stats_print_the_shard_line(self, skew_file, capsys):
        main(["check", skew_file, "--uniform", "SI", "--stats"])
        assert "Shards: 1 (sizes: 2)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--shard", "--no-shard"])
    def test_shard_flags_are_gone(self, multi_file, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["allocate", multi_file, flag])
        assert excinfo.value.code == 2  # argparse usage error

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{wl}", "--jobs", "2"],
            ["allocate", "{wl}", "--jobs", "2"],
            ["serve", "--jobs", "2"],
            ["serve", "--method", "paper"],
            ["check", "{wl}", "--method", "components"],
            ["allocate", "{wl}", "--method", "paper"],
            ["simulate", "{wl}", "--engine", "events"],
        ],
        ids=[
            "check-jobs",
            "allocate-jobs",
            "serve-jobs",
            "serve-method",
            "check-method",
            "allocate-method",
            "simulate-engine",
        ],
    )
    def test_worker_and_serve_engine_flags_are_gone(
        self, multi_file, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(wl=multi_file) for arg in argv])
        assert excinfo.value.code == 2  # argparse usage error


class TestSimulate:
    def test_runs_and_reports(self, skew_file, capsys):
        code = main(["simulate", skew_file, "--uniform", "SI", "--runs", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "run 0:" in out and "run 2:" in out
        assert "executions serializable" in out

    def test_ssi_always_serializable(self, skew_file, capsys):
        main(["simulate", skew_file, "--uniform", "SSI", "--runs", "4"])
        out = capsys.readouterr().out
        assert "4/4 executions serializable" in out

    def test_stats_and_instance_stream(self, skew_file, capsys):
        argv = ["simulate", skew_file, "--uniform", "SSI", "--runs", "2"]
        assert main([*argv, "--repeat", "3", "--sessions", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "run 1: commits=6 " in out
        assert "2/2 executions serializable; 12 commits" in out
        assert out.count("  blocks=") == 2 and out.count("  latency p50=") == 2
        assert "throughput=" in out and "wait_time=" in out


class TestStats:
    def test_stats_output(self, skew_file, capsys):
        assert main(["stats", skew_file]) == 0
        out = capsys.readouterr().out
        assert "2 txns" in out and "conflict density" in out


class TestReport:
    def test_full_report(self, skew_file, capsys):
        assert main(["report", skew_file]) == 0
        out = capsys.readouterr().out
        assert "Profile:" in out
        assert "A_RC: NOT robust" in out
        assert "A_SSI: robust" in out
        assert "Optimal over {RC, SI, SSI}" in out
        assert "none exists" in out  # the {RC, SI} class


class TestBlame:
    def test_blame_output(self, skew_file, capsys):
        code = main(["blame", skew_file, "--uniform", "SI"])
        out = capsys.readouterr().out
        assert code == 1
        assert "problematic triples" in out
        assert "{T1, T2}" in out

    def test_blame_robust(self, disjoint_file, capsys):
        code = main(["blame", disjoint_file, "--uniform", "RC"])
        out = capsys.readouterr().out
        assert code == 0
        assert "robust" in out

    def test_blame_size_bound(self, skew_file, capsys):
        code = main(["blame", skew_file, "--uniform", "SI", "--max-size", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "No promotion set of size <= 1" in out


class TestRate:
    def test_non_robust_allocation_rate(self, skew_file, capsys):
        code = main(["rate", skew_file, "--uniform", "SI", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 1
        assert "anomalous" in out

    def test_robust_allocation_rate(self, skew_file, capsys):
        code = main(["rate", skew_file, "--uniform", "SSI", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(0.0%)" in out


class TestCheckExtras:
    def test_anomaly_named(self, skew_file, capsys):
        main(["check", skew_file, "--uniform", "SI"])
        assert "Anomaly: write skew" in capsys.readouterr().out

    def test_dot_export(self, skew_file, tmp_path, capsys):
        dot_path = tmp_path / "seg.dot"
        main(["check", skew_file, "--uniform", "SI", "--dot", str(dot_path)])
        assert dot_path.read_text().startswith("digraph SeG {")


@pytest.fixture
def template_file(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_text(
        "Balance(C): R[savings:C] R[checking:C]\n"
        "TransactSavings(C): R[savings:C] W[savings:C]\n"
        "WriteCheck(C): R[savings:C] R[checking:C] W[checking:C]\n"
    )
    return str(path)


class TestTemplates:
    def test_check_uniform_si_not_robust(self, template_file, capsys):
        code = main(["templates", "check", template_file, "--uniform", "SI"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT ROBUST" in out
        assert "Static sufficient check" in out

    def test_check_explicit_allocation(self, template_file, capsys):
        code = main(
            [
                "templates",
                "check",
                template_file,
                "--allocation",
                "Balance=SSI,TransactSavings=SSI,WriteCheck=SSI",
            ]
        )
        assert code == 0
        assert "ROBUST" in capsys.readouterr().out

    def test_check_requires_allocation(self, template_file, capsys):
        assert main(["templates", "check", template_file]) == 2
        assert "provide --allocation" in _error_line(capsys)

    def test_check_rejects_an_allocation_missing_a_template(
        self, template_file, capsys
    ):
        spec = "Balance=RC,WriteCheck=SSI"
        assert main(["templates", "check", template_file, "--allocation", spec]) == 2
        assert "allocation misses templates ['TransactSavings']" in _error_line(capsys)

    def test_check_rejects_an_unknown_template(self, template_file, capsys):
        spec = "Balance=SSI,TransactSavings=SSI,WriteCheck=SSI,Z=SSI"
        assert main(["templates", "check", template_file, "--allocation", spec]) == 2
        assert "allocation names unknown templates ['Z']" in _error_line(capsys)

    def test_allocate(self, template_file, capsys):
        code = main(["templates", "allocate", template_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Balance: SSI" in out

    def test_allocate_oracle_fails(self, template_file, capsys):
        code = main(
            ["templates", "allocate", template_file, "--levels", "RC,SI"]
        )
        assert code == 1
        assert "No robust" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--uniform", "BOGUS"), ("--allocation", "Balance=BOGUS")]
    )
    def test_bad_level_exits_cleanly(self, template_file, flag, value):
        """A bad level name is one error line and exit 2, no traceback."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "templates", "check", template_file,
             flag, value],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error: ")
        assert proc.stderr.count("\n") == 1
        assert "unknown isolation level 'BOGUS'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_custom_bounds(self, template_file, capsys):
        main(
            [
                "templates",
                "check",
                template_file,
                "--uniform",
                "SSI",
                "--domain",
                "3",
                "--copies",
                "1",
            ]
        )
        assert "domain=3, copies=1" in capsys.readouterr().out


class TestTrace:
    def test_check_trace_exports_valid_json(self, skew_file, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.json"
        code = main(
            ["check", skew_file, "--uniform", "SI", "--trace", str(trace_path)]
        )
        assert code == 1  # the trace is written even on a counterexample
        data = validate_trace_file(str(trace_path))
        names = {span["name"] for span in data["spans"]}
        assert "robustness.check" in names
        assert "robustness.scan_t1" in names
        assert data["version"] == 2
        assert set(data["metrics"]) == {"counters", "histograms"}

    def test_allocate_trace(self, skew_file, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.json"
        assert main(["allocate", skew_file, "--trace", str(trace_path)]) == 0
        data = validate_trace_file(str(trace_path))
        names = {span["name"] for span in data["spans"]}
        assert "allocation.optimal" in names
        assert "allocation.probe" in names

    def test_allocate_runs_algorithm_2_once(self, skew_file, tmp_path, capsys):
        """The report and the exit status come from one optimum."""
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.json"
        assert main(["allocate", skew_file, "--trace", str(trace_path)]) == 0
        names = [span["name"] for span in validate_trace_file(str(trace_path))["spans"]]
        assert names.count("allocation.optimal") == 1
        assert names.count("allocation.refine") == 1
        assert "T1: SSI" in capsys.readouterr().out

    def test_simulate_trace(self, skew_file, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.json"
        main(
            ["simulate", skew_file, "--uniform", "SI", "--runs", "2", "--trace", str(trace_path)]
        )
        data = validate_trace_file(str(trace_path))
        runs = [s for s in data["spans"] if s["name"] == "mvcc.run"]
        assert len(runs) == 2
        assert data["metrics"]["counters"].get("mvcc.commits", 0) >= 2

    def test_rate_trace(self, skew_file, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.json"
        main(["rate", skew_file, "--uniform", "SI", "--samples", "50", "--trace", str(trace_path)])
        data = validate_trace_file(str(trace_path))
        names = {span["name"] for span in data["spans"]}
        assert "sampling.estimate" in names

    def test_stats_with_trace_prints_phase_timings(
        self, skew_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        main(
            ["check", skew_file, "--uniform", "SI", "--stats", "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert "Phase timings:" in out
        assert "robustness.check" in out

    def test_stats_without_trace_has_no_phase_timings(self, skew_file, capsys):
        main(["check", skew_file, "--uniform", "SI", "--stats"])
        out = capsys.readouterr().out
        assert "Analysis statistics:" in out
        assert "Phase timings" not in out

    def test_tracer_restored_after_run(self, skew_file, tmp_path, capsys):
        from repro.observability import current_tracer

        trace_path = tmp_path / "trace.json"
        main(["check", skew_file, "--uniform", "SI", "--trace", str(trace_path)])
        assert current_tracer().enabled is False


class TestTraceMemory:
    def test_memory_attrs_on_top_level_spans(self, skew_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        main(
            [
                "check",
                skew_file,
                "--uniform",
                "SI",
                "--trace",
                str(trace_path),
                "--trace-memory",
            ]
        )
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        roots = [s for s in data["spans"] if s["parent_id"] is None]
        assert roots
        for span in roots:
            assert span["attrs"]["mem_peak_kib"] >= 0
            assert "mem_current_kib" in span["attrs"]

    def test_requires_trace_flag(self, skew_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", skew_file, "--uniform", "SI", "--trace-memory"])
        assert exc.value.code == 2
        assert "--trace-memory requires --trace" in capsys.readouterr().err

    def test_tracemalloc_stopped_after_run(self, skew_file, tmp_path, capsys):
        import tracemalloc

        trace_path = tmp_path / "trace.json"
        main(
            [
                "check",
                skew_file,
                "--uniform",
                "SI",
                "--trace",
                str(trace_path),
                "--trace-memory",
            ]
        )
        assert not tracemalloc.is_tracing()

    def test_plain_trace_has_no_memory_attrs(self, skew_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        main(["check", skew_file, "--uniform", "SI", "--trace", str(trace_path)])
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert all("mem_peak_kib" not in s["attrs"] for s in data["spans"])


class TestTraceAnalysisCommands:
    @pytest.fixture()
    def trace_file(self, skew_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["check", skew_file, "--uniform", "SI", "--trace", str(trace_path)])
        capsys.readouterr()
        return str(trace_path)

    def test_trace_report(self, trace_file, capsys):
        assert main(["trace", "report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Profile tree:" in out
        assert "Critical path" in out
        assert "robustness.check" in out
        assert "robustness.scan_t1" in out

    def test_trace_report_group_by_origin(self, trace_file, capsys):
        assert main(["trace", "report", trace_file, "--group-by", "origin"]) == 0
        assert "[origin=main]" in capsys.readouterr().out

    def test_trace_report_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        assert main(["trace", "report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: bad trace")
        assert "invalid trace" in err

    @pytest.mark.parametrize("command", ["report", "flame", "diff"])
    def test_trace_commands_reject_too_deeply_nested_file(
        self, tmp_path, trace_file, command, capsys
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        argv = ["trace", command, str(deep)]
        if command == "diff":
            argv.append(trace_file)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: bad trace")
        assert err.count("\n") == 1, err

    def test_trace_flame_stdout(self, trace_file, capsys):
        assert main(["trace", "flame", trace_file]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        for line in lines:
            frames, _, value = line.rpartition(" ")
            assert frames
            assert int(value) > 0

    def test_trace_flame_to_file(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "stacks.folded"
        assert main(["trace", "flame", trace_file, "-o", str(out_path)]) == 0
        assert "robustness.check" in out_path.read_text(encoding="utf-8")

    def test_trace_diff_same_trace_ok(self, trace_file, capsys):
        assert main(["trace", "diff", trace_file, trace_file]) == 0
        assert "Verdict: OK" in capsys.readouterr().out

    def test_trace_diff_json(self, trace_file, capsys):
        import json

        assert main(["trace", "diff", trace_file, trace_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "ok"

    def test_trace_diff_flags_doctored_baseline(
        self, trace_file, tmp_path, capsys
    ):
        import json

        data = json.loads(Path(trace_file).read_text(encoding="utf-8"))
        for histogram in data["metrics"]["histograms"].values():
            for key in ("sum", "min", "max", "mean", "p50", "p90", "p99"):
                histogram[key] = histogram[key] / 100.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(data), encoding="utf-8")
        # Tiny explicit floor: the 100x ratio must flag regardless of how
        # fast this machine ran the fixture workload.
        code = main(
            [
                "trace",
                "diff",
                str(doctored),
                trace_file,
                "--abs-floor-ms",
                "0.0001",
            ]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().out
        # --max-regress is in percent: a 100x slowdown is within +100000%.
        argv = ["trace", "diff", str(doctored), trace_file, "--max-regress", "100000"]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "thresholds",
        [["--max-regress", "-50", "--abs-floor-ms", "-10"], ["--max-regress", "nan"]],
        ids=["negative", "nan"],
    )
    def test_trace_diff_rejects_inverting_thresholds(
        self, trace_file, thresholds, capsys
    ):
        # Negative thresholds flag a trace against itself; NaN passes anything.
        assert main(["trace", "diff", trace_file, trace_file, *thresholds]) == 2
        assert "--max-regress" in _error_line(capsys)


class TestBadInputFiles:
    """Bad input files give one ``repro: error:`` line and exit 2."""

    @pytest.fixture
    def bad_workload(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T1: R[x] Q[y]\n")
        return str(path)

    def test_allocate_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.txt")
        assert main(["allocate", missing]) == 2
        assert missing in _error_line(capsys)

    def test_allocate_malformed_workload(self, bad_workload, capsys):
        assert main(["allocate", bad_workload]) == 2
        assert "Q[y]" in _error_line(capsys)

    def test_allocate_non_utf8_bytes(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"T1: R[x] \xff\xfe W[y]\n")
        assert main(["allocate", str(path)]) == 2
        assert "UTF-8" in _error_line(capsys)

    def test_check_malformed_workload(self, bad_workload, capsys):
        assert main(["check", bad_workload, "--uniform", "SI"]) == 2
        assert "Q[y]" in _error_line(capsys)

    def test_trace_report_on_non_json_file(self, skew_file, capsys):
        assert main(["trace", "report", skew_file]) == 2
        assert skew_file in _error_line(capsys)

    def test_templates_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.tpl")
        assert main(["templates", "check", missing, "--uniform", "SI"]) == 2
        assert missing in _error_line(capsys)

    def test_templates_non_utf8_bytes(self, tmp_path, capsys):
        path = tmp_path / "binary.tpl"
        path.write_bytes(b"Balance(X): R[X:\xff\xfe]\n")
        assert main(["templates", "allocate", str(path)]) == 2
        assert "UTF-8" in _error_line(capsys)

    def test_templates_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tpl"
        path.write_text("no template here\n")
        assert main(["templates", "check", str(path), "--uniform", "SI"]) == 2
        assert "line 1" in _error_line(capsys)


class TestUnrestorableSnapshot:
    """``repro serve`` on a snapshot it cannot restore: one error line, exit 2."""

    @pytest.mark.parametrize(
        "kind", ["foreign-file", "bad-state-version", "non-utf8", "too-deep"]
    )
    def test_serve_exits_cleanly(self, tmp_path, kind):
        from repro.service import write_snapshot

        path = tmp_path / "snap.json"
        if kind == "foreign-file":
            path.write_text('{"garbage": 1}')
        elif kind == "non-utf8":
            path.write_bytes(b"\xff\xfe{}")
        elif kind == "too-deep":
            path.write_text("[" * 200_000 + "]" * 200_000)
        else:
            write_snapshot(path, {"version": 7, "levels": [], "workload": ""})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--snapshot", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("repro: error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert str(path) in proc.stderr


def _cli_allocation_spec(skew_file, capsys):
    assert main(["check", skew_file, "--allocation", "T²=RC,T2=SI"]) == 2
    return _error_line(capsys)


def _workload_header(skew_file, capsys):
    from repro.core.workload import WorkloadError, parse_workload

    with pytest.raises(WorkloadError) as excinfo:
        parse_workload("T²: R[x]")
    return str(excinfo.value)


def _allocation_key(skew_file, capsys):
    from repro.core.isolation import allocation
    from repro.core.workload import WorkloadError

    with pytest.raises(WorkloadError) as excinfo:
        allocation(**{"T²": "RC"})
    return str(excinfo.value)


def _daemon_check(skew_file, capsys):
    from repro.service import ServiceConfig, ServiceCore

    core = ServiceCore(ServiceConfig(port=0))
    core.handle({"op": "add", "transaction": "R[x] W[y]", "tid": 2})
    response = core.handle({"op": "check", "allocation": {"T²": "RC", "2": "SI"}})
    assert response["error"]["code"] == "bad-request", response
    return response["error"]["message"]


@pytest.mark.parametrize(
    "parse, expected",
    [
        (_cli_allocation_spec, "bad allocation entry 'T²=RC'; use T<i>=LEVEL"),
        (_workload_header, "line 1: bad transaction header 'T²'"),
        (_allocation_key, "bad transaction key 'T²'; use T<i>"),
        (_daemon_check, "bad allocation key 'T²'; use a tid"),
    ],
    ids=["cli-allocation-spec", "workload-header", "allocation-key", "daemon-check"],
)
def test_superscript_digit_tid_is_a_clean_error(parse, expected, skew_file, capsys):
    """``str.isdigit`` accepts ``²`` but ``int`` does not: every tid parser
    must give its own error, not ``int()``'s ``ValueError``."""
    assert expected in parse(skew_file, capsys)


class TestBadFlagValues:
    """Bad flag values give one ``repro: error:`` line and exit 2."""

    def test_sweep_bad_points(self, capsys):
        assert main(["simulate", "sweep", "--points", "bogus"]) == 2
        assert "bogus" in _error_line(capsys)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["{wl}", "--runs", "0"], "--runs"),
            (["{wl}", "--runs", "-2"], "--runs"),
            (["{wl}", "--repeat", "0"], "--repeat"),
            (["{wl}", "--repeat", "-3"], "--repeat"),
            (["{wl}", "--sessions", "0"], "--sessions"),
            (["{wl}", "--sessions", "-4"], "--sessions"),
            (["sweep", "--repeat", "0"], "--repeat"),
            (["sweep", "--sessions", "0"], "--sessions"),
            (["sweep", "--transactions", "0"], "--transactions"),
            (["sweep", "--transactions", "-1"], "--transactions"),
            (["sweep", "--points", ","], "--points"),
            (["sweep", "--strategies", ","], "--strategies"),
            (["sweep", "--points", "inf"], "customers must be int, got inf"),
            (["sweep", "--points", "1e400"], "customers must be int, got inf"),
            (["sweep", "--points", "2.5"], "customers must be int, got 2.5"),
        ],
    )
    def test_simulate_rejects_counts_it_cannot_run(
        self, skew_file, argv, flag, capsys
    ):
        assert main(["simulate", *(a.format(wl=skew_file) for a in argv)]) == 2
        assert flag in _error_line(capsys)

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("file", "--benchmark", "tpcc"),
            ("file", "--points", "1,2"),
            ("file", "--transactions", "3"),
            ("file", "--strategies", "si"),
            ("file", "--json", "{json}"),
            ("sweep", "--allocation", "T1=RC"),
            ("sweep", "--uniform", "SI"),
            ("sweep", "--runs", "7"),
        ],
        ids=lambda arg: arg.strip("-{}"),
    )
    def test_simulate_rejects_flags_of_the_other_mode(
        self, skew_file, tmp_path, mode, flag, value, capsys
    ):
        out = tmp_path / "sweep.json"
        argv = {
            "file": [skew_file, "--uniform", "SI", "--runs", "1"],
            "sweep": [
                "sweep", "--points", "2", "--transactions", "4", "--repeat", "1",
                "--json", str(out),
            ],
        }[mode]
        assert main(["simulate", *argv, flag, value.format(json=out)]) == 2
        assert flag in _error_line(capsys)
        assert not out.exists()

    def test_service_top_zero_interval(self, capsys):
        assert main(["service", "top", "--interval", "0"]) == 2
        assert "interval" in _error_line(capsys)


class TestTraceDumpErrors:
    """``trace dump`` errors about the daemon exit 2, not 1 ("not robust")."""

    def test_unreachable_daemon(self, capsys):
        with socket.socket() as sock:  # bound, then closed: nothing listens
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["trace", "dump", "--port", str(port)]) == 2
        assert "cannot reach daemon" in _error_line(capsys)

    def test_daemon_error_envelope(self, capsys):
        from repro.service import ServiceConfig, ServiceServer

        with ServiceServer(ServiceConfig(port=0)) as server:
            argv = ["trace", "dump", "--port", str(server.port), "--last", "-1"]
            assert main(argv) == 2
        assert "trace dump failed" in _error_line(capsys)


class TestServiceTopErrors:
    """``service top`` errors about the daemon exit 2, not 1 ("not robust")."""

    def test_unreachable_daemon(self, capsys):
        with socket.socket() as sock:  # bound, then closed: nothing listens
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        argv = ["service", "top", "--port", str(port), "--iterations", "1"]
        assert main([*argv, "--no-clear"]) == 2
        assert "cannot reach daemon" in _error_line(capsys)


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_compare_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", "a.json", "b.json"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/workload.txt"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: error: cannot read workload /nonexistent/workload.txt:"
            " No such file or directory\n"
        )


class TestClosedStdout:
    """A reader that goes away (``repro ... | head``) ends the command
    quietly with 141, never a traceback or the "not robust" status 1."""

    def _spawn_with_closed_stdout(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)

    def test_allocate(self, skew_file):
        proc = self._spawn_with_closed_stdout("allocate", skew_file)
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_trace_report(self, skew_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        main(["check", skew_file, "--uniform", "SI", "--trace", trace_path])
        capsys.readouterr()
        proc = self._spawn_with_closed_stdout("trace", "report", trace_path)
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_service_top(self):
        """A closed stdout is not an unreachable daemon."""
        from repro.service import ServiceConfig, ServiceServer

        with ServiceServer(ServiceConfig(port=0)) as server:
            proc = self._spawn_with_closed_stdout(
                "service", "top", "--port", str(server.port),
                "--iterations", "1", "--no-clear",
            )
        assert proc.returncode == 141, proc.stderr
        assert proc.stderr == ""


class TestUnwritableOutput:
    """An output file that cannot be written (its directory is missing,
    or it is a directory) is one ``repro: error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "sweep", "--points", "2", "--transactions", "4",
             "--repeat", "1", "--sessions", "2", "--json", "{out}"],
            ["check", "{skew}", "--uniform", "SI", "--dot", "{out}"],
            ["trace", "flame", "{trace}", "-o", "{out}"],
            ["allocate", "{skew}", "--trace", "{out}"],
        ],
        ids=["sweep-json", "check-dot", "flame-output", "trace"],
    )
    def test_exits_cleanly(self, skew_file, tmp_path, argv, capsys):
        """The output file is probed before the command does any work, so
        the error line is all it prints."""
        trace = tmp_path / "trace.json"
        assert main(["check", skew_file, "--trace", str(trace)]) == 1
        capsys.readouterr()
        for out in (tmp_path / "missing" / "out.txt", tmp_path):
            args = [a.format(out=out, skew=skew_file, trace=trace) for a in argv]
            assert main(args) == 2
            assert f"cannot write {out}: " in _error_line(capsys, stdout="")

    def test_probe_neither_creates_nor_truncates(self, tmp_path, capsys):
        """A robust check writes no DOT file: the up-front probe of
        ``--dot`` leaves a missing file missing and an existing one as
        it was."""
        robust = tmp_path / "robust.txt"
        robust.write_text("T1: R[x] W[x]\nT2: R[y] W[y]\n", encoding="utf-8")
        missing = tmp_path / "missing.dot"
        existing = tmp_path / "existing.dot"
        existing.write_text("keep me", encoding="utf-8")
        for out in (missing, existing):
            argv = ["check", str(robust), "--uniform", "SI", "--dot", str(out)]
            assert main(argv) == 0
        capsys.readouterr()
        assert not missing.exists()
        assert existing.read_text(encoding="utf-8") == "keep me"
