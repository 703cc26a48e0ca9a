"""A version-1 trace stays readable after the format moved to version 2.

The ``v1_trace_path`` fixture is a trace written by ``repro check
--trace`` while traces still carried ``metrics.timers``.  It must
validate, every ``repro trace`` subcommand must run on it, and
``trace diff`` must compare it against a fresh version-2 trace of the
same workload name by name.
"""

import json

from repro.cli import main
from repro.observability import SpanRecord, Tracer, phase_totals, validate_trace_file

#: The workload the fixture was recorded on (``--uniform SI``).
WORKLOAD = "T1: R[x] W[y]\nT2: R[y] W[x]\nT3: R[p] W[p]\n"


def test_v1_fixture_validates(v1_trace_path):
    data = validate_trace_file(v1_trace_path)
    assert data["version"] == 1
    assert "timers" in data["metrics"]


def test_phase_totals_read_either_version(v1_trace_path):
    v1 = validate_trace_file(v1_trace_path)
    assert phase_totals(v1) == {
        name: timer["total_s"] for name, timer in v1["metrics"]["timers"].items()
    }
    tracer = Tracer()
    tracer.spans.append(SpanRecord(1, None, "scan", 0.0, 0.25))
    tracer.spans.append(SpanRecord(2, None, "scan", 0.25, 0.5))
    assert phase_totals(tracer.export()) == {"scan": 0.75}


def test_trace_report_runs(v1_trace_path, capsys):
    assert main(["trace", "report", v1_trace_path]) == 0
    assert "robustness.check" in capsys.readouterr().out


def test_trace_flame_runs(v1_trace_path, capsys):
    assert main(["trace", "flame", v1_trace_path]) == 0
    assert "robustness.check" in capsys.readouterr().out


def test_trace_diff_against_itself_is_all_ok(v1_trace_path, capsys):
    assert main(["trace", "diff", v1_trace_path, v1_trace_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entries"]
    assert {entry["status"] for entry in report["entries"]} == {"ok"}


def test_trace_diff_against_fresh_v2_trace(v1_trace_path, tmp_path, capsys):
    workload = tmp_path / "wl.txt"
    workload.write_text(WORKLOAD, encoding="utf-8")
    fresh = str(tmp_path / "trace.json")
    assert main(["check", str(workload), "--uniform", "SI", "--trace", fresh]) == 1
    assert validate_trace_file(fresh)["version"] == 2
    capsys.readouterr()
    # A generous floor: only the comparison itself is under test here.
    argv = ["trace", "diff", v1_trace_path, fresh, "--json", "--abs-floor-ms", "1000"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    v1_names = set(validate_trace_file(v1_trace_path)["metrics"]["timers"])
    assert {entry["key"] for entry in report["entries"]} == v1_names
    # The v1 trace was recorded while the library analyzed per component
    # and built a kernel object per context; a fresh trace opens no
    # shard.plan, shard.scan or context.kernel_build span.
    skipped = {
        entry["key"] for entry in report["entries"] if entry["status"] == "skipped"
    }
    assert skipped == {"context.kernel_build", "shard.plan", "shard.scan"}
    assert report["skipped"] == len(skipped)
    assert report["compared"] == len(v1_names) - len(skipped)
