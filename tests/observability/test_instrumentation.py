"""Integration tests: spans from the instrumented engines.

Two contracts are pinned here:

* **Coverage** — a traced run produces the spans the observability design
  promises: ``robustness.check`` with nested ``robustness.scan_t1``,
  Algorithm 2's refine/probe hierarchy and ``mvcc.run``.
* **Zero cost when disabled** — running under a tracer changes no
  result: verdicts, counterexamples, allocations, simulation traces and
  ``ContextStats`` counters are identical traced and untraced.
"""

import random

from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager
from repro.core.isolation import Allocation
from repro.core.robustness import (
    check_robustness,
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.workload import workload
from repro.enumeration.sampling import estimate_anomaly_rate
from repro.mvcc import exploration_config, simulate_workload
from repro.observability import Tracer, use_tracer, validate_trace
from repro.workloads.generator import random_workload


def _span_names(tracer):
    return [span.name for span in tracer.spans]


class TestSequentialSpans:
    def test_check_robustness_span_tree(self, write_skew):
        tracer = Tracer()
        with use_tracer(tracer):
            result = check_robustness(write_skew, Allocation.si(write_skew))
        assert not result.robust
        names = _span_names(tracer)
        assert "robustness.check" in names
        assert "robustness.scan_t1" in names
        check = next(s for s in tracer.spans if s.name == "robustness.check")
        assert check.attrs["robust"] is False
        scans = [s for s in tracer.spans if s.name == "robustness.scan_t1"]
        assert all(s.parent_id == check.span_id for s in scans)

    def test_robust_check_scans_every_t1(self, write_skew):
        tracer = Tracer()
        with use_tracer(tracer):
            result = check_robustness(write_skew, Allocation.ssi(write_skew))
        assert result.robust
        scans = [s for s in tracer.spans if s.name == "robustness.scan_t1"]
        assert {s.attrs["t1"] for s in scans} == set(write_skew.tids)

    def test_check_delta_span(self, write_skew):
        tracer = Tracer()
        base = Allocation.ssi(write_skew)
        with use_tracer(tracer):
            check_robustness_delta(write_skew, base.with_level(1, "RC"), 1)
        delta = next(s for s in tracer.spans if s.name == "robustness.check_delta")
        assert delta.attrs["delta_tid"] == 1
        assert delta.attrs["robust"] is False

    def test_allocation_span_hierarchy(self, write_skew):
        tracer = Tracer()
        ctx = AnalysisContext(write_skew)
        with use_tracer(tracer):
            optimal_allocation(write_skew, context=ctx)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        optimal = by_name["allocation.optimal"][0]
        refine = by_name["allocation.refine"][0]
        assert refine.parent_id == optimal.span_id
        for txn_span in by_name["allocation.refine_txn"]:
            assert txn_span.parent_id == refine.span_id
            assert txn_span.attrs["level"] in ("RC", "SI", "SSI")
        # One level decision per refined transaction: its verdict count
        # is an attribute, and the counts add up to the checks.
        probes = by_name["allocation.probe"]
        assert sorted(probe.attrs["tid"] for probe in probes) == [1, 2]
        assert sum(probe.attrs["checks"] for probe in probes) == ctx.stats.checks
        for probe in probes:
            assert probe.attrs["levels"] == ["RC", "SI"]
            checks = [
                s
                for s in by_name["robustness.check_delta"]
                if s.parent_id == probe.span_id
            ]
            assert len(checks) == 1
            assert checks[0].attrs["delta_tid"] == probe.attrs["tid"]

    def test_incremental_spans(self, write_skew):
        tracer = Tracer()
        manager = AllocationManager()
        with use_tracer(tracer):
            for txn in write_skew:
                manager.add(txn)
            manager.remove(1)
        batches = [s for s in tracer.spans if s.name == "incremental.batch"]
        assert len(batches) == len(write_skew) + 1  # add/remove: batches of one
        adds = [s for s in batches if s.attrs["adds"] == 1]
        assert len(adds) == len(write_skew)
        assert all(s.attrs["removes"] == 0 for s in adds)
        assert batches[-1].attrs["adds"] == 0
        assert batches[-1].attrs["removes"] == 1
        assert adds[0].attrs["checks"] >= 1

    def test_mvcc_run_span(self, write_skew):
        tracer = Tracer()
        with use_tracer(tracer):
            simulate_workload(
                write_skew,
                Allocation.ssi(write_skew),
                exploration_config(len(write_skew), seed=1),
            )
        run = next(s for s in tracer.spans if s.name == "mvcc.run")
        assert run.attrs["commits"] >= len(write_skew)
        assert run.attrs["operations"] > 0
        assert tracer.registry.counters.get("mvcc.commits", 0) >= 1

    def test_sampling_span(self, write_skew):
        tracer = Tracer()
        with use_tracer(tracer):
            estimate = estimate_anomaly_rate(
                write_skew, Allocation.si(write_skew), samples=30, seed=2
            )
        span = next(s for s in tracer.spans if s.name == "sampling.estimate")
        assert span.attrs["samples"] == 30
        assert span.attrs["anomalous"] == estimate.anomalous


class TestParallelSpans:
    """Whole Algorithm 1 and 2 runs, traced: export and counters."""

    def test_traced_export_validates(self):
        wl = random_workload(transactions=10, objects=8, min_ops=2, max_ops=4, seed=5)
        tracer = Tracer()
        with use_tracer(tracer):
            check_robustness(wl, Allocation.si(wl))
            optimal_allocation(wl)
        validate_trace(tracer.export())

    def test_merged_counters_equal_worker_delta_sum(self):
        # The tracer counts checks as events, the context counts them in
        # its stats: two independent channels that must agree on the
        # total work done.
        wl = random_workload(transactions=10, objects=8, min_ops=2, max_ops=4, seed=5)
        tracer = Tracer()
        ctx = AnalysisContext(wl)
        with use_tracer(tracer):
            optimal_allocation(wl, context=ctx)
        assert ctx.stats.checks > 0
        assert tracer.registry.counters["robustness.checks"] == ctx.stats.checks


class TestTracingChangesNothing:
    def _workloads(self):
        yield workload("R1[x] W1[y]", "R2[y] W2[x]")
        yield random_workload(transactions=12, objects=9, min_ops=2, max_ops=4, seed=7)

    def test_check_results_identical(self):
        for wl in self._workloads():
            for level in ("RC", "SI", "SSI"):
                alloc = Allocation.uniform(wl, level)
                plain = check_robustness(wl, alloc)
                with use_tracer(Tracer()):
                    traced = check_robustness(wl, alloc)
                assert plain.robust == traced.robust
                if not plain.robust:
                    assert plain.counterexample.spec == traced.counterexample.spec
                    assert str(plain.counterexample.schedule) == str(
                        traced.counterexample.schedule
                    )

    def test_enumeration_sequence_identical(self):
        for wl in self._workloads():
            alloc = Allocation.si(wl)
            plain = [c.spec for c in enumerate_counterexamples(wl, alloc)]
            with use_tracer(Tracer()):
                traced = [c.spec for c in enumerate_counterexamples(wl, alloc)]
            assert plain == traced

    def test_allocations_identical(self):
        for wl in self._workloads():
            plain = optimal_allocation(wl)
            with use_tracer(Tracer()):
                traced = optimal_allocation(wl)
            assert plain == traced

    def test_stats_counters_identical(self):
        wl = random_workload(transactions=12, objects=9, min_ops=2, max_ops=4, seed=7)
        ctx_plain = AnalysisContext(wl)
        optimal_allocation(wl, context=ctx_plain)
        ctx_traced = AnalysisContext(wl)
        with use_tracer(Tracer()):
            optimal_allocation(wl, context=ctx_traced)
        assert ctx_plain.stats.as_dict() == ctx_traced.stats.as_dict()

    def test_simulation_trace_identical(self, write_skew):
        alloc = Allocation.si(write_skew)
        plain_trace, plain_stats = simulate_workload(
            write_skew, alloc, exploration_config(len(write_skew), seed=3)
        )
        with use_tracer(Tracer()):
            traced_trace, traced_stats = simulate_workload(
                write_skew, alloc, exploration_config(len(write_skew), seed=3)
            )
        assert plain_trace.events == traced_trace.events
        assert plain_stats.commits == traced_stats.commits
        assert plain_stats.aborts == traced_stats.aborts

    def test_sampling_draws_identical(self, write_skew):
        from repro.enumeration.sampling import sample_interleaving

        plain = [
            sample_interleaving(write_skew, random.Random(4)) for _ in range(10)
        ]
        with use_tracer(Tracer()):
            traced = [
                sample_interleaving(write_skew, random.Random(4)) for _ in range(10)
            ]
        assert plain == traced


class TestCliByteIdentity:
    """Telemetry-era tracing changes no byte of CLI output.

    The depth-capped flight-recorder tracer (what the service installs
    around every request) must be exactly as invisible as the classic
    full tracer: ``repro check``/``allocate``/``simulate`` print the
    same bytes with and without one installed.
    """

    def _capture(self, capsys, argv, tracer=None):
        from repro.cli import main

        if tracer is None:
            code = main(argv)
        else:
            with use_tracer(tracer):
                code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    @staticmethod
    def _workload_file(tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("T1: R[x] W[y]\nT2: R[y] W[x]\nT3: R[x] W[z]\n")
        return str(path)

    def test_cli_output_identical_under_depth_capped_tracer(
        self, tmp_path, capsys
    ):
        wl = self._workload_file(tmp_path)
        for argv in (
            ["check", wl, "--uniform", "SI"],
            ["check", wl, "--uniform", "SSI"],
            ["allocate", wl],
            ["simulate", wl, "--uniform", "SSI", "--seed", "5"],
            ["stats", wl],
        ):
            plain = self._capture(capsys, argv)
            recorder = self._capture(capsys, argv, Tracer(max_depth=2))
            full = self._capture(capsys, argv, Tracer())
            assert plain == recorder, f"{argv}: depth-capped tracer leaked"
            assert plain == full, f"{argv}: full tracer leaked"
