"""ServiceCore telemetry: request ids, the flight recorder, SLO alerts.

The live-observability wiring of PR 10, pinned at the core level (no
sockets): every response carries a correlatable ``request_id``, the
always-on flight recorder retains span trees ``dump-traces`` can serve
without ``--trace``, the windowed series feed per-second rate gauges,
the SLO monitor flips its gauge and logs alert events on transitions —
and none of it changes a single command's payload (the byte-identity
face of the zero-cost-when-disabled contract).
"""

import json
import re

import pytest

from repro.observability import Tracer, current_tracer, use_tracer, validate_eventlog_file
from repro.service import ServiceConfig, ServiceCore
from repro.service import core as service_core
from repro.service.top import render_top, render_trace_dump


def _core(**kwargs):
    return ServiceCore(ServiceConfig(**kwargs))


def _add(core, text, tid):
    return core.handle({"op": "add", "transaction": text, "tid": tid})


def _events(path, kind):
    """The events of ``kind`` in the JSON-lines event log at ``path``."""
    events = [json.loads(line) for line in path.read_text().splitlines()]
    return [event for event in events if event["kind"] == kind]


@pytest.fixture
def logged(tmp_path):
    """A factory of cores logging to ``tmp_path``/events.jsonl, closed after."""
    path = tmp_path / "events.jsonl"
    cores = []

    def make(**kwargs):
        cores.append(_core(eventlog_path=str(path), **kwargs))
        return cores[-1], path

    yield make
    for core in cores:
        core.events.close()


class TestRequestIds:
    def test_every_response_carries_a_request_id(self):
        core = _core()
        seen = set()
        for envelope in (
            {"op": "hello"},
            {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
            {"op": "status"},
            {"op": "nope"},  # even unknown-op errors are correlated
        ):
            response = core.handle(envelope)
            rid = response["request_id"]
            assert re.fullmatch(r"r[0-9a-f]+-\d+", rid)
            seen.add(rid)
        assert len(seen) == 4

    def test_request_id_stamped_on_retained_spans(self):
        core = _core()
        rid = _add(core, "R[x] W[y]", 1)["request_id"]
        trace = core.retainer.last_traces()[-1]
        assert trace.request_id == rid
        root = next(
            s for s in trace.spans if s["name"] == "service.request"
        )
        assert root["attrs"]["request_id"] == rid
        assert root["attrs"]["op"] == "add"

    def test_request_event_correlates(self, logged):
        core, path = logged()
        rid = _add(core, "R[x] W[y]", 1)["request_id"]
        event = _events(path, "request")[-1]
        assert event["request_id"] == rid
        assert event["op"] == "add" and event["ok"] is True
        assert event["latency_ms"] > 0


class TestFlightRecorder:
    def test_dump_traces_without_trace_flag(self):
        core = _core()  # no tracer installed anywhere
        for tid in range(1, 4):
            _add(core, f"R[x] W[y{tid}]", tid)
        response = core.handle({"op": "dump-traces"})
        assert response["ok"]
        assert response["added"] == 3
        assert len(response["last"]) == 3
        slowest = response["slowest"][0]
        names = [span["name"] for span in slowest["spans"]]
        assert "service.request" in names
        assert "incremental.batch" in names  # depth 2 keeps the handler span

    def test_dump_traces_limits_validated(self):
        core = _core()
        response = core.handle({"op": "dump-traces", "last": "many"})
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"
        response = core.handle({"op": "dump-traces", "last": 1, "slowest": 0})
        assert response["ok"] and len(response["last"]) <= 1
        assert response["slowest"] == []

    def test_retain_depth_bounds_span_tree(self, monkeypatch):
        monkeypatch.setattr(service_core, "REQUEST_TRACE_DEPTH", 1)
        deep = _core()
        _add(deep, "R[x] W[y]", 1)
        trace = deep.retainer.last_traces()[-1]
        assert [s["name"] for s in trace.spans] == ["service.request"]

    def test_failed_requests_are_retained_with_ok_false(self):
        core = _core()
        _add(core, "R[x]", 1)
        response = _add(core, "W[x]", 1)  # duplicate tid -> conflict
        assert not response["ok"]
        trace = core.retainer.last_traces()[-1]
        assert trace.ok is False and trace.op == "add"

    def test_outer_trace_still_absorbs_request_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            core = _core()
            _add(core, "R[x] W[y]", 1)
        assert current_tracer().enabled is False
        names = [s.name for s in tracer.spans]
        assert "service.request" in names  # --trace daemon keeps seeing all
        assert core.retainer.added >= 1

    def test_outer_trace_counts_each_check_once(self):
        """``repro serve --trace`` absorbs each request's checks once."""
        tracer = Tracer()
        with use_tracer(tracer):
            core = _core()
            for tid, text in enumerate(("R[x] W[y]", "R[y] W[x]", "R[y] W[z]"), 1):
                _add(core, text, tid)
        checks = core.registry.counters["context.checks"]
        assert tracer.registry.counters["robustness.checks"] == checks

    def test_flight_recorder_keeps_spans_the_trace_absorbed(self):
        """Absorbing a request into ``--trace`` leaves the retained tree whole."""
        tracer = Tracer()
        with use_tracer(tracer):
            core = _core()
            with tracer.span("startup"):
                pass
            _add(core, "R[x] W[y]", 1)
        retained = core.retainer.last_traces()[-1].spans
        ids = [span["span_id"] for span in retained]
        assert retained[-1]["name"] == "service.request"
        assert retained[-1]["span_id"] == 1  # the request tracer's own ids
        assert retained[-1]["parent_id"] is None
        assert all(span["parent_id"] in ids for span in retained[:-1])
        copies = [s for s in tracer.spans if s.name == "service.request"]
        assert len(copies) == 1 and copies[0].span_id != 1

    def test_render_trace_dump_shows_span_tree(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        payload = core.handle({"op": "dump-traces"})
        text = render_trace_dump(
            {k: payload[k] for k in ("added", "last", "slowest")}
        )
        assert "Flight recorder: 1 request(s) observed" in text
        assert "service.request" in text
        assert "op=add" in text


class TestLinesThatAreNoEnvelope:
    """A line that is no envelope is answered and observed like any request."""

    def test_bad_lines_count_as_requests(self):
        core = _core()
        for line in ("{", "[1]", "not json", '{"op": "nope"}'):
            response = core.handle_line(line)
            assert response["ok"] is False and response["request_id"]
        counters = core.registry.counters
        assert counters["service.requests"] == counters["service.errors"] == 4
        assert core.series["requests"].total_count == 4
        assert core.series["errors"].total_count == 4
        assert core.registry.histograms["service.request"].count == 4

    def test_only_a_known_op_gets_a_histogram(self):
        core = _core()
        core.handle({"op": "nope"})
        core.handle({"op": "hello"})
        assert set(core.registry.histograms) == {"service.request", "service.hello"}

    def test_rejected_line_is_logged(self, logged):
        core, path = logged()
        rid = core.handle_line("not json")["request_id"]
        [event] = _events(path, "request")
        assert event["request_id"] == rid
        assert event["ok"] is False and event["error"] == "bad-request"


class TestWindowedRatesAndGauges:
    def test_rate_gauges_exported(self):
        core = _core()
        for tid in range(1, 5):
            _add(core, f"R[x] W[y{tid}]", tid)
        gauges = core.gauges()
        for name in ("requests", "errors", "mutations", "checks", "rejections"):
            assert f"rate_{name}_per_s" in gauges
        assert gauges["rate_requests_per_s"] > 0
        assert gauges["rate_errors_per_s"] == 0.0
        assert gauges["retained_traces"] == 4.0

    def test_metrics_envelope_includes_histograms(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        response = core.handle({"op": "metrics"})
        assert response["ok"]
        hist = response["histograms"]["service.request"]
        assert hist["count"] == 1
        assert hist["p99"] >= hist["p50"] > 0

    def test_render_top_frame(self):
        core = _core()
        for tid in range(1, 4):
            _add(core, f"R[x] W[y{tid}]", tid)
        status = core.handle({"op": "status"})
        metrics = core.handle({"op": "metrics"})
        frame = render_top(status, metrics, clock="12:00:00")
        assert "repro service top" in frame
        assert "req/s" in frame and "p99" in frame
        assert "service.add" in frame
        assert "transactions 3" in frame
        phase_table = frame[frame.index("  phase "):]
        assert "service.add" in phase_table


class TestSloMonitor:
    def test_breach_and_recovery_events(self, logged):
        core, path = logged(slo_p99_ms=0.0000001)  # everything breaches
        _add(core, "R[x] W[y]", 1)
        assert core.gauges()["slo_p99_breached"] == 1.0
        alerts = _events(path, "alert")
        assert alerts and alerts[-1]["breached"] is True
        assert core.registry.counters["service.slo_breaches"] == 1
        # Only transitions alert: a second slow request adds no event.
        _add(core, "R[y] W[z]", 2)
        assert len(_events(path, "alert")) == 1

    def test_no_slo_no_gauge(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        assert "slo_p99_breached" not in core.gauges()

    def test_generous_slo_never_breaches(self, logged):
        core, path = logged(slo_p99_ms=60_000.0)
        _add(core, "R[x] W[y]", 1)
        assert core.gauges()["slo_p99_breached"] == 0.0
        assert not _events(path, "alert")


class TestEventLogWiring:
    def test_eventlog_file_written_and_valid(self, tmp_path):
        path = tmp_path / "events.jsonl"
        core = _core(eventlog_path=str(path))
        _add(core, "R[x] W[y]", 1)
        core.handle({"op": "status"})
        core.events.close()
        count = validate_eventlog_file(path)
        assert count >= 2
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert "request" in kinds

    def test_admission_rejection_emits_event(self, logged):
        from repro.service import AdmissionPolicy

        core, path = logged(admission=AdmissionPolicy(max_promotions=0))
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)  # would promote T1
        assert not response["admitted"]
        [event] = _events(path, "admission")
        assert event["admitted"] is False and event["tid"] == 2
        # The request id joins the refusal to its request.
        assert event["request_id"] == response["request_id"]
        assert _events(path, "request")[-1]["request_id"] == response["request_id"]


class TestByteIdentity:
    """Telemetry enabled-but-unexported changes no command payload."""

    _SCRIPT = (
        {"op": "hello"},
        {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
        {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
        {"op": "check"},
        {"op": "allocate"},
        {"op": "remove", "tid": 1},
        {"op": "stats"},
        {"op": "nope"},
    )

    def _run(self, **config):
        core = ServiceCore(ServiceConfig(**config))
        responses = []
        for envelope in self._SCRIPT:
            response = dict(core.handle(envelope))
            response.pop("request_id", None)  # ids are fresh per process
            responses.append(response)
        core.close()
        return json.dumps(responses, sort_keys=True)

    def test_payloads_invariant_under_telemetry_knobs(self, tmp_path):
        baseline = self._run()
        assert baseline == self._run(
            eventlog_path=str(tmp_path / "events.jsonl")
        )
        assert baseline == self._run(slo_p99_ms=60_000.0)

    def test_uptime_jitter_is_the_only_status_difference(self):
        # Sanity for the fixture above: status carries uptime_s, which
        # would differ run to run — the script avoids it on purpose.
        assert not any(e["op"] == "status" for e in self._SCRIPT)
