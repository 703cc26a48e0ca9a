"""The prometheus text exposition, round-tripped through a strict parser.

``/metrics`` is consumed by scrapers that reject malformed exposition
outright, so this suite feeds :func:`prometheus_text` hostile metric
names, label values and HELP text and re-parses the output with a
strict line grammar: legal name charset, one TYPE per family emitted
before its samples, parseable sample values, properly escaped label
values and HELP text, and summary families carrying the quantile lines
plus the ``_count``/``_sum`` pair.  A golden text pins the exposition
byte for byte, and a live daemon's ``/metrics`` is scraped over HTTP
while a client churns over the command socket.
"""

import re
import threading
import urllib.request

import pytest

from repro.observability import MetricsRegistry, prometheus_text
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.daemon import METRIC_HELP

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) (.*)$")
_TYPE_RE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|summary|histogram|untyped)$")
_SAMPLE_RE = re.compile(rf"^({_NAME})(?:\{{(.*)\}})? (\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"')


def parse_exposition(text):
    """Parse a scrape strictly; returns (families, samples).

    ``families``: metric name -> declared type.  ``samples``: list of
    (name, labels dict, float value).  Raises AssertionError on any
    violation of the format contract.
    """
    families = {}
    samples = []
    assert text.endswith("\n"), "exposition must end with a newline"
    for lineno, line in enumerate(text.splitlines(), start=1):
        assert line == line.strip(), f"line {lineno}: stray whitespace"
        if line.startswith("# HELP "):
            match = _HELP_RE.match(line)
            assert match, f"line {lineno}: malformed HELP: {line!r}"
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            assert match, f"line {lineno}: malformed TYPE: {line!r}"
            name, kind = match.groups()
            assert name not in families, f"line {lineno}: duplicate TYPE {name}"
            families[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"line {lineno}: malformed sample: {line!r}"
        name, raw_labels, raw_value = match.groups()
        labels = {}
        if raw_labels:
            consumed = 0
            for label in _LABEL_RE.finditer(raw_labels):
                labels[label.group(1)] = label.group(2)
                consumed += len(label.group(0)) + 1  # + separating comma
            assert consumed >= len(raw_labels), (
                f"line {lineno}: unparsed label content in {raw_labels!r}"
            )
        value = float(raw_value)  # must parse; raises otherwise
        family = name
        for suffix in ("_count", "_sum"):
            if family not in families and family.endswith(suffix):
                family = family[: -len(suffix)]
        assert family in families, f"line {lineno}: sample {name} has no TYPE"
        samples.append((name, labels, value))
    return families, samples


def _sample_names(samples):
    return {name for name, _, _ in samples}


class TestExpositionContract:
    def test_hostile_names_values_and_help_round_trip(self):
        registry = MetricsRegistry()
        registry.incr("service.requests", 2)
        registry.incr("weird name!*", 1)
        registry.incr("9starts.with.digit", 1)
        registry.record("service.add", 0.002)
        registry.record("service.add", 0.004)
        registry.record("batch size", 17.0)
        gauges = {"queue depth": 3.0, "rate_requests_per_s": 1.5}
        helps = {
            "service.add": 'latency with "quotes", a \\ and\na newline',
            "queue depth": "parked\ntransactions",
        }
        text = prometheus_text(registry, gauges, helps=helps)
        families, samples = parse_exposition(text)

        assert families["repro_service_requests_total"] == "counter"
        assert families["repro_weird_name___total"] == "counter"
        assert families["repro_9starts_with_digit_total"] == "counter"
        # With no prefix the digit-leading name gains an underscore.
        bare_families, _ = parse_exposition(
            prometheus_text(registry, prefix="")
        )
        assert "_9starts_with_digit_total" in bare_families
        assert families["repro_service_add_seconds"] == "summary"
        assert families["repro_batch_size_seconds"] == "summary"
        assert families["repro_queue_depth"] == "gauge"
        # Escaped HELP text survives as a single comment line.
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert (
            '# HELP repro_service_add_seconds latency with "quotes",'
            " a \\\\ and\\na newline" in help_lines
        )

    def test_summary_family_shape(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.003, 0.010):
            registry.record("service.request", value)
        _, samples = parse_exposition(prometheus_text(registry))
        quantiles = {
            labels["quantile"]: value
            for name, labels, value in samples
            if name == "repro_service_request_seconds" and "quantile" in labels
        }
        assert set(quantiles) == {"0.5", "0.9", "0.99"}
        assert quantiles["0.5"] <= quantiles["0.9"] <= quantiles["0.99"]
        by_name = {name: value for name, _, value in samples}
        assert by_name["repro_service_request_seconds_count"] == 4
        assert by_name["repro_service_request_seconds_sum"] == pytest.approx(0.016)

    def test_type_precedes_all_family_samples(self):
        registry = MetricsRegistry()
        registry.record("service.add", 0.5)
        registry.incr("service.requests")
        text = prometheus_text(registry, {"transactions": 8.0})
        declared = set()
        for line in text.splitlines():
            type_match = _TYPE_RE.match(line)
            if type_match:
                declared.add(type_match.group(1))
                continue
            sample = _SAMPLE_RE.match(line)
            if sample:
                family = sample.group(1)
                for suffix in ("_count", "_sum"):
                    if family not in declared and family.endswith(suffix):
                        family = family[: -len(suffix)]
                assert family in declared, f"sample before TYPE: {line!r}"

    def test_zero_only_histogram_still_exports_count_and_sum(self):
        registry = MetricsRegistry()
        registry.record("only.zeroes", 0.0)
        _, samples = parse_exposition(prometheus_text(registry))
        by_name = {name: value for name, _, value in samples}
        assert by_name["repro_only_zeroes_seconds_count"] == 1
        assert by_name["repro_only_zeroes_seconds_sum"] == 0.0

    def test_daemon_help_table_is_exportable(self):
        registry = MetricsRegistry()
        registry.record("service.request", 0.001)
        registry.incr("service.requests")
        registry.incr("service.errors", 0)
        gauges = {name: 0.0 for name in METRIC_HELP if "." not in name}
        text = prometheus_text(registry, gauges, helps=METRIC_HELP)
        families, _ = parse_exposition(text)
        assert "repro_service_request_seconds" in families
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        # Every gauge in the table got its HELP line verbatim-escaped.
        assert any("queue-mode admission control" in l for l in help_lines)

    def test_doctest_output_is_stable(self):
        registry = MetricsRegistry()
        registry.incr("service.requests", 2)
        text = prometheus_text(registry, {"queue_depth": 0.0})
        assert text == (
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 0.0\n"
            "# TYPE repro_service_requests_total counter\n"
            "repro_service_requests_total 2\n"
        )

    def test_golden_text(self):
        """Two duration families, a counter and a gauge, byte for byte.

        The expected text was rendered by the registry that kept a
        timer beside each histogram; one histogram per name must export
        exactly the same families, samples and float sums.
        """
        registry = MetricsRegistry()
        for seconds in (0.0012, 0.0031, 0.0007, 0.0254):
            registry.record("service.request", seconds)
        for seconds in (0.0004, 0.0019):
            registry.record("service.add", seconds)
        registry.incr("service.requests", 6)
        text = prometheus_text(registry, {"queue_depth": 2.0}, helps=METRIC_HELP)
        assert text == (
            "# HELP repro_queue_depth Transactions parked by queue-mode"
            " admission control\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 2.0\n"
            "# HELP repro_service_requests_total Request lines answered since startup\n"
            "# TYPE repro_service_requests_total counter\n"
            "repro_service_requests_total 6\n"
            "# TYPE repro_service_add_seconds summary\n"
            'repro_service_add_seconds{quantile="0.5"} 0.0004034593802066056\n'
            'repro_service_add_seconds{quantile="0.9"} 0.002039273448455959\n'
            'repro_service_add_seconds{quantile="0.99"} 0.002039273448455959\n'
            "repro_service_add_seconds_count 2\n"
            "repro_service_add_seconds_sum 0.0023\n"
            "# HELP repro_service_request_seconds Per-request latency across"
            " all commands\n"
            "# TYPE repro_service_request_seconds summary\n"
            'repro_service_request_seconds{quantile="0.5"} 0.0012662283676946793\n'
            'repro_service_request_seconds{quantile="0.9"} 0.02673486306413771\n'
            'repro_service_request_seconds{quantile="0.99"} 0.02673486306413771\n'
            "repro_service_request_seconds_count 4\n"
            "repro_service_request_seconds_sum 0.0304\n"
        )


class TestLiveScrape:
    def test_http_scrapes_during_socket_churn(self):
        """Two HTTP scrapers of ``/metrics`` while a client churns over
        the command socket.  Every scrape parses strictly; the request
        counter and the request histogram's count never fall for one
        scraper and agree within each scrape (the core updates both
        under its lock, and the scrape reads them under it); the final
        scrape counts every request sent."""
        counter = "repro_service_requests_total"
        count = "repro_service_request_seconds_count"
        with ServiceServer(ServiceConfig(port=0, metrics_port=0)) as srv:
            url = f"http://127.0.0.1:{srv.metrics_port}/metrics"

            def scrape():
                with urllib.request.urlopen(url, timeout=10) as response:
                    _, samples = parse_exposition(response.read().decode("utf-8"))
                by_name = {name: value for name, _, value in samples}
                return by_name.get(counter, 0), by_name.get(count, 0)

            seen = {0: [], 1: []}
            failures = []
            stop = threading.Event()

            def scraper(key):
                while not stop.is_set():
                    try:
                        seen[key].append(scrape())
                    except Exception as exc:  # any failure fails the test
                        failures.append(exc)
                        return

            threads = [threading.Thread(target=scraper, args=(k,)) for k in seen]
            sent = 0
            try:
                for thread in threads:
                    thread.start()
                with ServiceClient(port=srv.port) as client:
                    for tid in range(1, 151):
                        client.call(
                            "add",
                            transaction=f"R[o{tid % 5}] W[p{tid % 3}]",
                            tid=tid,
                        )
                        sent += 1
                        if tid > 6:
                            client.call("remove", tid=tid - 6)
                            sent += 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            final = scrape()
        assert not failures, failures
        for pairs in seen.values():
            assert len(pairs) >= 2
            assert all(requests == timed for requests, timed in pairs)
            assert pairs == sorted(pairs)
        assert final == (sent, sent)
