"""The socket layer: TCP/unix line protocol, metrics HTTP, lifecycle."""

import json
import socket
import sys
import threading
import time
import urllib.request

import pytest

from repro.observability import prometheus_text
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.client import ServiceError
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.snapshot import WRITER_THREAD, read_snapshot


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(port=0, snapshot_path=str(tmp_path / "snap.json"))
    with ServiceServer(config) as srv:
        yield srv
    # __exit__ closed it; wait() returns immediately afterwards
    assert srv.wait(1)


class TestTCP:
    def test_hello_over_tcp(self, server):
        with ServiceClient(port=server.port) as client:
            response = client.call("hello")
        assert response["server"] == "repro-serve"

    def test_request_ids_echoed(self, server):
        with ServiceClient(port=server.port) as client:
            first = client.request("status")
            second = client.request("status")
        assert second["id"] == first["id"] + 1

    def test_call_raises_on_error(self, server):
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("remove", tid=404)
        assert excinfo.value.code == "not-found"

    def test_two_clients_share_state(self, server):
        with ServiceClient(port=server.port) as one:
            one.call("add", transaction="R[x] W[y]", tid=1)
        with ServiceClient(port=server.port) as two:
            assert two.call("allocate")["allocation"] == {"1": "RC"}

    def test_malformed_line_keeps_connection_alive(self, server):
        with ServiceClient(port=server.port) as client:
            client._file.write(b"garbage\n")
            client._file.flush()
            error = json.loads(client._file.readline().decode("utf-8"))
            assert error["error"]["code"] == "bad-request"
            assert client.call("status")["ok"]

    def test_port_file(self, tmp_path):
        port_file = tmp_path / "port.txt"
        config = ServiceConfig(port=0, port_file=str(port_file))
        with ServiceServer(config) as srv:
            assert int(port_file.read_text().strip()) == srv.port
        assert not port_file.exists()  # cleaned up on close


class TestLineBound:
    """Request lines are read at most ``MAX_LINE_BYTES`` at a time."""

    def test_over_long_line_gets_too_large_then_eof(self, server):
        with ServiceClient(port=server.port) as client:
            client._file.write(b"x" * MAX_LINE_BYTES + b"\n")
            client._file.flush()
            error = json.loads(client._file.readline().decode("utf-8"))
            assert error["ok"] is False
            assert error["error"]["code"] == "too-large"
            assert client._file.readline() == b""  # the server closed it
        assert server.core.registry.counters["service.errors"] == 1

    def test_daemon_keeps_serving_after_too_large(self, server):
        with ServiceClient(port=server.port) as client:
            client._file.write(b"{" * (MAX_LINE_BYTES + 1))
            client._file.flush()
            error = json.loads(client._file.readline().decode("utf-8"))
            assert error["error"]["code"] == "too-large"
        with ServiceClient(port=server.port) as client:
            assert client.call("hello")["server"] == "repro-serve"

    def test_line_of_exactly_the_bound_is_answered(self, server):
        envelope = b'{"op": "hello", "id": 1}'
        line = envelope + b" " * (MAX_LINE_BYTES - len(envelope) - 1) + b"\n"
        assert len(line) == MAX_LINE_BYTES
        with ServiceClient(port=server.port) as client:
            client._file.write(line)
            client._file.flush()
            response = json.loads(client._file.readline().decode("utf-8"))
            assert response["ok"] and response["id"] == 1
            assert client.call("status")["ok"]  # the connection stays open


def _wait_for_errors(server, count, timeout=5.0):
    """Wait until the daemon has counted ``count`` error responses."""
    deadline = time.monotonic() + timeout
    while server.core.registry.counters.get("service.errors", 0) < count:
        assert time.monotonic() < deadline, "the daemon never answered the line"
        time.sleep(0.01)


class TestHostileLines:
    """Undecodable, truncated and abandoned request lines (fault injection)."""

    def test_non_utf8_line_is_a_counted_bad_request(self, server):
        line = b'{"op": "add", "transaction": "R[x\xff] W[y]", "tid": 4}\n'
        with ServiceClient(port=server.port) as client:
            client._file.write(line)
            client._file.flush()
            error = json.loads(client._file.readline().decode("utf-8"))
            assert error["ok"] is False
            assert error["error"]["code"] == "bad-request"
            assert "not UTF-8" in error["error"]["message"]
            status = client.call("status")  # the connection stays open
        assert status["transactions"] == 0
        assert server.core.registry.counters["service.errors"] == 1

    def test_too_deeply_nested_line_is_a_counted_bad_request(self, server):
        # 400 kB, under the line cap; deeper than the JSON decoder recurses.
        nested = "[" * 200_000 + "]" * 200_000
        line = ('{"op": "status", "id": ' + nested + "}\n").encode("utf-8")
        with ServiceClient(port=server.port) as client:
            client._file.write(line)
            client._file.flush()
            error = json.loads(client._file.readline().decode("utf-8"))
            assert error["error"]["code"] == "bad-request", error
            status = client.call("status")  # the connection stays open
        assert status["transactions"] == 0
        assert server.core.registry.counters["service.errors"] == 1

    def test_truncated_final_line_gets_one_error_then_eof(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b'{"op": "add", "transaction": "R[x] W[y]"')
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as stream:
                lines = stream.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "bad-request"
        with ServiceClient(port=server.port) as client:
            assert client.call("status")["transactions"] == 0

    def test_disconnect_mid_batch_admits_nothing(self, server):
        batch = json.dumps(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                ],
            }
        ).encode("utf-8")
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(batch[: len(batch) // 2])
        _wait_for_errors(server, 1)
        with ServiceClient(port=server.port) as client:
            assert client.call("status")["transactions"] == 0
            assert client.call("add", transaction="R[x]", tid=3)["admitted"]


class TestUnixSocket:
    def test_same_protocol_over_unix(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        with ServiceServer(ServiceConfig(port=0, socket_path=sock)) as srv:
            with ServiceClient(socket_path=sock) as client:
                client.call("add", transaction="R[x]", tid=1)
            with ServiceClient(port=srv.port) as tcp_client:
                assert tcp_client.call("status")["transactions"] == 1


class TestMetricsHTTP:
    def test_prometheus_and_json_endpoints(self, tmp_path):
        config = ServiceConfig(port=0, metrics_port=0)
        with ServiceServer(config) as srv:
            with ServiceClient(port=srv.port) as client:
                client.call("add", transaction="R[x] W[y]", tid=1)
            base = f"http://127.0.0.1:{srv.metrics_port}"
            text = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "# TYPE repro_service_requests_total counter" in text
            assert "repro_transactions 1.0" in text
            doc = json.loads(
                urllib.request.urlopen(f"{base}/metrics.json").read().decode()
            )
            assert doc["counters"]["service.admitted"] == 1
            assert doc["gauges"]["transactions"] == 1.0
            assert set(doc) == {"counters", "gauges", "histograms"}

    def test_scrapes_during_churn_are_consistent(self):
        """Scrapes read a snapshot taken under the core lock: scrapers
        looping while the command thread churns never fail, and the
        request counter each one sees only grows."""
        config = ServiceConfig(port=0, metrics_port=0)
        with ServiceServer(config) as srv:
            seen = {0: [], 1: []}
            failures = []
            stop = threading.Event()

            def scrape(key):
                while not stop.is_set():
                    try:
                        gauges, registry = srv.core.metrics_snapshot()
                        prometheus_text(registry, gauges)
                        counters = registry.as_dict()["counters"]
                    except Exception as exc:  # any failure fails the test
                        failures.append(exc)
                        return
                    seen[key].append(counters.get("service.requests", 0))

            scrapers = [threading.Thread(target=scrape, args=(k,)) for k in seen]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for scraper in scrapers:
                    scraper.start()
                for tid in range(1, 401):
                    srv.core.handle(
                        {
                            "op": "add",
                            "transaction": f"R[o{tid % 5}] W[p{tid % 3}]",
                            "tid": tid,
                        }
                    )
                    if tid > 6:
                        srv.core.handle({"op": "remove", "tid": tid - 6})
            finally:
                stop.set()
                sys.setswitchinterval(interval)
                for scraper in scrapers:
                    scraper.join(timeout=30)
            assert not any(scraper.is_alive() for scraper in scrapers)
            base = f"http://127.0.0.1:{srv.metrics_port}"
            raw = urllib.request.urlopen(f"{base}/metrics.json").read()
            final = json.loads(raw)["counters"]["service.requests"]
        assert not failures, failures
        for values in seen.values():
            assert len(values) >= 2
            assert values == sorted(values) and values[-1] <= final == 794

    def test_unknown_path_404(self):
        with ServiceServer(ServiceConfig(port=0, metrics_port=0)) as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.metrics_port}/nope"
                )
            excinfo.value.close()  # the error holds the response's socket
            assert excinfo.value.code == 404


class TestLifecycle:
    def test_shutdown_command_stops_server(self, tmp_path):
        server = ServiceServer(ServiceConfig(port=0))
        server.start()
        with ServiceClient(port=server.port) as client:
            response = client.request("shutdown")
            assert response["ok"] and response["stopping"]
        assert server.wait(5), "server must stop after a shutdown envelope"

    def test_shutdown_writes_final_snapshot(self, tmp_path):
        snap = tmp_path / "final.json"
        server = ServiceServer(ServiceConfig(port=0, snapshot_path=str(snap)))
        server.start()
        with ServiceClient(port=server.port) as client:
            client.call("add", transaction="R[x]", tid=1)
            client.request("shutdown")
        assert server.wait(5)
        assert snap.exists()

    def test_restart_resumes_from_snapshot(self, tmp_path):
        """Kill/restore warm equivalence: the restored daemon carries the
        allocation and re-derives the same components — so the next
        mutation spends exactly the same checks as the uninterrupted one."""
        snap = str(tmp_path / "snap.json")
        with ServiceServer(ServiceConfig(port=0, snapshot_path=snap)) as first:
            with ServiceClient(port=first.port) as client:
                client.call("add", transaction="R[x] W[y]", tid=1)
                client.call("add", transaction="R[y] W[x]", tid=2)
                client.call("snapshot")
                before = client.call("status")
                # The uninterrupted side of the next-mutation probe.
                probe = client.call("add", transaction="R[x] W[x]", tid=3)
        with ServiceServer(ServiceConfig(port=0, snapshot_path=snap)) as second:
            with ServiceClient(port=second.port) as client:
                allocation = client.call("allocate")["allocation"]
                after = client.call("status")
                # Plan identity: the same shards, rebuilt from the
                # snapshot's workload.
                assert after["shard_sizes"] == before["shard_sizes"]
                resumed_probe = client.call(
                    "add", transaction="R[x] W[x]", tid=3
                )
        assert allocation == {"1": "SSI", "2": "SSI"}
        assert resumed_probe["checks"] == probe["checks"], (
            "a restored daemon must spend the same robustness checks on"
            " the next mutation as the uninterrupted one"
        )
        assert resumed_probe["level"] == probe["level"]

    def test_no_writer_thread_outlives_close(self, tmp_path):
        snap = tmp_path / "auto.json"

        def writers():
            return {t for t in threading.enumerate() if t.name == WRITER_THREAD}

        before = writers()
        server = ServiceServer(
            ServiceConfig(port=0, snapshot_path=str(snap), snapshot_every=1)
        )
        server.start()
        with ServiceClient(port=server.port) as client:
            client.call("add", transaction="R[x] W[y]", tid=1)
            client.call("add", transaction="R[y] W[x]", tid=2)
        started = writers() - before
        assert started, "an auto-snapshot starts the writer thread"
        server.close()
        assert not any(thread.is_alive() for thread in started)
        assert read_snapshot(snap)["allocation"] == {"1": "SSI", "2": "SSI"}

    def test_close_is_idempotent(self):
        server = ServiceServer(ServiceConfig(port=0))
        server.start()
        server.close()
        server.close()
