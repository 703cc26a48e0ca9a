"""The socket layer of ``repro serve``.

A :class:`ServiceServer` binds up to three listeners around one
:class:`~repro.service.core.ServiceCore`:

* a TCP command port speaking the line protocol of
  :mod:`repro.service.protocol` (``port=0`` picks an ephemeral port;
  ``port_file`` publishes the bound one for scripts);
* optionally a unix stream socket speaking the same protocol
  (``--socket``), for local clients that want filesystem permissions
  instead of a port;
* optionally an HTTP metrics port (``--metrics-port``) serving
  ``GET /metrics`` (prometheus text, via
  :func:`~repro.observability.prometheus_text`) and ``/metrics.json``
  (the raw registry plus gauges) — the ``start_metrics_server`` idiom;
  both read :meth:`~repro.service.core.ServiceCore.metrics_snapshot`,
  which takes the core lock.

Connection threads only frame lines; every envelope funnels into
``core.handle_line``, which serializes execution under the core lock
(the manager — and the tracer's span stack — are single-writer
structures).  A line longer than
:data:`~repro.service.protocol.MAX_LINE_BYTES` is never buffered whole:
it gets one ``too-large`` error and its connection closes.  A
``shutdown`` envelope flips ``core.stopping``; the handler that
observed it kicks off an orderly stop of all listeners after flushing
its response.
"""

from __future__ import annotations

import http.server
import json
import os
import socketserver
import threading
from pathlib import Path
from typing import Any, List, Optional

from ..observability import prometheus_text
from .core import ServiceConfig, ServiceCore
from .protocol import MAX_LINE_BYTES, ProtocolError, encode_response

__all__ = ["METRIC_HELP", "ServiceServer", "serve"]

#: HELP strings for the exported metric families (keyed by raw name;
#: :func:`~repro.observability.prometheus_text` escapes them).
METRIC_HELP = {
    "service.request": "Per-request latency across all commands",
    "service.requests": "Request lines answered since startup",
    "service.errors": "Requests that returned an error envelope",
    "service.snapshot_write": "Duration of each snapshot file write",
    "service.snapshot_errors": "Snapshot writes that failed",
    "queue_depth": "Transactions parked by queue-mode admission control",
    "transactions": "Transactions currently admitted",
    "shards": "Conflict components of the live workload",
    "rate_requests_per_s": "Requests per second over the trailing windows",
    "rate_mutations_per_s": "Mutations per second over the trailing windows",
    "rate_checks_per_s": "Robustness checks per second over the trailing windows",
    "rate_errors_per_s": "Error responses per second over the trailing windows",
    "rate_rejections_per_s": "Admission rejections per second over the trailing windows",
    "slo_p99_breached": "1 while the streaming p99 exceeds --slo-p99-ms",
}


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    def handle(self) -> None:
        owner: "ServiceServer" = self.server.owner  # type: ignore[attr-defined]
        core = owner.core
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return
            too_large = len(raw) > MAX_LINE_BYTES
            if too_large:
                response = core.reject(
                    ProtocolError(
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                        code="too-large",
                    )
                )
            else:
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    # Framed, so the connection stays usable; nothing runs.
                    response = core.reject(
                        ProtocolError(f"request line is not UTF-8: {exc}")
                    )
                else:
                    if not line:
                        continue
                    response = core.handle_line(line)
            try:
                self.wfile.write(encode_response(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if too_large:
                return  # the rest of the line cannot be framed
            if core.stopping:
                owner.request_stop()
                return


class _CommandTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "ServiceServer"


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _CommandUnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True
        owner: "ServiceServer"

else:  # pragma: no cover - platforms without unix sockets
    _CommandUnixServer = None  # type: ignore[assignment]


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    """``GET /metrics`` (prometheus text) and ``GET /metrics.json``."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "ServiceServer" = self.server.owner  # type: ignore[attr-defined]
        path = self.path.split("?")[0]
        if path not in ("/metrics", "/metrics.json"):
            self.send_error(404, "try /metrics or /metrics.json")
            return
        gauges, registry = owner.core.metrics_snapshot()
        if path == "/metrics":
            body = prometheus_text(registry, gauges, helps=METRIC_HELP).encode(
                "utf-8"
            )
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            payload = {"gauges": gauges, **registry.as_dict()}
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            ctype = "application/json"
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: Any) -> None:  # silence per-request stderr
        pass


class _MetricsServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "ServiceServer"


class ServiceServer:
    """The bound listeners around one core; start/wait/close lifecycle.

    Examples:
        >>> server = ServiceServer(ServiceConfig(port=0))
        >>> server.start()
        >>> isinstance(server.port, int) and server.port > 0
        True
        >>> server.close()
    """

    def __init__(self, config: ServiceConfig, core: Optional[ServiceCore] = None):
        self.config = config
        self.core = core if core is not None else ServiceCore(config)
        self._tcp = _CommandTCPServer(
            (config.host, config.port), _LineHandler, bind_and_activate=True
        )
        self._tcp.owner = self
        self._servers: List[socketserver.BaseServer] = [self._tcp]
        self._unix = None
        if config.socket_path:
            if _CommandUnixServer is None:  # pragma: no cover
                raise OSError("unix sockets are not supported on this platform")
            sock = Path(config.socket_path)
            if sock.exists():
                sock.unlink()  # a stale socket from a dead daemon
            self._unix = _CommandUnixServer(str(sock), _LineHandler)
            self._unix.owner = self
            self._servers.append(self._unix)
        self._metrics = None
        if config.metrics_port is not None:
            self._metrics = _MetricsServer(
                (config.host, config.metrics_port), _MetricsHandler
            )
            self._metrics.owner = self
            self._servers.append(self._metrics)
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        if config.port_file:
            Path(config.port_file).write_text(f"{self.port}\n", encoding="utf-8")

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP command port (resolves ``port=0``)."""
        return self._tcp.server_address[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound metrics HTTP port, if metrics are enabled."""
        if self._metrics is None:
            return None
        return self._metrics.server_address[1]

    def start(self) -> None:
        """Start serving on background threads; returns immediately."""
        for server in self._servers:
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def request_stop(self) -> None:
        """Begin an orderly stop (idempotent; returns immediately)."""
        threading.Thread(target=self.close, daemon=True).start()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has stopped; True if it did."""
        return self._stopped.wait(timeout)

    def close(self) -> None:
        """Stop all listeners, log the ``stop`` event, close the core
        (its snapshot writer and event log) and release sockets/files
        (idempotent)."""
        if self._stopped.is_set():
            return
        for server in self._servers:
            server.shutdown()
            server.server_close()
        self.core.events.emit("stop", transactions=len(self.core.manager.live))
        self.core.close()
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        if self.config.port_file:
            try:
                os.unlink(self.config.port_file)
            except OSError:
                pass
        self._stopped.set()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def serve(config: ServiceConfig) -> ServiceCore:
    """Run a daemon until ``shutdown`` (or Ctrl-C); returns the core.

    The blocking entry point behind ``repro serve``: builds the server
    (resuming from the snapshot path when one exists), prints the bound
    endpoints, and waits.
    """
    server = ServiceServer(config)
    endpoints = [f"tcp {config.host}:{server.port}"]
    if config.socket_path:
        endpoints.append(f"unix {config.socket_path}")
    if server.metrics_port is not None:
        endpoints.append(f"http://{config.host}:{server.metrics_port}/metrics")
    print(f"repro serve: listening on {', '.join(endpoints)}")
    if config.eventlog_path:
        print(f"repro serve: event log at {config.eventlog_path}")
    server.core.events.emit(
        "start",
        port=server.port,
        transactions=len(server.core.manager.live),
        pid=os.getpid(),
    )
    if config.snapshot_path:
        print(
            f"repro serve: snapshot path {config.snapshot_path}"
            f" ({len(server.core.manager.live)} transactions resumed)"
        )
    server.start()
    try:
        while not server.wait(0.2):
            pass
    except KeyboardInterrupt:
        print("repro serve: interrupted; stopping")
        server.close()
    server.core.close()
    return server.core
