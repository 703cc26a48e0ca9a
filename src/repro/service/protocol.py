"""The ``repro serve`` wire protocol: line-delimited JSON envelopes.

One request per line, one response per line, UTF-8, over TCP or a unix
stream socket.  A request is a JSON object with an ``op`` field naming
the command and optional per-command parameters; an optional ``id`` (any
JSON scalar) is echoed verbatim on the response so pipelined clients can
match replies.  Responses always carry ``ok`` (boolean), the echoed
``op``/``id``, and either the command payload or an ``error`` object::

    -> {"op": "add", "id": 7, "transaction": "R[x] W[y]", "tid": 12}
    <- {"ok": true, "op": "add", "id": 7, "admitted": true, ...}

    -> {"op": "nope"}
    <- {"ok": false, "op": "nope", "id": null,
        "error": {"code": "unknown-op", "message": "..."}}

The envelope set, field semantics and every response schema are
documented operator-facing in ``docs/service.md``; this module is the
single source of truth for command names and required fields, so the
daemon, the client and the docs cannot drift apart silently (the
protocol test suite cross-checks them).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "COMMANDS",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "error_response",
    "ok_response",
    "parse_request",
    "validate_envelope",
]

#: Version of the command envelope.  Bump on incompatible changes;
#: ``hello`` reports it so clients can refuse to talk to a stranger.
#: Version 2: ``batch`` takes ``commands`` only.  Version 3: the
#: ``metrics`` response drops ``timers``; ``histograms`` carries every
#: latency summary.  Version 4: a single ``add`` or ``remove`` answers
#: with ``changed``, the levels it changed, instead of the whole
#: ``allocation``.
PROTOCOL_VERSION = 4

#: The longest request line the daemon reads, newline included.  A
#: longer line gets one ``too-large`` error and its connection closes:
#: the rest of the line cannot be framed.
MAX_LINE_BYTES = 1 << 20

#: Error codes carried by ``error.code``:
#:
#: * ``bad-request`` — unparsable line, missing/invalid fields;
#: * ``unknown-op`` — ``op`` names no command;
#: * ``conflict`` — the mutation is impossible (duplicate tid, ...);
#: * ``not-found`` — the named transaction/path does not exist;
#: * ``snapshot-error`` — snapshot file missing, corrupt or incompatible,
#:   or one that cannot be written;
#: * ``too-large`` — the request line exceeds :data:`MAX_LINE_BYTES`;
#: * ``internal`` — unexpected server-side failure (bug; check the logs).
ERROR_CODES = (
    "bad-request",
    "unknown-op",
    "conflict",
    "not-found",
    "snapshot-error",
    "too-large",
    "internal",
)

#: command name -> (required fields, optional fields).  Unknown fields
#: are rejected (typos should fail loudly, not be ignored), except the
#: envelope-level ``op`` and ``id`` which every command carries.
COMMANDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "hello": ((), ()),
    "status": ((), ()),
    "add": (("transaction",), ("tid",)),
    "remove": (("tid",), ()),
    "check": ((), ("allocation", "uniform")),
    "allocate": ((), ()),
    "batch": (("commands",), ()),
    "snapshot": ((), ("path",)),
    "restore": ((), ("path", "verify")),
    "metrics": ((), ()),
    "stats": ((), ()),
    "dump-traces": ((), ("last", "slowest")),
    "shutdown": ((), ()),
}


class ProtocolError(ValueError):
    """A malformed request line or envelope.

    Attributes:
        code: the ``error.code`` the response should carry.
    """

    def __init__(self, message: str, code: str = "bad-request"):
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code


def parse_request(line: str) -> Dict[str, Any]:
    """Parse and validate one request line into an envelope dict.

    Raises:
        ProtocolError: on non-JSON input (JSON nested deeper than the
            decoder's recursion limit included), a non-object envelope,
            or anything :func:`validate_envelope` refuses.
    """
    try:
        envelope = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError("request must be a JSON object")
    return validate_envelope(envelope)


def validate_envelope(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Check an envelope object's ``op`` and field names; returns it.

    The line-independent half of :func:`parse_request`, also applied to
    every entry of a ``batch``.

    Raises:
        ProtocolError: on a missing/unknown ``op``, or missing/unexpected
            fields for the named command.
    """
    op = envelope.get("op")
    if not isinstance(op, str):
        raise ProtocolError('request misses the "op" field')
    if op not in COMMANDS:
        raise ProtocolError(f"unknown command {op!r}", code="unknown-op")
    required, optional = COMMANDS[op]
    fields = set(envelope) - {"op", "id"}
    missing = [name for name in required if name not in fields]
    if missing:
        raise ProtocolError(f"command {op!r} requires field(s) {missing}")
    unexpected = sorted(fields - set(required) - set(optional))
    if unexpected:
        raise ProtocolError(
            f"command {op!r} does not accept field(s) {unexpected}"
        )
    return envelope


def ok_response(
    envelope: Optional[Mapping[str, Any]], **payload: Any
) -> Dict[str, Any]:
    """A success response echoing the request's ``op`` and ``id``."""
    envelope = envelope or {}
    return {
        "ok": True,
        "op": envelope.get("op"),
        "id": envelope.get("id"),
        **payload,
    }


def error_response(
    envelope: Optional[Mapping[str, Any]],
    code: str,
    message: str,
) -> Dict[str, Any]:
    """An error response echoing the request's ``op`` and ``id``."""
    assert code in ERROR_CODES, code
    envelope = envelope or {}
    return {
        "ok": False,
        "op": envelope.get("op"),
        "id": envelope.get("id"),
        "error": {"code": code, "message": message},
    }


def encode_response(response: Mapping[str, Any]) -> bytes:
    """One response as a wire line (compact JSON + newline, UTF-8)."""
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")
