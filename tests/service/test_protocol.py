"""The wire protocol: parsing, validation, response envelopes."""

import json

import pytest

from repro.service.protocol import (
    COMMANDS,
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)


class TestParseRequest:
    def test_minimal_command(self):
        assert parse_request('{"op": "status"}') == {"op": "status"}

    def test_id_is_preserved(self):
        envelope = parse_request('{"op": "hello", "id": 42}')
        assert envelope["id"] == 42

    def test_fields_pass_through(self):
        envelope = parse_request(
            '{"op": "add", "transaction": "R[x]", "tid": 3}'
        )
        assert envelope["transaction"] == "R[x]"
        assert envelope["tid"] == 3

    def test_not_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("definitely not json")
        assert excinfo.value.code == "bad-request"

    def test_too_deeply_nested(self):
        # Deeper than the decoder's recursion limit, under the line cap.
        line = '{"op": "status", "id": ' + "[" * 200_000 + "]" * 200_000 + "}"
        with pytest.raises(ProtocolError, match="not valid JSON") as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad-request"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError):
            parse_request('["op", "status"]')

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"id": 1}')
        assert "op" in str(excinfo.value)

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "frobnicate"}')
        assert excinfo.value.code == "unknown-op"

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "add"}')
        assert "transaction" in str(excinfo.value)

    def test_unexpected_field_rejected(self):
        """Typos fail loudly instead of being silently ignored."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "status", "transcation": "R[x]"}')
        assert "transcation" in str(excinfo.value)

    @pytest.mark.parametrize("op", sorted(COMMANDS))
    def test_every_command_parses_with_required_fields(self, op):
        required, _optional = COMMANDS[op]
        envelope = {"op": op}
        for field in required:
            envelope[field] = "placeholder"
        assert parse_request(json.dumps(envelope))["op"] == op


class TestResponses:
    def test_ok_echoes_op_and_id(self):
        response = ok_response({"op": "check", "id": "abc"}, robust=True)
        assert response == {
            "ok": True,
            "op": "check",
            "id": "abc",
            "robust": True,
        }

    def test_error_shape(self):
        response = error_response({"op": "add", "id": 1}, "conflict", "dup")
        assert response["ok"] is False
        assert response["error"] == {"code": "conflict", "message": "dup"}

    def test_error_without_envelope(self):
        response = error_response(None, "bad-request", "no json")
        assert response["op"] is None and response["id"] is None

    def test_encode_is_one_line(self):
        wire = encode_response(ok_response({"op": "status"}, shards=2))
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1
        assert json.loads(wire.decode("utf-8"))["shards"] == 2

    def test_error_codes_are_closed(self):
        """ProtocolError refuses codes outside the documented set."""
        assert "bad-request" in ERROR_CODES
        with pytest.raises(AssertionError):
            ProtocolError("x", code="not-a-code")


def test_protocol_version_is_four():
    assert PROTOCOL_VERSION == 4
