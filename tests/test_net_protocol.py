"""Wire-protocol tests: frame/payload roundtrips and the malformed-input
edge cases the issue pins down — truncated frame, oversized length
prefix, unknown version byte, empty pair batch, bad magic — plus the
strict-JSON scrubber used by the HTTP fallback, deadline (v3) frames,
and hypothesis fuzzing of the decoder (random, truncated, and
bit-flipped streams must yield a typed error or a clean close, never an
uncaught exception or a hang)."""

from __future__ import annotations

import asyncio
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    ERR_BAD_FRAME,
    ERR_UNSUPPORTED_VERSION,
    FLAG_DEADLINE,
    FLAG_TRACE,
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_VERSION,
    Frame,
    ProtocolError,
    encode_frame,
    jsonable,
    pack_error,
    pack_request,
    pack_request_columns,
    pack_response,
    read_frame,
    unpack_error,
    unpack_request,
    unpack_response,
)


def feed(*chunks: bytes) -> asyncio.StreamReader:
    """A StreamReader pre-loaded with bytes and EOF."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


def read_one(data: bytes):
    async def drive():
        return await read_frame(feed(data))

    return asyncio.run(drive())


class TestRoundtrips:
    def test_request_roundtrip(self):
        pairs = [(0, 5), (3, 3), (7, 1)]
        payload = pack_request(pairs, 2.5, 1.0, "dense")
        request = unpack_request(payload, req_id=9)
        assert request.u.tolist() == [0, 3, 7]
        assert request.v.tolist() == [5, 3, 1]
        assert request.multiplicative == 2.5
        assert request.additive == 1.0
        assert request.artifact == "dense"
        assert len(request) == 3

    def test_request_accepts_arrays_and_infinite_budget(self):
        u = np.arange(10, dtype=np.int32)
        v = np.arange(10, dtype=np.int32)[::-1].copy()
        payload = pack_request(np.stack([u, v], axis=1), math.inf, math.inf, "")
        request = unpack_request(payload, req_id=1)
        assert request.u.tolist() == u.tolist()
        assert request.multiplicative == math.inf

    def test_column_packer_writes_the_same_bytes(self):
        u = np.asarray([0, 3, 7, 7], dtype=np.int64)
        v = np.asarray([5, 3, 1, 1], dtype=np.int64)
        for columns in ((u, v), (u.astype("<i4"), v.astype("<i4")),
                        (u[::2], v[::2]), (u[:0], v[:0])):
            pairs = np.stack(columns, axis=1)
            assert pack_request_columns(*columns, 2.5, 1.0, "dense") \
                == pack_request(pairs, 2.5, 1.0, "dense")
        # A decoded request's own columns go back out as they came in.
        payload = pack_request(np.stack([u, v], axis=1), 2.5, 1.0, "dense")
        request = unpack_request(payload)
        assert pack_request_columns(request.u, request.v, 2.5, 1.0,
                                    "dense") == payload
        with pytest.raises(ValueError):
            pack_request_columns(u, v[:2])
        with pytest.raises(ValueError):
            pack_request_columns(np.stack([u, v]), np.stack([u, v]))

    def test_empty_pair_batch_roundtrips(self):
        request = unpack_request(pack_request([], 1.0, 0.0, ""), req_id=2)
        assert len(request) == 0
        values = unpack_response(pack_response(np.zeros(0)), req_id=2)
        assert values.size == 0

    def test_response_roundtrip_preserves_inf(self):
        values = np.asarray([1.5, math.inf, 0.0])
        out = unpack_response(pack_response(values), req_id=3)
        assert out.tolist()[0] == 1.5
        assert math.isinf(out[1])

    def test_error_roundtrip(self):
        error = unpack_error(pack_error(ERR_BAD_FRAME, "boom"), req_id=4)
        assert error.code == ERR_BAD_FRAME
        assert error.req_id == 4
        assert "boom" in str(error)
        assert error.code_name == "bad-frame"

    def test_frame_roundtrip_through_reader(self):
        payload = pack_request([(1, 2)], math.inf, math.inf, "")
        ftype, req_id, got = read_one(encode_frame(MSG_REQUEST, 77, payload))
        assert (ftype, req_id) == (MSG_REQUEST, 77)
        assert got == payload

    def test_clean_eof_returns_none(self):
        assert read_one(b"") is None


class TestTracedFrames:
    def test_untraced_encode_is_byte_identical_to_version_1(self):
        payload = pack_request([(1, 2)], math.inf, math.inf, "")
        frame = encode_frame(MSG_REQUEST, 5, payload)
        magic, version, ftype, flags, req_id, length = HEADER.unpack(
            frame[:HEADER.size])
        assert (magic, version, flags) == (MAGIC, PROTOCOL_VERSION, 0)
        assert frame[HEADER.size:] == payload

    def test_traced_frame_roundtrips_blob_and_payload(self):
        payload = pack_request([(1, 2), (3, 4)], 2.0, 1.0, "dense")
        blob = b'{"id":"deadbeefdeadbeef"}'
        encoded = encode_frame(MSG_REQUEST, 11, payload, trace=blob)
        _, version, _, flags, _, _ = HEADER.unpack(encoded[:HEADER.size])
        assert (version, flags) == (PROTOCOL_VERSION, FLAG_TRACE)
        frame = read_one(encoded)
        ftype, req_id, got = frame  # 3-tuple unpack still works
        assert (ftype, req_id) == (MSG_REQUEST, 11)
        assert got == payload
        assert frame.trace == blob

    def test_plain_frame_has_none_trace_attribute(self):
        frame = read_one(encode_frame(MSG_REQUEST, 1, b""))
        assert isinstance(frame, Frame)
        assert frame.trace is None

    def test_truncated_trace_blob_raises(self):
        blob = b'{"id":"deadbeefdeadbeef"}'
        encoded = bytearray(encode_frame(MSG_REQUEST, 3, b"", trace=blob))
        # Advertise more trace bytes than the frame carries.
        offset = HEADER.size
        encoded[offset:offset + 2] = struct.pack("!H", len(blob) + 10)
        with pytest.raises(ProtocolError) as excinfo:
            read_one(bytes(encoded))
        assert excinfo.value.code == ERR_BAD_FRAME

    def test_oversized_trace_blob_rejected_by_encoder(self):
        with pytest.raises(ProtocolError) as excinfo:
            encode_frame(MSG_REQUEST, 1, b"", trace=b"x" * 0x10000)
        assert excinfo.value.code == ERR_BAD_FRAME

    def test_version_2_flag_without_blob_yields_plain_payload(self):
        # The flags alone say which sections ride along: with FLAG_TRACE
        # clear the payload is read as it is, whatever it starts with ...
        payload = struct.pack("!H", 1) + b"abc"
        frame = read_one(HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_REQUEST,
                                     0, 9, len(payload)) + payload)
        assert frame.trace is None
        assert frame[2] == payload
        # ... and the version byte 2 that traced frames used to be stamped
        # with is no longer a version this build reads.
        with pytest.raises(ProtocolError) as excinfo:
            read_one(HEADER.pack(MAGIC, 2, MSG_REQUEST, 0, 9, len(payload))
                     + payload)
        assert excinfo.value.code == ERR_UNSUPPORTED_VERSION


class TestDeadlineFrames:
    def test_deadline_frame_roundtrips_budget(self):
        payload = pack_request([(1, 2)], math.inf, math.inf, "")
        encoded = encode_frame(MSG_REQUEST, 8, payload, deadline=1.25)
        _, version, _, flags, _, _ = HEADER.unpack(encoded[:HEADER.size])
        assert (version, flags) == (PROTOCOL_VERSION, FLAG_DEADLINE)
        frame = read_one(encoded)
        assert frame.deadline == pytest.approx(1.25)
        assert frame[2] == payload

    def test_deadline_and_trace_coexist(self):
        blob = b'{"id":"deadbeefdeadbeef"}'
        encoded = encode_frame(MSG_REQUEST, 9, b"xy", trace=blob,
                               deadline=0.5)
        _, version, _, flags, _, _ = HEADER.unpack(encoded[:HEADER.size])
        assert (version, flags) == (PROTOCOL_VERSION,
                                    FLAG_DEADLINE | FLAG_TRACE)
        frame = read_one(encoded)
        assert frame.trace == blob
        assert frame.deadline == pytest.approx(0.5)
        assert frame[2] == b"xy"

    def test_plain_frame_has_none_deadline(self):
        frame = read_one(encode_frame(MSG_REQUEST, 1, b""))
        assert frame.deadline is None

    def test_undeadlined_encode_is_byte_identical_to_version_1(self):
        payload = pack_request([(4, 5)], math.inf, math.inf, "")
        frame = encode_frame(MSG_REQUEST, 5, payload)
        assert frame[4] == PROTOCOL_VERSION

    def test_truncated_deadline_field_raises(self):
        encoded = bytearray(encode_frame(MSG_REQUEST, 3, b"", deadline=2.0))
        # Lie about the payload length so the 8-byte budget is cut short.
        magic, version, ftype, flags, req_id, length = HEADER.unpack(
            bytes(encoded[:HEADER.size]))
        truncated = HEADER.pack(magic, version, ftype, flags, req_id, 4) \
            + bytes(encoded[HEADER.size:HEADER.size + 4])
        with pytest.raises(ProtocolError) as excinfo:
            read_one(truncated)
        assert excinfo.value.code == ERR_BAD_FRAME


class TestMalformedFrames:
    def test_truncated_header_raises(self):
        frame = encode_frame(MSG_REQUEST, 1, b"x" * 10)
        with pytest.raises(ProtocolError) as excinfo:
            read_one(frame[: HEADER.size - 3])
        assert excinfo.value.code == ERR_BAD_FRAME

    def test_truncated_payload_raises(self):
        frame = encode_frame(MSG_REQUEST, 1, b"x" * 64)
        with pytest.raises(ProtocolError) as excinfo:
            read_one(frame[:-20])
        assert excinfo.value.code == ERR_BAD_FRAME

    def test_bad_magic_raises(self):
        frame = bytearray(encode_frame(MSG_REQUEST, 1, b""))
        frame[:4] = b"HTTP"
        with pytest.raises(ProtocolError) as excinfo:
            read_one(bytes(frame))
        assert excinfo.value.code == ERR_BAD_FRAME

    def test_unknown_version_byte_raises(self):
        # There is one version; every other byte is refused, flags or not.
        for flagged in ({}, {"trace": b"{}", "deadline": 1.0}):
            for version in (0, 2, 3, 4, 255):
                frame = bytearray(encode_frame(MSG_REQUEST, 7, b"", **flagged))
                assert frame[4] == PROTOCOL_VERSION
                frame[4] = version
                with pytest.raises(ProtocolError) as excinfo:
                    read_one(bytes(frame))
                assert excinfo.value.code == ERR_UNSUPPORTED_VERSION
                assert excinfo.value.req_id == 7

    def test_oversized_length_prefix_raises_before_reading_payload(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_REQUEST, 0, 1,
                             MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError) as excinfo:
            read_one(header)
        assert excinfo.value.code == ERR_BAD_FRAME
        assert "payload" in str(excinfo.value)

    def test_oversized_frame_rejected_by_encoder(self):
        with pytest.raises(ProtocolError):
            encode_frame(MSG_RESPONSE, 1, b"x" * (MAX_PAYLOAD + 1))


class TestMalformedPayloads:
    def test_request_shorter_than_head_raises(self):
        with pytest.raises(ProtocolError):
            unpack_request(b"ab", req_id=1)

    def test_request_with_wrong_array_length_raises(self):
        payload = bytearray(pack_request([(1, 2), (3, 4)], 1.0, 0.0, ""))
        with pytest.raises(ProtocolError):
            unpack_request(bytes(payload[:-4]), req_id=1)

    def test_request_with_lying_hint_length_raises(self):
        payload = bytearray(pack_request([(1, 2)], 1.0, 0.0, "abc"))
        # Corrupt the hint length beyond the payload end.
        head = struct.Struct("!ddHI")
        mult, add, _hint_len, count = head.unpack_from(payload)
        head.pack_into(payload, 0, mult, add, 60000, count)
        with pytest.raises(ProtocolError):
            unpack_request(bytes(payload), req_id=1)

    def test_response_with_wrong_count_raises(self):
        payload = bytearray(pack_response(np.asarray([1.0, 2.0])))
        with pytest.raises(ProtocolError):
            unpack_response(bytes(payload[:-8]), req_id=1)


class TestPipelining:
    def test_multiple_frames_in_one_stream(self):
        data = b"".join(encode_frame(MSG_REQUEST, req_id,
                                     pack_request([(req_id, 0)], 1.0, 0.0, ""))
                        for req_id in (1, 2, 3))

        async def drive():
            reader = feed(data)
            seen = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return seen
                seen.append(frame[1])

        assert asyncio.run(drive()) == [1, 2, 3]

    def test_preread_bytes_are_consumed_first(self):
        frame = encode_frame(MSG_REQUEST, 5, b"")

        async def drive():
            reader = feed(frame[4:])
            return await read_frame(reader, preread=frame[:4])

        ftype, req_id, payload = asyncio.run(drive())
        assert (ftype, req_id, payload) == (MSG_REQUEST, 5, b"")


class TestFuzz:
    """Property-based decoder fuzzing: no input may crash or hang.

    The contract under fuzz is exactly three outcomes — a Frame, a clean
    ``None`` close, or :class:`ProtocolError` — for *any* byte stream.
    Anything else escaping (KeyError, struct.error, UnicodeDecodeError,
    OverflowError...) would kill a worker's read loop in production.
    """

    @staticmethod
    def decode(data: bytes):
        try:
            return read_one(data)
        except ProtocolError:
            return "protocol-error"

    @given(st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_random_streams_never_escape_typed_errors(self, data):
        self.decode(data)  # reaching past this line is the assertion

    @given(st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_with_valid_magic_never_escape(self, tail):
        self.decode(MAGIC + tail)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_valid_frames_never_escape(self, data):
        payload = pack_request([(1, 2), (3, 4)], 2.0, 1.0, "dense")
        frame = encode_frame(MSG_REQUEST, 7, payload, trace=b'{"id":"ab"}',
                             deadline=1.5)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        result = self.decode(frame[:cut])
        if cut == 0:
            assert result is None  # clean EOF, not an error
        elif cut < len(frame):
            assert result in (None, "protocol-error")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flipped_frames_never_escape(self, data):
        payload = pack_request([(0, 9)], math.inf, math.inf, "x")
        frame = bytearray(encode_frame(MSG_REQUEST, 3, payload,
                                       deadline=0.25))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[position] ^= 1 << bit
        self.decode(bytes(frame))

    @given(st.binary(max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_unpack_request_raises_only_protocol_error(self, payload):
        try:
            unpack_request(payload, req_id=1)
        except ProtocolError:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=100, deadline=None)
    def test_unpack_response_raises_only_protocol_error(self, payload):
        try:
            unpack_response(payload, req_id=1)
        except ProtocolError:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=100, deadline=None)
    def test_unpack_error_raises_only_protocol_error(self, payload):
        try:
            unpack_error(payload, req_id=1)
        except ProtocolError:
            pass


class TestJsonable:
    def test_scrubs_numpy_and_nonfinite(self):
        doc = jsonable({"a": np.float64(1.5), "b": math.inf,
                        "c": (np.int32(2), [float("nan")])})
        assert doc["a"] == 1.5
        assert doc["b"] == "inf"
        assert doc["c"] == [2, ["nan"]]
