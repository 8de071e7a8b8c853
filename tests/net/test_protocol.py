"""Wire-format tests: round trips, and every way a frame can be bad."""

import io
import json
import random
import struct
import time

import pytest

from repro.net import protocol
from repro.net.protocol import (
    FRAME_ROWS, FRAME_TYPES, INLINE_ROWS, MAX_FRAME_BYTES, PROTOCOL_VERSION,
    ROWS_MARKER, ROWS_PER_FRAME, ConnectionClosed, ProtocolError,
    check_hello, encode_frame, hello_frame, read_frame,
)

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def roundtrip(frame):
    return read_frame(io.BytesIO(encode_frame(frame)))


def same_value(a, b):
    """Equal and of one exact type; floats by ``repr``, so ``-0.0``
    differs from ``0.0`` and ``nan`` equals ``nan``."""
    if type(a) is not type(b):
        return False
    return repr(a) == repr(b) if type(a) is float else a == b


def assert_rows_type_exact(got, want):
    assert type(got) is list and len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert type(got_row) is tuple and len(got_row) == len(want_row)
        for a, b in zip(got_row, want_row):
            assert same_value(a, b), (a, b)


def rows_head(wire):
    """The JSON head of one encoded ``rows`` frame."""
    assert wire[4] == ROWS_MARKER
    (length,) = struct.unpack(">I", wire[5:9])
    return json.loads(wire[9:9 + length])


def rows_frame(head, blobs=b""):
    """Wire bytes of a hand-built ``rows`` frame (head may be raw)."""
    if not isinstance(head, bytes):
        head = json.dumps(head).encode()
    payload = bytes([ROWS_MARKER]) + struct.pack(">I", len(head)) + head
    payload += blobs
    return struct.pack(">I", len(payload)) + payload


#: One column per wire case: name, values (cycled to the chunk's
#: length), and the kind it must travel as once blobs are allowed.
TYPED_COLUMNS = [
    ("int64", [INT64_MIN, INT64_MAX, 0, -1, 7], "q"),
    ("past_int64", [1, INT64_MAX + 1, INT64_MIN - 1, 2], list),
    ("float", [-0.0, float("nan"), float("inf"), float("-inf"),
               0.1 + 0.2, 5e-324], "d"),
    ("bool", [True, False], list),
    ("none", [None, 1, "x"], list),
    ("int_float", [1, 1.0, 2, 2.5], list),
    ("unicode", ["sélect", "☃", "", "a\"b"], list),
]


def typed_rows(n):
    return [
        tuple(values[i % len(values)] for _, values, _ in TYPED_COLUMNS)
        for i in range(n)
    ]


class TestRoundTrip:
    def test_v3_every_frame_type_round_trips(self):
        for frame_type in sorted(FRAME_TYPES):
            if frame_type == FRAME_ROWS:
                frame = {"type": frame_type, "id": 7,
                         "rows": [("x", 1, None)]}
            else:
                frame = {"type": frame_type, "id": 7,
                         "payload": ["x", 1, None]}
            out = roundtrip(frame)
            assert out == frame
            if frame_type == FRAME_ROWS:
                assert_rows_type_exact(out["rows"], frame["rows"])
            else:
                assert_rows_type_exact([tuple(out["payload"])],
                                       [tuple(frame["payload"])])

    @pytest.mark.parametrize("n", [
        0, 1, INLINE_ROWS - 1, INLINE_ROWS, ROWS_PER_FRAME,
    ])
    def test_v3_values_survive_type_exact(self, n):
        rows = typed_rows(n)
        wire = encode_frame({"type": "rows", "id": 1, "rows": rows})
        out = read_frame(io.BytesIO(wire))
        assert out["type"] == "rows" and out["id"] == 1
        assert_rows_type_exact(out["rows"], rows)
        head = rows_head(wire)
        assert head["n"] == n
        if n == 0:
            assert head["w"] == 0 and head["cols"] == []
            return
        assert head["w"] == len(TYPED_COLUMNS)
        blobs = n >= INLINE_ROWS
        for (name, _, kind), sent in zip(TYPED_COLUMNS, head["cols"]):
            if blobs and kind != list:
                assert sent == kind, name
            else:
                assert type(sent) is list and len(sent) == n, name

    def test_blobs_are_little_endian(self):
        rows = [(i - 8, i / 4) for i in range(INLINE_ROWS)]
        wire = encode_frame({"type": "rows", "id": 1, "rows": rows})
        assert rows_head(wire)["cols"] == ["q", "d"]
        ints, floats = zip(*rows)
        blobs = (struct.pack("<%dq" % len(ints), *ints)
                 + struct.pack("<%dd" % len(floats), *floats))
        assert wire.endswith(blobs)

    def test_rows_come_back_as_tuples(self):
        rows = [[i, "r%d" % i] for i in range(3)]
        out = roundtrip({"type": "rows", "id": 2, "rows": rows})
        assert out == {"type": "rows", "id": 2,
                       "rows": [tuple(row) for row in rows]}

    def test_unicode_payloads(self):
        frame = {"type": "query", "id": 1, "text": "sélect '☃'"}
        assert roundtrip(frame) == frame

    def test_back_to_back_frames_on_one_stream(self):
        stream = io.BytesIO(
            encode_frame({"type": "hello", "version": 1})
            + encode_frame({"type": "query", "id": 1, "text": "Q1A"})
        )
        assert read_frame(stream)["type"] == "hello"
        assert read_frame(stream)["id"] == 1
        with pytest.raises(ConnectionClosed):
            read_frame(stream)


class TestMalformedFrames:
    def test_clean_eof_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            read_frame(io.BytesIO(b""))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload(self):
        wire = encode_frame({"type": "query", "id": 1, "text": "Q1A"})
        for cut in (5, len(wire) // 2, len(wire) - 1):
            with pytest.raises(ProtocolError, match="truncated"):
                read_frame(io.BytesIO(wire[:cut]))

    def test_oversized_length_rejected_without_allocation(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="ceiling"):
            read_frame(io.BytesIO(header))

    def test_per_call_ceiling_override(self, monkeypatch):
        """Each read checks ``MAX_FRAME_BYTES`` as it stands then."""
        wire = encode_frame({"type": "query", "id": 1, "text": "x" * 100})
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="16-byte ceiling"):
            read_frame(io.BytesIO(wire))

    def test_non_json_payload(self):
        wire = struct.pack(">I", 9) + b"not json!"
        with pytest.raises(ProtocolError, match="not JSON"):
            read_frame(io.BytesIO(wire))

    def test_non_utf8_payload(self):
        wire = struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc"
        with pytest.raises(ProtocolError, match="not JSON"):
            read_frame(io.BytesIO(wire))

    def test_non_object_json(self):
        for payload in (b"[1,2]", b'"hi"', b"42", b"null"):
            wire = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="JSON object"):
                read_frame(io.BytesIO(wire))

    def test_untyped_and_unknown_types(self):
        for frame in ({"id": 1}, {"type": "warp", "id": 1}, {"type": None}):
            payload = json.dumps(frame).encode()
            wire = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="unknown frame type"):
                read_frame(io.BytesIO(wire))

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({"type": "warp"})

    def test_deeply_nested_json_is_a_protocol_error(self):
        depth = 100_000  # ~200 KB: past the interpreter's recursion limit
        payload = (b'{"type":"query","id":1,"text":' + b"[" * depth
                   + b"]" * depth + b"}")
        wire = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="nested too deeply"):
            read_frame(io.BytesIO(wire))
        head = b"[" * depth + b"]" * depth
        with pytest.raises(ProtocolError, match="nested too deeply"):
            read_frame(io.BytesIO(rows_frame(head)))

    def test_garbage_fuzz_never_hangs_or_crashes(self):
        """Random byte soup must always end in a clean protocol error
        (or ConnectionClosed at offset 0), never an exception escape."""
        rng = random.Random(0xF4A3)
        for _ in range(300):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 64))
            )
            stream = io.BytesIO(blob)
            try:
                while True:
                    read_frame(stream)
            except (ProtocolError, ConnectionClosed):
                pass
        # The same soup behind a rows marker, and behind a rows head
        # that parses, so the column decoder sees it too.
        for _ in range(300):
            soup = bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 64))
            )
            head = {"type": "rows", "id": 1, "n": rng.randrange(4),
                    "w": rng.randrange(3),
                    "cols": rng.choice([[], ["q"], ["d", "q"], [[1]]])}
            payload = bytes([ROWS_MARKER]) + soup
            for wire in (struct.pack(">I", len(payload)) + payload,
                         rows_frame(head, soup)):
                try:
                    frame = read_frame(io.BytesIO(wire))
                except ProtocolError:
                    continue
                assert frame["type"] == "rows"
                assert all(type(row) is tuple for row in frame["rows"])

    def test_bitflip_fuzz_on_valid_frames(self):
        rng = random.Random(0xBEEF)
        rows = typed_rows(INLINE_ROWS)
        for wire in (
            encode_frame({"type": "query", "id": 3, "text": "Q1A"}),
            encode_frame({"type": "rows", "id": 3, "rows": rows}),
            encode_frame({"type": "rows", "id": 3, "rows": rows[:2]}),
        ):
            survived = 0
            for _ in range(300):
                mutated = bytearray(wire)
                mutated[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
                stream = io.BytesIO(bytes(mutated))
                try:
                    frame = read_frame(stream)
                except (ProtocolError, ConnectionClosed):
                    continue
                # A flip in the payload body may still be valid (JSON,
                # or a blob's value bits); it must at least still be a
                # typed object, and a chunk must still be rows.
                assert frame.get("type") in FRAME_TYPES
                if frame["type"] == "rows":
                    assert all(type(row) is tuple and len(row) == 7
                               for row in frame["rows"])
                survived += 1
            assert survived < 300  # most flips must be *detected*


class TestMalformedRows:
    """Every way a column-layout ``rows`` chunk can lie."""

    HEAD = {"type": "rows", "id": 1, "n": 2, "w": 2,
            "cols": ["q", ["a", "b"]]}
    BLOB = struct.pack("<2q", 5, 6)

    def test_hand_built_chunk_decodes(self):
        frame = read_frame(io.BytesIO(rows_frame(self.HEAD, self.BLOB)))
        assert frame == {"type": "rows", "id": 1,
                         "rows": [(5, "a"), (6, "b")]}

    def bad(self, wire, match):
        with pytest.raises(ProtocolError, match=match):
            read_frame(io.BytesIO(wire))

    def test_truncated_and_overlong_blobs(self):
        self.bad(rows_frame(self.HEAD, self.BLOB[:-1]), "blobs")
        self.bad(rows_frame(self.HEAD, b""), "blobs")
        self.bad(rows_frame(self.HEAD, self.BLOB + b"\x00"), "blobs")
        self.bad(rows_frame(self.HEAD, self.BLOB * 2), "blobs")

    def test_trailing_bytes_after_an_inline_chunk(self):
        head = dict(self.HEAD, cols=[[1, 2], ["a", "b"]])
        read_frame(io.BytesIO(rows_frame(head)))
        self.bad(rows_frame(head, b"\x00"), "blobs")

    def test_truncated_or_overrunning_head(self):
        for payload in (bytes([ROWS_MARKER]),
                        bytes([ROWS_MARKER]) + b"\x00\x00"):
            self.bad(struct.pack(">I", len(payload)) + payload,
                     "truncated rows head")
        wire = rows_frame(self.HEAD, self.BLOB)
        payload = bytearray(wire[4:])
        payload[1:5] = struct.pack(">I", len(payload))
        self.bad(struct.pack(">I", len(payload)) + bytes(payload),
                 "overruns")

    def test_head_must_be_a_typed_json_object(self):
        self.bad(rows_frame(b"not json"), "not JSON")
        self.bad(rows_frame(b"[1]"), "JSON object")
        self.bad(rows_frame(dict(self.HEAD, type="query"), self.BLOB),
                 "type")

    def test_n_and_w_must_agree_with_the_columns(self):
        for change in ({"w": 3}, {"w": 1}, {"n": 3}, {"n": 1},
                       {"n": -1}, {"n": True}, {"n": 2.0}, {"w": "2"},
                       {"cols": "q"}, {"n": None}):
            head = dict(self.HEAD, **change)
            self.bad(rows_frame(head, self.BLOB), "rows")

    def test_unknown_column_kinds(self):
        for kind in ("x", "Q", "i", 8, None, {"q": 1}, ["a"]):
            head = dict(self.HEAD, cols=["q", kind])
            self.bad(rows_frame(head, self.BLOB), "rows column")

    def test_a_lying_row_count_allocates_nothing(self):
        huge = 10 ** 15
        begun = time.perf_counter()
        self.bad(rows_frame({"type": "rows", "id": 1, "n": huge, "w": 0,
                             "cols": []}), "at least one column")
        self.bad(rows_frame({"type": "rows", "id": 1, "n": huge, "w": 1,
                             "cols": ["d"]}, b"\x00" * 8), "blobs")
        self.bad(rows_frame({"type": "rows", "id": 1, "n": huge, "w": 1,
                             "cols": [[1]]}), "rows column")
        assert time.perf_counter() - begun < 1.0

    def test_a_row_major_rows_frame_is_refused(self):
        payload = json.dumps({"type": "rows", "id": 1,
                              "rows": [[1, "a"]]}).encode()
        self.bad(struct.pack(">I", len(payload)) + payload,
                 "column layout")

    def test_encode_rejects_ragged_and_shapeless_rows(self):
        for rows in ([(1, 2), (3,)], [(1,), (2, 3)], [(1,), 5],
                     [(), ()], None, 7):
            with pytest.raises(ProtocolError):
                encode_frame({"type": "rows", "id": 1, "rows": rows})
        with pytest.raises(ProtocolError):
            encode_frame({"type": "rows", "id": 1})


class TestHello:
    def test_hello_exchange(self):
        client = hello_frame(tenant="t1")
        assert check_hello(client, "client")["tenant"] == "t1"
        server = hello_frame(server=True)
        assert check_hello(server, "server")["server"] == "repro"
        assert client["version"] == server["version"] == PROTOCOL_VERSION

    def test_version_mismatch(self):
        stale = dict(hello_frame(), version=PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_hello(stale, "client")

    def test_this_is_version_three_and_two_is_refused(self):
        assert PROTOCOL_VERSION == 3
        for version in (1, 2):
            stale = dict(hello_frame(), version=version)
            with pytest.raises(ProtocolError, match="version mismatch"):
                check_hello(stale, "client")

    def test_wrong_first_frame(self):
        with pytest.raises(ProtocolError, match="expected a hello"):
            check_hello({"type": "query", "id": 1}, "client")
