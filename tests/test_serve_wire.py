"""The binary client<->server frame: hostile peers and bit-identity.

Two contracts (DESIGN.md Secs. 15 and 16).  *Hostile peer*: whatever
bytes arrive - client frames or the node hop's binary ``partial_sum``
and sums frames - the decoder's only outcomes are a typed message or
``FrameError``, nothing it builds is larger than the frame it was
given, and however the bytes are cut into reads, the read-buffer
splitter yields what a reference reader walking the stream header by
header yields; a JSON envelope of any of the four message types decodes
to declared field types or ``FrameError``, and server, node and
coordinator each survive one that does not.  *Bit-identity*: a response
is ``np.array_equal`` to a direct ``store.sls`` whichever way it
travelled - binary TCP, JSON TCP or the in-process transport - on every
ring; and a query no path may serve is refused by every path - store,
front-end, cluster - in the same words.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import ClusterCoordinator, NodeClient, NodeServer, codec
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.core.device import QueryBatch, query_terms
from repro.errors import ConfigurationError
from repro.serve import AsyncSlsClient, BatchScheduler, SlsServer
from repro.serve.server import _Connection, _Link
from repro.serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    DIRECTIVES,
    MAX_FRAME_BYTES,
    MAX_SLOW_DELAY_S,
    STATUS_OK,
    VIAS,
    Directive,
    FrameError,
    NodeRequest,
    NodeResponse,
    SlsRequest,
    SlsResponse,
    decode_payload,
    encode_answers,
    encode_frame,
    RequestBlock,
    frame_header,
    int64_terms,
    reply_id,
    sls_frame,
    split_frames,
    split_read,
)
from repro.workloads.secure_sls import SecureEmbeddingStore

#: A test that opens a socket collects its own garbage and fails on a
#: leaked transport (``tests/conftest.py``).
closes_what_it_opens = pytest.mark.closes_what_it_opens

KEY = bytes(range(16))
HEADER = struct.Struct("<BBHIQ")  # kind, flags, aux, count, id: the documented layout
PARTIAL = struct.Struct("<IBBxxd")  # a partial_sum's terms, width, directive code, delay
SUMS = struct.Struct("<I4x")  # a sums answer's columns


def words(*values) -> bytes:
    return np.array(values, dtype="<u4").tobytes()


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
tables = st.text(max_size=12)
ids = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def requests(draw):
    rows = draw(st.lists(int64s, max_size=12))
    weights = draw(st.none() | st.lists(int64s, min_size=len(rows), max_size=len(rows)))
    return SlsRequest(
        id=draw(ids),
        table=draw(tables),
        rows=np.asarray(rows, dtype=np.int64),
        weights=None if weights is None else np.asarray(weights, dtype=np.int64),
    )


@st.composite
def responses(draw):
    values = draw(st.none() | st.lists(st.floats(allow_nan=True, width=64), max_size=12))
    return SlsResponse(
        id=draw(ids),
        status=STATUS_OK,
        values=None if values is None else np.asarray(values, dtype=np.float64),
        via=draw(st.sampled_from(VIAS)),
    )


@st.composite
def partial_sums(draw):
    """A binary ``partial_sum`` request: a CSR batch's raw words at every
    weight width, with or without a directive (a ``slow`` one short)."""
    element_bits = draw(st.sampled_from([8, 16, 32, 64]))
    counts = draw(st.lists(st.integers(0, 3), max_size=4))
    rows = [draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)) for n in counts]
    weights = [
        draw(st.lists(st.integers(0, 2**element_bits - 1), min_size=n, max_size=n))
        for n in counts
    ]
    batch = QueryBatch.flatten(SecNDPParams(element_bits=element_bits).ring(), rows, weights)
    directive = draw(
        st.sampled_from([None, ("byzantine",), ("dead",), ("partition",)])
        | st.floats(0, 0.01).map(lambda delay: ("slow", delay))
    )
    return NodeRequest(
        id=draw(ids),
        op="partial_sum",
        table=draw(tables),
        payload=codec.query_words(batch),
        directive=Directive.of(directive),
    )


@st.composite
def sums_answers(draw):
    """A node's binary ``ok`` sums answer: values at every ring width and
    four ``<u4`` tag limbs a query, any bits."""
    dtype = np.dtype(draw(st.sampled_from(["<u1", "<u2", "<u4", "<u8"])))
    n_q, m = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    values = draw(st.binary(min_size=n_q * m * dtype.itemsize, max_size=n_q * m * dtype.itemsize))
    tags = draw(st.binary(min_size=16 * n_q, max_size=16 * n_q))
    sums = codec.sum_words(
        np.frombuffer(values, dtype).reshape(n_q, m),
        np.frombuffer(tags, "<u4").reshape(n_q, 4),
    )
    return NodeResponse(id=draw(ids), status=STATUS_OK, payload={"sums": sums})


def messages():
    """Every message kind the binary codec carries."""
    return requests() | responses() | partial_sums() | sums_answers()


def armoured(value):
    """A node message's JSON form: its raw words as base64 text."""
    if isinstance(value, dict):
        return {key: armoured(v) for key, v in value.items()}
    if isinstance(value, memoryview):
        return base64.b64encode(value).decode("ascii")
    return value


def raw_arrays(message):
    """The arrays a decoded message carries: NumPy views or raw words."""
    if isinstance(message, SlsRequest):
        return message.rows, message.weights
    if isinstance(message, SlsResponse):
        return (message.values,)
    if isinstance(message, NodeRequest):
        return tuple(message.payload[key] for key in ("counts", "rows", "weights"))
    return tuple(message.payload["sums"][key] for key in ("values", "tag_sums"))


def payload_of(message) -> bytes:
    frame = encode_frame(message, CODEC_BINARY)
    assert frame[0] == CODEC_BINARY and struct.unpack(">I", frame[1:5])[0] == len(frame) - 5
    return frame[5:]


def same_bits(a, b) -> bool:
    """Array fields equal bit for bit (NaN payloads and -0.0 included)."""
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def decode_or_frame_error(payload: bytes):
    """The single oracle: a typed message built from views of ``payload``,
    or ``FrameError`` - never another exception, never an allocation."""
    try:
        message = decode_payload(CODEC_BINARY, payload)
    except FrameError:
        return None
    assert isinstance(message, (SlsRequest, SlsResponse, NodeRequest, NodeResponse))
    for array in raw_arrays(message):
        if isinstance(array, memoryview):
            assert array.readonly and array.nbytes <= len(payload)
        elif array is not None:
            assert not array.flags.owndata and not array.flags.writeable
            assert array.nbytes <= len(payload)
    return message


# -- round trip ----------------------------------------------------------------------


class TestBinaryRoundTrip:
    @given(requests())
    def test_request(self, request):
        back = decode_payload(CODEC_BINARY, payload_of(request))
        assert isinstance(back, SlsRequest) and back.op == "sls"
        assert (back.id, back.table) == (request.id, request.table)
        assert same_bits(back.rows, request.rows) and same_bits(back.weights, request.weights)
        assert back.rows.dtype == np.int64

    @given(responses())
    def test_response(self, response):
        back = decode_payload(CODEC_BINARY, payload_of(response))
        assert isinstance(back, SlsResponse) and back.status == STATUS_OK
        assert (back.id, back.via) == (response.id, response.via)
        assert same_bits(back.values, response.values)

    @given(partial_sums(), st.sampled_from([8, 16, 32, 64]))
    def test_partial_sum(self, request, element_bits):
        payload = payload_of(request)
        back = decode_payload(CODEC_BINARY, payload)
        assert isinstance(back, NodeRequest) and back.op == "partial_sum"
        assert (back.id, back.table, back.directive) == (request.id, request.table, request.directive)
        assert payload_of(back) == payload
        ring = SecNDPParams(element_bits=element_bits).ring()
        if request.payload["width"] <= ring.width // 8:
            sent, got = (codec.decode_queries(m.payload, ring) for m in (request, back))
            for name in ("rows", "weights", "offsets"):
                assert np.array_equal(getattr(got, name), getattr(sent, name))

    @given(sums_answers())
    def test_sums(self, response):
        payload = payload_of(response)
        back = decode_payload(CODEC_BINARY, payload)
        assert isinstance(back, NodeResponse) and back.status == STATUS_OK
        assert back.id == response.id and payload_of(back) == payload
        sent, got = response.payload["sums"], back.payload["sums"]
        assert got["shape"] == sent["shape"]
        assert bytes(got["values"]) == bytes(sent["values"])
        assert bytes(got["tag_sums"]) == bytes(sent["tag_sums"])

    def test_node_layouts_are_the_documented_ones(self):
        words = codec.query_words([[1, 2], [], [3]], [[4, 5], [], [6]])
        request = NodeRequest(
            id=7, op="partial_sum", table="emb", payload=words, directive=Directive("slow", 0.5)
        )
        payload = payload_of(request)
        assert HEADER.unpack_from(payload) == (4, 0, 3, 3, 7)
        # terms, weight width, directive code, two pad bytes, delay
        assert struct.unpack_from("<IBBxxd", payload, 16) == (3, 4, 4, 0.5)
        assert payload[32:] == (
            np.array([2, 0, 1, 1, 2, 3, 4, 5, 6], dtype="<u4").tobytes() + b"emb"
        )
        values = np.arange(6, dtype=np.uint32).reshape(2, 3)
        tags = np.arange(8, dtype=np.uint64).reshape(2, 4)
        response = NodeResponse(id=9, status=STATUS_OK, payload={"sums": codec.sum_words(values, tags)})
        payload = payload_of(response)
        assert HEADER.unpack_from(payload) == (5, 0, 4, 2, 9)
        assert struct.unpack_from("<I4x", payload, 16) == (3,)
        assert payload[24:] == values.astype("<u4").tobytes() + tags.astype("<u4").tobytes()

    def test_layout_is_the_documented_one(self):
        request = SlsRequest(id=7, table="emb", rows=(1, 2, 3), weights=(4, 5, 6))
        payload = payload_of(request)
        assert HEADER.unpack_from(payload) == (1, 1, 3, 3, 7)
        assert payload[16:] == (
            np.array([1, 2, 3, 4, 5, 6], dtype="<i8").tobytes() + b"emb"
        )
        response = SlsResponse(id=9, status=STATUS_OK, values=(0.5, -2.0), via="scatter")
        payload = payload_of(response)
        assert HEADER.unpack_from(payload) == (2, 1, VIAS.index("scatter"), 2, 9)
        assert payload[16:] == np.array([0.5, -2.0], dtype="<f8").tobytes()
        # 16 + 8 per element: the JSON body of the same response is larger
        # from two values on.
        assert len(payload) == 32

    def test_tuples_and_arrays_encode_alike(self):
        as_tuples = SlsRequest(id=1, table="t", rows=(5, 6), weights=(1, 2))
        as_arrays = SlsRequest(
            id=1, table="t", rows=np.array([5, 6]), weights=np.array([1, 2], dtype=np.uint8)
        )
        assert payload_of(as_tuples) == payload_of(as_arrays)

    def test_other_messages_leave_as_json_frames(self):
        # Probes, typed errors and anything with no binary body: same call,
        # JSON frame, and the reader needs no negotiation to tell.
        for message in (
            SlsRequest(id=1, op="ping"),
            SlsRequest(id=2, op="heartbeat"),
            SlsRequest(id=3, op="sls", table=None),
            SlsResponse(id=4, status="error", error="boom", kind="VerificationError"),
            SlsResponse(id=5, status="overloaded", kind="OverloadedError"),
            SlsResponse(id=6, status=STATUS_OK, via="some-future-path"),
        ):
            frame = encode_frame(message, CODEC_BINARY)
            assert frame[0] == CODEC_JSON
            assert frame == encode_frame(message.to_wire(), CODEC_JSON)
            back = type(message).from_wire(decode_payload(CODEC_JSON, frame[5:]))
            assert back.to_wire() == message.to_wire()


# -- what the format cannot express --------------------------------------------------


class TestInexpressible:
    @pytest.mark.parametrize(
        "terms",
        [
            [2**63],
            [-(2**63) - 1],
            np.array([2**63], dtype=np.uint64),
            ["seven"],
            [[1, 2]],
            [None],
        ],
        ids=["2^63", "below-int64", "uint64-array", "string", "nested", "none"],
    )
    def test_terms_outside_int64_are_refused_not_wrapped(self, terms):
        with pytest.raises(ConfigurationError):
            int64_terms(terms, "weights")
        with pytest.raises(ConfigurationError):
            encode_frame(SlsRequest(id=1, table="t", rows=terms), CODEC_BINARY)

    def test_terms_at_the_int64_edges_are_carried(self):
        edge = [2**63 - 1, -(2**63), 0]
        back = decode_payload(
            CODEC_BINARY, payload_of(SlsRequest(id=1, table="t", rows=edge, weights=edge))
        )
        assert back.rows.tolist() == edge and back.weights.tolist() == edge
        assert int64_terms(np.array([2**63 - 1], dtype=np.uint64), "rows").tolist() == [2**63 - 1]

    @pytest.mark.parametrize(
        "request_",
        [
            SlsRequest(id=1, table="t", rows=(1, 2), weights=(1,)),
            SlsRequest(id=-1, table="t", rows=(1,)),
            SlsRequest(id=2**64, table="t", rows=(1,)),
            SlsRequest(id=1, table="t" * 65_536, rows=(1,)),
        ],
        ids=["one-weight-two-rows", "negative-id", "id-2^64", "table-name-64KiB"],
    )
    def test_requests_the_header_cannot_hold(self, request_):
        with pytest.raises(ConfigurationError):
            encode_frame(request_, CODEC_BINARY)

    def test_oversized_frame_is_refused_at_encode(self):
        rows = np.zeros(MAX_FRAME_BYTES // 8 + 1, dtype=np.int64)
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            encode_frame(SlsRequest(id=1, table="t", rows=rows), CODEC_BINARY)


# -- the one writer of a request -----------------------------------------------------

#: A term as a caller may hand it over: an int inside or beyond ``int64``,
#: a bool, an integral or fractional float (``nan`` and infinities too),
#: a string or a nested list.
loose_terms = st.one_of(
    int64s,
    st.integers(min_value=2**63, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) - 1),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def caller_terms(draw, size=None):
    """Row ids or weights as a caller passes them: a list (all ints, all
    bools, or of any term), a tuple, or an ``int64`` / ``uint64`` array;
    ``size`` fixes the length."""
    sizes = dict(max_size=6) if size is None else dict(min_size=size, max_size=size)
    values = draw(
        st.lists(int64s, **sizes)
        | st.lists(st.booleans(), **sizes)
        | st.lists(loose_terms, **sizes)
    )
    form = draw(st.sampled_from(["list", "tuple", "int64", "uint64"]))
    if form == "tuple":
        return tuple(values)
    if form in ("int64", "uint64") and all(type(v) is int for v in values):
        lo, hi = (-(2**63), 2**63) if form == "int64" else (0, 2**64)
        if all(lo <= v < hi for v in values):
            return np.asarray(values, dtype=form)
    return values


#: What may be wrong with a query of ``make_store(32)``'s 48-row table
#: ``"emb"`` (``None``: nothing, the most likely draw).
DEFECTS = (
    None, None, None, "negative weight", "row out of range", "row past int64",
    "over budget", "fractional row", "fractional weight", "length mismatch",
)


@st.composite
def store_query(draw):
    """``(rows, weights)`` of one query of the 48-row table: inside it and
    inside the ring's budget, or with up to two defects, each one extra
    term (or, for a length mismatch, one extra weight)."""
    pf = draw(st.integers(0, 4))
    rows = draw(st.lists(st.integers(0, 47), min_size=pf, max_size=pf))
    weights = draw(st.none() | st.lists(st.integers(0, 3), min_size=pf, max_size=pf))
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        if defect is None:
            continue
        weight = 1
        if defect == "negative weight":
            weight = draw(st.integers(-(2**62), -1))
        elif defect == "over budget":  # (2^32 - 1) // 255 < 2^25
            weight = draw(st.integers(2**25, 2**62))
        elif defect == "fractional weight":
            weight = draw(st.sampled_from([0.5, 2.5, float("nan")]))
        row = {
            "row out of range": st.sampled_from([48, 1000, -1, -(2**62)]),
            "row past int64": st.sampled_from([2**63, 2**70, -(2**63) - 1]),
            "fractional row": st.sampled_from([1.5, float("inf")]),
        }.get(defect, st.integers(0, 47))
        if defect == "length mismatch":
            weights = (weights if weights is not None else [1] * len(rows)) + [1]
            continue
        rows = rows + [draw(row)]
        if weights is not None or weight != 1:
            weights = (weights if weights is not None else [1] * (len(rows) - 1)) + [weight]
    return rows, weights


@st.composite
def sls_calls(draw):
    """A ``sls_frame`` call: weights absent, one per row, or of another
    length (a negative one among them or not); or a query of the 48-row
    test table, good or not (:func:`store_query`)."""
    if draw(st.booleans()):
        rows, weights = draw(store_query())
        table = draw(st.sampled_from(["emb", "emb", "emb", "nope"]))
    else:
        rows = draw(caller_terms())
        size = len(rows) if draw(st.booleans()) else None
        weights = draw(st.none() | caller_terms(size=size))
        table = draw(tables)
    rid = draw(ids | st.sampled_from([-1, 2**64]))
    return rid, table, rows, weights


def outcome(call):
    """What ``call()`` returns, or the type and words of what it raises."""
    try:
        return call()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


class TestOneWriter:
    """``sls_frame`` writes a request frame straight from its caller's terms,
    and writes exactly what a typed request of ``int64`` arrays encodes to."""

    @settings(max_examples=400, deadline=None)
    @given(sls_calls())
    def test_the_frame_is_the_typed_requests_or_the_same_refusal(self, call):
        rid, table, rows, weights = call

        def typed():
            # The weights are judged first, and a query refused for a row
            # defect names a negative weight instead, as the store does.
            typed_weights = None if weights is None else int64_terms(weights, "weights")
            try:
                typed_rows = int64_terms(rows, "rows")
            except ConfigurationError:
                if typed_weights is not None and typed_weights.size and typed_weights.min() < 0:
                    raise ConfigurationError("weights must be non-negative integers") from None
                raise
            request = SlsRequest(
                id=rid, op="sls", table=table, rows=typed_rows, weights=typed_weights
            )
            return encode_frame(request, CODEC_BINARY)

        got = outcome(lambda: sls_frame(rid, table, rows, weights))
        assert got == outcome(typed)
        if type(got) is bytes:  # a frame a reader takes back as the same query
            (block,), error = split_read(bytearray(got))
            assert error is None and (block.ids, block.table) == ([rid], table)
            assert block.rows.tolist() == int64_terms(rows, "rows").tolist()

    def test_lists_are_refused_as_arrays_are(self):
        for rows, weights, words in [
            ([True, False], None, "rows must be integers or integral floats"),
            ([0, 1], [1, -1, 2], "weights must be non-negative integers"),
            ([0, 1], [1], "rows and weights must have equal length"),
            ([0, 1.5], [1, 1], "rows must be integers or integral floats"),
            ([0, 2**63], None, "rows must be int64 integers"),
        ]:
            with pytest.raises(ConfigurationError, match=words):
                sls_frame(1, "t", rows, weights)
        # Integral floats and a bool among ints are terms, as in an array.
        assert sls_frame(1, "t", [2.0, True], [3, 1.0]) == sls_frame(1, "t", [2, 1], [3, 1])


# -- hostile peer --------------------------------------------------------------------


def mutated(draw, payload: bytes) -> bytes:
    """One structure-aware mutation of a valid binary payload."""
    kind, flags, aux, count, ident = HEADER.unpack_from(payload)
    body = payload[HEADER.size:]
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:  # truncated anywhere, header included
        return payload[: draw(st.integers(min_value=0, max_value=len(payload) - 1))]
    if choice == 1:  # count x width != remaining length
        count = draw(st.integers(min_value=0, max_value=64).filter(lambda c: c != count))
    elif choice == 2:  # count near 2^32
        count = 2**32 - 1 - draw(st.integers(min_value=0, max_value=8))
    elif choice == 3:  # unknown kind
        kind = draw(st.integers(min_value=0, max_value=255).filter(lambda k: k not in (1, 2, 4, 5)))
    elif choice == 4:  # unknown flag bits
        flags = draw(st.integers(min_value=2, max_value=255))
    elif choice == 5:  # aux: table length / via code / value width
        aux = draw(st.integers(min_value=0, max_value=2**16 - 1).filter(lambda a: a != aux))
    elif choice == 6:  # trailing garbage
        body += draw(st.binary(min_size=1, max_size=9))
    else:  # a table name that is not UTF-8 (a no-op for answers)
        if kind in (1, 4) and aux:
            body = body[:-1] + b"\xff"
    return HEADER.pack(kind, flags, aux, count, ident) + body


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
b64_words = st.binary(max_size=48).map(lambda raw: base64.b64encode(raw).decode("ascii"))
node_fields = b64_words | st.text(max_size=12) | json_values


@st.composite
def node_payloads(draw):
    """A ``partial_sum`` or sums payload as a hostile peer might send it:
    arbitrary values, the right keys over arbitrary values, or a valid
    payload with one lie (counts that disagree with the terms, a width
    outside {1, 2, 4, 8}, a shape that is not the bytes) or a weight the
    decoding ring may not hold."""
    which = draw(st.integers(0, 2))
    if which == 0:
        return draw(json_values)
    if which == 1:
        keys = ("counts", "rows", "width", "weights", "shape", "values", "tag_sums")
        payload = {key: draw(node_fields) for key in keys}
        payload["width"] = draw(st.integers(-1, 17) | node_fields)
        payload["shape"] = draw(st.lists(st.integers(-2, 2**64), max_size=3) | node_fields)
        return payload
    n, weight = draw(st.integers(0, 5)), draw(st.integers(0, 2**64 - 1))
    payload = dict(
        codec.query_words([[1] * n, [2, 3]], [[1] * n, [4, weight]]),
        **codec.sum_words(np.ones((2, 8), np.uint32), np.ones((2, 4), np.uint64)),
    )
    lie = draw(st.integers(0, 2))
    if lie == 0:
        counts = np.array([n + draw(st.integers(-n, 3).filter(bool)), 2], "<u4")
        payload["counts"] = memoryview(counts.tobytes())
    elif lie == 1:
        payload["width"] = draw(st.integers(-4, 64).filter(lambda w: w not in (1, 2, 4, 8)))
    else:
        payload["shape"] = draw(st.lists(st.integers(-2, 2**40), min_size=2, max_size=2))
    # As a binary frame carries it (raw words) or a JSON one (base64 text).
    return payload if draw(st.booleans()) else armoured(payload)


@st.composite
def params_payloads(draw):
    """A ``shard_assign`` params payload as a hostile peer might send it:
    arbitrary values, or both fields over widths and moduli the params
    may refuse and values that are not JSON integers (``8.5``, ``"8"``,
    ``true``)."""
    if draw(st.booleans()):
        return draw(json_values)
    near = st.sampled_from([True, 8.0, 8.5, "8", None, [8]])
    return {
        "element_bits": draw(st.integers(-2, 130) | st.sampled_from([8, 16, 32, 64]) | near),
        "tag_modulus": draw(st.integers(-3, 2**130) | st.sampled_from([251, 2**61 - 1]) | near),
    }


def decode_or_configuration_error(decode, payload):
    """The node-payload oracle: a typed value whose arrays hold no more
    elements than the payload has characters, or ``ConfigurationError``."""
    try:
        out = decode(payload)
    except ConfigurationError:
        return None
    present = sum(len(v) for v in payload.values() if isinstance(v, (str, bytes, memoryview)))
    arrays = out
    if isinstance(out, QueryBatch):
        assert out.offsets[-1] == out.rows.size == out.weights.size
        arrays = (out.rows, out.weights, out.offsets[1:])
    for array in arrays:
        if array is not None:
            assert isinstance(array, np.ndarray) and array.size <= present
    return out


PARAMS = codec.encode_params(SecNDPParams(element_bits=32))

#: envelope type -> the fields its JSON form carries besides ``id``
ENVELOPES = {
    SlsRequest: ("op", "table", "rows", "weights"),
    SlsResponse: ("status", "values", "error", "kind", "via"),
    NodeRequest: ("op", "table", "payload", "directive"),
    NodeResponse: ("status", "payload", "error", "kind"),
}


def envelope_or_frame_error(cls, obj):
    """The envelope oracle: a message whose fields have their declared
    types, or ``FrameError`` - never another exception."""
    try:
        message = cls.from_wire(obj)
    except FrameError:
        return None
    assert type(message) is cls and type(message.id) is int
    for name in ("op", "table", "status", "error", "kind", "via"):
        value = getattr(message, name, None)
        assert value is None or type(value) is str, (name, value)
    if cls in (NodeRequest, NodeResponse):
        assert type(message.payload) is dict
    if cls is NodeRequest and message.directive is not None:
        assert type(message.directive) is Directive and message.directive.kind in DIRECTIVES
    if cls is SlsRequest:
        for terms in (message.rows, message.weights or ()):
            assert all(type(t) is int for t in terms)
    if cls is SlsResponse:
        assert all(type(v) is float for v in message.values or ())
    return message


async def read_frame(reader):
    """One frame off ``reader``, decoded; ``None`` at a clean EOF."""
    try:
        header = await reader.readexactly(5)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        return None
    codec, length = struct.unpack(">BI", header)
    return decode_payload(codec, await reader.readexactly(length))


class EnvelopeLiar(NodeServer):
    """A node that answers every ``partial_sum`` with ``id`` a string."""

    def _reply(self, request, codec_id=CODEC_JSON):
        response = super()._reply(request, codec_id)
        return {"id": "x", "status": STATUS_OK} if "sums" in response.payload else response


@st.composite
def frame_streams(draw):
    """A byte stream as a pipelining peer might send it: valid frames of
    both codecs, with arbitrary bytes, a cut-off frame or a length prefix
    past the cap anywhere among them."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        message = draw(messages())
        choice = draw(st.integers(0, 5))
        if choice <= 1:
            parts.append(encode_frame(message, CODEC_BINARY))
        elif choice == 2:
            parts.append(encode_frame(armoured(message.to_wire()), CODEC_JSON))
        elif choice == 3:
            parts.append(draw(st.binary(max_size=24)))
        elif choice == 4:
            frame = encode_frame(message, CODEC_BINARY)
            parts.append(frame[: draw(st.integers(0, len(frame) - 1))])
        else:
            codec = draw(st.sampled_from([CODEC_BINARY, CODEC_JSON]))
            parts.append(struct.pack(">BI", codec, MAX_FRAME_BYTES + draw(st.integers(1, 9))))
    return b"".join(parts)


def canonical(frames):
    """Decoded frames as comparable values (arrays and NaN included)."""
    return [
        encode_frame(obj, CODEC_BINARY)
        if isinstance(obj, (SlsRequest, SlsResponse, NodeRequest, NodeResponse))
        else json.dumps(obj)
        for obj in frames
    ]


def read_over(stream: bytes):
    """The reference reader: the stream walked header by header, as a peer
    reading one frame at a time sees it; its frames and its FrameError."""
    frames, pos = [], 0
    try:
        while pos < len(stream):
            if len(stream) - pos < 5:
                raise FrameError("connection closed mid-header")
            codec, length = struct.unpack_from(">BI", stream, pos)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame length {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
                )
            if len(stream) - pos - 5 < length:
                raise FrameError("connection closed mid-frame")
            frames.append(decode_payload(codec, stream[pos + 5 : pos + 5 + length]))
            pos += 5 + length
    except FrameError as exc:
        return canonical(frames), str(exc)
    return canonical(frames), None


def read_in_blocks(chunks):
    """``split_read`` fed the stream read by read, then EOF, its blocks
    spelled out request by request (an unweighted request's weights are
    1), beside ``split_frames`` fed the same reads."""
    def spelled(items):
        for item in items:
            if isinstance(item, RequestBlock):
                ends = item.offsets.tolist()
                for q, rid in enumerate(item.ids):
                    lo, hi = ends[q], ends[q + 1]
                    terms = (item.rows[lo:hi].tolist(), item.weights[lo:hi].tolist())
                    yield ("sls", rid, item.table, terms)
            elif isinstance(item, SlsRequest):
                weights = [1] * len(item.rows) if item.weights is None else item.weights.tolist()
                yield ("sls", item.id, item.table, (item.rows.tolist(), weights))
            else:
                yield canonical([item])[0]

    out = []
    for split in (split_read, split_frames):
        buf, items, error = bytearray(), [], None
        for chunk in [c for c in chunks if c] + [b""]:
            buf += chunk
            got, error = split(buf, eof=not chunk)
            items += got
            if error is not None:
                break
        out.append((list(spelled(items)), error and str(error)))
    return out


def split_over(chunks):
    """``split_frames`` fed the stream read by read, then EOF."""
    buf, frames = bytearray(), []
    for chunk in [c for c in chunks if c] + [b""]:
        buf += chunk
        got, error = split_frames(buf, eof=not chunk)
        frames += got
        if error is not None:
            return canonical(frames), str(error)
        # What stays is less than one frame, with a header under the cap.
        if len(buf) >= 5:
            assert len(buf) < 5 + frame_header(buf)[1]
    return canonical(frames), None


class TestHostilePeer:
    @settings(max_examples=400)
    @given(node_payloads(), st.sampled_from([8, 16, 32, 64]))
    def test_node_payloads_are_typed_or_configuration_error(self, payload, element_bits):
        params = SecNDPParams(element_bits=element_bits)
        decode_or_configuration_error(lambda p: codec.decode_queries(p, params.ring()), payload)
        decode_or_configuration_error(lambda p: codec.decode_device_sums(p, params), payload)

    @settings(max_examples=400)
    @given(params_payloads())
    def test_params_payloads_build_or_configuration_error(self, payload):
        try:
            params = codec.decode_params(payload)
        except ConfigurationError:
            return
        assert params.ring().width == params.element_bits
        assert params.field().modulus == params.tag_modulus

    @pytest.mark.parametrize(
        "fields", [{"element_bits": 8.5}, {"element_bits": "8"}, {"tag_modulus": True}]
    )
    def test_params_are_never_coerced(self, fields):
        payload = dict(codec.encode_params(SecNDPParams()), **fields)
        with pytest.raises(ConfigurationError, match="non-integer"):
            codec.decode_params(payload)

    @settings(max_examples=400)
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes(self, payload):
        decode_or_frame_error(payload)

    @settings(max_examples=400)
    @given(st.data())
    def test_mutated_valid_frames(self, data):
        payload = payload_of(data.draw(messages()))
        decode_or_frame_error(mutated(data.draw, payload))

    @settings(max_examples=200)
    @given(st.data())
    def test_arbitrary_header_over_a_valid_body(self, data):
        payload = payload_of(data.draw(messages()))
        header = data.draw(st.binary(min_size=HEADER.size, max_size=HEADER.size))
        decode_or_frame_error(header + payload[HEADER.size:])

    @pytest.mark.parametrize(
        "payload, match",
        [
            (b"", "no header"),
            (b"\x01" * 15, "no header"),
            (HEADER.pack(1, 0, 0, 2, 1) + b"\0" * 8, "overruns"),           # 2 rows, 8 bytes
            (HEADER.pack(1, 1, 0, 1, 1) + b"\0" * 8, "overruns"),           # weights missing
            (HEADER.pack(1, 0, 0, 2**32 - 1, 1), "overruns"),               # count ~ 2^32
            (HEADER.pack(2, 1, 0, 2**32 - 1, 1) + b"\0" * 64, "overruns"),
            (HEADER.pack(1, 0, 3, 1, 1) + b"\0" * 8 + b"em", "table name declared as 3"),
            (HEADER.pack(1, 0, 2, 1, 1) + b"\0" * 8 + b"\xc3\x28", "not UTF-8"),
            (HEADER.pack(2, 0, 0, 3, 1), "value count"),                    # count, no array
            (HEADER.pack(2, 1, 0, 1, 1) + b"\0" * 9, "value count"),        # trailing byte
            (HEADER.pack(2, 0, len(VIAS), 0, 1), "unknown via"),
            (HEADER.pack(3, 0, 0, 0, 1), "unknown binary message kind"),
            (HEADER.pack(0, 0, 0, 0, 1), "unknown binary message kind"),
            (HEADER.pack(1, 2, 0, 0, 1), "unknown binary frame flags"),
        ],
    )
    def test_named_malformations(self, payload, match):
        with pytest.raises(FrameError, match=match):
            decode_payload(CODEC_BINARY, payload)

    @pytest.mark.parametrize(
        "payload, decode, match",
        [
            (HEADER.pack(4, 0, 0, 2**32 - 1, 1) + PARTIAL.pack(0, 4, 0, 0.0), None, "overruns"),
            (HEADER.pack(4, 0, 0, 1, 1) + PARTIAL.pack(2, 4, 0, 0.0), None, "overruns"),
            (HEADER.pack(4, 0, 0, 0, 1), None, "no extension header"),
            (
                HEADER.pack(4, 0, 0, 1, 1) + PARTIAL.pack(1, 4, 0, 0.0) + words(3, 7, 1),
                "queries", "3 terms declared",  # counts say 3 terms, T says 1
            ),
            (
                HEADER.pack(4, 0, 0, 1, 1) + PARTIAL.pack(1, 3, 0, 0.0) + words(1, 7) + b"\0" * 3,
                "queries", "weight width 3",
            ),
            (HEADER.pack(4, 0, 0, 0, 1) + PARTIAL.pack(0, 4, 5, 0.0), None, "unknown directive code 5"),
            (HEADER.pack(4, 0, 0, 0, 1) + PARTIAL.pack(0, 4, 4, -1.0), None, "bad slow-directive delay"),
            (HEADER.pack(4, 0, 0, 0, 1) + PARTIAL.pack(0, 4, 4, float("nan")), None, "bad slow-directive delay"),
            (
                HEADER.pack(4, 0, 0, 0, 1) + PARTIAL.pack(0, 4, 4, MAX_SLOW_DELAY_S * 2), None,
                "bad slow-directive delay",
            ),
            (HEADER.pack(4, 0, 0, 0, 1) + PARTIAL.pack(0, 4, 1, 0.5), None, "a delay on a byzantine"),
            (HEADER.pack(4, 1, 0, 0, 1) + PARTIAL.pack(0, 4, 0, 0.0), None, "flags"),
            (HEADER.pack(5, 0, 4, 1, 1) + SUMS.pack(2) + b"\0" * 24 + b"\0", None, "after the values"),
            (HEADER.pack(5, 0, 4, 1, 1) + SUMS.pack(2) + b"\0" * 20, None, "overruns"),  # a tag limb short
            (HEADER.pack(5, 0, 4, 2**32 - 1, 1) + SUMS.pack(2**32 - 1), None, "overruns"),
            (HEADER.pack(5, 0, 8, 1, 1) + SUMS.pack(2) + b"\0" * 32, "sums", "value bytes"),  # a 32-bit ring
        ],
        ids=[
            "counts-overrun", "terms-overrun", "no-extension", "counts-not-terms", "width-3",
            "directive-code", "slow-negative", "slow-nan", "slow-over-bound", "delay-on-byzantine", "node-flags", "values-trailing", "tags-short",
            "queries-near-2^32", "values-not-the-ring-width",
        ],
    )
    def test_named_node_malformations(self, payload, decode, match):
        """Each a typed error before anything is allocated: the frame check
        refuses what the bytes cannot hold, and the codec what they may not
        mean (counts against terms, the width, the ring's value width)."""
        params = SecNDPParams(element_bits=32)
        with pytest.raises(ConfigurationError, match=match):
            message = decode_payload(CODEC_BINARY, payload)
            if decode == "queries":
                codec.decode_queries(message.payload, params.ring())
            elif decode == "sums":
                codec.decode_device_sums(message.payload["sums"], params)

    @pytest.mark.parametrize("codec", [CODEC_BINARY, CODEC_JSON])
    def test_length_prefix_beyond_the_cap(self, codec):
        header = struct.pack(">BI", codec, MAX_FRAME_BYTES + 1)
        # The splitter refuses it the moment the five header bytes are in.
        assert split_frames(bytearray(header[:4])) == ([], None)
        frames, error = split_frames(bytearray(header))
        assert frames == [] and "MAX_FRAME_BYTES" in str(error)

    @settings(max_examples=300)
    @given(frame_streams(), st.data())
    def test_split_frames_is_read_frame_over_any_chunking(self, stream, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
        chunks = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]
        assert split_over(chunks) == read_over(stream)

    @settings(max_examples=300)
    @given(frame_streams(), st.data())
    def test_split_read_is_split_frames_in_blocks(self, stream, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
        chunks = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]
        in_blocks, one_by_one = read_in_blocks(chunks)
        assert in_blocks == one_by_one

    @closes_what_it_opens
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64) | frame_streams())
    def test_sls_server_over_arbitrary_streams(self, stream):
        """Whatever a peer writes, the serving front-end answers with typed
        frames and closes cleanly; no connection handler dies."""
        store = make_store(32)

        async def run():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            async with SlsServer(store) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(stream)
                writer.write_eof()
                answers = []
                while (obj := await asyncio.wait_for(read_frame(reader), 5)) is not None:
                    answers.append(obj if isinstance(obj, SlsResponse) else SlsResponse.from_wire(obj))
                writer.close()
            return answers, loop_errors

        answers, loop_errors = asyncio.run(run())
        assert loop_errors == []
        for answer in answers:
            assert answer.status == STATUS_OK or answer.kind in ("FrameError", "ConfigurationError")

    def test_split_payloads_are_their_own_bytes(self):
        request = SlsRequest(id=1, table="emb", rows=(1, 2, 3), weights=(1, 1, 1))
        response = SlsResponse(id=2, status=STATUS_OK, values=np.arange(4.0), via="batch")
        tail = encode_frame(request, CODEC_BINARY)[:7]
        buf = bytearray(
            encode_frame(request, CODEC_BINARY) + encode_frame(response, CODEC_BINARY) + tail
        )
        (got_request, got_response), error = split_frames(buf)
        assert error is None and buf == tail  # the partial frame waits for its rest
        for message, array in ((request, got_request.rows), (response, got_response.values)):
            # A view of one frame's payload copy: it pins neither the read
            # buffer nor its neighbours, and the buffer stays resizable.
            assert type(array.base) is bytes and array.base == payload_of(message)
        buf += bytes(64)
        del buf[:32]

    @closes_what_it_opens
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | frame_streams())
    def test_node_server_over_arbitrary_streams(self, stream):
        """Whatever a peer writes, a node answers with typed frames and
        closes cleanly; no connection handler dies of an exception."""
        async def run():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            async with NodeServer("n0") as node:
                reader, writer = await asyncio.open_connection(node.host, node.port)
                writer.write(stream)
                writer.write_eof()
                answers = []
                while (obj := await asyncio.wait_for(read_frame(reader), 5)) is not None:
                    answers.append(obj if isinstance(obj, NodeResponse) else NodeResponse.from_wire(obj))
                writer.close()
            return answers, loop_errors

        answers, loop_errors = asyncio.run(run())
        assert loop_errors == []
        for answer in answers:
            # A ``partial_sum`` before any ``shard_assign`` is refused typed.
            assert answer.status == STATUS_OK or answer.kind in ("FrameError", "ConfigurationError"), answer

    @pytest.mark.parametrize(
        "wire",
        [
            {"id": 1, "rows": ["seven"]},
            {"id": 1, "rows": [[1]]},
            {"id": 1, "rows": 5},
            {"id": "x", "rows": [1]},
            {"id": 1, "rows": [1], "weights": [None]},
            {"id": 1, "rows": [1e400]},
            # JSON ``true`` is not an id, nor is ``"1"``: never coerced.
            {"id": 1, "rows": [True, 2]},
            {"id": 1, "rows": [True, True]},
            {"id": 1, "rows": ["1"]},
            {"id": 1, "rows": "12"},
            {"id": 1, "rows": [1], "weights": [False]},
            {"id": 1, "rows": [1], "weights": ["2"]},
        ],
    )
    def test_json_request_fields_are_typed_or_frame_error(self, wire):
        with pytest.raises(FrameError):
            SlsRequest.from_wire(wire)

    def test_json_integral_floats_stay_terms(self):
        request = SlsRequest.from_wire({"id": 1, "rows": [1.0, 2], "weights": [3.0, 1]})
        assert request.rows == (1, 2) and request.weights == (3, 1)

    @pytest.mark.parametrize(
        "values", [["seven"], [[1.0]], 5, [None], "12", ["1.5"], [True], {"a": 1.0}]
    )
    def test_json_response_fields_are_typed_or_frame_error(self, values):
        with pytest.raises(FrameError):
            SlsResponse.from_wire({"id": 1, "status": "ok", "values": values})
        with pytest.raises(FrameError):
            SlsResponse.from_wire({"id": [], "status": "ok"})

    @settings(max_examples=400)
    @given(st.sampled_from(list(ENVELOPES)), st.data())
    def test_json_envelopes_are_typed_or_frame_error(self, cls, data):
        keys = st.sampled_from(ENVELOPES[cls] + ("id",))
        obj = data.draw(json_values | st.dictionaries(keys, json_values, max_size=6))
        envelope_or_frame_error(cls, obj)

    @closes_what_it_opens
    @pytest.mark.parametrize("table", [["emb"], {"t": 1}], ids=["list", "dict"])
    def test_server_answers_a_badly_typed_envelope_and_serves_on(self, table):
        # Regression: an unhashable table escaped ``enqueue`` as a
        # TypeError, killed the connection and left both frames unanswered.
        store = make_store(32)

        async def run():
            async with SlsServer(store, port=0) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    encode_frame({"id": 1, "op": "sls", "table": table, "rows": [1]})
                    + encode_frame(SlsRequest(id=2, table="emb", rows=(1, 2)), CODEC_BINARY)
                )
                answers = [await asyncio.wait_for(read_frame(reader), 5) for _ in range(2)]
                writer.close()
                return answers, server.stats()

        (bad, good), stats = asyncio.run(run())
        bad = SlsResponse.from_wire(bad)
        assert (bad.id, bad.kind) == (1, "FrameError") and "bad table field" in bad.error
        assert good.id == 2 and np.array_equal(good.values, store.sls("emb", [1, 2]))
        assert stats["requests"] == 1

    @closes_what_it_opens
    @pytest.mark.parametrize(
        "wire, kind",
        [
            ({"id": "x", "op": "heartbeat"}, "FrameError"),
            ({"id": 1, "op": "heartbeat", "payload": "abc"}, "FrameError"),
            (
                # Regression: Ring's ValueError escaped the handler and
                # the peer saw a dropped connection.
                NodeRequest(
                    id=1, op="shard_assign",
                    payload={"params": {"element_bits": 0, "tag_modulus": 251}},
                ),
                "ConfigurationError",
            ),
            # Regression: each of these raised inside the node's handler
            # (AttributeError, TypeError, ValueError, IndexError) and the
            # peer saw a dropped connection, charged as a dead node.
            ({"id": 1, "op": "shard_assign", "payload": {"params": PARAMS, "tables": [1, 2]}},
             "ConfigurationError"),
            ({"id": 1, "op": "shard_assign", "payload": {"params": PARAMS, "ranges": 5}},
             "ConfigurationError"),
            ({"id": 1, "op": "partial_sum", "table": "emb", "directive": 5}, "FrameError"),
            ({"id": 1, "op": "partial_sum", "table": "emb", "directive": ["slow", "x"]},
             "FrameError"),
            ({"id": 1, "op": "partial_sum", "table": "emb", "directive": ["slow"]}, "FrameError"),
            # A hostile peer's delay past the bound: a node would hold a
            # timer that long for it.
            ({"id": 1, "op": "partial_sum", "table": "emb",
              "directive": ["slow", MAX_SLOW_DELAY_S + 1]}, "FrameError"),
        ],
        ids=[
            "id", "payload", "shard_assign", "tables-list", "ranges-int", "directive-int",
            "directive-slow-text", "directive-slow-no-delay", "directive-slow-over-bound",
        ],
    )
    def test_node_answers_a_badly_typed_envelope_and_serves_on(self, wire, kind):
        # Regression: the ValueError killed the node's handler unanswered.
        async def run():
            async with NodeServer("n0") as node:
                reader, writer = await asyncio.open_connection(node.host, node.port)
                writer.write(encode_frame(wire) + encode_frame(NodeRequest(id=2, op="heartbeat")))
                answers = [await asyncio.wait_for(read_frame(reader), 5) for _ in range(2)]
                writer.close()
                return [NodeResponse.from_wire(a) for a in answers]

        bad, good = asyncio.run(run())
        assert (bad.status, bad.kind) == ("error", kind)
        assert (good.id, good.status, good.payload["node"]) == (2, STATUS_OK, "n0")

    @closes_what_it_opens
    def test_coordinator_blames_a_node_whose_envelope_lies(self):
        # Regression: the node's ValueError escaped ``sls_many`` raw, with
        # nobody blamed, no failover and no local rung.
        store = make_store(32)  # 48 rows: n1 owns 24..47
        rows = [[1, 40], [2, 3, 30], [47]]
        want = store.sls_many("emb", rows)

        async def run():
            async with NodeServer("n0") as honest, EnvelopeLiar("n1") as liar:
                nodes = [(s.name, s.host, s.port) for s in (honest, liar)]
                async with ClusterCoordinator(store, nodes, task_timeout_s=5.0) as coordinator:
                    return await coordinator.sls_many("emb", rows), coordinator.stats()

        with obs.journal() as journal:
            got, stats = asyncio.run(run())
        assert np.array_equal(got, want)
        assert (stats["live"], stats["quarantined"]) == (["n0"], ["n1"])
        blamed = [e.worker for e in journal() if e.kind == obs.NODE_BLAME]
        assert blamed == ["n1"]

    #: Per server, two frames with a bad field, two good requests, then a
    #: frame that does not decode at all.
    MALFORMED_SESSION = {
        server: (
            encode_frame({"id": "x", "op": "sls", "rows": ["seven"]}, CODEC_JSON),
            encode_frame(SlsResponse(id=5, status=STATUS_OK), CODEC_BINARY),  # not a request
            *good,
            struct.pack(">BI", CODEC_BINARY, 16) + HEADER.pack(9, 0, 0, 0, 1),
        )
        for server, good in {
            "sls": (
                encode_frame(SlsRequest(id=7, table="emb", rows=(1, 2)), CODEC_BINARY),
                encode_frame(
                    SlsRequest(id=8, table="emb", rows=(3, 4), weights=(2, 1)), CODEC_BINARY
                ),
            ),
            "node": tuple(encode_frame(NodeRequest(id=i, op="heartbeat")) for i in (7, 8)),
        }.items()
    }

    def check_malformed_session(self, server, store, answers):
        # A bad field is answered and the connection lives; the good
        # requests are served on it; the undecodable frame is answered last.
        bad_fields, good, last = answers[:2], answers[2:4], answers[4]
        answer = SlsResponse if server == "sls" else NodeResponse
        assert [answer.from_wire(a).kind for a in bad_fields] == ["FrameError"] * 2
        if server == "sls":
            assert [a.id for a in good] == [7, 8]
            assert np.array_equal(good[0].values, store.sls("emb", [1, 2]))
            assert np.array_equal(good[1].values, store.sls("emb", [3, 4], [2, 1]))
        else:
            good = [NodeResponse.from_wire(a) for a in good]
            assert [(a.id, a.status, a.payload["node"]) for a in good] == [
                (7, STATUS_OK, "n0"), (8, STATUS_OK, "n0")
            ]
        last = answer.from_wire(last)
        assert last.kind == "FrameError" and "kind 9" in last.error

    def session(self, server, store, one_write: bool):
        frames = self.MALFORMED_SESSION[server]

        async def run():
            async with (SlsServer(store) if server == "sls" else NodeServer("n0")) as live:
                reader, writer = await asyncio.open_connection("127.0.0.1", live.port)
                answers = []
                if one_write:
                    writer.write(b"".join(frames))
                    for _ in frames:
                        answers.append(await read_frame(reader))
                else:
                    for frame in frames:
                        writer.write(frame)
                        answers.append(await read_frame(reader))
                # The undecodable frame ended the connection.
                assert await reader.read() == b""
                writer.close()
                return answers

        return asyncio.run(run())

    @closes_what_it_opens
    def test_server_answers_malformed_frames_and_lives(self):
        store = make_store(32)
        for server in self.MALFORMED_SESSION:
            answers = self.session(server, store, one_write=False)
            self.check_malformed_session(server, store, answers)

    @closes_what_it_opens
    def test_server_answers_malformed_frames_in_one_read_alike(self):
        # All five frames in one write, so each server splits them off one
        # read: the same answers in the same order, then the same close.
        store = make_store(32)
        for server in self.MALFORMED_SESSION:
            answers = self.session(server, store, one_write=True)
            self.check_malformed_session(server, store, answers)


# -- bit-identity over every transport -----------------------------------------------


def make_store(element_bits: int, n_rows: int = 48, dim: int = 8) -> SecureEmbeddingStore:
    params = SecNDPParams(element_bits=element_bits)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params),
        UntrustedNdpDevice(params),
        quantization="table",
        bits=min(8, element_bits // 2),  # leave the narrow rings some pooling budget
    )
    store.add_table("emb", np.random.default_rng(element_bits).normal(size=(n_rows, dim)))
    return store


def sample_queries(store, n_rows: int, seed: int):
    """Weighted, unweighted and empty queries inside the table's overflow budget."""
    rng = np.random.default_rng(seed)
    queries = [([], None), ([], [])]
    for weighted in (False, True) * 8:
        max_w = int(rng.integers(1, 4)) if weighted else 1
        pf = int(rng.integers(1, min(store.max_pooling_factor("emb", max_w), 12) + 1))
        rows = rng.integers(0, n_rows, size=pf).tolist()
        queries.append((rows, rng.integers(0, max_w + 1, size=pf).tolist() if weighted else None))
    return queries


class TestBitIdentity:
    @closes_what_it_opens
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_the_binary_node_hop_equals_direct_sls_many(self, element_bits):
        """Three nodes, every shard in flight at once, raw arrays on the
        hop: the batch is bit-identical to the single host's, and no node
        is charged."""
        store = make_store(element_bits)
        queries = sample_queries(store, 48, seed=element_bits)
        rows = [r for r, _ in queries]
        weights = [[1] * len(r) if w is None else w for r, w in queries]
        want = store.sls_many("emb", rows, weights)

        async def run():
            servers = [await NodeServer(f"n{i}").start() for i in range(3)]
            nodes = [(s.name, s.host, s.port) for s in servers]
            async with ClusterCoordinator(store, nodes, task_timeout_s=5.0) as coordinator:
                got = await coordinator.sls_many("emb", rows, weights)
                stats = coordinator.stats()
            for server in servers:
                await server.close()
            return got, stats

        got, stats = asyncio.run(run())
        assert np.array_equal(got, want)
        assert stats["quarantined"] == [] and not any(stats["blame_counts"].values())

    @closes_what_it_opens
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_every_transport_equals_direct_sls(self, element_bits):
        store = make_store(element_bits)
        queries = sample_queries(store, 48, seed=element_bits)
        expected = [store.sls("emb", rows, weights) for rows, weights in queries]

        async def run():
            async with SlsServer(store, port=0) as server:
                clients = {
                    "binary": await AsyncSlsClient.connect("127.0.0.1", server.port),
                    "in_process": AsyncSlsClient.in_process(server.scheduler),
                }
                try:
                    return {
                        name: await asyncio.gather(
                            *[client.sls("emb", rows, weights) for rows, weights in queries]
                        )
                        for name, client in clients.items()
                    }
                finally:
                    for client in clients.values():
                        await client.close()

        for transport, answers in asyncio.run(run()).items():
            for (rows, weights), answer, want in zip(queries, answers, expected):
                assert answer.dtype == np.float64 and answer.flags.writeable
                assert np.array_equal(answer, want), (transport, rows, weights)

    @closes_what_it_opens
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_a_json_sls_frame_is_refused_and_the_connection_serves_on(self, element_bits):
        # A query is served from a binary frame only: a JSON ``sls`` frame
        # draws a JSON ``error`` answer under its own id, and the binary
        # frame behind it on the same connection is still served
        # bit-identically, as are JSON probes.
        store = make_store(element_bits)
        request = SlsRequest(id=11, table="emb", rows=(3, 4), weights=(1, 2))
        frames = [
            encode_frame(request, CODEC_JSON),
            encode_frame(request, CODEC_BINARY),
            encode_frame({"id": 12, "op": "ping"}),
            encode_frame({"id": 13, "op": "heartbeat"}),
        ]

        async def run():
            async with SlsServer(store, port=0) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                seen = []
                for frame in frames:
                    writer.write(frame)
                    header = await reader.readexactly(5)
                    payload = await reader.readexactly(struct.unpack(">I", header[1:])[0])
                    seen.append((header[0], decode_payload(header[0], payload)))
                writer.close()
                return seen, server.stats()

        seen, stats = asyncio.run(run())
        assert [codec for codec, _ in seen] == [CODEC_JSON, CODEC_BINARY, CODEC_JSON, CODEC_JSON]
        refused = SlsResponse.from_wire(seen[0][1])
        assert (refused.id, refused.status, refused.kind) == (11, "error", "FrameError")
        assert "binary frame" in refused.error
        assert np.array_equal(seen[1][1].values, store.sls("emb", [3, 4], [1, 2]))
        for (_codec, answer), (rid, via) in zip(seen[2:], [(12, "ping"), (13, "heartbeat")]):
            probe = SlsResponse.from_wire(answer)
            assert (probe.id, probe.status, probe.via) == (rid, STATUS_OK, via)
        assert stats["requests"] == 1 and stats["responses_ok"] == 1

    @closes_what_it_opens
    @pytest.mark.parametrize("transport", ["binary", "in_process"])
    def test_client_refuses_what_int64_cannot_hold(self, transport):
        store = make_store(64)

        async def run():
            async with SlsServer(store, port=0) as server:
                if transport == "in_process":
                    client = AsyncSlsClient.in_process(server.scheduler)
                else:
                    client = await AsyncSlsClient.connect("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(ConfigurationError, match="int64"):
                        await client.sls("emb", [0], [2**63])
                    with pytest.raises(ConfigurationError, match="int64"):
                        await client.sls_response("emb", [2**64])
                    if transport == "binary":
                        with pytest.raises(ConfigurationError, match="binary frame"):
                            await client.sls("emb" * 30_000, [0])
                    with pytest.raises(ConfigurationError, match="equal length"):
                        await client.sls("emb", [0, 1], [1])
                    assert client._pending == {}  # nothing left waiting for an answer
                    return await client.sls("emb", [0, 1], [2, 3]), server.stats()

        answer, stats = asyncio.run(run())
        assert np.array_equal(answer, store.sls("emb", [0, 1], [2, 3]))
        assert stats["requests"] == 1  # the refused ones never left the client


#: defect -> (table, rows, weights, the one refusal every path gives); 48 rows
REFUSALS = {
    "negative weight": ("emb", [1, 2], [1, -1], "weights must be non-negative integers"),
    "length mismatch": ("emb", [1, 2], [1], "rows and weights must have equal length"),
    "negative weight, lengths differ": (
        "emb", [1, 2], [1, -1, 2], "weights must be non-negative integers"
    ),
    "negative weight, one weight": ("emb", [1, 2], [-1], "weights must be non-negative integers"),
    "unknown table": ("nope", [1, 2], None, "unknown table 'nope'"),
    "over budget": (
        "emb", [1, 2], [2**31, 1],
        "pooling factor 2 with max weight 2147483648 may overflow Z(2^32) "
        "for table 'emb'; split the query",
    ),
    "row = n_rows": ("emb", [1, 48], None, "row id outside [0, 48) for table 'emb'"),
    "row = -1": ("emb", [-1, 1], None, "row id outside [0, 48) for table 'emb'"),
}


class TestBothLinksCarryTheFrame:
    """The in-process link takes the frame a socket carries: its answers are
    the TCP answers bit for bit, and a refusal has the same words on both."""

    @closes_what_it_opens
    def test_answers_and_refusals_are_the_same_on_both_links(self):
        store = make_store(32)
        queries = sample_queries(store, 48, seed=5)

        def fault(block, replies):
            raise RuntimeError("a fault taking a block")

        async def run():
            async with SlsServer(store, port=0) as server:
                links = {
                    "tcp": await AsyncSlsClient.connect("127.0.0.1", server.port),
                    "in_process": AsyncSlsClient.in_process(server.scheduler),
                }
                seen = {}
                for name, client in links.items():
                    async with client:
                        answers = await asyncio.gather(
                            *[client.sls_response("emb", rows, weights) for rows, weights in queries]
                        )
                        refusals = [
                            await client.sls_response("emb", [1, 2], [1, -1]),  # the store's
                            # an ``sls`` request with no table leaves as a JSON frame
                            await client.request(SlsRequest(id=client._new_id(), table=None)),
                        ]
                        server.scheduler.enqueue_block = fault  # a block refused whole
                        refusals.append(await client.sls_response("emb", [1]))
                        del server.scheduler.enqueue_block
                        seen[name] = answers, refusals
                return seen

        seen = asyncio.run(run())
        (tcp, tcp_refusals), (local, local_refusals) = seen["tcp"], seen["in_process"]
        for a, b, (rows, weights) in zip(tcp, local, queries):
            assert (a.id, a.status, a.via) == (b.id, b.status, b.via) == (a.id, STATUS_OK, "batch")
            assert same_bits(a.values, b.values)
            assert np.array_equal(a.values, store.sls("emb", rows, weights))
        assert [(r.status, r.kind, r.error) for r in tcp_refusals] == [
            (r.status, r.kind, r.error) for r in local_refusals
        ] == [
            ("error", "ConfigurationError", "weights must be non-negative integers"),
            ("error", "FrameError", "an 'sls' request is served from a binary frame only"),
            ("error", "RuntimeError", "a fault taking a block"),
        ]


class TestOneRefusalOnEveryPath:
    """An invalid query meets the same ``ConfigurationError`` on every
    serving path, before a pad is generated or a node hears of it.  On
    both client transports, a query no block or binary frame can hold
    (weights not one per row) is refused by the client before it leaves,
    so the server counts no request; the store refuses the rest."""

    @staticmethod
    async def refused(client, server, table, rows, weights):
        if len(rows) != len(weights or rows):
            with pytest.raises(ConfigurationError) as refusal:
                await client.sls_response(table, rows, weights)
            assert client._pending == {}
            assert server.stats()["requests"] == 0
            return str(refusal.value)
        response = await client.sls_response(table, rows, weights)
        assert (response.status, response.kind) == ("error", "ConfigurationError")
        stats = server.stats()
        assert stats["rejected_invalid"] == 1 and stats["batches"] == 0
        return response.error

    @classmethod
    async def front_end(cls, store, table, rows, weights):
        scheduler = BatchScheduler(store)
        async with AsyncSlsClient.in_process(scheduler) as client:
            message = await cls.refused(client, scheduler, table, rows, weights)
        await scheduler.close()
        return message

    @classmethod
    async def tcp(cls, store, table, rows, weights):
        """The block path: the refused query read off a socket."""
        async with SlsServer(store) as server:
            async with await AsyncSlsClient.connect("127.0.0.1", server.port) as client:
                return await cls.refused(client, server, table, rows, weights)

    @staticmethod
    async def cluster(store, table, batch_rows, batch_weights):
        sent = []

        class RecordingClient(NodeClient):
            async def request(self, op, table=None, payload=None, timeout=None):
                sent.append(op)
                return await super().request(op, table, payload, timeout)

        async with NodeServer("n0") as s0, NodeServer("n1") as s1:
            nodes = [RecordingClient(s.name, s.host, s.port) for s in (s0, s1)]
            async with ClusterCoordinator(store, nodes, task_timeout_s=5.0) as coordinator:
                del sent[:]  # the set-up traffic
                with pytest.raises(ConfigurationError) as refusal:
                    await coordinator.sls_many(table, batch_rows, batch_weights)
                assert sent == []  # no node was asked for anything
        return str(refusal.value)

    @closes_what_it_opens
    @pytest.mark.parametrize("defect", REFUSALS)
    @pytest.mark.parametrize(
        "path", ["sls", "sls_many", "sls_scatter", "front_end", "tcp", "cluster"]
    )
    def test_same_words_no_pad_no_dispatch(self, path, defect):
        table, rows, weights, text = REFUSALS[defect]
        batch = ([[3, 4], rows], weights and [[1, 1], weights])  # one good query beside it
        store = make_store(32)
        pads = store.cache_info()
        if path in ("front_end", "tcp"):
            message = asyncio.run(getattr(self, path)(store, table, rows, weights))
        elif path == "cluster":
            message = asyncio.run(self.cluster(store, table, *batch))
        else:
            with pytest.raises(ConfigurationError) as refusal:
                if path == "sls":
                    store.sls(table, rows, weights)
                else:
                    getattr(store, path)(table, *batch)
            message = str(refusal.value)
        assert message == text
        assert store.cache_info() == pads


class TestMixedRead:
    @closes_what_it_opens
    def test_every_query_of_one_read_gets_its_own_typed_answer(self):
        """One socket write: valid binary queries, one query per refusal, a
        JSON ``sls`` frame and a ping.  Each id is answered once; each
        valid answer is the query served alone, each refusal a binary
        frame carries has the words every path gives it, each JSON ``sls``
        frame - the refusals no binary frame carries among them - is a
        ``FrameError``, and only the valid queries are admitted and
        batched."""
        store = make_store(32)
        valid = {10 + i: ([i, i + 3, 47], [1, 2, 1] if i % 2 else None) for i in range(5)}
        refused = {100 + i: REFUSALS[defect] for i, defect in enumerate(REFUSALS)}
        unframed = {  # no binary frame carries weights that are not one per row
            rid for rid, (_t, rows, weights, _) in refused.items() if len(weights or rows) != len(rows)
        }

        def frame(rid, table, rows, weights):
            if rid in unframed:  # no binary frame carries it
                return encode_frame(
                    {"id": rid, "op": "sls", "table": table, "rows": rows, "weights": weights}
                )
            request = SlsRequest(id=rid, table=table, rows=rows, weights=weights)
            return encode_frame(request, CODEC_BINARY)

        good = [frame(rid, "emb", *q) for rid, q in valid.items()]
        bad = [frame(rid, *refusal[:3]) for rid, refusal in refused.items()]
        frames = [f for pair in zip_longest(good, bad) for f in pair if f]
        frames.insert(3, encode_frame({"id": 50, "op": "sls", "table": "emb", "rows": [2, 2, 9]}))
        frames.insert(6, encode_frame({"id": 60, "op": "ping"}))

        async def run():
            async with SlsServer(store) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"".join(frames))
                answers = {}
                for _ in frames:
                    header = await asyncio.wait_for(reader.readexactly(5), 5)
                    payload = await reader.readexactly(struct.unpack(">I", header[1:])[0])
                    answer = decode_payload(header[0], payload)
                    if header[0] == CODEC_JSON:
                        answer = SlsResponse.from_wire(answer)
                    assert answer.id not in answers
                    answers[answer.id] = (header[0], answer)
                writer.close()
                return answers, server.stats()

        answers, stats = asyncio.run(run())
        assert len(answers) == len(frames)
        for rid, (rows, weights) in valid.items():
            codec, answer = answers[rid]
            assert codec == CODEC_BINARY and answer.status == STATUS_OK
            assert np.array_equal(answer.values, store.sls("emb", rows, weights))
        assert answers[60][1].status == STATUS_OK and answers[60][1].via == "ping"
        for rid in unframed | {50}:
            codec, answer = answers[rid]
            assert (codec, answer.status, answer.kind) == (CODEC_JSON, "error", "FrameError")
        for rid, (*_query, text) in refused.items():
            codec, answer = answers[rid]
            if rid not in unframed:
                assert (codec, answer.status, answer.kind) == (
                    CODEC_JSON, "error", "ConfigurationError"
                )
                assert answer.error == text
        n_valid, n_refused = len(valid), len(refused) - len(unframed)
        assert stats["admission.admitted"] == n_valid == stats["batch_queries"]
        assert stats["rejected_invalid"] == n_refused
        assert stats["responses_ok"] == n_valid and stats["requests"] == n_valid + n_refused


def answer_of(call):
    """``call()``'s values, or the words of the ``ConfigurationError`` it raises."""
    try:
        return call()
    except ConfigurationError as exc:
        return str(exc)


class TestOneAnswerOnEveryEntryPoint:
    """One differential property: a batch of queries, good or not, gets the
    same answers bit for bit, or the same ``ConfigurationError`` words, from
    ``sls``, ``sls_many``, ``sls_scatter``, the in-process client and the
    front-end's ``verdict``.  A batch meets the term rule, then the table
    rule, and each names the first query it refuses."""

    @staticmethod
    async def through_the_client(store, table, queries):
        scheduler = BatchScheduler(store)
        async with AsyncSlsClient.in_process(scheduler) as client:

            async def one(rows, weights):
                try:
                    response = await client.sls_response(table, rows, weights)
                except ConfigurationError as exc:  # refused before it left
                    return str(exc)
                if response.status == STATUS_OK:
                    return np.asarray(response.values)
                assert response.kind == "ConfigurationError"
                return response.error

            answers = await asyncio.gather(*[one(rows, weights) for rows, weights in queries])
        await scheduler.close()
        return answers

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["emb", "emb", "emb", "nope"]),
        st.lists(store_query(), min_size=1, max_size=4),
    )
    def test_every_entry_point_gives_one_answer(self, table, queries):
        store = make_store(32)
        alone = [answer_of(lambda: store.sls(table, rows, weights)) for rows, weights in queries]
        term_refused = [
            type(answer_of(lambda: query_terms([rows], None if weights is None else [weights])))
            is str
            for rows, weights in queries
        ]
        refusals = [a for a, term in zip(alone, term_refused) if term] or [
            a for a in alone if type(a) is str
        ]
        batch_rows = [rows for rows, _ in queries]
        batch_weights = None
        if any(weights is not None for _, weights in queries):
            batch_weights = [[1] * len(r) if w is None else w for r, w in queries]
        for entry in (store.sls_many, lambda *args: store.sls_scatter(*args)[0]):
            got = answer_of(lambda: entry(table, batch_rows, batch_weights))
            if refusals:
                assert got == refusals[0]
            else:
                assert same_bits(got, np.stack(alone) if alone else got)
        # The client: each query on its own, served or refused.
        for got, want in zip(asyncio.run(self.through_the_client(store, table, queries)), alone):
            assert got == want if type(want) is str else same_bits(got, want)
        # The front-end's check, over the queries a frame carries.
        framed = [q for q, term in enumerate(term_refused) if not term]
        if framed:
            rows, weights, offsets = query_terms(
                [queries[q][0] for q in framed],
                [queries[q][1] or [1] * len(queries[q][0]) for q in framed],
            )
            checked, refused = store.verdict(table, rows, weights, offsets)
            assert {framed[i]: str(exc) for i, exc in refused.items()} == {
                q: alone[q] for q in framed if type(alone[q]) is str
            }
            if checked is not None:
                values, outcomes = store.sls_scatter(table, checked)
                assert all(outcome.ok for outcome in outcomes)
                for i, q in enumerate(framed):
                    if i not in refused:
                        assert same_bits(values[i], alone[q])


class TestCheckedOnce:
    """A served batch meets the table rule once: in the verdict on its read,
    never again in ``sls_scatter``."""

    class Replies:
        def __init__(self, n):
            self.answered = {}
            self.done = asyncio.get_running_loop().create_future()
            self.n = n

        def answers(self, ids, values, vias):
            for rid, row in zip(ids, values):
                self.answered[rid] = np.array(row)
            if len(self.answered) == self.n:
                self.done.set_result(None)

        def answer(self, response):
            raise AssertionError(f"a refusal: {response.error}")

        def cancelled(self):
            return False

    def test_a_served_batch_meets_the_table_rule_once(self, monkeypatch):
        store = make_store(32)
        queries = [q for q in sample_queries(store, 48, seed=9) if q[0]]
        calls = []
        scattering = []
        verdict, refusal, scatter = store.verdict, store._refusal, store.sls_scatter

        def spy(name, real):
            def counted(*args):
                calls.append((name, "sls_scatter" if scattering else "intake"))
                return real(*args)
            return counted

        def spied_scatter(*args):
            scattering.append(True)
            try:
                return scatter(*args)
            finally:
                scattering.pop()

        monkeypatch.setattr(store, "verdict", spy("verdict", verdict))
        monkeypatch.setattr(store, "_refusal", spy("rule", refusal))
        monkeypatch.setattr(store, "sls_scatter", spied_scatter)
        frames = b"".join(
            sls_frame(i + 1, "emb", rows, weights) for i, (rows, weights) in enumerate(queries)
        )
        (block,), error = split_read(bytearray(frames))
        assert error is None and len(block) == len(queries)

        async def run():
            scheduler = BatchScheduler(store, max_batch=len(queries))
            replies = self.Replies(len(queries))
            owed, admitted = scheduler.enqueue_block(block, replies)
            assert (owed, admitted) == ([], len(queries))
            await replies.done
            stats = scheduler.stats()
            await scheduler.close()
            return replies.answered, stats

        answered, stats = asyncio.run(run())
        assert stats["batches"] == 1
        # A clean batch is cleared by the verdict's own one-pass check.
        assert calls == [("verdict", "intake")]
        monkeypatch.undo()
        for i, (rows, weights) in enumerate(queries):
            assert same_bits(answered[i + 1], store.sls("emb", rows, weights))


class TestTypedRefusals:
    """A row past ``int64`` and a weight that is no integer are refused with
    a ``ConfigurationError`` at every entry point, never a bare
    ``OverflowError`` or ``ValueError``."""

    PAST = "rows must be int64 integers: Python int too large to convert to C long"

    @pytest.mark.parametrize(
        "entry", ["sls", "sls_many", "sls_scatter", "pad_share_batch", "partial_sum_batch", "cluster"]
    )
    def test_a_row_past_int64(self, entry):
        store = make_store(32)
        batch = ([[3, 4], [1, 2**70]], [[1, 1], [1, 1]])
        if entry == "cluster":  # refused before any node is asked
            message = asyncio.run(TestOneRefusalOnEveryPath.cluster(store, "emb", *batch))
        else:
            call = {
                "sls": lambda: store.sls("emb", [2**70], [1]),
                "pad_share_batch": lambda: store.processor.pad_share_batch(
                    store.device.stored("emb"), "emb", *batch
                ),
                "partial_sum_batch": lambda: store.device.partial_sum_batch("emb", *batch),
            }.get(entry, lambda: getattr(store, entry)("emb", *batch))
            with pytest.raises(ConfigurationError) as refusal:
                call()
            message = str(refusal.value)
        assert message == self.PAST

    def test_a_nan_weight_split(self):
        with pytest.raises(ConfigurationError, match="weights must be integers or integral floats"):
            make_store(32).sls_split("emb", [1], [float("nan")])


class TestSchedulerTakesEitherForm:
    def test_tuple_and_array_requests_coalesce_into_one_batch(self):
        store = make_store(32)

        async def run():
            scheduler = BatchScheduler(store)
            client = AsyncSlsClient.in_process(scheduler)
            responses = await asyncio.gather(
                client.request(SlsRequest(id=1, table="emb", rows=(1, 2), weights=(3, 1))),
                client.request(
                    SlsRequest(id=2, table="emb", rows=np.array([5, 5, 9]), weights=None)
                ),
                client.request(SlsRequest(id=3, table="emb", rows=[2**70])),
                return_exceptions=True,
            )
            stats = scheduler.stats()
            await scheduler.close()
            return responses, stats

        (first, second, third), stats = asyncio.run(run())
        assert np.array_equal(first.values, store.sls("emb", [1, 2], [3, 1]))
        assert np.array_equal(second.values, store.sls("emb", [5, 5, 9]))
        # A row id no block can hold: refused by the client, as a frame's is.
        assert isinstance(third, ConfigurationError) and "int64" in str(third)
        assert stats["batches"] == 1 and stats["batch_queries"] == 2
        # 5 rows referenced, 4 distinct: counted from a sort of the CSR rows.
        assert stats["dedupe_ratio"] == 4 / 5


class TestTransportSurface:
    def test_one_listener_one_dialler_one_frame_reader(self):
        """Both hops share one transport: a second accept loop or dialler
        under ``src/repro`` fails here, and the deleted one-frame reader
        and writer stay deleted."""
        import ast
        import pathlib

        import repro
        import repro.serve

        # Listening and dialling, as a loop method or as a streams helper.
        calls = {"create_server": [], "create_connection": [], "start_server": [], "open_connection": []}
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in calls
                ):
                    calls[node.func.attr].append(f"{path.name}:{node.lineno}")
        assert [len(sites) for sites in calls.values()] == [1, 1, 0, 0], calls
        for name in ("read_frame", "write_frame"):
            assert name not in repro.serve.__all__ and not hasattr(repro.serve, name)


class SocketlessTransport:
    """What a connection writes to, without a socket: each write, whether
    it is closing and whether it reads."""

    def __init__(self):
        self.writes = []
        self.closing = False
        self.reading = True

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def answers_in(writes):
    """Every frame the writes carried, decoded, as dicts or typed messages."""
    frames, error = split_frames(bytearray(b"".join(writes)))
    assert error is None
    return [NodeResponse.from_wire(f) if isinstance(f, dict) else f for f in frames]


def heartbeat(rid: int) -> bytes:
    return encode_frame(NodeRequest(id=rid, op="heartbeat"), CODEC_BINARY)


class TestProtocolTransport:
    """Both ends are protocols: a read is split and answered inside
    ``data_received``, and what it answered leaves at the read's end."""

    @staticmethod
    def accepted(server):
        connection = _Connection(server)
        connection.connection_made(SocketlessTransport())
        return connection, connection.outbox.transport

    def test_a_frame_delivered_one_byte_a_read(self):
        async def run():
            connection, transport = self.accepted(NodeServer("n0"))
            frame = heartbeat(7)
            for i in range(len(frame)):
                assert transport.writes == [], i
                connection.data_received(frame[i:i + 1])
            return list(transport.writes)  # as the read that completed it left them

        writes = asyncio.run(run())
        assert len(writes) == 1  # written at the end of the read that completed it
        (answer,) = answers_in(writes)
        assert (answer.id, answer.status) == (7, STATUS_OK)

    def test_frames_split_across_reads_leave_at_each_reads_end(self):
        async def run():
            connection, transport = self.accepted(NodeServer("n0"))
            stream = heartbeat(1) + heartbeat(2) + heartbeat(3)
            cut = len(heartbeat(1)) + 5  # two whole frames are two reads apart
            seen = []
            for chunk in (stream[:cut], stream[cut:]):
                connection.data_received(chunk)
                seen.append([a.id for a in answers_in(transport.writes)])
            return seen, len(transport.writes)

        seen, n_writes = asyncio.run(run())
        assert seen == [[1], [1, 2, 3]] and n_writes == 2

    def test_eof_mid_frame_is_answered_with_a_frame_error_then_closed(self):
        async def run():
            connection, transport = self.accepted(NodeServer("n0"))
            connection.data_received(heartbeat(1) + heartbeat(2)[:9])
            assert not transport.closing
            connection.eof_received()
            return answers_in(transport.writes), transport

        (first, refused), transport = asyncio.run(run())
        assert (first.id, first.status) == (1, STATUS_OK)
        assert (refused.id, refused.status, refused.kind) == (0, "error", "FrameError")
        assert transport.closing and not transport.reading

    def test_a_fault_answering_one_frame_spares_the_rest_of_the_read(self):
        # Regression: an exception other than FrameError escaped
        # ``data_received``, asyncio tore the connection down, and every
        # request pipelined behind it went unanswered.
        class Faulty(NodeServer):
            def _answer(self, obj, outbox):
                if obj["id"] == 2:
                    raise AttributeError("a fault answering frame 2")
                return super()._answer(obj, outbox)

        async def run():
            connection, transport = self.accepted(Faulty("n0"))
            connection.data_received(heartbeat(1) + heartbeat(2) + heartbeat(3))
            connection.data_received(heartbeat(4))  # the connection serves on
            return answers_in(transport.writes), transport

        answers, transport = asyncio.run(run())
        assert [(a.id, a.status) for a in answers] == [
            (1, STATUS_OK), (2, "error"), (3, STATUS_OK), (4, STATUS_OK)
        ]
        assert (answers[1].kind, answers[1].error) == ("AttributeError", "a fault answering frame 2")
        assert not transport.closing and transport.reading

    def test_a_refused_block_is_answered_under_each_of_its_ids(self):
        # Regression: a block ``_answer`` raised on was answered once, under
        # id 0, and none of its requests ever got an answer.
        class RefusesBlocks(SlsServer):
            def _answer(self, obj, outbox):
                if type(obj) is RequestBlock:
                    raise AttributeError("a fault answering a block")
                return super()._answer(obj, outbox)

        read = b"".join(
            encode_frame(SlsRequest(id=rid, table="emb", rows=(1, 2)), CODEC_BINARY)
            for rid in (7, 8, 9)
        )

        async def run():
            server = RefusesBlocks(make_store(32))
            connection, transport = self.accepted(server)
            connection.data_received(read)
            refused = len(transport.writes)
            connection.data_received(encode_frame({"id": 10, "op": "ping"}))  # it serves on
            await server.scheduler.close()
            return refused, transport

        refused, transport = asyncio.run(run())
        answers = [SlsResponse.from_wire(f) for f in split_frames(bytearray(b"".join(transport.writes)))[0]]
        assert refused == 1  # the three answers leave in the read's one write
        assert [(a.id, a.status, a.kind) for a in answers[:3]] == [
            (rid, "error", "AttributeError") for rid in (7, 8, 9)
        ]
        assert {a.error for a in answers[:3]} == {"a fault answering a block"}
        assert [(a.id, a.status, a.via) for a in answers[3:]] == [(10, STATUS_OK, "ping")]
        assert not transport.closing and transport.reading

    @closes_what_it_opens
    def test_a_slow_answer_is_a_timer_its_connection_cancels(self):
        slow = [
            encode_frame({"id": rid, "op": "partial_sum", "table": "emb", "directive": ["slow", 30]})
            for rid in (1, 2)
        ]

        async def run():
            async with NodeServer("n0") as node:
                reader, writer = await asyncio.open_connection(node.host, node.port)
                writer.write(b"".join(slow) + heartbeat(3))
                answer = NodeResponse.from_wire(await asyncio.wait_for(read_frame(reader), 5))
                (connection,) = node._connections
                timers = set(connection.outbox.timers)
                writer.close()  # the peer goes with both answers still due
                await asyncio.wait_for(connection.lost, 5)
                return answer, timers, connection

        answer, timers, connection = asyncio.run(run())
        assert answer.id == 3  # the slow two did not hold the connection up
        assert len(timers) == 2 and all(timer.cancelled() for timer in timers)
        assert connection.outbox.timers == set()

    def test_an_answer_delivered_one_byte_a_read_resolves_at_the_last(self):
        async def run():
            client = AsyncSlsClient()
            client._link = _Link(client)
            client._link.connection_made(SocketlessTransport())
            answer = client.send(NodeRequest(id=5, op="heartbeat"))
            frame = encode_frame(NodeResponse(id=5, status=STATUS_OK, payload={"node": "n0"}))
            for i in range(len(frame)):
                assert not answer.done(), i
                client._link.data_received(frame[i:i + 1])
            return answer.result(), client._pending

        response, pending = asyncio.run(run())
        assert (response.id, response.payload) == (5, {"node": "n0"}) and pending == {}

    @closes_what_it_opens
    def test_a_peer_that_stops_reading_pauses_the_servers_reads(self):
        """A peer that writes and never reads fills the server's socket; the
        server then reads no more from it, and reads again once it drains."""
        import socket

        n = 4000

        async def run():
            loop = asyncio.get_running_loop()
            async with NodeServer("n0") as node:
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                try:
                    await loop.sock_connect(sock, (node.host, node.port))
                    while not node._connections:
                        await asyncio.sleep(0.001)
                    (connection,) = node._connections
                    server_side = connection.outbox.transport
                    server_side.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                    )
                    await asyncio.wait_for(
                        loop.sock_sendall(sock, b"".join(heartbeat(i + 1) for i in range(n))), 5
                    )
                    for _ in range(500):
                        if not server_side.is_reading():
                            break
                        await asyncio.sleep(0.001)
                    paused = not server_side.is_reading()
                    buf, answers = bytearray(), []
                    while len(answers) < n:
                        buf += await asyncio.wait_for(loop.sock_recv(sock, 1 << 16), 5)
                        answers += split_frames(buf)[0]
                    return paused, server_side.is_reading(), len(answers)
                finally:
                    sock.close()

        paused, resumed, answered = asyncio.run(run())
        assert paused and resumed and answered == n

    def test_only_a_client_that_may_resend_keeps_its_frames(self):
        # A non-reconnecting client (the node hop's) never re-sends, so it
        # keeps no frame while it waits: a ``shard_assign`` is a whole table.
        request = NodeRequest(id=5, op="heartbeat")

        async def run():
            kept = {}
            for reconnect in (True, False):
                client = AsyncSlsClient()
                client._allow_reconnect = reconnect
                client._link = _Link(client)
                client._link.connection_made(SocketlessTransport())
                client.send(request)
                kept[reconnect] = client._pending[5][1]
            return kept

        kept = asyncio.run(run())
        assert kept == {True: encode_frame(request, CODEC_BINARY), False: None}

    @closes_what_it_opens
    def test_a_reconnect_resends_the_stored_frames_unencoded(self, monkeypatch):
        """A request is written once: the frames a reconnect re-sends are the
        bytes first sent, in one write, and nothing is encoded again."""
        from repro.serve import server as server_module

        written = []
        for name in ("sls_frame", "encode_frame"):
            def counted(*args, _write=getattr(server_module, name), **kwargs):
                written.append(args[0])
                return _write(*args, **kwargs)
            monkeypatch.setattr(server_module, name, counted)
        reads, peers = [], []  #: what each connection carried; their handlers

        async def peer(reader, writer):
            peers.append(asyncio.current_task())
            reads.append(await reader.readexactly(len(expected)))
            if len(reads) == 1:
                writer.transport.abort()  # as a crashed peer: no answer, a reset
            else:
                frames, _error = split_frames(bytearray(reads[-1]))
                writer.write(b"".join(
                    encode_frame(
                        SlsResponse(id=f.id, status=STATUS_OK, values=(1.0,), via="batch"),
                        CODEC_BINARY,
                    )
                    if isinstance(f, SlsRequest)
                    else encode_frame({"id": f["id"], "status": STATUS_OK, "via": "ping"})
                    for f in frames
                ))
                await reader.read()  # until the client closes
            writer.close()

        expected = (
            sls_frame(1, "emb", [1, 2], [1, 1])
            + sls_frame(2, "emb", [3], None)
            + encode_frame(SlsRequest(id=3, op="ping"), CODEC_BINARY)
        )

        async def run():
            listener = await asyncio.start_server(peer, "127.0.0.1", 0)
            client = await AsyncSlsClient.connect("127.0.0.1", listener.sockets[0].getsockname()[1])
            try:
                return await asyncio.wait_for(asyncio.gather(
                    client.sls_response("emb", [1, 2], [1, 1]),
                    client.sls_response("emb", [3]),
                    client.ping(),
                ), 5)
            finally:
                await client.close()
                await asyncio.wait_for(asyncio.gather(*peers), 5)
                listener.close()
                await listener.wait_closed()

        first, second, alive = asyncio.run(run())
        assert reads == [expected, expected]
        assert len(written) == 3  # one write of each request, none at the re-send
        assert (first.id, second.id) == (1, 2) and first.values.tolist() == [1.0] and alive

    @closes_what_it_opens
    def test_a_reconnect_resends_what_was_pending(self):
        """The connection drops with a request in flight: the client dials
        again and re-sends it under its own id, and it is answered."""
        seen = []

        class DropsFirst(NodeServer):
            def _answer(self, obj, outbox):
                seen.append(obj["id"])  # a heartbeat travels as JSON
                if len(seen) == 1:
                    outbox.transport.abort()  # as a crashed peer: no answer, a reset
                    return None
                return super()._answer(obj, outbox)

        async def run():
            async with DropsFirst("n0") as node:
                client = await AsyncSlsClient.connect(node.host, node.port)
                try:
                    return await client.request(NodeRequest(id=client._new_id(), op="heartbeat"), 5)
                finally:
                    await client.close()

        obs.enable()
        try:
            response = asyncio.run(run())
            reconnects = obs.get_registry().counter("serve.client.reconnects")
        finally:
            obs.disable()
            obs.reset()
        assert response.status == STATUS_OK and seen == [response.id, response.id]
        assert reconnects == 1


class TestAnswerWriting:
    """``encode_answers`` writes a batch's ``ok`` frames in one buffer, and
    a refused frame is answered under its own id only if that id is typed."""

    def test_a_batch_of_answers_is_one_ok_frame_per_id(self):
        values = np.arange(12, dtype=np.float64).reshape(3, 4) - 5.5
        buf = bytearray(encode_answers([7, 8, 9], values, ["batch", "scatter", None]))
        frames, error = split_frames(buf)
        assert error is None and not buf
        assert [(f.id, f.status, f.via) for f in frames] == [
            (7, STATUS_OK, "batch"), (8, STATUS_OK, "scatter"), (9, STATUS_OK, None),
        ]
        assert all(np.array_equal(f.values, row) for f, row in zip(frames, values))

    def test_answers_without_values_carry_none(self):
        frames, error = split_frames(bytearray(encode_answers([1, 2], None, ["ping", "ping"])))
        assert error is None
        assert [(f.id, f.values, f.via) for f in frames] == [(1, None, "ping"), (2, None, "ping")]

    def test_an_id_past_its_field_is_a_typed_refusal(self):
        with pytest.raises(ConfigurationError, match="does not fit the binary frame"):
            encode_answers([1 << 80], None, [None])

    @pytest.mark.parametrize(
        "obj, rid",
        [
            ({"id": 12}, 12),
            ({"id": "12"}, 0),
            ({"id": True}, 0),
            ({}, 0),
            (SlsRequest(id=5, table="emb", rows=(1,)), 5),
            (None, 0),
        ],
        ids=["json-int", "json-text", "json-bool", "json-none", "typed", "undecoded"],
    )
    def test_a_refusal_answers_the_frame_id_only_when_it_is_an_int(self, obj, rid):
        assert reply_id(obj) == rid
