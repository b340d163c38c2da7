"""Length-prefixed frame protocol for the SLS serving front-end.

One frame = a 5-byte header (codec id + big-endian payload length)
followed by the encoded payload::

    +-------+-------------------+----------------------+
    | codec |   payload bytes   |       payload        |
    | u8    |   u32 big-endian  |  binary / json body  |
    +-------+-------------------+----------------------+

The codec byte travels with every frame, so there is no handshake: a
peer writes what it likes, the reader decodes what it gets, and the
server answers each request in the codec the request came in.

* **binary** (what :class:`~repro.serve.server.AsyncSlsClient` sends)
  covers exactly the two hot messages, an ``sls`` request and an ``ok``
  response: a 16-byte little-endian header
  (``kind u8, flags u8, aux u16, count u32, id u64``), then the rows and
  weights (``<i8``) and the table name, or the values (``<f8``), as raw
  arrays - byte layout in DESIGN.md Sec. 15.  Every count is checked
  against the frame length before an array is built from it, arrays
  decode as zero-copy views, and the decoder's only outcomes are a typed
  message or :class:`FrameError`.  What the format cannot express (a row
  id or weight outside ``int64``, weights not one per row, an id outside
  ``u64``, a table name over 65 535 bytes) the encoder refuses with
  :class:`~repro.errors.ConfigurationError` rather than truncating.
* **json** carries every other message (probes, typed errors, the whole
  node hop): under the binary codec such a message simply leaves as a
  JSON frame.  The server still answers a JSON ``sls`` frame in JSON.
  Shortest-repr floats survive JSON bit-exactly, so both codecs keep the
  bit-identity guarantees.

Message schemas (plain dicts under JSON, typed dataclasses in-process):

* request - ``{"id": int, "op": "sls", "table": str, "rows": [int],
  "weights": [int] | null}``; ``op: "ping"`` / ``op: "heartbeat"``
  carry no query fields.
* response - ``{"id": int, "status": "ok" | "error" | "overloaded" |
  "shutting_down", "values": [float] | null, "error": str | null,
  "kind": str | null}`` where ``kind`` names the server-side exception
  class (``VerificationError``, ``ConfigurationError``, ...) so the
  client re-raises the typed error from :mod:`repro.errors`.
* node request/response - the cluster tier's control+data plane over
  the same framing and the same transport (:class:`NodeRequest` /
  :class:`NodeResponse`): ``op`` is one of :data:`NODE_OPS` and
  everything op-specific travels in a free-form ``payload`` dict
  (shard assignments, partial-sum shares, heartbeat liveness detail).

Every JSON field is type-checked, envelope fields included: a wrong
type is a :class:`FrameError`, never another exception.

Reading: every peer, on both hops and at both ends, reads whatever the
socket has into a buffer and takes every complete frame off it in one
pass of the one frame walker, which checks each header through
:func:`frame_header`, so an oversized length prefix is refused the
moment its five bytes are in.  :func:`split_frames` decodes each frame
from a copy of its own; :func:`split_read` - the serving front-end's
and the client's - decodes a read's frames from one copy, and a run of
binary ``sls`` requests for one table as one :class:`RequestBlock`.
:func:`encode_answers` is its write-side mirror: a batch's ``ok``
answers to one connection as one array and one ``tobytes()``.

Liveness: :func:`resolve_heartbeat_timeout` is the one place the
dead-peer deadline comes from (``SECNDP_HEARTBEAT_TIMEOUT`` in the
environment), so the single-node client and the cluster tier time out
reads identically instead of hanging on a dead peer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.device import integral_terms
from ..errors import ConfigurationError

__all__ = [
    "CODEC_JSON",
    "CODEC_BINARY",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOADED",
    "STATUS_SHUTTING_DOWN",
    "RESPONSE_STATUSES",
    "NODE_OPS",
    "ENV_HEARTBEAT_TIMEOUT",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "FrameError",
    "SlsRequest",
    "SlsResponse",
    "NodeRequest",
    "NodeResponse",
    "VIAS",
    "int64_terms",
    "reply_id",
    "RequestBlock",
    "encode_answers",
    "encode_frame",
    "decode_payload",
    "frame_header",
    "split_frames",
    "split_read",
    "resolve_heartbeat_timeout",
]

CODEC_JSON = 1
CODEC_BINARY = 3  #: 2 was the msgpack codec; a retired id is not reused

#: Hard cap on a single frame's payload; a length prefix beyond this is
#: treated as a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">BI")

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_SHUTTING_DOWN = "shutting_down"
RESPONSE_STATUSES = (
    STATUS_OK,
    STATUS_ERROR,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
)

#: Cluster-tier frame ops (NodeRequest.op vocabulary): shard assignment
#: ships a table replica + owned row range to a node, partial_sum asks
#: for one shard's PartialSumShare over masked sub-queries, heartbeat
#: probes liveness, shutdown drains the node.
NODE_OPS = ("shard_assign", "partial_sum", "heartbeat", "shutdown")

ENV_HEARTBEAT_TIMEOUT = "SECNDP_HEARTBEAT_TIMEOUT"

#: Default liveness deadline for heartbeats and cluster dispatches; a
#: peer that does not answer within this window is treated as dead or
#: partitioned rather than waited on forever.
DEFAULT_HEARTBEAT_TIMEOUT_S = 5.0


def resolve_heartbeat_timeout(value: Optional[float] = None) -> float:
    """The liveness deadline in seconds (explicit > env > default).

    An explicit argument wins, otherwise ``SECNDP_HEARTBEAT_TIMEOUT``
    from the environment, otherwise :data:`DEFAULT_HEARTBEAT_TIMEOUT_S`.
    Zero, a negative value, NaN and infinity are refused: the result is
    the deadline of every dispatch and heartbeat.
    """
    if value is not None:
        timeout = float(value)
    else:
        raw = os.environ.get(ENV_HEARTBEAT_TIMEOUT, "").strip()
        try:
            timeout = float(raw) if raw else DEFAULT_HEARTBEAT_TIMEOUT_S
        except ValueError:
            raise ConfigurationError(
                f"{ENV_HEARTBEAT_TIMEOUT}={raw!r} is not a number"
            ) from None
    if not (math.isfinite(timeout) and timeout > 0):
        raise ConfigurationError(
            f"heartbeat timeout must be positive and finite, got {timeout}"
        )
    return timeout


class FrameError(ConfigurationError):
    """A malformed, oversized or unsupported frame."""


_INT64_MAX = (1 << 63) - 1


def int64_terms(values, what: str) -> np.ndarray:
    """``values`` (row ids or weights) as the flat ``int64`` array a frame
    carries; what is not an integer (:func:`~repro.core.device.integral_terms`)
    or does not fit (a weight >= 2^63) is a
    :class:`~repro.errors.ConfigurationError`, never a truncated or
    wrapped value."""
    terms = integral_terms(values, what)
    try:
        if terms.dtype.kind == "u" and terms.size and int(terms.max()) > _INT64_MAX:
            raise OverflowError("unsigned value above 2^63 - 1")
        return terms.astype(np.int64, copy=False)
    except OverflowError as exc:
        raise ConfigurationError(f"{what} must be int64 integers: {exc}") from None


def _listed(values) -> list:
    """A tuple or array field as a JSON-able list."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


_TEXT = (str, type(None))


def _field(obj: Dict[str, Any], key: str, types: Tuple[type, ...], default: Any = None) -> Any:
    """An envelope field of a JSON message (``default`` when absent) if its
    type is one of ``types``, else :class:`FrameError`.  Types are exact:
    a JSON ``true`` is not an ``id``."""
    value = obj.get(key, default)
    if type(value) not in types:
        raise FrameError(f"bad {key} field: {type(value).__name__} {value!r:.40}")
    return value


_NUMBERS = (int, float)


def _numbers(obj: Dict[str, Any], key: str) -> Optional[list]:
    """A JSON array-of-numbers field (``None`` when absent or null): a list
    of ints and floats, else :class:`FrameError`.  A JSON ``true`` or
    ``"12"`` is not a number, and a string is not an array."""
    value = obj.get(key)
    if value is not None and (
        type(value) is not list or not all(type(v) in _NUMBERS for v in value)
    ):
        raise FrameError(f"bad {key} field: {type(value).__name__} {value!r:.40}")
    return value


def reply_id(obj: Any) -> int:
    """The id to answer a JSON frame that did not decode with: its own,
    if it has a well-typed one, else 0."""
    rid = obj.get("id") if isinstance(obj, dict) else None
    return rid if type(rid) is int else 0


# ``eq=False``: the array-valued fields make field-wise ``==`` meaningless.
@dataclass(frozen=True, eq=False)
class SlsRequest:
    """One client query (or control message) as it crosses the wire.

    ``rows`` / ``weights`` are tuples of ints or ``int64`` arrays; the
    client and the binary decoder build arrays, so a query reaches the
    store without a per-element pass.
    """

    id: int
    op: str = "sls"
    table: Optional[str] = None
    rows: Union[Tuple[int, ...], np.ndarray] = ()
    weights: Union[Tuple[int, ...], np.ndarray, None] = None

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "op": self.op,
            "table": self.table,
            "rows": _listed(self.rows),
            "weights": None if self.weights is None else _listed(self.weights),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "SlsRequest":
        if not isinstance(obj, dict):
            raise FrameError(f"request payload must be a dict, got {type(obj).__name__}")
        op = _field(obj, "op", _TEXT, "sls")
        if op not in ("sls", "ping", "heartbeat"):
            raise FrameError(f"unknown request op {op!r}")
        rid = _field(obj, "id", (int,), 0)
        table = _field(obj, "table", _TEXT)
        rows, weights = _numbers(obj, "rows"), _numbers(obj, "weights")
        try:
            return cls(
                id=rid,
                op=op,
                table=table,
                rows=tuple(integral_terms(rows or (), "rows").tolist()),
                weights=None
                if weights is None
                else tuple(integral_terms(weights, "weights").tolist()),
            )
        except ConfigurationError as exc:
            raise FrameError(f"bad request field: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SlsResponse:
    """One server answer; ``values`` (a tuple of floats or a ``float64``
    array) only on ``status == "ok"``."""

    id: int
    status: str
    values: Union[Tuple[float, ...], np.ndarray, None] = None
    error: Optional[str] = None
    kind: Optional[str] = None
    #: scheduler detail for observability, one of :data:`VIAS`
    via: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise FrameError(f"unknown response status {self.status!r}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "values": None if self.values is None else _listed(self.values),
            "error": self.error,
            "kind": self.kind,
            "via": self.via,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "SlsResponse":
        if not isinstance(obj, dict):
            raise FrameError(f"response payload must be a dict, got {type(obj).__name__}")
        rid = _field(obj, "id", (int,), 0)
        status, error, kind, via = (_field(obj, k, _TEXT) for k in ("status", "error", "kind", "via"))
        values = _numbers(obj, "values")
        try:
            values = None if values is None else tuple(float(v) for v in values)
        except OverflowError as exc:  # an integer past the float range
            raise FrameError(f"bad response field: {exc}") from exc
        return cls(id=rid, status=status, values=values, error=error, kind=kind, via=via)


@dataclass(frozen=True)
class NodeRequest:
    """One cluster-tier control/data message (coordinator -> node).

    Same framing as :class:`SlsRequest`; ``op`` comes from
    :data:`NODE_OPS` and everything op-specific (serialized tables,
    masked sub-queries, fault directives) travels in ``payload`` so the
    frame vocabulary stays closed while the cluster codec evolves.
    """

    id: int
    op: str
    table: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in NODE_OPS:
            raise FrameError(f"unknown node op {self.op!r}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "op": self.op,
            "table": self.table,
            "payload": self.payload,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "NodeRequest":
        if not isinstance(obj, dict):
            raise FrameError(
                f"node request payload must be a dict, got {type(obj).__name__}"
            )
        return cls(
            id=_field(obj, "id", (int,), 0),
            op=_field(obj, "op", _TEXT),
            table=_field(obj, "table", _TEXT),
            payload=_field(obj, "payload", (dict,), {}),
        )


@dataclass(frozen=True)
class NodeResponse:
    """One node answer; op-specific results live in ``payload``."""

    id: int
    status: str
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    kind: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise FrameError(f"unknown response status {self.status!r}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "payload": self.payload,
            "error": self.error,
            "kind": self.kind,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "NodeResponse":
        if not isinstance(obj, dict):
            raise FrameError(
                f"node response payload must be a dict, got {type(obj).__name__}"
            )
        return cls(
            id=_field(obj, "id", (int,), 0),
            status=_field(obj, "status", _TEXT),
            payload=_field(obj, "payload", (dict,), {}),
            error=_field(obj, "error", _TEXT),
            kind=_field(obj, "kind", _TEXT),
        )


# -- the binary body -----------------------------------------------------------

_BINARY = struct.Struct("<BBHIQ")  #: kind, flags, aux, count, id
_KIND_REQUEST = 1   #: an ``sls`` request; ``aux`` = table-name bytes
_KIND_RESPONSE = 2  #: an ``ok`` response; ``aux`` = index into VIAS
_HAS_ARRAY = 1      #: flags bit 0: weights (request) / values (response) follow

#: The ``via`` vocabulary of an ``ok`` response, in wire order.
VIAS = (None, "batch", "scatter", "ping", "heartbeat")

_ONE = (1).to_bytes(8, "little")  #: an unweighted term's ``<i8`` weight


def _terms(values, what: str) -> np.ndarray:
    """:func:`int64_terms`, which an ``int64`` array has passed already."""
    if type(values) is np.ndarray and values.dtype == np.int64:
        return values
    return int64_terms(values, what)


def _pack_binary(message) -> Optional[bytes]:
    """The binary body of an ``sls`` request, else ``None``."""
    if not (isinstance(message, SlsRequest) and message.op == "sls" and message.table is not None):
        return None
    rows = _terms(message.rows, "rows")
    body, flags = [rows.tobytes()], 0
    if message.weights is not None:
        weights = _terms(message.weights, "weights")
        if weights.size != rows.size:
            raise ConfigurationError("rows and weights must have equal length")
        body.append(weights.tobytes())
        flags = _HAS_ARRAY
    body.append(str(message.table).encode("utf-8"))
    try:
        head = _BINARY.pack(_KIND_REQUEST, flags, len(body[-1]), rows.size, message.id)
    except struct.error as exc:  # an id, count or name length its field cannot hold
        raise ConfigurationError(f"message does not fit the binary frame: {exc}") from None
    return head + b"".join(body)


def _binary_head(payload, start: int = 0, end: Optional[int] = None) -> Tuple[int, ...]:
    """The header of the binary body ``payload[start:end]`` - kind, flags,
    aux, count, id - and the offset (from ``start``) where its arrays end.

    The one check of a binary frame: every declared length is held
    against the bytes that are there before an array is built from it,
    so a hostile count can neither allocate nor overread.
    """
    size = (len(payload) if end is None else end) - start
    if size < _BINARY.size:
        raise FrameError(f"binary frame of {size} bytes has no header")
    kind, flags, aux, count, ident = _BINARY.unpack_from(payload, start)
    if flags & ~_HAS_ARRAY:
        raise FrameError(f"unknown binary frame flags {flags:#x}")
    if kind == _KIND_REQUEST:
        arrays = _BINARY.size + 8 * count * (1 + flags)
    elif kind == _KIND_RESPONSE:
        if aux >= len(VIAS):
            raise FrameError(f"unknown via code {aux}")
        if count and not flags:
            raise FrameError("response frame length does not match its value count")
        arrays = _BINARY.size + 8 * count
    else:
        raise FrameError(f"unknown binary message kind {kind}")
    if arrays > size:
        raise FrameError(f"{count} x 8-byte terms overruns a {size}-byte frame")
    if kind == _KIND_REQUEST and size - arrays != aux:
        raise FrameError(f"{size - arrays} bytes after the terms, table name declared as {aux}")
    if kind == _KIND_RESPONSE and arrays != size:
        raise FrameError("response frame length does not match its value count")
    return kind, flags, aux, count, ident, arrays


def _table_name(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"table name is not UTF-8: {exc}") from exc


def _unpack_binary(payload) -> Union[SlsRequest, SlsResponse]:
    """A binary body (``bytes`` or a view of them) as a typed message whose
    arrays view ``payload``."""
    kind, flags, aux, count, ident, arrays = _binary_head(payload)
    if kind == _KIND_RESPONSE:
        values = np.frombuffer(payload, "<f8", count, _BINARY.size) if flags else None
        return SlsResponse(id=ident, status=STATUS_OK, values=values, via=VIAS[aux])
    weights = np.frombuffer(payload, "<i8", count, _BINARY.size + 8 * count) if flags else None
    return SlsRequest(
        id=ident,
        table=_table_name(payload[arrays:]),
        rows=np.frombuffer(payload, "<i8", count, _BINARY.size),
        weights=weights,
    )


class RequestBlock:
    """Consecutive ``sls`` requests for one table, held as arrays: what the
    server makes of one socket read and the scheduler queues.

    ``ids`` lists the requests' ids in arrival order; ``rows``,
    ``weights`` and ``offsets`` hold their terms in CSR form (request
    ``q`` owns ``[offsets[q], offsets[q + 1])``), all ``int64`` as they
    arrived - a weight may be negative: the store's verdict judges it.
    ``codec`` is the one their ``ok`` answers leave in.
    """

    __slots__ = ("codec", "table", "ids", "rows", "weights", "offsets")

    def __init__(self, codec: int, table: str, ids: List[int], rows, weights, offsets):
        self.codec = codec
        self.table = table
        self.ids = ids
        self.rows = rows
        self.weights = weights
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def one(cls, request: SlsRequest, codec: int = CODEC_BINARY) -> "RequestBlock":
        """A block of one request; a request no block can hold (not an
        ``sls`` query, terms outside ``int64``, weights not one per row) is
        a :class:`~repro.errors.ConfigurationError`, with a negative weight
        named before a length mismatch, as the store names them."""
        if request.op != "sls" or request.table is None:
            raise ConfigurationError(f"malformed request (op={request.op!r})")
        rows = _terms(request.rows, "rows")
        if request.weights is None:
            weights = np.ones(rows.size, dtype=np.int64)
        else:
            weights = _terms(request.weights, "weights")
            if weights.size != rows.size:
                if weights.size and weights.min() < 0:
                    raise ConfigurationError("weights must be non-negative integers")
                raise ConfigurationError("rows and weights must have equal length")
        offsets = np.array([0, rows.size], dtype=np.int64)
        return cls(codec, request.table, [request.id], rows, weights, offsets)

    @classmethod
    def _of_frames(cls, table: str, frames: list) -> "RequestBlock":
        """The block of ``(id, count, rows, weights)`` binary frames, each
        segment a view of the read's bytes (``None`` weights: all 1)."""
        ids, counts, rows, weights = zip(*frames)
        return cls(
            CODEC_BINARY,
            table,
            list(ids),
            np.frombuffer(b"".join(rows), dtype="<i8"),
            np.frombuffer(
                b"".join([_ONE * n if w is None else w for n, w in zip(counts, weights)]),
                dtype="<i8",
            ),
            np.array(list(accumulate(counts, initial=0)), dtype=np.int64),
        )

    def take(self, keep: Sequence[int]) -> "RequestBlock":
        """The sub-block of the requests at positions ``keep`` (ascending)."""
        lengths = np.diff(self.offsets)
        picked = np.zeros(len(self), dtype=bool)
        picked[keep] = True
        terms = np.repeat(picked, lengths)
        offsets = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(lengths[picked], out=offsets[1:])
        return RequestBlock(
            self.codec,
            self.table,
            [self.ids[q] for q in keep],
            self.rows[terms],
            self.weights[terms],
            offsets,
        )


_VIA_CODES = {via: code for code, via in enumerate(VIAS)}


@lru_cache(maxsize=64)
def _answer_type(dim: Optional[int]) -> np.dtype:
    """One binary ``ok`` frame, header included, answering with ``dim``
    values (``None``: no value array)."""
    fields = [
        ("head", "V7"),  # codec, payload length (>u4), kind, flags
        ("via", "<u2"),
        ("count", "<u4"),
        ("id", "<u8"),
    ]
    return np.dtype(fields if dim is None else fields + [("values", "<f8", (dim,))])


def encode_answers(ids: Sequence[int], values: Optional[np.ndarray], vias: Sequence) -> bytes:
    """The binary ``ok`` frames answering ``ids``, each with its row of
    ``values`` (``None``: no values) and its ``via`` of ``vias``.

    The one writer of a binary ``ok`` answer - :func:`encode_frame`
    writes one as a batch of one.  One structured array holds every
    frame, header included, and leaves as one ``tobytes()``.
    """
    dim = None if values is None else values.shape[1]
    size = _BINARY.size + 8 * (dim or 0)
    if size > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {size} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    frames = np.empty(len(ids), dtype=_answer_type(dim))
    frames["head"] = _HEADER.pack(CODEC_BINARY, size) + bytes(
        (_KIND_RESPONSE, 0 if dim is None else _HAS_ARRAY)
    )
    frames["via"] = [_VIA_CODES[via] for via in vias]
    frames["count"] = dim or 0
    try:
        frames["id"] = ids
    except OverflowError as exc:  # an id its field cannot hold
        raise ConfigurationError(f"message does not fit the binary frame: {exc}") from None
    if dim is not None:
        frames["values"] = values
    return frames.tobytes()


# -- framing -------------------------------------------------------------------


def encode_frame(obj: Any, codec: int = CODEC_JSON) -> bytes:
    """One wire frame: header + encoded payload.

    ``obj`` is a typed message or its ``to_wire()`` dict.  Under
    ``CODEC_BINARY`` an ``sls`` request / ``ok`` response gets the binary
    body and anything else leaves as a JSON frame.
    """
    if codec == CODEC_BINARY:
        if (
            isinstance(obj, SlsResponse)
            and obj.status == STATUS_OK
            and obj.error is None
            and obj.kind is None
            and obj.via in VIAS
        ):
            values = None if obj.values is None else np.asarray(obj.values, "<f8").reshape(1, -1)
            return encode_answers([obj.id], values, [obj.via])
        payload = _pack_binary(obj)
        if payload is None:
            codec = CODEC_JSON
    elif codec != CODEC_JSON:
        raise FrameError(f"unknown codec id {codec}")
    if codec == CODEC_JSON:
        wire = obj.to_wire() if hasattr(obj, "to_wire") else obj
        payload = json.dumps(wire, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(codec, len(payload)) + payload


def decode_payload(codec: int, payload) -> Any:
    """A JSON frame's object, or a binary frame's typed message.

    ``payload`` is ``bytes`` or a view of a read buffer.  JSON decodes
    straight off it; a binary message's arrays view a ``bytes`` copy of
    their own, so they never pin the buffer.
    """
    if codec == CODEC_JSON:
        try:
            return json.loads(str(payload, "utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FrameError(f"bad JSON frame payload: {exc}") from exc
    if codec == CODEC_BINARY:
        return _unpack_binary(bytes(payload))
    raise FrameError(f"unknown codec id {codec}")


_MID_HEADER = "connection closed mid-header"
_MID_FRAME = "connection closed mid-frame"


def frame_header(buf, offset: int = 0) -> Tuple[int, int]:
    """The codec id and payload length of the header at ``offset``; a
    length prefix beyond :data:`MAX_FRAME_BYTES` is a :class:`FrameError`
    before a byte of the payload is waited for."""
    codec, length = _HEADER.unpack_from(buf, offset)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return codec, length


def _frame_spans(
    buf: bytearray, eof: bool
) -> Tuple[List[Tuple[int, int, int]], int, Optional[FrameError]]:
    """The one frame walker: ``(codec, start, end)`` of each complete
    frame's payload at the front of ``buf``, where the last one ends, and
    the :class:`FrameError` that stopped the walk - an oversized length
    prefix, or with ``eof`` a partial frame left over."""
    spans: List[Tuple[int, int, int]] = []
    pos, end = 0, len(buf)
    try:
        while end - pos >= _HEADER.size:
            codec, length = frame_header(buf, pos)
            start = pos + _HEADER.size
            if end - start < length:
                break
            pos = start + length
            spans.append((codec, start, pos))
    except FrameError as exc:
        return spans, pos, exc
    if eof and pos < end:
        return spans, pos, FrameError(_MID_HEADER if end - pos < _HEADER.size else _MID_FRAME)
    return spans, pos, None


def split_frames(buf: bytearray, eof: bool = False) -> Tuple[List[Any], Optional[FrameError]]:
    """Take every complete frame off the front of ``buf`` and decode it.

    Returns the decoded frames, in order, and the :class:`FrameError` that
    stopped the split (``None`` if it did not stop): an oversized length
    prefix, an undecodable payload, or - with ``eof``, the peer having
    closed - a partial frame left over.  The frames before an error are
    returned; the peer is to be answered and dropped after them.  What
    stays in ``buf`` is less than one frame.  A decoded array views a
    copy of its own frame's payload and never pins the read buffer; a
    JSON frame, the whole ``shard_assign`` table included, decodes
    straight off the buffer, without that copy.
    """
    spans, pos, error = _frame_spans(buf, eof)
    frames: List[Any] = []
    with memoryview(buf) as view:
        for codec, start, end in spans:
            try:
                # Released here, even if an error's traceback still holds
                # it, so ``buf`` can be trimmed below.
                with view[start:end] as payload:
                    frames.append(decode_payload(codec, payload))
            except FrameError as exc:
                error = exc
                break
    del buf[:pos]
    return frames, error


def split_read(buf: bytearray, eof: bool = False) -> Tuple[List[Any], Optional[FrameError]]:
    """:func:`split_frames` for a peer that reads many small frames a read.

    The complete frames are copied off ``buf`` once, and every frame
    decodes from that copy: a binary ``ok`` answer's values own a copy of
    their bytes (so a kept answer pins nothing else), and each run of
    consecutive binary ``sls`` requests for one table comes back as one
    :class:`RequestBlock` - a header check and two slices a request, no
    typed request and no array of its own.
    Anything else decodes as in :func:`split_frames`, and the frames and
    errors are its, frame for frame.
    """
    spans, pos, error = _frame_spans(buf, eof)
    data = bytes(buf[:pos])
    del buf[:pos]
    view = memoryview(data)
    items: List[Any] = []
    run: Optional[list] = None  #: the open block's frames; ``items`` holds ``(table, run)``
    table = b""
    for codec, start, end in spans:
        try:
            if codec != CODEC_BINARY:
                run = None
                items.append(decode_payload(codec, view[start:end]))
                continue
            kind, flags, aux, count, ident, arrays = _binary_head(data, start, end)
            if kind == _KIND_RESPONSE:
                # Its values own a copy of their bytes: a kept answer pins
                # nothing else (the frame's header included).
                run = None
                values = np.frombuffer(data[start + _BINARY.size : end], "<f8") if flags else None
                items.append(SlsResponse(ident, STATUS_OK, values=values, via=VIAS[aux]))
                continue
            rows, name = start + _BINARY.size, start + arrays
            if run is None or data[name:end] != table:
                table = data[name:end]
                items.append((_table_name(table), []))
                run = items[-1][1]
            weights = rows + 8 * count
            run.append((ident, count, view[rows:weights], view[weights:name] if flags else None))
        except FrameError as exc:
            error = exc
            break
    return [
        RequestBlock._of_frames(*item) if type(item) is tuple else item
        for item in items
    ], error


def error_response(
    request_id: int,
    exc: BaseException,
    status: str = STATUS_ERROR,
    via: Optional[str] = None,
) -> SlsResponse:
    """Map a server-side exception to a typed wire response."""
    return SlsResponse(
        id=request_id,
        status=status,
        error=str(exc),
        kind=type(exc).__name__,
        via=via,
    )
