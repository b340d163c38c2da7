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
socket has into a buffer and takes every complete frame off it with
:func:`split_frames`, the one frame reader; it checks each header
through :func:`frame_header`, so an oversized length prefix is refused
the moment its five bytes are in.

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
from typing import Any, Dict, List, Optional, Tuple, Union

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
    "pack_segment",
    "take_segment",
    "encode_frame",
    "decode_payload",
    "frame_header",
    "split_frames",
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
        weights = obj.get("weights")
        try:
            return cls(
                id=rid,
                op=op,
                table=table,
                rows=tuple(integral_terms(obj.get("rows") or (), "rows").tolist()),
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
        values = obj.get("values")
        try:
            values = None if values is None else tuple(float(v) for v in values)
        except (TypeError, ValueError, OverflowError) as exc:
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


def pack_segment(values, dtype: str) -> bytes:
    """``values`` as one raw array segment of (little-endian) ``dtype``."""
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def take_segment(
    payload: bytes, offset: int, dtype: str, count: int
) -> Tuple[np.ndarray, int]:
    """``count`` elements of ``dtype`` at ``offset`` of ``payload``: a
    read-only zero-copy view and the offset just past it.  The declared
    count is checked against the bytes that are there *before* an array is
    built from it, so a hostile count can neither allocate nor overread."""
    end = offset + count * np.dtype(dtype).itemsize
    if count < 0 or end > len(payload):
        raise FrameError(
            f"segment of {count} x {dtype} at byte {offset} overruns a "
            f"{len(payload)}-byte frame"
        )
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset), end


def _pack_binary(message) -> Optional[bytes]:
    """The binary body of an ``sls`` request / ``ok`` response, else ``None``."""
    if isinstance(message, SlsRequest) and message.op == "sls" and message.table is not None:
        rows = int64_terms(message.rows, "rows")
        body, flags = [pack_segment(rows, "<i8")], 0
        if message.weights is not None:
            weights = int64_terms(message.weights, "weights")
            if weights.size != rows.size:
                raise ConfigurationError("rows and weights must have equal length")
            body.append(pack_segment(weights, "<i8"))
            flags = _HAS_ARRAY
        body.append(str(message.table).encode("utf-8"))
        head = (_KIND_REQUEST, flags, len(body[-1]), rows.size)
    elif (
        isinstance(message, SlsResponse)
        and message.status == STATUS_OK
        and message.error is None
        and message.kind is None
        and message.via in VIAS
    ):
        body = [] if message.values is None else [pack_segment(message.values, "<f8")]
        count = len(body[0]) // 8 if body else 0
        head = (_KIND_RESPONSE, _HAS_ARRAY if body else 0, VIAS.index(message.via), count)
    else:
        return None
    try:
        return _BINARY.pack(*head, message.id) + b"".join(body)
    except struct.error as exc:  # an id, count or name length its field cannot hold
        raise ConfigurationError(f"message does not fit the binary frame: {exc}") from None


def _unpack_binary(payload: bytes) -> Union[SlsRequest, SlsResponse]:
    if len(payload) < _BINARY.size:
        raise FrameError(f"binary frame of {len(payload)} bytes has no header")
    kind, flags, aux, count, ident = _BINARY.unpack_from(payload)
    if flags & ~_HAS_ARRAY:
        raise FrameError(f"unknown binary frame flags {flags:#x}")
    end = _BINARY.size
    if kind == _KIND_REQUEST:
        rows, end = take_segment(payload, end, "<i8", count)
        weights = None
        if flags:
            weights, end = take_segment(payload, end, "<i8", count)
        if len(payload) - end != aux:
            raise FrameError(
                f"{len(payload) - end} bytes after the terms, table name declared as {aux}"
            )
        try:
            table = payload[end:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"table name is not UTF-8: {exc}") from exc
        return SlsRequest(id=ident, table=table, rows=rows, weights=weights)
    if kind == _KIND_RESPONSE:
        if aux >= len(VIAS):
            raise FrameError(f"unknown via code {aux}")
        values = None
        if flags:
            values, end = take_segment(payload, end, "<f8", count)
        if end != len(payload) or (count and not flags):
            raise FrameError("response frame length does not match its value count")
        return SlsResponse(id=ident, status=STATUS_OK, values=values, via=VIAS[aux])
    raise FrameError(f"unknown binary message kind {kind}")


# -- framing -------------------------------------------------------------------


def encode_frame(obj: Any, codec: int = CODEC_JSON) -> bytes:
    """One wire frame: header + encoded payload.

    ``obj`` is a typed message or its ``to_wire()`` dict.  Under
    ``CODEC_BINARY`` an ``sls`` request / ``ok`` response gets the binary
    body and anything else leaves as a JSON frame.
    """
    if codec == CODEC_BINARY:
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
    frames: List[Any] = []
    error: Optional[FrameError] = None
    pos, end = 0, len(buf)
    with memoryview(buf) as view:
        try:
            while end - pos >= _HEADER.size:
                codec, length = frame_header(view, pos)
                start = pos + _HEADER.size
                if end - start < length:
                    break
                pos = start + length
                # Released here, even if an error's traceback still holds
                # it, so ``buf`` can be trimmed below.
                with view[start:pos] as payload:
                    frames.append(decode_payload(codec, payload))
        except FrameError as exc:
            error = exc
    del buf[:pos]
    if error is None and eof and buf:
        error = FrameError(_MID_HEADER if len(buf) < _HEADER.size else _MID_FRAME)
    return frames, error


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
