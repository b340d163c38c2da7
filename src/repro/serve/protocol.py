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
  covers exactly the hot messages of both hops: an ``sls`` request and
  its ``ok`` response, and a ``partial_sum`` node request and its ``ok``
  sums answer.  Each is a 16-byte little-endian header
  (``kind u8, flags u8, aux u16, count u32, id u64``), a node frame's
  fixed extension after it, then raw arrays - byte layouts in DESIGN.md
  Secs. 15 and 16.  Every count, width and length is checked against
  the frame length before an array is built from it (:func:`_binary_head`),
  arrays decode as zero-copy views, and the decoder's only outcomes are
  a typed message or :class:`FrameError`.  What the format cannot
  express (a row id or weight outside ``int64``, weights not one per
  row, an id outside ``u64``, a table name over 65 535 bytes) the
  encoder refuses with :class:`~repro.errors.ConfigurationError` rather
  than truncating.
* **json** carries every other message (probes, typed errors, the node
  hop's control frames): under the binary codec such a message simply
  leaves as a JSON frame.  The server still answers a JSON ``sls`` frame
  in JSON, and a node a JSON ``partial_sum`` frame (base64 arrays) in
  JSON.  Shortest-repr floats survive JSON bit-exactly, so both codecs
  keep the bit-identity guarantees.

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
  :class:`NodeResponse`): ``op`` is one of :data:`NODE_OPS`, a chaos
  run's order to the node is a typed :class:`Directive`, and everything
  op-specific travels in a ``payload`` dict (shard assignments, a
  batch's words, ciphertext sums, heartbeat liveness detail).  A binary
  frame's arrays arrive there as raw ``memoryview`` slices, a JSON
  frame's as base64 text; :mod:`repro.cluster.codec` decodes both.

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
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    "DIRECTIVES",
    "ENV_HEARTBEAT_TIMEOUT",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "FrameError",
    "SlsRequest",
    "SlsResponse",
    "Directive",
    "NodeRequest",
    "NodeResponse",
    "VIAS",
    "int64_terms",
    "is_raw",
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

#: What a chaos run may order a node to do with one ``partial_sum``, in
#: wire order (code 0: nothing) - see :class:`Directive`.
DIRECTIVES = (None, "byzantine", "dead", "partition", "slow")

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
    """The id to answer a refused frame with: its own - a JSON dict's
    ``"id"`` or a typed message's ``id`` - if well typed, else 0."""
    rid = obj.get("id") if isinstance(obj, dict) else getattr(obj, "id", None)
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


def _delay_s(value: Any) -> float:
    """A ``slow`` directive's delay: a finite, non-negative number of
    seconds, else :class:`FrameError`."""
    if type(value) in _NUMBERS and 0 <= value <= sys.float_info.max:
        return float(value)
    raise FrameError(f"bad slow-directive delay {value!r:.40}")


class Directive(NamedTuple):
    """A chaos run's order to a node for one ``partial_sum``, drawn
    coordinator-side (:meth:`~repro.faults.plan.FaultInjector.node_directive`):
    ``kind`` is one of :data:`DIRECTIVES`, ``delay_s`` how long a ``slow``
    node waits before it answers."""

    kind: str
    delay_s: float = 0.0

    @classmethod
    def of(cls, value: Any) -> Optional["Directive"]:
        """``value`` - ``None``, a fault injector's tuple or its JSON list
        (``["slow", 0.5]``, ``["dead"]``) - as a directive, else
        :class:`FrameError`: a kind outside :data:`DIRECTIVES`, a delay on
        anything but ``slow`` or a ``slow`` without one (:func:`_delay_s`)."""
        if value is None:
            return None
        if type(value) in (list, tuple) and value and value[0] in DIRECTIVES[1:]:
            kind, *delay = value
            if kind != "slow" and not delay:
                return cls(kind)
            if kind == "slow" and len(delay) == 1:
                return cls(kind, _delay_s(delay[0]))
        raise FrameError(f"bad directive {value!r:.40}")

    def to_wire(self) -> list:
        return [self.kind, self.delay_s] if self.kind == "slow" else [self.kind]


@dataclass(frozen=True)
class NodeRequest:
    """One cluster-tier control/data message (coordinator -> node).

    Same framing as :class:`SlsRequest`; ``op`` comes from
    :data:`NODE_OPS`, ``directive`` is a chaos run's order for this
    request, and everything op-specific (serialized tables, a batch's
    words) travels in ``payload``.
    """

    id: int
    op: str
    table: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    directive: Optional[Directive] = None

    def __post_init__(self) -> None:
        if self.op not in NODE_OPS:
            raise FrameError(f"unknown node op {self.op!r}")

    def to_wire(self) -> Dict[str, Any]:
        wire = {
            "id": self.id,
            "op": self.op,
            "table": self.table,
            "payload": self.payload,
        }
        if self.directive is not None:
            wire["directive"] = self.directive.to_wire()
        return wire

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
            directive=Directive.of(obj.get("directive")),
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
_KIND_PARTIAL_SUM = 4  #: a ``partial_sum`` node request; ``aux`` = table-name bytes
_KIND_SUMS = 5      #: a node's ``ok`` sums answer; ``aux`` = a value's bytes
_HAS_ARRAY = 1      #: flags bit 0: weights (request) / values (response) follow

#: A ``partial_sum`` frame's extension: term count, weight width,
#: directive code (:data:`DIRECTIVES`), a ``slow`` directive's delay.
_PARTIAL_SUM = struct.Struct("<IBBxxd")
#: A sums answer's extension: the columns of each query's values.
_SUMS = struct.Struct("<I4x")
_TAG_LIMBS = 4  #: ``<u4`` limbs per tag sum (:data:`~repro.crypto.limb_field.NUM_LIMBS`)
_EXTENSIONS = {_KIND_PARTIAL_SUM: _PARTIAL_SUM, _KIND_SUMS: _SUMS}

#: The ``via`` vocabulary of an ``ok`` response, in wire order.
VIAS = (None, "batch", "scatter", "ping", "heartbeat")

_ONE = (1).to_bytes(8, "little")  #: an unweighted term's ``<i8`` weight


def _terms(values, what: str) -> np.ndarray:
    """:func:`int64_terms`, which an ``int64`` array has passed already."""
    if type(values) is np.ndarray and values.dtype == np.int64:
        return values
    return int64_terms(values, what)


def is_raw(words: Any) -> bool:
    """Whether a node payload's array field holds raw little-endian words
    (a binary frame's slices) rather than a JSON frame's base64 text: the
    one test of which arm a ``partial_sum`` or sums payload is in."""
    return type(words) is memoryview


def _pack_binary(message) -> Optional[bytes]:
    """The binary body of an ``sls`` request, or of a node message whose
    arrays are raw words (a ``partial_sum`` request, an ``ok`` sums
    answer), else ``None``.  Each kind has this one writer."""
    try:
        if isinstance(message, SlsRequest) and message.op == "sls" and message.table is not None:
            return _pack_sls(message)
        if (
            isinstance(message, NodeRequest)
            and message.op == "partial_sum"
            and message.table is not None
            and is_raw(message.payload.get("rows"))
        ):
            return _pack_partial_sum(message)
        if (
            isinstance(message, NodeResponse)
            and message.status == STATUS_OK
            and message.error is None
            and message.kind is None
            and isinstance(message.payload.get("sums"), dict)
            and is_raw(message.payload["sums"].get("values"))
            and is_raw(message.payload["sums"].get("tag_sums"))
        ):
            return _pack_sums(message)
    except struct.error as exc:  # an id, count, width or name length its field cannot hold
        raise ConfigurationError(f"message does not fit the binary frame: {exc}") from None
    return None


def _pack_sls(message: SlsRequest) -> bytes:
    rows = _terms(message.rows, "rows")
    body, flags = [rows.tobytes()], 0
    if message.weights is not None:
        weights = _terms(message.weights, "weights")
        if weights.size != rows.size:
            raise ConfigurationError("rows and weights must have equal length")
        body.append(weights.tobytes())
        flags = _HAS_ARRAY
    body.append(str(message.table).encode("utf-8"))
    head = _BINARY.pack(_KIND_REQUEST, flags, len(body[-1]), rows.size, message.id)
    return head + b"".join(body)


def _pack_partial_sum(message: NodeRequest) -> bytes:
    """``counts <u4[n]``, ``rows <u4[T]``, ``weights <u{width}[T]``, the
    table name: the words :func:`~repro.cluster.codec.query_words` made."""
    words = message.payload
    counts, rows, weights = (words[key] for key in ("counts", "rows", "weights"))
    name = message.table.encode("utf-8")
    kind, delay = message.directive or (None, 0.0)
    return b"".join((
        _BINARY.pack(_KIND_PARTIAL_SUM, 0, len(name), counts.nbytes // 4, message.id),
        _PARTIAL_SUM.pack(rows.nbytes // 4, words["width"], DIRECTIVES.index(kind), delay),
        counts, rows, weights, name,
    ))


def _pack_sums(message: NodeResponse) -> bytes:
    """``values[n_q x m]`` at their ring's width, then ``tag_sums
    <u4[n_q x 4]``: the words :func:`~repro.cluster.codec.sum_words` made."""
    sums = message.payload["sums"]
    n_q, columns = sums["shape"]
    values, tags = sums["values"], sums["tag_sums"]
    itemsize = values.nbytes // (n_q * columns) if n_q * columns else 0
    return b"".join((
        _BINARY.pack(_KIND_SUMS, 0, itemsize, n_q, message.id),
        _SUMS.pack(columns),
        values, tags,
    ))


def _binary_head(payload, start: int = 0, end: Optional[int] = None) -> Tuple[Any, ...]:
    """The header of the binary body ``payload[start:end]`` - kind, flags,
    aux, count, id - the offset (from ``start``) where its arrays end, and
    a node frame's extension fields (``()`` for the others).

    The one check of a binary frame: every declared count, width and
    length is held against the bytes that are there before an array is
    built from it, so a hostile count can neither allocate nor overread.
    """
    size = (len(payload) if end is None else end) - start
    if size < _BINARY.size:
        raise FrameError(f"binary frame of {size} bytes has no header")
    kind, flags, aux, count, ident = _BINARY.unpack_from(payload, start)
    if flags & ~_HAS_ARRAY or (flags and kind in _EXTENSIONS):
        raise FrameError(f"unknown binary frame flags {flags:#x}")
    extension, tail = (), 0  #: the extension's fields, the bytes after the arrays
    if kind == _KIND_REQUEST:
        arrays, tail = _BINARY.size + 8 * count * (1 + flags), aux
    elif kind == _KIND_RESPONSE:
        if aux >= len(VIAS):
            raise FrameError(f"unknown via code {aux}")
        if count and not flags:
            raise FrameError("response frame length does not match its value count")
        arrays = _BINARY.size + 8 * count
    elif kind in _EXTENSIONS:
        layout = _EXTENSIONS[kind]
        if size < _BINARY.size + layout.size:
            raise FrameError(f"node frame of {size} bytes has no extension header")
        extension = layout.unpack_from(payload, start + _BINARY.size)
        arrays = _BINARY.size + layout.size
        if kind == _KIND_PARTIAL_SUM:
            terms, width, code, _delay = extension
            if code >= len(DIRECTIVES):
                raise FrameError(f"unknown directive code {code}")
            arrays, tail = arrays + 4 * count + (4 + width) * terms, aux
        else:
            arrays += count * (extension[0] * aux + 4 * _TAG_LIMBS)
    else:
        raise FrameError(f"unknown binary message kind {kind}")
    if arrays > size:
        raise FrameError(f"a layout of {arrays} bytes overruns a {size}-byte frame")
    if size - arrays != tail:
        if kind == _KIND_RESPONSE:
            raise FrameError("response frame length does not match its value count")
        if kind == _KIND_SUMS:
            raise FrameError(f"{size - arrays} bytes after the values and tag sums declared")
        raise FrameError(f"{size - arrays} bytes after the terms, table name declared as {aux}")
    return kind, flags, aux, count, ident, arrays, extension


def _table_name(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"table name is not UTF-8: {exc}") from exc


def _node_message(
    view: memoryview, start: int, head: Tuple[Any, ...]
) -> Union[NodeRequest, NodeResponse]:
    """The node message whose checked header ``head`` (:func:`_binary_head`)
    opens ``view[start:]``, its arrays raw slices of ``view``."""
    kind, _flags, aux, count, ident, arrays, extension = head
    at = start + _BINARY.size + _EXTENSIONS[kind].size
    end = start + arrays
    if kind == _KIND_SUMS:
        tags = end - 4 * _TAG_LIMBS * count
        sums = {"shape": [count, extension[0]], "values": view[at:tags], "tag_sums": view[tags:end]}
        return NodeResponse(id=ident, status=STATUS_OK, payload={"sums": sums})
    terms, width, code, delay = extension
    rows = at + 4 * count
    weights = rows + 4 * terms
    kind = DIRECTIVES[code]
    if kind != "slow" and delay:
        raise FrameError(f"a delay on a {kind or 'missing'} directive")
    words = {"counts": view[at:rows], "rows": view[rows:weights], "width": width}
    words["weights"] = view[weights:end]
    return NodeRequest(
        id=ident,
        op="partial_sum",
        table=_table_name(view[end : end + aux]),
        payload=words,
        directive=None if kind is None else Directive(kind, _delay_s(delay)),
    )


def _unpack_binary(payload) -> Union[SlsRequest, SlsResponse, NodeRequest, NodeResponse]:
    """A binary body (``bytes`` or a view of them) as a typed message whose
    arrays view ``payload``."""
    head = _binary_head(payload)
    kind, flags, aux, count, ident, arrays, _extension = head
    if kind in _EXTENSIONS:
        return _node_message(memoryview(payload), 0, head)
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
    ``CODEC_BINARY`` an ``sls`` request / ``ok`` response, and a
    ``partial_sum`` request / ``ok`` sums answer whose arrays are raw
    words, get the binary body and anything else leaves as a JSON frame.
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
    typed request and no array of its own.  A binary node frame's raw
    words are slices of that copy.
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
            head = _binary_head(data, start, end)
            kind, flags, aux, count, ident, arrays, _extension = head
            if kind in _EXTENSIONS:
                run = None
                items.append(_node_message(view, start, head))
                continue
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
