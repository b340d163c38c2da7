"""One "NDP node": a TCP server computing ciphertext sums over a replica.

A node is the *untrusted* memory party of the SecNDP threat model,
moved across TCP: it receives only public scheme params and encrypted
tables (ciphertext + encrypted tags — both already attacker-visible by
assumption) in ``shard_assign`` frames — at setup, after a trusted-side
re-encryption, and with new ranges only after a re-shard — and answers
``partial_sum`` requests by running
:meth:`~repro.core.device.UntrustedNdpDevice.partial_sum_batch` over
its local replica: the weighted ring sums ``C_res`` and field tag sums
``C_T_res`` an unprotected NDP PU would compute, nothing more.  No key
material ever reaches a node — the trusted coordinator regenerates the
pad halves itself and combines/verifies on its side, so a node can
neither decrypt the tables it stores nor forge a partial sum that
passes the per-shard check (except with the scheme's forgery
probability).  Row-range *ownership* is purely logical (the coordinator
masks each query to the owner's rows before dispatch), so re-sharding
after a quarantine moves no data — any live node can stand in for any
other.

Transport: the node hop is the client hop's.  :class:`NodeServer` is a
:class:`~repro.serve.server.FrameServer` (the serving front-end's accept
loop, ``split_frames`` and per-connection outbox) that answers
:class:`~repro.serve.protocol.NodeRequest` frames, and
:class:`NodeClient` is :class:`~repro.serve.server.AsyncSlsClient`'s
id-correlated transport without reconnection.  A ``partial_sum`` and
its sums travel as binary frames of raw little-endian arrays
(:func:`~repro.cluster.codec.query_words` /
:func:`~repro.cluster.codec.sum_words`); the node answers every frame
in the codec it arrived in, so a JSON ``partial_sum`` gets JSON sums.
The control frames (``shard_assign``, ``heartbeat``, ``shutdown``) and
every error answer are JSON.

Fault obedience: chaos runs ship a typed
:class:`~repro.serve.protocol.Directive` with a ``partial_sum``
(decided coordinator-side by
:meth:`~repro.faults.plan.FaultInjector.node_directive`, keeping all
randomness in one seeded stream).  ``byzantine`` forges the tag shares,
``slow`` answers past the deadline (on a timer its connection owns and
cancels when it ends, at most :data:`~repro.serve.protocol.MAX_SLOW_DELAY_S`),
``partition`` swallows the request, ``dead`` kills the node — each
exercising one rung of the coordinator's blame/failover ladder.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, NoReturn, Optional

import numpy as np

from ..core.device import UntrustedNdpDevice
from ..crypto import limb_field
from ..errors import ConfigurationError, PeerTimeoutError, SecNDPError, ServerClosedError
from ..serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    STATUS_ERROR,
    STATUS_OK,
    Directive,
    NodeRequest,
    NodeResponse,
    encode_frame,
)
from ..serve.server import AsyncSlsClient, FrameServer
from . import codec

__all__ = ["NodeServer", "NodeClient"]


class NodeServer(FrameServer):
    """Serve cluster frames for one NDP node (``port=0`` = ephemeral).

    The accept loop, framing and outboxes are the serving front-end's
    (:class:`~repro.serve.server.FrameServer`); this class only answers
    :class:`~repro.serve.protocol.NodeRequest` frames.  :meth:`wait_closed`
    returns once the node is closed (a ``dead`` directive closes it) or
    a ``shutdown`` frame asked it to stop.
    """

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.name = name
        self._device: Optional[UntrustedNdpDevice] = None
        self._range: Dict[str, Any] = {}
        self._closing: Optional[asyncio.Task] = None  #: a ``dead`` directive's close

    # -- frame handling --------------------------------------------------------

    def _refusal(self, request_id: int, exc: BaseException) -> NodeResponse:
        return NodeResponse(
            id=request_id, status=STATUS_ERROR, error=str(exc), kind=type(exc).__name__
        )

    def _answer(self, obj, outbox):
        """Answer one frame now, later (``slow``) or never (``partition``,
        ``dead``), in the codec it came in: a binary frame decodes to a
        typed request, a JSON one to a dict.  A ``slow`` answer is not
        owed to a connection that ends first (EOF, a bad frame): its timer
        is cancelled there, so a peer-chosen delay cannot hold a close open
        or outlive the connection."""
        if isinstance(obj, NodeRequest):
            request, codec_id = obj, CODEC_BINARY
        else:
            request, codec_id = NodeRequest.from_wire(obj), CODEC_JSON
        directive = request.directive if request.op == "partial_sum" else None
        kind = directive.kind if directive else None
        if kind == "partition":
            return None
        if kind == "dead":
            # Simulated host death: drop the connection mid-request and
            # stop serving; the coordinator sees a dead peer.
            outbox.transport.close()
            self._closing = asyncio.ensure_future(self.close())
            return None
        frame = encode_frame(self._reply(request, codec_id), codec_id)
        if kind == "slow":
            outbox.put_later(directive.delay_s, frame)
        else:
            outbox.put(frame)
        return None

    def _reply(self, request: NodeRequest, codec_id: int = CODEC_JSON) -> NodeResponse:
        """The answer to ``request``; sums are raw words for a binary frame
        (``codec_id``) and base64 text for a JSON one.  Only an ``ok`` sums
        answer has a binary body, so every other answer leaves as JSON."""
        try:
            if request.op == "heartbeat":
                return NodeResponse(
                    id=request.id, status=STATUS_OK,
                    payload={"node": self.name, "tables": sorted(self._range)},
                )
            if request.op == "shard_assign":
                return self._assign(request)
            if request.op == "partial_sum":
                return self._partial_sum(request, codec_id == CODEC_BINARY)
            if request.op == "shutdown":
                asyncio.get_running_loop().call_soon(self._stop.set)
                return NodeResponse(
                    id=request.id, status=STATUS_OK, payload={"node": self.name}
                )
            raise ConfigurationError(f"unhandled node op {request.op!r}")
        except SecNDPError as exc:
            return self._refusal(request.id, exc)

    def _assign(self, request: NodeRequest) -> NodeResponse:
        payload = request.payload
        params = codec.decode_params(payload.get("params", {}))
        # A fresh replica per table-bearing assignment; a re-assignment
        # (after re-shard) that only updates ranges sends no tables and
        # keeps the replica.  Only public params and ciphertext arrive —
        # this party never holds key material.
        tables = payload.get("tables") or {}
        ranges = payload.get("ranges") or {}
        if type(tables) is not dict or type(ranges) is not dict:
            raise ConfigurationError(
                f"bad shard_assign payload: tables {tables!r:.40}, ranges {ranges!r:.40}"
            )
        if tables or self._device is None:
            self._device = UntrustedNdpDevice(params)
        for name, blob in tables.items():
            self._device.store(name, codec.decode_table(blob, params))
        self._range = ranges
        return NodeResponse(
            id=request.id,
            status=STATUS_OK,
            payload={"node": self.name, "tables": sorted(self._range)},
        )

    def _partial_sum(self, request: NodeRequest, raw: bool) -> NodeResponse:
        """The sums as raw words (``raw``: the request was a binary frame)
        or as base64 text."""
        if self._device is None:
            raise ConfigurationError(
                f"node {self.name!r} has no shard assignment yet"
            )
        batch = codec.decode_queries(request.payload, self._device.ring)
        name = request.table or ""
        values, tag_sums = self._device.partial_sum_batch(name, batch, with_tags=True)
        if request.directive == Directive("byzantine"):
            # Forge every served query's ciphertext tag sum; the
            # coordinator's per-shard check must blame exactly this node.
            bump = np.zeros_like(tag_sums)
            bump[batch.nonempty, 0] = 1
            tag_sums = limb_field.field_add(self._device.field, tag_sums, bump)
        words = codec.sum_words if raw else codec.encode_device_sums
        return NodeResponse(
            id=request.id,
            status=STATUS_OK,
            payload={"node": self.name, "sums": words(values, tag_sums)},
        )


class NodeClient:
    """Coordinator-side handle for one node connection.

    The id-correlated transport of :class:`~repro.serve.server.AsyncSlsClient`
    with ``reconnect=False``: a missed deadline raises
    :class:`~repro.errors.PeerTimeoutError` and leaves the connection up
    (the late answer is dropped: its id is no longer pending); a lost
    connection fails what is in flight with
    :class:`~repro.errors.ServerClosedError`, and the next request dials
    once.  An answer that does not decode fails its request with a
    :class:`~repro.serve.protocol.FrameError`.  The coordinator's ladder
    owns every retry and failover decision.  It dispatches with
    :meth:`send`, which writes the frame at once and returns the answer's
    future, and reads that with :meth:`answer`.
    """

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self._link: Optional[AsyncSlsClient] = None

    async def connect(self) -> "NodeClient":
        if self._link is None:
            self._link = await AsyncSlsClient.connect(self.host, self.port, reconnect=False)
        return self

    async def close(self) -> None:
        if self._link is not None:
            await self._link.close()
            self._link = None

    def _message(self, op, table, payload, directive) -> NodeRequest:
        return NodeRequest(
            id=self._link._new_id(), op=op, table=table, payload=payload or {},
            directive=directive,
        )

    def _raise(self, exc: BaseException, op: str, timeout: Optional[float]) -> NoReturn:
        """Raise a transport failure of ``op`` typed: a missed deadline as
        :class:`PeerTimeoutError`, a lost connection as
        :class:`ServerClosedError`, anything else as it is."""
        if isinstance(exc, asyncio.TimeoutError):
            raise PeerTimeoutError(
                f"node {self.name!r} missed its {timeout}s deadline for {op!r}"
            ) from None
        if isinstance(exc, (ConnectionError, OSError)):
            raise ServerClosedError(f"node {self.name!r} connection lost: {exc}") from exc
        raise exc

    def _ok(self, response: NodeResponse) -> NodeResponse:
        if response.status != STATUS_OK:
            raise ConfigurationError(
                f"node {self.name!r} error ({response.kind}): {response.error}"
            )
        return response

    async def request(
        self,
        op: str,
        table: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        directive: Optional[Directive] = None,
    ) -> NodeResponse:
        """One request, answered ``ok`` or raised as a typed error.  A
        payload of raw words (:func:`~repro.cluster.codec.query_words`)
        leaves as a binary frame, anything else as JSON."""
        try:
            await self.connect()
            response = await self._link.request(self._message(op, table, payload, directive), timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            self._raise(exc, op, timeout)
        return self._ok(response)

    def send(
        self,
        op: str,
        table: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        directive: Optional[Directive] = None,
    ) -> asyncio.Future:
        """:meth:`request` without the wait: on a live connection the frame
        is written now and the future is the raw answer's
        (:meth:`answer` reads it); without one it is a task that dials
        first."""
        link = self._link
        if link is None or not link.live():
            return asyncio.ensure_future(self.request(op, table, payload, timeout, directive))
        return link.send(self._message(op, table, payload, directive), timeout, flush=True)

    def answer(self, future: asyncio.Future, op: str, timeout: Optional[float]) -> NodeResponse:
        """The ``ok`` answer a settled :meth:`send` future holds, or its
        failure raised as :meth:`request` raises it."""
        exc = future.exception()
        if exc is not None:
            self._raise(exc, op, timeout)
        return self._ok(future.result())

    async def heartbeat(self, timeout: Optional[float] = None) -> bool:
        try:
            await self.request("heartbeat", timeout=timeout)
        except SecNDPError:
            return False
        return True
