"""One "NDP node": a TCP server computing ciphertext sums over a replica.

A node is the *untrusted* memory party of the SecNDP threat model,
moved across TCP: it receives only public scheme params and the full
encrypted tables (ciphertext + encrypted tags — both already
attacker-visible by assumption) in one ``shard_assign`` frame, and
answers ``partial_sum`` requests by running
:meth:`~repro.core.protocol.UntrustedNdpDevice.partial_sum_batch` over
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

Fault obedience: chaos runs ship a ``directive`` inside ``partial_sum``
payloads (decided coordinator-side by
:meth:`~repro.faults.plan.FaultInjector.node_directive`, keeping all
randomness in one seeded stream).  ``byzantine`` forges the tag shares,
``slow`` sleeps past the deadline, ``partition`` swallows the request,
``dead`` kills the node — each exercising one rung of the coordinator's
blame/failover ladder.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set

import numpy as np

from ..core.protocol import UntrustedNdpDevice
from ..crypto import limb_field
from ..errors import ConfigurationError, PeerTimeoutError, SecNDPError, ServerClosedError
from ..serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    FrameError,
    NodeRequest,
    NodeResponse,
    read_frame,
    reply_id,
    write_frame,
)
from . import codec

__all__ = ["NodeServer", "NodeClient"]


class NodeServer:
    """Serve cluster frames for one NDP node (``port=0`` = ephemeral)."""

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0):
        self.name = name
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._device: Optional[UntrustedNdpDevice] = None
        self._range: Dict[str, Any] = {}
        self._closed = False
        self._stop = asyncio.Event()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._conn_writers: Set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "NodeServer":
        if self._server is not None:
            return self
        if self._closed:
            raise ConfigurationError("node server is closed")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Abort live connections so their handler tasks finish on their
        # own (cancelling them makes 3.11's streams callback log noise),
        # then wait for every handler except the one calling us.
        for writer in list(self._conn_writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        me = asyncio.current_task()
        pending = [t for t in self._conn_tasks if t is not me and not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def wait_closed(self) -> None:
        """Block until :meth:`close` (or a ``dead`` directive) fires."""
        await self._stop.wait()

    async def __aenter__(self) -> "NodeServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- frame handling --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while await self._serve_frame(reader, writer):
                pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_frame(self, reader, writer) -> bool:
        """Read one frame and answer it; False once the stream ends.  The
        frame dies on return, so an idle node holds none (a ``shard_assign``
        frame is the whole armoured table)."""
        try:
            obj = await read_frame(reader)
        except FrameError:
            return False
        if obj is None:
            return False
        try:
            request = NodeRequest.from_wire(obj)
        except FrameError as exc:
            await self._write(writer, NodeResponse(
                id=reply_id(obj), status=STATUS_ERROR, error=str(exc), kind="FrameError"
            ))
            return True
        response = await self._serve_one(request, writer)
        if response is not None:  # None: partitioned / dead, no answer
            await self._write(writer, response)
        return True

    async def _write(
        self, writer: asyncio.StreamWriter, response: NodeResponse
    ) -> None:
        try:
            await write_frame(writer, response.to_wire())
        except (ConnectionError, OSError):
            pass  # the coordinator hung up; it re-dispatches what it lost

    async def _serve_one(
        self, request: NodeRequest, writer: asyncio.StreamWriter
    ) -> Optional[NodeResponse]:
        try:
            if request.op == "heartbeat":
                return NodeResponse(
                    id=request.id, status=STATUS_OK,
                    payload={"node": self.name, "tables": sorted(self._range)},
                )
            if request.op == "shard_assign":
                return self._assign(request)
            if request.op == "partial_sum":
                return await self._partial_sum(request, writer)
            if request.op == "shutdown":
                asyncio.get_running_loop().call_soon(self._stop.set)
                return NodeResponse(
                    id=request.id, status=STATUS_OK, payload={"node": self.name}
                )
            raise ConfigurationError(f"unhandled node op {request.op!r}")
        except SecNDPError as exc:
            return NodeResponse(
                id=request.id, status=STATUS_ERROR,
                error=str(exc), kind=type(exc).__name__,
            )

    def _assign(self, request: NodeRequest) -> NodeResponse:
        payload = request.payload
        params = codec.decode_params(payload.get("params", {}))
        # A fresh replica per table-bearing assignment; a re-assignment
        # (after re-shard) that only updates ranges sends no tables and
        # keeps the replica.  Only public params and ciphertext arrive —
        # this party never holds key material.
        tables = payload.get("tables") or {}
        if tables or self._device is None:
            self._device = UntrustedNdpDevice(params)
        for name, blob in tables.items():
            self._device.store(name, codec.decode_table(blob, params))
        self._range = dict(payload.get("ranges") or {})
        return NodeResponse(
            id=request.id,
            status=STATUS_OK,
            payload={"node": self.name, "tables": sorted(self._range)},
        )

    async def _partial_sum(
        self, request: NodeRequest, writer: asyncio.StreamWriter
    ) -> Optional[NodeResponse]:
        if self._device is None:
            raise ConfigurationError(
                f"node {self.name!r} has no shard assignment yet"
            )
        directive = request.payload.get("directive")
        if directive:
            kind = directive[0]
            if kind == "partition":
                return None
            if kind == "dead":
                # Simulated host death: drop the connection mid-request
                # and stop serving; the coordinator sees a dead peer.
                writer.close()
                await self.close()
                self._stop.set()
                return None
            if kind == "slow":
                await asyncio.sleep(float(directive[1]))
        batch = codec.decode_queries(request.payload, self._device.ring)
        name = request.table or ""
        values, tag_sums = self._device.partial_sum_batch(name, batch, with_tags=True)
        if directive and directive[0] == "byzantine":
            # Forge every served query's ciphertext tag sum; the
            # coordinator's per-shard check must blame exactly this node.
            bump = np.zeros_like(tag_sums)
            bump[batch.nonempty, 0] = 1
            tag_sums = limb_field.field_add(self._device.field, tag_sums, bump)
        return NodeResponse(
            id=request.id,
            status=STATUS_OK,
            payload={
                "node": self.name,
                "sums": codec.encode_device_sums(values, tag_sums),
            },
        )


class NodeClient:
    """Coordinator-side handle for one node connection.

    Single in-flight request per node (the coordinator fans out across
    nodes, not within one), so the read path is a plain awaited frame —
    no pending-future machinery.  A missed deadline raises
    :class:`~repro.errors.PeerTimeoutError`; a dropped connection
    :class:`~repro.errors.ServerClosedError`.  The coordinator's ladder
    owns all retry/failover decisions, so this client never reconnects.
    """

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._next_id = 0

    async def connect(self) -> "NodeClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def request(
        self,
        op: str,
        table: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> NodeResponse:
        request = NodeRequest(
            id=self._new_id(), op=op, table=table, payload=payload or {}
        )
        async with self._lock:
            try:
                if self._writer is None:
                    await self.connect()
                await write_frame(self._writer, request.to_wire())
                obj = await asyncio.wait_for(read_frame(self._reader), timeout)
            except asyncio.TimeoutError:
                # The stale response could still arrive and desync the
                # request/response pairing; drop the connection so the
                # next request starts on a fresh stream.
                await self.close()
                raise PeerTimeoutError(
                    f"node {self.name!r} missed its {timeout}s deadline for "
                    f"{op!r}"
                ) from None
            except (ConnectionError, OSError) as exc:
                await self.close()
                raise ServerClosedError(
                    f"node {self.name!r} connection lost: {exc}"
                ) from exc
        if obj is None:
            raise ServerClosedError(
                f"node {self.name!r} closed the connection before answering"
            )
        response = NodeResponse.from_wire(obj)
        if response.status != STATUS_OK:
            exc_cls = ConfigurationError
            raise exc_cls(
                f"node {self.name!r} error ({response.kind}): {response.error}"
            )
        return response

    async def heartbeat(self, timeout: Optional[float] = None) -> bool:
        try:
            await self.request("heartbeat", timeout=timeout)
        except SecNDPError:
            return False
        return True
