"""`SlsServer` (asyncio TCP front-end) and `AsyncSlsClient`.

The server speaks the length-prefixed frame protocol of
:mod:`repro.serve.protocol` and feeds every query into one
:class:`~repro.serve.scheduler.BatchScheduler`, so requests from *all*
connections coalesce into the same amortized batches.  Connections are
pipelined: each frame is served by its own task and responses are
written as their batches complete (the ``id`` field correlates them),
which is what lets a single client drive enough concurrency to fill a
batch.  Each response leaves in the codec its request arrived in (the
codec byte is per frame), so binary and JSON clients share one server.

The client has two transports with one API:

* ``await AsyncSlsClient.connect(host, port)`` — TCP; a background
  reader task dispatches responses to per-request futures, so any number
  of ``sls()`` calls can be in flight on one connection.
* ``AsyncSlsClient.in_process(scheduler)`` — no sockets; submits
  straight into a scheduler.  This is the test/bench transport: it keeps
  the scheduler semantics (admission, coalescing, typed errors) without
  measuring loopback TCP.

Typed failures map back to :mod:`repro.errors` classes client-side:
an ``overloaded`` response raises :class:`~repro.errors.OverloadedError`,
``shutting_down`` raises :class:`~repro.errors.ServerClosedError`, and
``error`` responses re-raise the class named by ``kind``
(:class:`~repro.errors.VerificationError`, ...).
"""

from __future__ import annotations

import asyncio
import signal
from typing import Dict, Optional, Sequence, Set

import numpy as np

from .. import errors, obs
from ..errors import (
    ConfigurationError,
    OverloadedError,
    SecNDPError,
    ServerClosedError,
)
from .protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
    FrameError,
    SlsRequest,
    SlsResponse,
    error_response,
    int64_terms,
    read_frame,
    resolve_codec,
    resolve_heartbeat_timeout,
    write_frame,
)
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler

__all__ = ["SlsServer", "AsyncSlsClient"]


class SlsServer:
    """Serve a store's SLS queries over TCP through the batching scheduler.

    Parameters mirror :class:`~repro.serve.scheduler.BatchScheduler`;
    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  Use ``async with`` (or :meth:`start` /
    :meth:`close`) so the listener and the scheduler's offload thread
    are released deterministically.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        admission=None,
    ):
        self.scheduler = BatchScheduler(store, max_batch=max_batch, admission=admission)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "SlsServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        if self._closed:
            raise ConfigurationError("server is closed")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.inc("serve.server.starts")
        obs.emit_event(obs.SERVE_START, host=self.host, port=self.port)
        return self

    async def close(self) -> None:
        """Drain and stop (idempotent).

        New connections are refused, new requests on live connections get
        a typed ``shutting_down`` response, in-flight batches complete
        and their responses are written, then the scheduler's executor
        is released.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Scheduler drain resolves every pending future; the per-request
        # tasks then just have responses left to write.
        await self.scheduler.close()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        # Every response is written; close the live connections (flushing
        # what is buffered) so the handlers parked in ``read_frame`` see
        # EOF and finish on their own, then wait for every handler except
        # the one calling us - none is left pending for the loop to cancel.
        for writer in tuple(self._writers):
            writer.close()
        me = asyncio.current_task()
        handlers = [t for t in self._handlers if t is not me]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        obs.emit_event(obs.SERVE_DRAIN, host=self.host, port=self.port)

    async def __aenter__(self) -> "SlsServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        """Run until SIGINT/SIGTERM, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: rely on cancellation/close()
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.close()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs.inc("serve.connections")
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        handler = asyncio.current_task()
        self._handlers.add(handler)
        self._writers.add(writer)
        try:
            while True:
                try:
                    obj = await read_frame(reader)
                except FrameError as exc:
                    # Protocol violation: answer (best-effort) and drop
                    # the connection — framing is unrecoverable.
                    obs.inc("serve.frame_errors")
                    await self._safe_write(
                        writer, write_lock, error_response(0, exc)
                    )
                    break
                if obj is None:  # clean EOF
                    break
                # A binary frame decodes straight to the typed request.
                codec = CODEC_BINARY if isinstance(obj, SlsRequest) else CODEC_JSON
                try:
                    request = obj if codec == CODEC_BINARY else SlsRequest.from_wire(obj)
                except FrameError as exc:
                    rid = obj.get("id") if isinstance(obj, dict) else None
                    obs.inc("serve.frame_errors")
                    await self._safe_write(
                        writer,
                        write_lock,
                        error_response(rid if isinstance(rid, int) else 0, exc),
                    )
                    continue
                # One task per frame: the read loop immediately returns
                # to the socket, so a single pipelining client can have
                # a full batch in flight.
                task = asyncio.ensure_future(
                    self._serve_one(request, codec, writer, write_lock)
                )
                tasks.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._conn_tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
            self._handlers.discard(handler)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_one(
        self,
        request: SlsRequest,
        codec: int,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if request.op in ("ping", "heartbeat"):
            # Liveness probes bypass the scheduler entirely: a heartbeat
            # must answer even when admission control is shedding work.
            response = SlsResponse(id=request.id, status=STATUS_OK, via=request.op)
        else:
            response = await self.scheduler.submit(request)
        await self._safe_write(writer, write_lock, response, codec)

    async def _safe_write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: SlsResponse,
        codec: int = CODEC_JSON,
    ) -> None:
        try:
            async with write_lock:
                await write_frame(writer, response, codec)
        except (ConnectionError, OSError):
            obs.inc("serve.write_errors")

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return self.scheduler.stats()


def _raise_for_response(response: SlsResponse) -> SlsResponse:
    """Map a non-ok response to its typed :mod:`repro.errors` exception."""
    if response.status == STATUS_OK:
        return response
    if response.status == STATUS_OVERLOADED:
        raise OverloadedError(response.error or "request shed by admission control")
    if response.status == STATUS_SHUTTING_DOWN:
        raise ServerClosedError(response.error or "server is draining")
    exc_cls = getattr(errors, response.kind or "", None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, SecNDPError):
        raise exc_cls(response.error or response.kind)
    raise SecNDPError(response.error or f"server error ({response.kind})")


class AsyncSlsClient:
    """One API over two transports: TCP frames or an in-process scheduler.

    The TCP transport reconnects transparently: when the connection
    drops, the background reader dials the server again with capped
    exponential backoff (``backoff_base_s * 2**attempt``, clamped to
    ``backoff_cap_s``) and re-sends every request that never got a
    response frame — SLS reads and liveness probes are idempotent, so a
    duplicate submission is safe.  Only after ``max_reconnects``
    consecutive failed dials do the in-flight futures fail with
    :class:`~repro.errors.ServerClosedError`.
    """

    def __init__(self):
        self._scheduler: Optional[BatchScheduler] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._codec = CODEC_BINARY
        self._pending: Dict[int, "tuple[asyncio.Future[SlsResponse], SlsRequest]"] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._next_id = 0
        self._closed = False
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._allow_reconnect = True
        self._max_reconnects = 4
        self._backoff_base_s = 0.05
        self._backoff_cap_s = 1.0
        self._conn_gen = 0
        self._reconnect_lock: Optional[asyncio.Lock] = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        codec: str = "binary",
        reconnect: bool = True,
        max_reconnects: int = 4,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
    ) -> "AsyncSlsClient":
        client = cls()
        client._codec = resolve_codec(codec)
        client._host = host
        client._port = port
        client._allow_reconnect = bool(reconnect)
        client._max_reconnects = int(max_reconnects)
        client._backoff_base_s = float(backoff_base_s)
        client._backoff_cap_s = float(backoff_cap_s)
        client._reconnect_lock = asyncio.Lock()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    @classmethod
    def in_process(cls, scheduler: BatchScheduler) -> "AsyncSlsClient":
        client = cls()
        client._scheduler = scheduler
        return client

    # -- request plumbing ------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def _read_loop(self) -> None:
        while True:
            assert self._reader is not None
            generation = self._conn_gen
            error: Optional[BaseException] = None
            try:
                while True:
                    obj = await read_frame(self._reader)
                    if obj is None:
                        break
                    response = (
                        obj if isinstance(obj, SlsResponse) else SlsResponse.from_wire(obj)
                    )
                    entry = self._pending.pop(response.id, None)
                    if entry is not None and not entry[0].done():
                        entry[0].set_result(response)
            except (FrameError, ConnectionError, OSError) as exc:
                error = exc
            # Reconnect even with nothing in flight: the loop must stay
            # alive to read responses for requests sent after the drop.
            if self._closed or not self._allow_reconnect:
                break
            if not await self._reconnect(generation):
                break
        # Anything still pending will never be answered.
        for future, _request in self._pending.values():
            if not future.done():
                future.set_exception(
                    ServerClosedError(
                        f"connection lost before a response arrived: {error}"
                        if error
                        else "connection closed before a response arrived"
                    )
                )
        self._pending.clear()

    async def _reconnect(self, generation: int) -> bool:
        """Dial the server again and re-send unanswered requests.

        Serialized through ``_reconnect_lock`` so the read loop and a
        writer that hit a send error never race; if another path already
        replaced the connection (``generation`` is stale) this is a
        no-op success.
        """
        assert self._reconnect_lock is not None
        async with self._reconnect_lock:
            if self._closed:
                return False
            if self._conn_gen != generation:
                return True  # someone else already reconnected (and re-sent)
            assert self._host is not None and self._port is not None
            for attempt in range(self._max_reconnects):
                delay = min(self._backoff_base_s * (2**attempt), self._backoff_cap_s)
                if delay > 0:
                    await asyncio.sleep(delay)
                if self._closed:  # close() raced the backoff sleep
                    return False
                try:
                    reader, writer = await asyncio.open_connection(
                        self._host, self._port
                    )
                except (ConnectionError, OSError):
                    obs.inc("serve.client.reconnect_failures")
                    continue
                old_writer = self._writer
                self._reader, self._writer = reader, writer
                self._conn_gen += 1
                if old_writer is not None:
                    old_writer.close()
                obs.inc("serve.client.reconnects")
                try:
                    # Idempotent re-send: these requests were in flight
                    # when the connection died and got no response frame.
                    for _rid, (_future, request) in sorted(self._pending.items()):
                        await write_frame(writer, request, self._codec)
                        obs.inc("serve.client.resends")
                except (ConnectionError, OSError):
                    obs.inc("serve.client.reconnect_failures")
                    continue  # fresh connection died too; dial again
                # A write-path reconnect may find the read loop already
                # exited (it gave up after max_reconnects); revive it so
                # the re-sent requests get their responses read.
                if self._reader_task is not None and self._reader_task.done():
                    self._reader_task = asyncio.ensure_future(self._read_loop())
                return True
            return False

    async def request(self, request: SlsRequest) -> SlsResponse:
        """Send one request; return the raw typed response (no raising)."""
        if self._closed:
            raise ConfigurationError("client is closed")
        if self._scheduler is not None:
            if request.op in ("ping", "heartbeat"):
                return SlsResponse(id=request.id, status=STATUS_OK, via=request.op)
            return await self._scheduler.submit(request)
        if self._writer is None:
            raise ConfigurationError("client is not connected")
        future: "asyncio.Future[SlsResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request.id] = (future, request)
        try:
            await write_frame(self._writer, request, self._codec)
        except ConfigurationError:  # the frame cannot carry this request
            del self._pending[request.id]
            raise
        except (ConnectionError, OSError) as exc:
            sent = False
            if self._allow_reconnect and await self._reconnect(self._conn_gen):
                try:
                    # The reconnect sweep may have raced our ``_pending``
                    # insert; send again ourselves — duplicates are
                    # idempotent and the second response id is dropped.
                    await write_frame(self._writer, request, self._codec)
                    sent = True
                except (ConnectionError, OSError):
                    pass
            if not sent:
                self._pending.pop(request.id, None)
                raise ServerClosedError(f"connection lost: {exc}") from exc
        return await future

    # -- public API ------------------------------------------------------------

    async def sls(
        self,
        table: str,
        rows: Sequence[int],
        weights: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """One verified SLS query; raises the typed error on failure."""
        response = _raise_for_response(await self.sls_response(table, rows, weights))
        # A copy: the values may be a view of a frame or of the batch's matrix.
        return np.array(response.values, dtype=np.float64)

    async def sls_response(
        self,
        table: str,
        rows: Sequence[int],
        weights: Optional[Sequence[int]] = None,
    ) -> SlsResponse:
        """Like :meth:`sls` but returns the typed response instead of raising.
        Row ids and weights outside ``int64`` (what every transport
        carries) are a :class:`ConfigurationError` here."""
        return await self.request(
            SlsRequest(
                id=self._new_id(),
                op="sls",
                table=table,
                rows=int64_terms(rows, "rows"),
                weights=None if weights is None else int64_terms(weights, "weights"),
            )
        )

    async def ping(self, timeout: Optional[float] = None) -> bool:
        """Round-trip a ping frame; ``timeout`` (seconds) bounds the wait."""
        return await self._probe("ping", timeout)

    async def heartbeat(self, timeout: Optional[float] = None) -> bool:
        """Liveness probe with a deadline.

        Unlike :meth:`ping`, a missing ``timeout`` falls back to
        ``SECNDP_HEARTBEAT_TIMEOUT`` (default
        :data:`~repro.serve.protocol.DEFAULT_HEARTBEAT_TIMEOUT_S`), so a
        dead or partitioned peer yields ``False`` instead of a hung read.
        """
        return await self._probe("heartbeat", resolve_heartbeat_timeout(timeout))

    async def _probe(self, op: str, timeout: Optional[float]) -> bool:
        request = SlsRequest(id=self._new_id(), op=op)
        try:
            if timeout is None:
                response = await self.request(request)
            else:
                response = await asyncio.wait_for(self.request(request), timeout)
        except (SecNDPError, asyncio.TimeoutError):
            self._pending.pop(request.id, None)
            obs.inc(f"serve.client.{op}_failures")
            return False
        return response.status == STATUS_OK

    async def close(self) -> None:
        """Close the transport (the scheduler/server is not ours to stop)."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._writer = None
        if self._reader_task is not None:
            # Cancel rather than await: the loop may be mid-backoff in a
            # reconnect attempt, which would otherwise stall the close.
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None

    async def __aenter__(self) -> "AsyncSlsClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
