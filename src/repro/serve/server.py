"""The one TCP transport of both hops: :class:`FrameServer` and :class:`AsyncSlsClient`.

Client to :class:`SlsServer` and coordinator to
:class:`~repro.cluster.node.NodeServer` both speak the length-prefixed
frames of :mod:`repro.serve.protocol` over it.  Connections are
pipelined, and I/O is per socket read and per loop turn, not per
request: a connection reads whatever the socket has, takes every
complete frame off its buffer in one pass and answers each now or once
a batch has run (the ``id`` field correlates them), and everything
queued during one loop turn leaves in one write.  That is what lets a
single client drive enough concurrency to fill a batch without a task
per request.  Each answer leaves in the codec its request arrived in
(the codec byte is per frame): the client sends binary, and a JSON
``sls`` frame is still answered in JSON.  Backpressure: a connection
waits for its transport to drain before it reads again.
:class:`SlsServer` types a read once - its requests for a table become
one :class:`~repro.serve.protocol.RequestBlock` - and feeds every block
into one :class:`~repro.serve.scheduler.BatchScheduler`, so requests
from *all* connections coalesce into the same amortized batches.

The client has two transports with one API:

* ``await AsyncSlsClient.connect(host, port)`` — TCP; requests share
  the client's outbox the same way, and a background reader task splits
  each read and dispatches the answers to per-request futures, so any
  number of requests can be in flight on one connection.  The node
  hop's :class:`~repro.cluster.node.NodeClient` is this transport with
  ``reconnect=False``.
* ``AsyncSlsClient.in_process(scheduler)`` — no sockets; submits
  straight into a scheduler.  This is the test transport: it keeps
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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

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
    NodeRequest,
    NodeResponse,
    RequestBlock,
    SlsRequest,
    SlsResponse,
    encode_answers,
    encode_frame,
    error_response,
    int64_terms,
    reply_id,
    resolve_heartbeat_timeout,
    split_frames,
    split_read,
)
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler

__all__ = ["FrameServer", "SlsServer", "AsyncSlsClient"]

#: Bytes asked of the socket per read; every complete frame in it is served.
_READ_BYTES = 1 << 16

#: Dials a reconnecting client makes before it fails what is in flight:
#: the first at once, then after a backoff doubling up to the cap.
MAX_RECONNECTS = 4
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: Each request type's answer type, which decodes its answer frame.
_ANSWERS = {SlsRequest: SlsResponse, NodeRequest: NodeResponse}


class _Outbox:
    """A connection's outgoing frames: whatever is queued during one loop
    turn leaves in one write, flushed by one ``call_soon`` at its end."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self._frames: List[bytes] = []
        self.loop = asyncio.get_running_loop()

    def put(self, frame: bytes) -> None:
        self._frames.append(frame)
        if len(self._frames) == 1:
            self.loop.call_soon(self.flush)

    def flush(self) -> None:
        if not self._frames:
            return
        data = b"".join(self._frames)
        self._frames.clear()
        # Nothing goes to a closing transport: a server's peer is gone, and
        # a client's read loop re-sends or fails every request it queued.
        if not self.writer.transport.is_closing():
            self.writer.write(data)


class FrameServer:
    """The accept loop both hops serve on (``port=0`` = ephemeral).

    A subclass says how a read's frames come off the buffer
    (:attr:`_split`), how one is answered (:meth:`_answer`) and how a
    refused one is (:meth:`_refusal`); this class owns the
    listener, the connections, their outboxes and the drain.  Use
    ``async with`` (or :meth:`start` / :meth:`close`) so the listener and
    the connections are released deterministically.  Serving starts no
    thread: decoding, answering and every write run on the loop that
    called :meth:`start`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._outboxes: Set[_Outbox] = set()
        self._closed = False
        self._stop = asyncio.Event()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "FrameServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        if self._closed:
            raise ConfigurationError(f"{type(self).__name__} is closed")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Drain and stop (idempotent).

        New connections are refused, :meth:`_drain` settles every answer
        still owed, what is queued is written, then the connections close.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._drain()
        # Write what is queued and close the live connections (flushing
        # what is buffered) so the handlers parked in a read see EOF and
        # finish on their own, then wait for every handler except the one
        # calling us - none is left pending for the loop to cancel.
        for outbox in tuple(self._outboxes):
            outbox.flush()
            outbox.writer.close()
        me = asyncio.current_task()
        handlers = [t for t in self._handlers if t is not me]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        self._stop.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`close` has finished or a peer asked to stop."""
        await self._stop.wait()

    async def __aenter__(self) -> "FrameServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- what a subclass says --------------------------------------------------

    async def _drain(self) -> None:
        """Settle every answer still owed before the connections close."""

    #: How a read's frames come off the buffer (:func:`split_frames`).
    _split = staticmethod(split_frames)

    def _answer(self, obj: Any, outbox: _Outbox):
        """The answer to one item of a read: a message now, a future that
        settles once its answers are queued, or ``None`` for none owed now.
        A :class:`FrameError` is answered with :meth:`_refusal` and the
        connection serves on."""
        raise NotImplementedError

    def _refusal(self, request_id: int, exc: BaseException):
        """The typed error answer to a frame that was refused."""
        raise NotImplementedError

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        outbox = _Outbox(writer)
        inflight: Set[asyncio.Future] = set()
        handler = asyncio.current_task()
        self._handlers.add(handler)
        self._outboxes.add(outbox)
        buf = bytearray()
        error: Optional[FrameError] = None
        try:
            while True:
                chunk = await reader.read(_READ_BYTES)
                buf += chunk
                error = self._serve_read(buf, not chunk, outbox, inflight)
                if error is not None or not chunk:
                    break
                await writer.drain()  # backpressure: no read while the peer lags
        except (ConnectionError, OSError):
            pass
        finally:
            # The frames before a bad one are answered first, then the
            # FrameError, then the connection closes: framing is lost.
            if inflight:
                await asyncio.wait(inflight)
            if error is not None:
                outbox.put(encode_frame(self._refusal(0, error)))
            outbox.flush()
            self._handlers.discard(handler)
            self._outboxes.discard(outbox)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _serve_read(
        self, buf: bytearray, eof: bool, outbox: _Outbox, inflight: Set[asyncio.Future]
    ) -> Optional[FrameError]:
        """Answer every complete frame in ``buf``; the error that ends the
        connection, if any.  The decoded frames die on return, so a
        connection parked in a read holds none."""
        items, error = self._split(buf, eof)
        for obj in items:
            try:
                answer = self._answer(obj, outbox)
            except FrameError as exc:  # a bad field: answered, the connection lives
                answer = self._refusal(reply_id(obj), exc)
            if isinstance(answer, asyncio.Future):
                inflight.add(answer)
                answer.add_done_callback(inflight.discard)
            elif answer is not None:
                outbox.put(encode_frame(answer))
        return error


class _Replies:
    """Where the answers to one block of a connection's read go: its
    outbox, ``ok`` answers in the block's codec.  ``done`` resolves when
    the last answer owed is queued - the connection's one future for the
    whole block."""

    __slots__ = ("outbox", "codec", "owed", "done")

    def __init__(self, outbox: _Outbox, codec: int):
        self.outbox = outbox
        self.codec = codec
        self.owed = 0
        self.done: Optional[asyncio.Future] = None

    def owe(self, n: int) -> asyncio.Future:
        self.owed = n
        self.done = self.outbox.loop.create_future()
        return self.done

    def answers(self, ids, values: np.ndarray, vias) -> None:
        """``ok`` answers to ``ids``, the rows of ``values``: one encode."""
        if self.codec == CODEC_BINARY:
            self.outbox.put(encode_answers(ids, values, vias))
        else:
            for rid, row, via in zip(ids, values, vias):
                self.outbox.put(
                    encode_frame(SlsResponse(rid, STATUS_OK, values=row, via=via), self.codec)
                )
        self._paid(len(ids))

    def answer(self, response: SlsResponse) -> None:
        self.outbox.put(encode_frame(response, self.codec))
        self._paid(1)

    def _paid(self, n: int) -> None:
        self.owed -= n
        if not self.owed:
            self.done.set_result(None)

    def cancelled(self) -> bool:
        return False


class SlsServer(FrameServer):
    """Serve a store's SLS queries over TCP through the batching scheduler.

    Parameters mirror :class:`~repro.serve.scheduler.BatchScheduler`;
    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  A read's binary ``sls`` requests for one table come
    off the buffer as one :class:`~repro.serve.protocol.RequestBlock`
    (:func:`~repro.serve.protocol.split_read`).
    """

    _split = staticmethod(split_read)

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        admission=None,
    ):
        super().__init__(host, port)
        self.scheduler = BatchScheduler(store, max_batch=max_batch, admission=admission)

    async def start(self) -> "SlsServer":
        if self._server is None:
            await super().start()
            obs.emit_event(obs.SERVE_START, host=self.host, port=self.port)
        return self

    async def _drain(self) -> None:
        # The scheduler's drain answers every admitted request before its
        # batchers finish, so every block's answers are queued by the
        # time it returns.
        await self.scheduler.close()
        obs.emit_event(obs.SERVE_DRAIN, host=self.host, port=self.port)

    async def serve_forever(self) -> None:
        """Run until SIGINT/SIGTERM, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: rely on cancellation/close()
        try:
            await self.wait_closed()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.close()

    def _answer(self, obj, outbox: _Outbox):
        if type(obj) is RequestBlock:
            return self._enqueue(obj, outbox)
        request = obj if isinstance(obj, SlsRequest) else SlsRequest.from_wire(obj)
        if request.op in ("ping", "heartbeat"):
            # Liveness probes bypass the scheduler entirely: a heartbeat
            # must answer even when admission control is shedding work.
            return SlsResponse(id=request.id, status=STATUS_OK, via=request.op)
        # A JSON ``sls`` frame is a block of its own, answered in JSON.
        block = self.scheduler.block_of(request, CODEC_JSON)
        return block if isinstance(block, SlsResponse) else self._enqueue(block, outbox)

    def _enqueue(self, block: RequestBlock, outbox: _Outbox) -> Optional[asyncio.Future]:
        """Queue a block's answers owed now; the future of the rest."""
        replies = _Replies(outbox, block.codec)
        owed, admitted = self.scheduler.enqueue_block(block, replies)
        for response in owed:
            outbox.put(encode_frame(response))
        return replies.owe(admitted) if admitted else None

    def _refusal(self, request_id: int, exc: BaseException) -> SlsResponse:
        return error_response(request_id, exc)

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


def _expire(future: asyncio.Future) -> None:
    """A request's deadline: its answer's future fails, if still open."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class AsyncSlsClient:
    """One API over two transports: TCP frames or an in-process scheduler.

    With ``reconnect`` (the default) the TCP transport reconnects
    transparently: when the connection drops, the background reader dials
    the peer again (:data:`MAX_RECONNECTS` dials, capped exponential
    backoff between them) and re-sends every request that never got an
    answer - SLS reads and liveness probes are idempotent, so a duplicate
    submission is safe.  Only when every dial fails do the in-flight
    futures fail with :class:`~repro.errors.ServerClosedError`.  Without
    it nothing is re-sent: a lost connection fails what is in flight, and
    the next request dials once.
    """

    def __init__(self):
        self._scheduler: Optional[BatchScheduler] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._outbox: Optional[_Outbox] = None  #: queued frames for ``_writer``
        #: request id -> (its answer's future, the request, for a re-send)
        self._pending: Dict[int, Tuple[asyncio.Future, Union[SlsRequest, NodeRequest]]] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._next_id = 0
        self._closed = False
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._allow_reconnect = True
        self._conn_gen = 0
        self._reconnect_lock: Optional[asyncio.Lock] = None

    @classmethod
    async def connect(cls, host: str, port: int, reconnect: bool = True) -> "AsyncSlsClient":
        client = cls()
        client._host = host
        client._port = port
        client._allow_reconnect = bool(reconnect)
        client._reconnect_lock = asyncio.Lock()
        client._attach(*await client._dial())
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

    async def _dial(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self._host, self._port)

    def _attach(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Make a fresh connection the current one, with an empty outbox."""
        self._reader, self._writer = reader, writer
        self._outbox = _Outbox(writer)

    def _fail_pending(self, exc: SecNDPError) -> None:
        for future, _request in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _resolve(self, obj: Any) -> None:
        """Hand one answer frame to the request its id names.

        An answer to a request no longer pending (a late one: its caller
        gave up) is dropped; one without a well-typed id, or that does not
        decode as its request's answer, is a :class:`FrameError`.
        """
        rid = obj.get("id") if isinstance(obj, dict) else getattr(obj, "id", None)
        if type(rid) is not int:
            raise FrameError(f"answer with no usable id: {rid!r:.40}")
        entry = self._pending.get(rid)
        if entry is None:
            return
        future, request = entry
        answer = _ANSWERS[type(request)]
        response = obj if isinstance(obj, answer) else answer.from_wire(obj)
        del self._pending[rid]
        if not future.done():
            future.set_result(response)

    def _take_answers(self, buf: bytearray, eof: bool) -> Optional[FrameError]:
        """Resolve every complete answer in ``buf``; the error that ends the
        connection, if any.  A read is decoded in one pass
        (:func:`~repro.serve.protocol.split_read`)."""
        answers, error = split_read(buf, eof)
        for obj in answers:
            self._resolve(obj)
        return error

    async def _read_loop(self) -> None:
        while True:
            assert self._reader is not None and self._writer is not None
            reader, writer, generation = self._reader, self._writer, self._conn_gen
            error: Optional[BaseException] = None
            buf = bytearray()
            try:
                while True:
                    chunk = await reader.read(_READ_BYTES)
                    buf += chunk
                    error = self._take_answers(buf, not chunk)
                    if error is not None or not chunk:
                        break
            except (FrameError, ConnectionError, OSError) as exc:
                error = exc
            # This connection is done: a request must not be queued on it.
            writer.close()
            if isinstance(error, FrameError):
                # A peer whose answers do not decode is not asked again:
                # what it owed fails with the evidence, not as a lost peer.
                self._fail_pending(error)
            # Reconnect even with nothing in flight: the loop must stay
            # alive to read responses for requests sent after the drop.
            # Without reconnect it only follows a connection a request
            # already dialled.
            dials = MAX_RECONNECTS if self._allow_reconnect else 0
            if self._closed or not await self._reconnect(generation, dials):
                break
        # Anything still pending will never be answered.
        self._fail_pending(
            ServerClosedError(
                f"connection lost before a response arrived: {error}"
                if error
                else "connection closed before a response arrived"
            )
        )

    async def _reconnect(self, generation: int, dials: int) -> bool:
        """Dial the peer again (up to ``dials`` times) and re-send
        unanswered requests.

        Serialized through ``_reconnect_lock`` so the read loop and a
        request that found the connection closed never race; if another
        path already replaced the connection (``generation`` is stale)
        this is a success without a dial.
        """
        assert self._reconnect_lock is not None
        async with self._reconnect_lock:
            if self._closed:
                return False
            if self._conn_gen != generation:
                return True  # someone else already reconnected (and re-sent)
            for attempt in range(dials):
                if attempt:
                    await asyncio.sleep(
                        min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S)
                    )
                    if self._closed:  # close() raced the backoff sleep
                        return False
                try:
                    reader, writer = await self._dial()
                except (ConnectionError, OSError):
                    continue
                old_writer = self._writer
                # The old outbox goes with its connection: everything it
                # held is in ``_pending`` and is re-sent below.
                self._attach(reader, writer)
                self._conn_gen += 1
                if old_writer is not None:
                    old_writer.close()
                obs.inc("serve.client.reconnects")
                try:
                    # Idempotent re-send, in one write: these requests were
                    # in flight when the connection died and got no response.
                    resend = [request for _rid, (_f, request) in sorted(self._pending.items())]
                    writer.write(b"".join(encode_frame(r, CODEC_BINARY) for r in resend))
                    await writer.drain()
                except (ConnectionError, OSError):
                    continue  # fresh connection died too; dial again
                # A write-path reconnect may find the read loop already
                # exited; revive it so the re-sent requests get their
                # responses read.
                if self._reader_task is not None and self._reader_task.done():
                    self._reader_task = asyncio.ensure_future(self._read_loop())
                return True
            return False

    async def request(
        self, request: Union[SlsRequest, NodeRequest], timeout: Optional[float] = None
    ):
        """Send one request; return the raw typed response (no raising).

        Over TCP a request is pending from its send until its answer, its
        failure, its ``timeout`` (a timer: ``asyncio.TimeoutError``) or its
        caller's cancellation: an answer that arrives after that is dropped.
        """
        if self._closed:
            raise ConfigurationError("client is closed")
        if self._scheduler is not None:
            if request.op in ("ping", "heartbeat"):
                return SlsResponse(id=request.id, status=STATUS_OK, via=request.op)
            return await self._scheduler.submit(request)
        if self._writer is None:
            raise ConfigurationError("client is not connected")
        # Raises ConfigurationError if the frame cannot carry this request.
        frame = encode_frame(request, CODEC_BINARY)
        # The read loop closes a connection it is done with, so a closed
        # one is gone: dial again (or wait for the read loop's dial), or
        # fail now rather than queue a request nobody will answer.
        dials = MAX_RECONNECTS if self._allow_reconnect else 1
        if self._writer.transport.is_closing() and not await self._reconnect(
            self._conn_gen, dials
        ):
            raise ServerClosedError("connection lost")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Registered, it is either answered, re-sent by a reconnect or
        # failed by the read loop, whatever becomes of the outbox.
        self._pending[request.id] = (future, request)
        timer = None if timeout is None else future.get_loop().call_later(timeout, _expire, future)
        try:
            self._outbox.put(frame)
            transport = self._writer.transport
            # Backpressure, unless a deadline bounds the wait instead.
            if timer is None and (
                transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]
            ):
                try:
                    await self._writer.drain()
                except (ConnectionError, OSError):
                    pass  # the read loop sees the same loss
            return await future
        finally:
            self._pending.pop(request.id, None)
            if timer is not None:
                timer.cancel()

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
        try:
            response = await self.request(SlsRequest(id=self._new_id(), op=op), timeout)
        except (SecNDPError, asyncio.TimeoutError):
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
