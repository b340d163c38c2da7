"""The one TCP transport of both hops: :class:`FrameServer` and :class:`AsyncSlsClient`.

Client to :class:`SlsServer` and coordinator to
:class:`~repro.cluster.node.NodeServer` both speak the length-prefixed
frames of :mod:`repro.serve.protocol` over it.  Connections are
pipelined, and I/O is per socket read and per loop turn, not per
request.  Each end of a connection is an :class:`asyncio.Protocol`,
with no reader or handler task: ``data_received`` takes every complete
frame off the connection's buffer in one pass and answers each now or
once a batch has run (the ``id`` field correlates them).  What a read
is answered with leaves in one write at the end of that read, and
anything queued outside a read (a batch's answers, a client's
requests) in one write at the end of the loop turn.  That is what lets
a single client drive enough concurrency to fill a batch without a task
per request.  An ``sls`` request is served from a binary frame only (a
JSON one draws a ``FrameError`` answer).  Backpressure: while a peer
lags behind its answers (``pause_writing``) the server reads nothing
more from it, until ``resume_writing``.
:class:`SlsServer` types a read once - its requests for a table become
one :class:`~repro.serve.protocol.RequestBlock` - and feeds every block
into one :class:`~repro.serve.scheduler.BatchScheduler`, so requests
from *all* connections coalesce into the same amortized batches.

The client has one request path over two links, which carry the same
bytes: a request is written once, as its frame, kept until answered.

* ``await AsyncSlsClient.connect(host, port)`` — TCP; requests share
  the client's outbox the same way, and each read's answers are handed
  to per-request futures inside ``data_received``, so any number of
  requests can be in flight on one connection.  The node hop's
  :class:`~repro.cluster.node.NodeClient` is this link with
  ``reconnect=False``.
* ``AsyncSlsClient.in_process(scheduler)`` — no sockets; the frame is
  split as a socket read is, its block goes into the intake a read
  uses, and its answer comes back to the same hand-off.

On either, :meth:`AsyncSlsClient.send` registers a request and puts it
on the link without waiting; :meth:`AsyncSlsClient.request` waits on it.

Typed failures map back to :mod:`repro.errors` classes client-side:
an ``overloaded`` response raises :class:`~repro.errors.OverloadedError`,
``shutting_down`` raises :class:`~repro.errors.ServerClosedError`, and
``error`` responses re-raise the class named by ``kind``
(:class:`~repro.errors.VerificationError`, ...).
"""

from __future__ import annotations

import asyncio
import functools
import signal
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

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
    reply_id,
    resolve_heartbeat_timeout,
    sls_frame,
    split_frames,
    split_read,
)
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler

__all__ = ["FrameServer", "SlsServer", "AsyncSlsClient"]

#: Dials a reconnecting client makes before it fails what is in flight:
#: the first at once, then after a backoff doubling up to the cap.
MAX_RECONNECTS = 4
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: Each request type's answer type, which decodes its answer frame.
_ANSWERS = {SlsRequest: SlsResponse, NodeRequest: NodeResponse}


class _Outbox:
    """A connection's outgoing frames.  What a read is answered with
    leaves at the end of that read (:attr:`reading`); whatever else is
    queued during one loop turn leaves in one write, flushed by one
    ``call_soon`` at its end, unless it is put ``now``."""

    def __init__(self, transport: asyncio.WriteTransport):
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        self.reading = False  #: a read is being served, and its end flushes
        self._frames: List[bytes] = []
        self.timers: Set[asyncio.TimerHandle] = set()  #: :meth:`put_later` frames due

    def put(self, frame: bytes, now: bool = False) -> None:
        self._frames.append(frame)
        if now:
            self.flush()
        elif len(self._frames) == 1 and not self.reading:
            self.loop.call_soon(self.flush)

    def put_later(self, delay: float, frame: bytes) -> None:
        """:meth:`put` ``frame`` in ``delay`` seconds, on a timer of this
        outbox's: the connection's end cancels every one still due."""
        def due() -> None:
            self.timers.discard(timer)
            self.put(frame)
        timer = self.loop.call_later(delay, due)
        self.timers.add(timer)

    def flush(self) -> None:
        if not self._frames:
            return
        data = b"".join(self._frames)
        self._frames.clear()
        # Nothing goes to a closing transport: a server's peer is gone, and
        # a client re-sends or fails every request it queued.
        if not self.transport.is_closing():
            self.transport.write(data)


class _Peer(asyncio.Protocol):
    """One end of a connection, with no task of its own: each read is
    split and handled inside ``data_received`` (:meth:`_take`), and EOF is
    a last read, after which the subclass closes the connection."""

    def __init__(self):
        self.buf = bytearray()
        self.loop = asyncio.get_running_loop()
        self.lost = self.loop.create_future()  #: connection_lost ran

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.outbox = _Outbox(transport)

    def data_received(self, data: bytes, eof: bool = False) -> None:
        self.buf += data
        self._take(eof)

    def eof_received(self) -> bool:
        self.data_received(b"", eof=True)
        return True

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost.set_result(None)


class _Connection(_Peer):
    """One accepted connection of a :class:`FrameServer`: what a read is
    answered with leaves at the end of the read.  Backpressure: while the
    peer lags behind its answers nothing more is read from it."""

    def __init__(self, server: "FrameServer"):
        super().__init__()
        self.server = server
        self.inflight: Set[asyncio.Future] = set()
        self.ending = False  #: no more reads; it closes once nothing is owed

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)

    def _take(self, eof: bool) -> None:
        """Answer every complete frame in the buffer; the decoded frames
        die on return, so an idle connection holds none."""
        server, outbox = self.server, self.outbox
        items, error = server._split(self.buf, eof)
        outbox.reading = True
        for obj in items:
            try:
                answer = server._answer(obj, outbox)
            except Exception as exc:  # a bad field or a fault: answered, the read serves on
                for refusal in _refusals(obj, exc, server._refusal):
                    outbox.put(encode_frame(refusal))
                continue
            if isinstance(answer, asyncio.Future):
                self.inflight.add(answer)
                answer.add_done_callback(self.inflight.discard)
            elif answer is not None:
                outbox.put(encode_frame(answer))
        outbox.reading = False
        outbox.flush()
        if error is not None or eof:
            # The peer is done, or framing is lost: the frames before the
            # end are answered first (a batch still running for them
            # included), then a bad frame's FrameError, then it closes.
            self.ending = True
            self.transport.pause_reading()
            close = functools.partial(self._close, error)
            owed = [f for f in self.inflight if not f.done()]
            if owed:
                asyncio.gather(*owed, return_exceptions=True).add_done_callback(close)
            else:
                close()

    def _close(self, error: Optional[FrameError], _owed=None) -> None:
        if error is not None:
            self.outbox.put(encode_frame(self.server._refusal(0, error)))
        self.outbox.flush()
        self.transport.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.server._connections.discard(self)
        for timer in self.outbox.timers:  # nothing is owed to a peer that is gone
            timer.cancel()
        self.outbox.timers.clear()
        super().connection_lost(exc)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.ending:
            self.transport.resume_reading()


def _refusals(obj: Any, exc: BaseException, refusal) -> list:
    """The answers to an item of a read that was refused: one for each
    request of a block, else one under the frame's own id."""
    return [refusal(rid, exc) for rid in (obj.ids if type(obj) is RequestBlock else (reply_id(obj),))]


class FrameServer:
    """The accept loop both hops serve on (``port=0`` = ephemeral).

    A subclass says how a read's frames come off the buffer
    (:attr:`_split`), how one is answered (:meth:`_answer`) and how a
    refused one is (:meth:`_refusal`); this class owns the
    listener, the connections, their outboxes and the drain.  Use
    ``async with`` (or :meth:`start` / :meth:`close`) so the listener and
    the connections are released deterministically.  Serving starts no
    thread and no task: a connection is an :class:`asyncio.Protocol`
    whose reads are decoded and answered in ``data_received``, on the
    loop that called :meth:`start`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._closed = False
        self._stop = asyncio.Event()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "FrameServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        if self._closed:
            raise ConfigurationError(f"{type(self).__name__} is closed")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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
        # what is buffered), then wait until each is gone.
        connections = tuple(self._connections)
        for connection in connections:
            connection.outbox.flush()
            connection.transport.close()
        if connections:
            await asyncio.wait([c.lost for c in connections])
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
        An exception (a :class:`FrameError`, or any other) is answered with
        :meth:`_refusal`, and the rest of the read is served."""
        raise NotImplementedError

    def _refusal(self, request_id: int, exc: BaseException):
        """The typed error answer to a frame that was refused."""
        raise NotImplementedError

class _Replies:
    """Where the answers to one block of a connection's read go: its
    outbox.  ``done`` resolves when the last answer owed is queued - the
    connection's one future for the whole block."""

    __slots__ = ("outbox", "owed", "done")

    def __init__(self, outbox: _Outbox):
        self.outbox = outbox
        self.owed = 0
        self.done: Optional[asyncio.Future] = None

    def owe(self, n: int) -> asyncio.Future:
        self.owed = n
        self.done = self.outbox.loop.create_future()
        return self.done

    def answers(self, ids, values: np.ndarray, vias) -> None:
        """``ok`` answers to ``ids``, the rows of ``values``: one encode."""
        self.outbox.put(encode_answers(ids, values, vias))
        self._paid(len(ids))

    def answer(self, response: SlsResponse) -> None:
        self.outbox.put(encode_frame(response))
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
        """A block's answers owed now, queued, and the future of the rest;
        a probe's answer; a :class:`FrameError` for anything else - a JSON
        ``sls`` frame included: a query is served from binary frames."""
        if type(obj) is not RequestBlock:
            return _probe_answer(SlsRequest.from_wire(obj))
        replies = _Replies(outbox)
        owed, admitted = self.scheduler.enqueue_block(obj, replies)
        for response in owed:
            outbox.put(encode_frame(response))
        return replies.owe(admitted) if admitted else None

    def _refusal(self, request_id: int, exc: BaseException) -> SlsResponse:
        return error_response(request_id, exc)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return self.scheduler.stats()


def _probe_answer(request: SlsRequest) -> SlsResponse:
    """A liveness probe's answer, past any scheduler (a heartbeat answers
    while admission sheds work); any other request is a :class:`FrameError`."""
    if request.op not in ("ping", "heartbeat"):
        raise FrameError(f"an {request.op!r} request is served from a binary frame only")
    return SlsResponse(id=request.id, status=STATUS_OK, via=request.op)


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


class _Link(_Peer):
    """A client's end of one connection: each read's answers are resolved
    inside ``data_received``; its end is handed to the client once
    (:meth:`AsyncSlsClient._lost`)."""

    def __init__(self, client: "AsyncSlsClient"):
        super().__init__()
        self.client = client
        self.ended = False  #: handed to the client as done: nothing is sent on it
        self.writable: Optional[asyncio.Future] = None  #: pending while the peer lags

    def _take(self, eof: bool) -> None:
        try:
            error = self.client._take_answers(self.buf, eof)
        except FrameError as exc:
            error = exc
        if error is not None or eof:
            self.client._lost(self, error)

    def put(self, frame: bytes, flush: bool = False) -> None:
        """Queue a request's ``frame`` for the end of the loop turn
        (``flush``: write it now, with whatever is queued)."""
        self.outbox.put(frame, flush)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.client._lost(self, exc)
        self.resume_writing()  # nobody waits on a connection that is gone
        super().connection_lost(exc)

    def pause_writing(self) -> None:
        self.writable = self.loop.create_future()

    def resume_writing(self) -> None:
        if self.writable is not None:
            self.writable.set_result(None)
            self.writable = None


class _Handoff(NamedTuple):
    """The replies of one in-process request: each answer goes to the
    client's ``_resolve``, as one off a socket does.  Cancelled once the
    request is not pending, or its caller withdrew it."""

    client: "AsyncSlsClient"
    rid: int

    def answers(self, ids, values: np.ndarray, vias) -> None:
        for rid, row, via in zip(ids, values, vias):
            self.client._resolve(SlsResponse(rid, STATUS_OK, values=row, via=via))

    def answer(self, response: SlsResponse) -> None:
        self.client._resolve(response)

    def cancelled(self) -> bool:
        entry = self.client._pending.get(self.rid)
        if entry is not None and entry[0].done():  # withdrawn: nothing will answer it
            self.client._forget(self.rid)
            return True
        return entry is None


class _SchedulerLink:
    """A client's link into a scheduler in its own process, with a
    :class:`_Link`'s surface: a request's frame is split as a socket read
    is (:func:`~repro.serve.protocol.split_read`), an ``sls`` block goes
    through :meth:`~repro.serve.scheduler.BatchScheduler.enqueue_block`,
    and a probe or a refused frame is answered as :class:`SlsServer`
    answers it."""

    ended = False  #: never lost
    writable = None  #: a scheduler never lags behind its answers

    def __init__(self, client: "AsyncSlsClient", scheduler: BatchScheduler):
        self.client = client
        self.scheduler = scheduler

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.get_running_loop()

    def put(self, frame: bytes, flush: bool = False) -> None:
        (obj,), _error = split_read(bytearray(frame))  # one whole frame the client wrote
        try:
            if type(obj) is RequestBlock:
                owed = self.scheduler.enqueue_block(obj, _Handoff(self.client, obj.ids[0]))[0]
            else:
                owed = [_probe_answer(SlsRequest.from_wire(obj))]
        except Exception as exc:
            owed = _refusals(obj, exc, error_response)
        for response in owed:
            self.client._resolve(response)


class AsyncSlsClient:
    """One request path over two links: TCP frames or an in-process scheduler.

    With ``reconnect`` (the default) the TCP transport reconnects
    transparently: when the connection drops, the client dials the peer
    again (:data:`MAX_RECONNECTS` dials, capped exponential backoff
    between them) and re-sends every request that never got an answer -
    SLS reads and liveness probes are idempotent, so a duplicate
    submission is safe.  Only when every dial fails do the in-flight
    futures fail with :class:`~repro.errors.ServerClosedError`.  Without
    it nothing is re-sent: a lost connection fails what is in flight, and
    the next request dials once.
    """

    def __init__(self):
        self._link: Union[_Link, _SchedulerLink, None] = None  #: the current connection
        #: request id -> (its answer's future, its frame if a reconnect may
        #: re-send it, its answer's type, and its deadline's timer)
        self._pending: Dict[int, Tuple[asyncio.Future, Optional[bytes], type, Any]] = {}
        self._redial: Optional[asyncio.Task] = None  #: a reconnect after a drop
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
        client._link = await client._dial()
        return client

    @classmethod
    def in_process(cls, scheduler: BatchScheduler) -> "AsyncSlsClient":
        client = cls()
        client._link = _SchedulerLink(client, scheduler)
        return client

    # -- request plumbing ------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def _dial(self) -> _Link:
        _transport, link = await asyncio.get_running_loop().create_connection(
            lambda: _Link(self), self._host, self._port
        )
        return link

    def _fail_pending(self, exc: SecNDPError) -> None:
        pending, self._pending = self._pending, {}
        for future, _frame, _answer, timer in pending.values():
            if timer is not None:
                timer.cancel()
            if not future.done():
                future.set_exception(exc)

    def _expire(self, rid: int) -> None:
        """A request's deadline: no longer pending, its future fails."""
        future = self._pending.pop(rid)[0]
        if not future.done():
            future.set_exception(asyncio.TimeoutError())

    def _forget(self, rid: int) -> None:
        """No longer wait for ``rid``'s answer: a later one is dropped."""
        entry = self._pending.pop(rid, None)
        if entry is not None and entry[3] is not None:
            entry[3].cancel()

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
        future, _frame, answer, timer = entry
        response = obj if isinstance(obj, answer) else answer.from_wire(obj)
        del self._pending[rid]
        if timer is not None:
            timer.cancel()
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

    def _lost(self, link: _Link, error: Optional[BaseException]) -> None:
        """``link`` is done (EOF, lost, or an answer did not decode): it is
        closed, and if current, what was in flight is re-sent or failed."""
        if link.ended:
            return
        link.ended = True
        link.transport.close()
        if link is not self._link:
            return  # replaced by a reconnect, which re-sent its requests
        if isinstance(error, FrameError):
            # A peer whose answers do not decode is not asked again: what
            # it owed fails with the evidence, not as a lost peer.
            self._fail_pending(error)
        lost = ServerClosedError(
            f"connection lost before a response arrived: {error}"
            if error
            else "connection closed before a response arrived"
        )
        if self._closed or not self._allow_reconnect:
            self._fail_pending(lost)
        else:  # even with nothing in flight: the next request finds a live one
            self._redial = asyncio.ensure_future(self._redial_after(self._conn_gen, lost))

    async def _redial_after(self, generation: int, lost: SecNDPError) -> None:
        if not await self._reconnect(generation, MAX_RECONNECTS):
            self._fail_pending(lost)

    async def _reconnect(self, generation: int, dials: int) -> bool:
        """Dial the peer again (up to ``dials`` times) and re-send
        unanswered requests.

        Serialized through ``_reconnect_lock`` so a reconnect after a drop
        and a request that found the connection closed never race; if
        another path already replaced the connection (``generation`` is
        stale) this is a success without a dial.
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
                    link = await self._dial()
                except (ConnectionError, OSError):
                    continue
                old, self._link = self._link, link
                self._conn_gen += 1
                if old is not None:
                    old.transport.close()
                obs.inc("serve.client.reconnects")
                # Idempotent re-send of the stored frames, in one write: these
                # requests were in flight when the connection died, unanswered.
                resend = [entry[1] for _rid, entry in sorted(self._pending.items())]
                if resend:
                    link.transport.write(b"".join(resend))
                return True
            return False

    def send(
        self, request: Union[SlsRequest, NodeRequest], timeout: Optional[float] = None,
        flush: bool = False,
    ) -> asyncio.Future:
        """Write ``request``'s frame once, register it, arm its ``timeout`` (a
        timer: the future fails with ``asyncio.TimeoutError``, and a later
        answer is dropped) and put the frame on the link (``flush``: a TCP
        link writes it now, with whatever is queued); the future of its raw
        typed answer.  Waits for nothing, so the connection must be live
        (:meth:`request` dials a lost one).  A request no frame can hold is
        refused here, a :class:`ConfigurationError`, leaving nothing pending."""
        frame = encode_frame(request, CODEC_BINARY)
        return self._put(request.id, frame, _ANSWERS[type(request)], timeout, flush)

    def _put(self, rid: int, frame: bytes, answer: type, timeout=None, flush=False):
        """:meth:`send` of request ``rid``'s ``frame``, answered by an ``answer``."""
        if self._closed:
            raise ConfigurationError("client is closed")
        link = self._link
        if link is None:
            raise ConfigurationError("client is not connected")
        if link.ended:
            raise ServerClosedError("connection lost")
        loop = link.loop
        future = loop.create_future()
        timer = None if timeout is None else loop.call_later(timeout, self._expire, rid)
        # Registered, it is answered, re-sent by a reconnect, or failed; a client
        # that never re-sends keeps no frame (a ``shard_assign`` is a whole table).
        self._pending[rid] = (future, frame if self._allow_reconnect else None, answer, timer)
        link.put(frame, flush)
        return future

    def live(self) -> bool:
        """Whether the current connection can carry a :meth:`send`."""
        return self._link is not None and not self._link.ended

    async def request(
        self, request: Union[SlsRequest, NodeRequest], timeout: Optional[float] = None
    ):
        """:meth:`send` one request and wait: the raw typed response (no
        raising).  A caller that gives up leaves no request pending."""
        answer = _ANSWERS[type(request)]
        return await self._call(request.id, encode_frame(request, CODEC_BINARY), answer, timeout)

    async def _call(self, rid: int, frame: bytes, answer: type, timeout=None):
        """:meth:`request` of request ``rid``'s ``frame``, answered by an ``answer``."""
        if self._closed:
            raise ConfigurationError("client is closed")
        if self._link is None:
            raise ConfigurationError("client is not connected")
        # A lost connection is gone: dial again (or wait for the reconnect
        # already under way), or fail now rather than queue a request
        # nobody will answer.
        dials = MAX_RECONNECTS if self._allow_reconnect else 1
        if self._link.ended and not await self._reconnect(self._conn_gen, dials):
            raise ServerClosedError("connection lost")
        future = self._put(rid, frame, answer, timeout)
        del frame  # only a pending entry that may be re-sent holds it while this waits
        writable = self._link.writable
        try:
            # Backpressure, unless a deadline bounds the wait instead.
            if timeout is None and writable is not None:
                await writable
            return await future
        finally:
            if rid in self._pending:  # its caller gave up
                self._forget(rid)

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
        The query is written once, as its frame (:func:`sls_frame`), on
        either link: row ids and weights outside ``int64`` (what every
        transport carries) are a :class:`ConfigurationError` here."""
        rid = self._new_id()
        return await self._call(rid, sls_frame(rid, table, rows, weights), SlsResponse)

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
        """Close the link (the scheduler/server is not ours to stop)."""
        if self._closed:
            return
        self._closed = True
        if self._redial is not None:
            # Cancel rather than await: it may be mid-backoff, which would
            # otherwise stall the close.
            self._redial.cancel()
            try:
                await self._redial
            except asyncio.CancelledError:
                pass
            self._redial = None
        if isinstance(self._link, _Link):
            self._link.transport.close()
            await self._link.lost
        self._link = None
        self._fail_pending(ServerClosedError("client closed"))

    async def __aenter__(self) -> "AsyncSlsClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
