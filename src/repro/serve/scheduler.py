"""Asyncio batching scheduler: request coalescing over ``sls_scatter``.

The throughput lever of the serving front-end (DESIGN.md Sec. 15), and
it is work-conserving: a batch is whatever is queued for a table - up to
``max_batch`` requests - the moment the previous batch is done.  A lone
query is a batch of one and leaves at once; what arrives while a batch
runs is read in the turn after it and forms the next one, so coalescing
comes from load and never from a timer.

Requests arrive as blocks (:class:`~repro.serve.protocol.RequestBlock`):
every request of one socket read for one table, or one in-process
submit.  A block is judged once - one vectorised
:meth:`~repro.workloads.secure_sls.SecureEmbeddingStore.verdict` - and
admitted request by request, in arrival order; what is admitted waits
in the table's queue as a slice of its block.  A batch is one CSR
:class:`~repro.core.device.QueryBatch` concatenated from its slices,
executed as one amortized offload
(:meth:`~repro.workloads.secure_sls.SecureEmbeddingStore.sls_scatter`),
and each slice's answers go back in one call to its replies: one encode
per connection per batch on the TCP path, one future per request in
process.

Exactness is non-negotiable: a coalesced response is bit-identical to a
direct ``store.sls`` call for the same query.  Verification outcomes
stay per-request: the batch's one check names every failing query, so
a corrupted row fails exactly the requests that touch it (or, on a
recovery-enabled store, sends exactly those up the recovery ladder)
while the rest are answered from the batch.

One thread serves: a batch runs synchronously on the event loop that
decoded its requests, so every access to the store happens on that one
thread.  The loop is blocked for at most one batch (``max_batch``
queries, each inside the ring's overflow budget) and gets a turn
between any two, whatever their tables (:func:`_yield_a_turn`).  The
scheduler keeps deterministic local counters (``stats()``) and mirrors
them into :mod:`repro.obs` when metrics are enabled.
"""

from __future__ import annotations

import asyncio
import time
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple, Tuple, Union

import numpy as np

from .. import obs
from ..core.device import QueryBatch
from ..errors import ConfigurationError
from .admission import AdmissionConfig, AdmissionController
from .protocol import (
    CODEC_BINARY,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
    RequestBlock,
    SlsRequest,
    SlsResponse,
    error_response,
)

__all__ = ["BatchScheduler", "DEFAULT_MAX_BATCH"]

#: Default coalescing cap: requests per executed batch.
DEFAULT_MAX_BATCH = 32


async def _yield_a_turn() -> None:
    """Resume once the loop has serviced what came due during a batch.

    A bare ``sleep(0)`` resumes ahead of all of it: the answers'
    callbacks, the timers and socket reads that fell due, and the
    outbox flushes and task wake-ups those schedule all queue behind it.
    Two ``call_soon`` hops and the future's wake-up resume behind them.
    """
    loop = asyncio.get_running_loop()
    turn = loop.create_future()
    loop.call_soon(loop.call_soon, turn.set_result, None)
    await turn


class _Promise:
    """The replies of an in-process submit, a block of one: its future."""

    __slots__ = ("future",)

    def __init__(self, future: "asyncio.Future[SlsResponse]"):
        self.future = future

    def answers(self, ids, values: np.ndarray, vias) -> None:
        self.answer(SlsResponse(ids[0], STATUS_OK, values=values[0], via=vias[0]))

    def answer(self, response: SlsResponse) -> None:
        self.future.set_result(response)

    def cancelled(self) -> bool:
        return self.future.cancelled()


class _Queued(NamedTuple):
    """Admitted requests of one block, waiting for (or in) a batch."""

    block: RequestBlock
    replies: Any  #: takes their answers: ``answers(...)`` / ``answer(...)``
    arrived_ns: int


def _concatenate(batch: List[_Queued], residues: np.dtype) -> QueryBatch:
    """One batch of the queued blocks' queries, in order, its weights ring
    ``residues`` (the verdict has held each inside the ring)."""
    blocks = [item.block for item in batch]
    if len(blocks) == 1:  # the solo path: three joins cost ~ half its batch set-up
        (block,) = blocks
        return QueryBatch(block.rows, block.weights.astype(residues), block.offsets)
    ends = accumulate(block.rows.size for block in blocks)
    return QueryBatch(
        np.concatenate([block.rows for block in blocks]),
        np.concatenate([block.weights for block in blocks]).astype(residues),
        np.concatenate(
            [blocks[0].offsets] + [b.offsets[1:] + end for b, end in zip(blocks[1:], ends)]
        ),
    )


class BatchScheduler:
    """Coalesce SLS requests into amortized per-table batches.

    Parameters
    ----------
    store:
        A loaded :class:`~repro.workloads.secure_sls.SecureEmbeddingStore`
        (the scheduler calls its ``verdict`` and ``sls_scatter``, and
        reads its ring's residue dtype).
    max_batch:
        Coalescing cap per executed batch.
    admission:
        An :class:`AdmissionController`, an :class:`AdmissionConfig`, or
        ``None`` for the default controller.

    All coroutine methods must run on one event loop; :meth:`close`
    drains in-flight batches and must be awaited on that same loop.
    """

    def __init__(
        self,
        store,
        max_batch: int = DEFAULT_MAX_BATCH,
        admission=None,
    ):
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.store = store
        self._residues = store.processor.ring.dtype
        self.max_batch = max_batch
        if admission is None:
            admission = AdmissionController()
        elif isinstance(admission, AdmissionConfig):
            admission = AdmissionController(admission)
        self.admission = admission
        self._queues: Dict[str, asyncio.Queue] = {}
        self._batchers: Dict[str, asyncio.Task] = {}
        #: held by a table's batcher from its batch to the end of the turn
        #: after it, so no other table's batch runs in between
        self._loop_slot = asyncio.Lock()
        self._pending = 0          #: admitted, not yet resolved or dropped
        self._draining = False
        self._closed = False
        self._stats: Dict[str, int] = {
            "requests": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "rejected_invalid": 0,
            "rejected_shutdown": 0,
            "batches": 0,
            "batch_queries": 0,
            "batch_rows_total": 0,
            "batch_rows_unique": 0,
            "empty_ticks": 0,
        }

    # -- submission ------------------------------------------------------------

    async def submit(self, request: SlsRequest) -> SlsResponse:
        """Serve one request through the coalescing pipeline."""
        answer = self.enqueue(request)
        if isinstance(answer, SlsResponse):
            return answer
        return await answer

    def enqueue(
        self, request: SlsRequest
    ) -> Union[SlsResponse, "asyncio.Future[SlsResponse]"]:
        """Admit one request, a block of one: its typed refusal, or the
        future of its answer.  Must be called on the scheduler's loop;
        cancelling the future withdraws the request."""
        block = self.block_of(request)
        if isinstance(block, SlsResponse):
            return block
        promise = _Promise(asyncio.get_running_loop().create_future())
        refused, admitted = self.enqueue_block(block, promise)
        return promise.future if admitted else refused[0]

    def block_of(
        self, request: SlsRequest, codec: int = CODEC_BINARY
    ) -> Union[RequestBlock, SlsResponse]:
        """``request`` as a block of one, or - counted - the answer owed now:
        ``shutting_down`` while draining, else the typed refusal of a
        request no block can hold."""
        if self._draining:
            return self._shut_out([request.id])[0]
        try:
            return RequestBlock.one(request, codec)
        except ConfigurationError as exc:
            self._stats["requests"] += 1
            self._stats["rejected_invalid"] += 1
            obs.inc("serve.requests")
            obs.inc("serve.response.invalid")
            return error_response(request.id, exc)

    def enqueue_block(self, block: RequestBlock, replies) -> Tuple[List[SlsResponse], int]:
        """Admit a block: the answers owed now, in arrival order, and how
        many requests were admitted (their answers go to ``replies``).

        The ladder is synchronous (no awaits), so a burst sees a
        consistent queue depth: drain check, then the store's verdict on
        the whole block (a query it refuses gets a typed ``error`` answer
        *before* admission and never counts against the gate), then the
        admission gate request by request (typed ``overloaded`` on shed),
        then the table's queue, which takes what was admitted as one
        slice.  Must be called on the scheduler's loop.  ``replies``
        takes ``answers(ids, values, vias)`` - ``ok`` answers of some of
        the block's requests, one call a batch - and ``answer(response)``
        - any other answer, one request's.
        """
        ids = block.ids
        if self._draining:
            return self._shut_out(ids), 0
        self._stats["requests"] += len(ids)
        obs.inc("serve.requests", len(ids))
        # Validation before admission: a query the store would reject
        # (overflow budget, negative weights, unknown table or row) must
        # not consume queue capacity or skew the shed accounting.
        refused = self.store.verdict(block.table, block.rows, block.weights, block.offsets) or {}
        admitted: List[int] = []
        owed: List[SlsResponse] = []
        for q, rid in enumerate(ids):
            exc = refused.get(q)
            if exc is not None:
                owed.append(error_response(rid, exc))
            elif self.admission.admit(self._pending):
                self._pending += 1
                admitted.append(q)
            else:
                owed.append(
                    SlsResponse(
                        id=rid,
                        status=STATUS_OVERLOADED,
                        error="admission control shed this request",
                        kind="OverloadedError",
                    )
                )
        if owed:
            if refused:
                self._stats["rejected_invalid"] += len(refused)
                obs.inc("serve.response.invalid", len(refused))
            if len(owed) > len(refused):
                obs.inc("serve.response.overloaded", len(owed) - len(refused))
            if not admitted:
                return owed, 0
            block = block.take(admitted)
        queue = self._queues.get(block.table)
        if queue is None:
            queue = self._queues[block.table] = asyncio.Queue()
        queue.put_nowait(_Queued(block, replies, time.perf_counter_ns()))
        task = self._batchers.get(block.table)
        if task is None or task.done():
            self._batchers[block.table] = asyncio.get_running_loop().create_task(
                self._batcher(block.table)
            )
        return owed, len(block)

    def _shut_out(self, ids: List[int]) -> List[SlsResponse]:
        """The answers to requests that arrive while draining, counted."""
        self._stats["requests"] += len(ids)
        self._stats["rejected_shutdown"] += len(ids)
        obs.inc("serve.requests", len(ids))
        obs.inc("serve.response.shutting_down", len(ids))
        return [
            SlsResponse(
                id=rid,
                status=STATUS_SHUTTING_DOWN,
                error="server is draining",
                kind="ServerClosedError",
            )
            for rid in ids
        ]

    # -- the batcher loop ------------------------------------------------------

    async def _batcher(self, name: str) -> None:
        """One table's collect/execute loop; exits on the drain sentinel.

        Work-conserving: take what is queued and go.  Whatever arrives
        while a batch runs is read in the turn after it, and is the next
        batch.  A block larger than the batch's room is split, and its
        rest opens the next batch.
        """
        queue = self._queues[name]
        rest = None
        stop = False
        while not stop:
            item = rest if rest is not None else await queue.get()
            rest = None
            if item is None:
                break
            live: List[_Queued] = []
            room = self.max_batch
            while True:
                block = item.block
                if len(block) > room:
                    rest = item._replace(block=block.take(range(room, len(block))))
                    item = item._replace(block=block.take(range(room)))
                if item.replies.cancelled():
                    # A request cancelled while queued leaves here; one
                    # cancelled once its batch is running, in ``_answer``.
                    self._pending -= len(item.block)
                else:
                    live.append(item)
                room -= len(item.block)
                if not room:
                    break
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is None:
                    stop = True
                    break
            if live:
                async with self._loop_slot:
                    self._run_batch(name, live)
                    await _yield_a_turn()
            else:
                # Every collected request was cancelled before dispatch:
                # nothing to execute.
                self._stats["empty_ticks"] += 1

    def _run_batch(self, name: str, batch: List[_Queued]) -> None:
        queries = _concatenate(batch, self._residues)
        total = queries.rows.size
        # Distinct rows from a sort: np.unique's hash path costs more than
        # the batch's cipher work on a PF-80 wave.
        ordered = np.sort(queries.rows)
        unique = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + bool(total)
        self._stats["batches"] += 1
        self._stats["batch_queries"] += len(queries)
        self._stats["batch_rows_total"] += total
        self._stats["batch_rows_unique"] += unique
        try:
            with obs.span("serve.batch"):
                values, outcomes = self.store.sls_scatter(name, queries)
        except Exception as exc:  # post-validation failures are per-batch
            for item in batch:
                self._answer(item, None, exc=exc)
            return
        # A clean batch, the usual one, is answered without a walk over
        # each block's outcomes (half the answer path's cost on a solo read).
        marked = any(outcome.degraded or not outcome.ok for outcome in outcomes)
        lo = 0
        for item in batch:
            hi = lo + len(item.block)
            self._answer(item, values[lo:hi], outcomes[lo:hi] if marked else None)
            lo = hi

    def _answer(self, item: _Queued, values, outcomes=None, exc=None) -> None:
        """Hand a queued block its answers: every ``ok`` one in one call,
        each failed one on its own.  ``outcomes`` (``None``: all clean)
        names a query that failed or climbed the ladder; ``exc`` fails the
        whole batch."""
        block, replies = item.block, item.replies
        n = len(block)
        self._pending -= n
        if replies.cancelled():
            return
        latency = time.perf_counter_ns() - item.arrived_ns
        self.admission.record(latency, n)
        obs.observe_ns("serve.latency.ns", latency, n)
        failed: List[SlsResponse] = []
        if exc is not None:
            failed = [error_response(rid, exc, via="batch") for rid in block.ids]
        elif outcomes is None:
            replies.answers(block.ids, values, ("batch",) * n)
        else:
            ok = [q for q, outcome in enumerate(outcomes) if outcome.ok]
            failed = [
                SlsResponse(rid, "error", error=outcome.error, kind=outcome.kind, via="scatter")
                for rid, outcome in zip(block.ids, outcomes)
                if not outcome.ok
            ]
            if ok:
                replies.answers(
                    [block.ids[q] for q in ok],
                    values[ok],
                    ["scatter" if outcomes[q].degraded else "batch" for q in ok],
                )
        if len(failed) < n:
            self._stats["responses_ok"] += n - len(failed)
            obs.inc("serve.response.ok", n - len(failed))
        if failed:
            self._stats["responses_error"] += len(failed)
            obs.inc("serve.response.error", len(failed))
            obs.inc("serve.errors", len(failed))
            for response in failed:
                replies.answer(response)

    # -- lifecycle -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved (the admission queue depth)."""
        return self._pending

    async def close(self) -> None:
        """Drain: finish in-flight batches and reject new work.
        Idempotent; must run on the submit loop."""
        if self._closed:
            return
        self._draining = True
        for queue in self._queues.values():
            queue.put_nowait(None)
        if self._batchers:
            await asyncio.gather(
                *self._batchers.values(), return_exceptions=True
            )
        self._batchers.clear()
        self._closed = True

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Deterministic counters plus the admission controller's view."""
        out: Dict[str, float] = {k: float(v) for k, v in self._stats.items()}
        if self._stats["batch_rows_total"]:
            out["dedupe_ratio"] = (
                self._stats["batch_rows_unique"] / self._stats["batch_rows_total"]
            )
        out["mean_batch_fill"] = (
            self._stats["batch_queries"] / self._stats["batches"]
            if self._stats["batches"]
            else 0.0
        )
        out["pending"] = float(self._pending)
        for key, value in self.admission.stats().items():
            out[f"admission.{key}"] = value
        return out
