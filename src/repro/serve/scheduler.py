"""Asyncio batching scheduler: request coalescing over ``sls_scatter``.

The throughput lever of the serving front-end (DESIGN.md Sec. 15), and
it is work-conserving: a batch is whatever is queued for a table - up to
``max_batch`` requests - the moment the previous batch is done.  A lone
query is a batch of one and leaves at once; what arrives while a batch
runs is read in the turn after it and forms the next one, so coalescing
comes from load and never from a timer.
A batch is one CSR :class:`~repro.core.device.QueryBatch` concatenated
from its requests' arrays, executed through the amortized union-of-rows
path (:meth:`~repro.workloads.secure_sls.SecureEmbeddingStore.sls_scatter`),
and each request is handed its row of the result matrix.

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
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from .. import obs
from ..core.device import QueryBatch
from ..errors import ConfigurationError
from .admission import AdmissionConfig, AdmissionController
from .protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
    SlsRequest,
    SlsResponse,
    error_response,
    int64_terms,
)

__all__ = ["BatchScheduler", "DEFAULT_MAX_BATCH"]

#: Default coalescing cap: requests per executed batch.
DEFAULT_MAX_BATCH = 32


async def _yield_a_turn() -> None:
    """Resume once the loop has serviced what came due during a batch.

    A bare ``sleep(0)`` resumes ahead of all of it: the answers'
    done-callbacks, the timers and socket reads that fell due, and the
    outbox flushes and task wake-ups those schedule all queue behind it.
    Two ``call_soon`` hops and the future's wake-up resume behind them.
    """
    loop = asyncio.get_running_loop()
    turn = loop.create_future()
    loop.call_soon(loop.call_soon, turn.set_result, None)
    await turn


@dataclass
class _Pending:
    """One admitted request waiting for (or in) a batch."""

    request: SlsRequest
    rows: np.ndarray         #: ``int64``, validated by ``store.validate_query``
    weights: np.ndarray      #: ring residues, one per row
    future: "asyncio.Future[SlsResponse]"
    submitted_ns: int


class BatchScheduler:
    """Coalesce single SLS requests into amortized per-table batches.

    Parameters
    ----------
    store:
        A loaded :class:`~repro.workloads.secure_sls.SecureEmbeddingStore`.
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
        """Admit one request: its typed refusal, or the future of its answer.

        The ladder is synchronous (no awaits), so a burst of submissions
        sees a consistent queue depth: drain check, validate (oversized /
        malformed queries are rejected with a typed ``error`` response
        *before* admission and never count against the gate), then the
        admission gate (typed ``overloaded`` on shed), then the queue.
        Must be called on the scheduler's loop; cancelling the future
        withdraws the request.
        """
        self._stats["requests"] += 1
        obs.inc("serve.requests")
        if self._draining:
            self._stats["rejected_shutdown"] += 1
            obs.inc("serve.response.shutting_down")
            return SlsResponse(
                id=request.id,
                status=STATUS_SHUTTING_DOWN,
                error="server is draining",
                kind="ServerClosedError",
            )
        # Validation before admission: a query the store would reject
        # (overflow budget, negative weights, unknown table or row) must
        # not consume queue capacity or skew the shed accounting.
        try:
            if request.op != "sls" or request.table is None:
                raise ConfigurationError(f"malformed request (op={request.op!r})")
            rows, weights = self.store.validate_query(
                request.table,
                int64_terms(request.rows, "rows"),
                None
                if request.weights is None
                else int64_terms(request.weights, "weights"),
            )
        except ConfigurationError as exc:
            self._stats["rejected_invalid"] += 1
            obs.inc("serve.response.invalid")
            return error_response(request.id, exc)

        if not self.admission.admit(self._pending):
            obs.inc("serve.response.overloaded")
            return SlsResponse(
                id=request.id,
                status=STATUS_OVERLOADED,
                error="admission control shed this request",
                kind="OverloadedError",
            )

        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            rows=rows,
            weights=weights,
            future=loop.create_future(),
            submitted_ns=time.perf_counter_ns(),
        )
        self._pending += 1
        queue = self._queues.get(request.table)
        if queue is None:
            queue = self._queues[request.table] = asyncio.Queue()
        queue.put_nowait(pending)
        task = self._batchers.get(request.table)
        if task is None or task.done():
            self._batchers[request.table] = loop.create_task(
                self._batcher(request.table)
            )
        return pending.future

    # -- the batcher loop ------------------------------------------------------

    async def _batcher(self, name: str) -> None:
        """One table's collect/execute loop; exits on the drain sentinel.

        Work-conserving: take what is queued and go.  Whatever arrives
        while a batch runs is read in the turn after it, and is the next
        batch.
        """
        queue = self._queues[name]
        while True:
            item = await queue.get()
            if item is None:
                break
            batch: List[_Pending] = [item]
            stop = False
            while len(batch) < self.max_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            live = [p for p in batch if not p.future.cancelled()]
            # A request cancelled while queued leaves here; one cancelled
            # once its batch is running leaves through ``_resolve``.
            self._pending -= len(batch) - len(live)
            if live:
                async with self._loop_slot:
                    self._run_batch(name, live)
                    await _yield_a_turn()
            else:
                # Every collected request was cancelled before dispatch:
                # nothing to execute.
                self._stats["empty_ticks"] += 1
            if stop:
                break

    def _run_batch(self, name: str, batch: List[_Pending]) -> None:
        offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum([p.rows.size for p in batch], out=offsets[1:])
        queries = QueryBatch(
            np.concatenate([p.rows for p in batch]),
            np.concatenate([p.weights for p in batch]),
            offsets,
        )
        total = int(offsets[-1])
        # Distinct rows from a sort: np.unique's hash path costs more than
        # the batch's cipher work on a PF-80 wave.
        ordered = np.sort(queries.rows)
        unique = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + bool(total)
        self._stats["batches"] += 1
        self._stats["batch_queries"] += len(batch)
        self._stats["batch_rows_total"] += total
        self._stats["batch_rows_unique"] += unique
        try:
            with obs.span("serve.batch"):
                values, outcomes = self.store.sls_scatter(name, queries)
        except Exception as exc:  # post-validation failures are per-batch
            for p in batch:
                self._resolve(p, error_response(p.request.id, exc, via="batch"))
            return
        for p, row_values, outcome in zip(batch, values, outcomes):
            if outcome.ok:
                via = "scatter" if outcome.degraded else "batch"
                response = SlsResponse(p.request.id, STATUS_OK, values=row_values, via=via)
            else:
                response = SlsResponse(
                    p.request.id, "error", error=outcome.error, kind=outcome.kind, via="scatter"
                )
            self._resolve(p, response)

    def _resolve(self, pending: _Pending, response: SlsResponse) -> None:
        self._pending -= 1
        if pending.future.cancelled():
            return
        latency = time.perf_counter_ns() - pending.submitted_ns
        self.admission.record(latency)
        obs.observe_ns("serve.latency.ns", latency)
        if response.status == STATUS_OK:
            self._stats["responses_ok"] += 1
            obs.inc("serve.response.ok")
        else:
            self._stats["responses_error"] += 1
            obs.inc("serve.response.error")
            obs.inc("serve.errors")
        pending.future.set_result(response)

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
