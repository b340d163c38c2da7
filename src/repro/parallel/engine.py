"""Sharded SecNDP serving engine over a spawn pool + shared memory.

:class:`ParallelSlsEngine` wraps a loaded
:class:`~repro.workloads.secure_sls.SecureEmbeddingStore` and serves its
``sls_many`` batches across N worker processes:

* **Arena layout** — each table's ciphertext matrix and packed per-row
  tags are copied once into ``multiprocessing.shared_memory`` segments
  (:mod:`repro.parallel.shm`); every worker maps the same pages
  zero-copy.  Ciphertext and encrypted tags are untrusted/public data in
  the threat model, so sharing them wholesale leaks nothing.
* **Key broadcast** — the pool initializer rebuilds a
  :class:`~repro.core.protocol.SecNDPProcessor` (key + params travel
  exactly once, at pool start) and an
  :class:`~repro.core.protocol.UntrustedNdpDevice` whose store points at
  the shared arenas.
* **Row ownership** — rows are partitioned into N contiguous ranges; a
  batch is served by masking every query down to each worker's range,
  running :meth:`~repro.core.protocol.SecNDPProcessor.partial_row_sum_batch`
  per shard, and recombining the shares on the trusted side with
  :meth:`~repro.core.protocol.SecNDPProcessor.finalize_row_sum_batch`.
  Ring and field arithmetic are exact, so the recombined totals are
  bit-identical to the sequential path for any worker count.
* **Degradation** — construction falls back to ``workers = 0``
  (in-process delegation to the store) whenever shared memory is
  unavailable or the pool fails its startup ping, so the engine is
  always safe to instantiate.
* **Liveness hardening** — every batch dispatch carries a deadline
  (``task_timeout`` / ``SECNDP_TASK_TIMEOUT``): a crashed, hung or
  raising worker fails the dispatch instead of wedging the parent, the
  pool is respawned once and the batch retried, and a second failure
  degrades the engine permanently to in-process serving.  When the
  wrapped store carries a :class:`~repro.faults.recovery.RecoveryPolicy`,
  its fault injector supplies per-task worker directives (crash / raise
  / hang) drawn parent-side from the seeded plan, and verification
  failures at recombination delegate the batch to the store's recovery
  ladder.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import kernels, obs
from ..core.checksum import MultiPointChecksum
from ..core.encryption import EncryptedMatrix
from ..core.protocol import PartialSumShare, SecNDPProcessor, UntrustedNdpDevice
from ..errors import ConfigurationError, VerificationError
from .pmap import POOL_START_TIMEOUT, resolve_workers
from .shm import (
    ArraySpec,
    attach_shared_array,
    create_shared_array,
    shared_memory_available,
)

__all__ = [
    "ParallelSlsEngine",
    "ENV_TASK_TIMEOUT",
    "DEFAULT_TASK_TIMEOUT",
    "ENV_SNAPSHOT_INTERVAL",
]

#: Per-batch dispatch deadline in seconds; a crashed or hung worker must
#: not wedge the parent past this.
ENV_TASK_TIMEOUT = "SECNDP_TASK_TIMEOUT"
DEFAULT_TASK_TIMEOUT = 60.0

#: Minimum seconds between metric-snapshot pushes from a worker.  The
#: default (0) ships a snapshot with *every* task result — maximum
#: fidelity for the parent's live fleet view; a positive interval lets a
#: worker accumulate across tasks and ship at most one snapshot per
#: interval, trading freshness for smaller result payloads.
ENV_SNAPSHOT_INTERVAL = "SECNDP_SNAPSHOT_INTERVAL"


def resolve_task_timeout(value: Optional[float] = None) -> float:
    """Explicit value, else ``SECNDP_TASK_TIMEOUT``, else the default."""
    if value is not None:
        return float(value)
    raw = os.environ.get(ENV_TASK_TIMEOUT, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return DEFAULT_TASK_TIMEOUT


def resolve_snapshot_interval(value: Optional[float] = None) -> float:
    """Explicit value, else ``SECNDP_SNAPSHOT_INTERVAL``, else 0 (per task)."""
    if value is not None:
        return max(0.0, float(value))
    raw = os.environ.get(ENV_SNAPSHOT_INTERVAL, "").strip()
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    return 0.0


class _TableSpec(NamedTuple):
    """Everything a worker needs to rebuild one table's device view."""

    name: str
    cipher_spec: ArraySpec
    tags_spec: Optional[ArraySpec]
    base_addr: int
    version: int
    checksum_version: Optional[int]
    tag_version: Optional[int]


class _PoolSpec(NamedTuple):
    """One-time broadcast at pool start: key, params, table handles."""

    key: bytes
    params: object
    multipoint: bool
    tables: Tuple[_TableSpec, ...]
    #: resolved kernel tier broadcast to workers ("" keeps worker-side
    #: auto resolution); workers warm kernels at spawn, never per task
    kernel_tier: str = ""


# -- worker side ---------------------------------------------------------------

_WORKER: Optional[dict] = None


def _engine_worker_init(spec: _PoolSpec, counter) -> None:
    """Pool initializer: attach arenas, rebuild protocol parties."""
    global _WORKER
    with counter.get_lock():
        wid = counter.value
        counter.value += 1
    obs.set_worker_label(wid)
    # Pin this worker to the parent's resolved kernel tier and pay any
    # one-time JIT/dlopen cost here, at spawn — tasks must never re-JIT.
    # A tier the worker cannot satisfy (e.g. the parent compiled native
    # kernels but this host's cache is gone and compilation now fails)
    # degrades to auto rather than killing the pool.
    try:
        kernels.set_tier(spec.kernel_tier or None)
    except ConfigurationError:
        kernels.set_tier("auto")
    kernels.warmup()
    processor = SecNDPProcessor(
        spec.key, spec.params, multipoint_checksum=spec.multipoint
    )
    device = UntrustedNdpDevice(spec.params)
    segments = []
    for table in spec.tables:
        ciphertext, seg = attach_shared_array(table.cipher_spec)
        segments.append(seg)
        tag_limbs = None
        if table.tags_spec is not None:
            tag_limbs, tag_seg = attach_shared_array(table.tags_spec)
            segments.append(tag_seg)
        device.store(
            table.name,
            EncryptedMatrix(
                ciphertext=ciphertext,
                base_addr=table.base_addr,
                version=table.version,
                params=spec.params,
                tag_limbs=tag_limbs,
                checksum_version=table.checksum_version,
                tag_version=table.tag_version,
            ),
        )
    _WORKER = {
        "wid": wid,
        "processor": processor,
        "device": device,
        "segments": segments,
    }


def _engine_ping(_: int) -> bool:
    return _WORKER is not None


def _engine_sls_task(args):
    """One shard's share of a batch; runs on a pool worker."""
    (
        name,
        sub_batch,
        with_tags,
        collect_metrics,
        collect_trace,
        snapshot_interval,
        directive,
    ) = args
    if directive is not None:
        # Parent-side fault injection: workers never own an injector (all
        # randomness lives in one seeded parent stream); they just obey.
        action = directive[0]
        if action == "crash":
            os._exit(3)
        elif action == "raise":
            raise RuntimeError("injected worker fault (worker_raise)")
        elif action == "hang":
            time.sleep(float(directive[1]))
    if collect_metrics:
        obs.enable()
    if collect_trace:
        obs.enable_tracing()
    processor: SecNDPProcessor = _WORKER["processor"]
    device: UntrustedNdpDevice = _WORKER["device"]
    with obs.span("parallel.shard"):
        part = processor.partial_row_sum_batch(
            device, name, sub_batch, with_tag_shares=with_tags
        )
    # Periodic live push: with the default interval of 0 every task
    # result carries a snapshot (the parent merges them as they arrive,
    # so the fleet view is live, not teardown-time); a positive interval
    # accumulates in the worker's registry and ships at most once per
    # interval.  The registry is reset only when a snapshot actually
    # ships, so nothing is double-counted and at most one interval's
    # tail is lost at teardown.
    snap = None
    if collect_metrics:
        now = time.monotonic()
        # No last push yet: ship, whatever the clock reads (it can start at 0).
        last_push = _WORKER.get("last_push")
        if (
            snapshot_interval <= 0
            or last_push is None
            or now - last_push >= snapshot_interval
        ):
            snap = obs.snapshot(include_samples=True)
            obs.reset()
            _WORKER["last_push"] = now
    events = obs.trace_events() if collect_trace else None
    if collect_trace:
        obs.clear_trace()
    return _WORKER["wid"], part.values, part.tag_shares, snap, events


# -- trusted / parent side -----------------------------------------------------


class ParallelSlsEngine:
    """Serve a store's batched SLS queries across a worker pool.

    Parameters
    ----------
    store:
        A loaded :class:`SecureEmbeddingStore`; tables added *after*
        engine construction are served in-process only.
    workers:
        Worker count; ``None`` defers to ``SECNDP_WORKERS`` (else 0) via
        :func:`~repro.parallel.pmap.resolve_workers`.  ``0`` delegates
        every call straight to ``store.sls_many`` — identical behaviour,
        no processes, no shared memory.
    task_timeout:
        Seconds a batch dispatch may take before the pool is declared
        unhealthy; ``None`` defers to ``SECNDP_TASK_TIMEOUT`` (else 60).
    snapshot_interval:
        Minimum seconds between a worker's metric-snapshot pushes;
        ``None`` defers to ``SECNDP_SNAPSHOT_INTERVAL`` (else 0 = one
        snapshot per task, the highest-fidelity live fleet view).

    Use as a context manager (or call :meth:`close`) so the pool and the
    shared segments are released deterministically.
    """

    def __init__(
        self,
        store,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        snapshot_interval: Optional[float] = None,
    ):
        self.store = store
        self.workers = resolve_workers(workers)
        self.task_timeout = resolve_task_timeout(task_timeout)
        self.snapshot_interval = resolve_snapshot_interval(snapshot_interval)
        self._pool = None
        self._segments: list = []
        self._bounds: Dict[str, np.ndarray] = {}
        self._versions: Dict[str, int] = {}
        self._offload: Optional[ThreadPoolExecutor] = None
        self._closed = False
        if self.workers >= 1:
            if not shared_memory_available():
                obs.inc("parallel.engine.fallback")
                self.workers = 0
            else:
                try:
                    self._start_pool()
                except Exception:
                    self._teardown()
                    obs.inc("parallel.engine.fallback")
                    self.workers = 0

    # -- lifecycle -------------------------------------------------------------

    def _start_pool(self) -> None:
        store = self.store
        table_specs: List[_TableSpec] = []
        for name in store.tables():
            enc = store.device.stored(name)
            cipher_spec, seg = create_shared_array(enc.ciphertext)
            self._segments.append(seg)
            tags_spec = None
            if enc.tag_limbs is not None:
                tags_spec, tag_seg = create_shared_array(enc.tag_limbs)
                self._segments.append(tag_seg)
            table_specs.append(
                _TableSpec(
                    name=name,
                    cipher_spec=cipher_spec,
                    tags_spec=tags_spec,
                    base_addr=enc.base_addr,
                    version=enc.version,
                    checksum_version=enc.checksum_version,
                    tag_version=enc.tag_version,
                )
            )
            n_rows = store._tables[name].n_rows
            self._bounds[name] = np.linspace(
                0, n_rows, self.workers + 1
            ).astype(np.int64)
            # Snapshot of the version the arena was exported under;
            # re-encryption (recovery rung 4) bumps it, flagging the
            # shared copy as stale.
            self._versions[name] = enc.version
        spec = _PoolSpec(
            key=store.processor.cipher.key,
            params=store.processor.params,
            multipoint=isinstance(store.processor.checksum, MultiPointChecksum),
            tables=tuple(table_specs),
            kernel_tier=kernels.active_tier(),
        )
        ctx = mp.get_context("spawn")
        counter = ctx.Value("i", 0)
        self._pool = ctx.Pool(
            processes=self.workers,
            initializer=_engine_worker_init,
            initargs=(spec, counter),
        )
        # Health check: a crash-looping spawn (broken __main__ etc.)
        # would otherwise hang the first real query forever.
        self._pool.map_async(_engine_ping, range(self.workers)).get(
            timeout=POOL_START_TIMEOUT
        )
        obs.gauge("parallel.engine.workers", self.workers)

    def _teardown(self) -> None:
        # Teardown must always complete (a poisoned pool still has to
        # release its shared segments), but swallowed failures are
        # counted rather than silently dropped.
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:
                obs.inc("parallel.teardown_errors")
            self._pool = None
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                obs.inc("parallel.teardown_errors")
            try:
                seg.unlink()
            except Exception:
                obs.inc("parallel.teardown_errors")
        self._segments = []

    def _respawn(self) -> bool:
        """Tear the pool down and rebuild it from the store's live state."""
        obs.inc("parallel.engine.respawns")
        obs.emit_event(obs.POOL_RESPAWN, workers=self.workers)
        self._teardown()
        self._bounds = {}
        self._versions = {}
        try:
            self._start_pool()
            return True
        except Exception:
            self._teardown()
            return False

    def _degrade(self) -> None:
        """Give up on the pool for good; serve in-process from now on."""
        obs.inc("parallel.engine.degraded")
        obs.emit_event(obs.POOL_DEGRADE, workers=self.workers)
        self._teardown()
        self.workers = 0

    def ping(self) -> bool:
        """True iff the serving path is healthy.

        With a pool, every worker must answer within the startup timeout;
        without one (``workers == 0``), in-process serving is always
        healthy.
        """
        if self.workers == 0 or self._pool is None:
            return True
        try:
            replies = self._pool.map_async(_engine_ping, range(self.workers)).get(
                timeout=POOL_START_TIMEOUT
            )
            return all(replies)
        except Exception:
            return False

    def close(self) -> None:
        """Shut the pool down and unlink the shared arenas (idempotent).

        The offload executor (if :meth:`submit` was ever used) is drained
        first — an in-flight batch completes, queued-but-unstarted work
        is cancelled — so no thread outlives the pool it dispatches to.
        """
        if not self._closed:
            if self._offload is not None:
                try:
                    self._offload.shutdown(wait=True, cancel_futures=True)
                except Exception:
                    obs.inc("parallel.teardown_errors")
                self._offload = None
            self._teardown()
            self._closed = True

    def __enter__(self) -> "ParallelSlsEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    # -- serving ---------------------------------------------------------------

    def sls_many(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> np.ndarray:
        """Batched verified SLS, sharded across the pool.

        Validation (overflow budget, weight sanity) runs on the trusted
        side via the store's shared ``_validate_query`` helper before any
        work is dispatched; verification runs on the recombined totals.
        Bit-identical to ``store.sls_many`` for every worker count.
        """
        store = self.store
        if self.workers == 0 or self._pool is None or name not in self._bounds:
            return store.sls_many(name, batch_rows, batch_weights)
        enc = store.device.stored(name)
        if enc.version != self._versions.get(name):
            # The store re-encrypted this table (recovery rung 4) after
            # the arenas were exported; the workers' shared copy is stale
            # ciphertext under retired versions.  Rebuild the pool from
            # the live device before serving.
            obs.inc("parallel.engine.stale_table")
            obs.emit_event(
                obs.STALE_ARENA,
                table=name,
                version=enc.version,
                arena_version=self._versions.get(name),
            )
            if not self._respawn():
                self._degrade()
                return store.sls_many(name, batch_rows, batch_weights)
        entry = store._tables[name]
        batch = store._validate_batch(name, batch_rows, batch_weights)
        # Same contract as the store path (EncryptedMatrix indexing): no
        # negative-index wrapping, fail before dispatching work.
        enc.row_addrs(batch.rows)

        bounds = self._bounds[name]
        collect_metrics = obs.enabled()
        collect_trace = obs.tracing_enabled()
        # Worker fault directives are drawn parent-side from the store's
        # seeded injector - only for recovery-enabled stores, which can
        # absorb the resulting retries/degradation.
        injector = (
            getattr(store, "fault_injector", None)
            if getattr(store, "recovery", None) is not None
            else None
        )
        tasks = []
        for w in range(self.workers):
            owned = (batch.rows >= bounds[w]) & (batch.rows < bounds[w + 1])
            # A shard that owns no row of the batch would return pure
            # ring/field identities (zero values, zero tag shares) - an
            # exact no-op under recombination, so skip the round trip.
            if not owned.any():
                continue
            directive = (
                injector.worker_directive("engine.task") if injector is not None else None
            )
            tasks.append(
                (
                    name,
                    batch.select(owned),
                    store.verify,
                    collect_metrics,
                    collect_trace,
                    self.snapshot_interval,
                    directive,
                )
            )
        if not tasks:
            # Every query was empty; the store path answers identically
            # (all-zero pools scaled by the table's affine params).
            return store.sls_many(name, batch_rows, batch_weights)

        obs.inc("parallel.batch.calls")
        obs.inc("parallel.batch.queries", len(batch))
        payloads = self._dispatch(tasks)
        if payloads is None:
            # Dispatch failed (worker crash/hang/exception).  Respawn the
            # pool once and retry with fault directives stripped - a
            # retried batch must be able to succeed - then degrade.
            if self._respawn():
                payloads = self._dispatch([t[:-1] + (None,) for t in tasks])
            if payloads is None:
                self._degrade()
                return store.sls_many(name, batch_rows, batch_weights)

        partials: List[PartialSumShare] = []
        shard_labels: List[int] = []
        for wid, values, tag_shares, snap, events in payloads:
            if snap is not None:
                obs.merge(snap)
            if events:
                obs.ingest_events(events)
            partials.append(PartialSumShare(values=values, tag_shares=tag_shares))
            shard_labels.append(wid)

        enc = store.device.stored(name)
        try:
            # Per-shard verification before combining: a failed check
            # names the worker whose share lied (ShardVerificationError,
            # a VerificationError subclass), so the delegation event
            # below carries blame instead of just "the batch failed".
            with obs.span("parallel.finalize"):
                values = store.processor.finalize_row_sums(
                    enc,
                    name,
                    partials,
                    verify=store.verify,
                    per_shard=store.verify,
                    shard_labels=shard_labels,
                )
        except VerificationError as exc:
            if getattr(store, "recovery", None) is None:
                raise
            # Sec. V-E3 interrupt on the recombined totals: hand the
            # batch to the store's recovery ladder (retry -> trusted
            # recompute -> repair), which serves it bit-exactly.
            obs.inc("recovery.detections")
            obs.inc("parallel.engine.recovery_delegations")
            obs.emit_event(
                obs.RECOVERY_DELEGATION,
                table=name,
                rows=np.unique(batch.rows).tolist(),
                queries=len(batch),
                shard=getattr(exc, "shard", None),
            )
            return store.sls_many(name, batch_rows, batch_weights)
        return store._affine(entry, values, batch.weight_sums())

    # -- non-blocking submission -----------------------------------------------

    def offload(self, fn, *args, **kwargs) -> Future:
        """Run ``fn`` on the engine's single offload thread; return a future.

        The pool's ``map_async(...).get(timeout)`` round trip blocks its
        calling thread (releasing the GIL), so an asyncio server must not
        run it on the event loop.  A dedicated one-thread executor keeps
        submission non-blocking while serialising all store/pool access
        through a single thread — the store and the pool handle
        are not thread-safe, and one serialisation domain means they
        never race.
        """
        if self._closed:
            raise ConfigurationError("engine is closed")
        if self._offload is None:
            self._offload = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="secndp-engine"
            )
        return self._offload.submit(fn, *args, **kwargs)

    def submit(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> Future:
        """Non-blocking :meth:`sls_many`: dispatch and return a future.

        The asyncio serving layer awaits this via
        ``asyncio.wrap_future``; blocking callers can use
        ``submit(...).result()``.  Exceptions (verification failures,
        configuration errors) surface through the future.
        """
        return self.offload(self.sls_many, name, batch_rows, batch_weights)

    def _dispatch(self, tasks) -> Optional[list]:
        """One timed fan-out; ``None`` signals an unhealthy pool."""
        try:
            with obs.span("parallel.batch"):
                return self._pool.map_async(_engine_sls_task, tasks).get(
                    timeout=self.task_timeout
                )
        except Exception as exc:
            obs.inc("parallel.engine.task_failures")
            obs.emit_event(
                obs.TASK_FAILURE,
                table=tasks[0][0] if tasks else None,
                error=type(exc).__name__,
            )
            return None
