"""Worker-count resolution and a metrics-preserving ``parallel_map``.

One policy for the experiment grids: an explicit ``workers`` argument
wins, else the ``SECNDP_WORKERS`` environment variable, else the library
stays in-process (``0``).  The CLI layers its own ``os.cpu_count()``-aware
default on top via :func:`default_workers`.  No serving path reads
either: an SLS batch runs in the serving process or on cluster nodes.

``parallel_map`` runs independent items through a shared spawn pool and
drains each task's worker-side :mod:`repro.obs` state (metric snapshots,
trace events) back into the parent, so instrumented harness sweeps lose
nothing by going parallel.  Every failure mode — spawn unavailable,
pool startup hanging, shared state unpicklable — degrades to the plain
in-process ``map``.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing as mp
import os
from typing import Callable, Iterable, List, Optional

from .. import obs

__all__ = ["resolve_workers", "default_workers", "parallel_map"]

ENV_WORKERS = "SECNDP_WORKERS"

#: Startup ping budget: a healthy spawn pool answers in well under a
#: second; a crash-looping one (broken __main__, missing interpreter
#: state) would otherwise respawn workers forever.
POOL_START_TIMEOUT = 30.0


def _env_workers() -> Optional[int]:
    raw = os.environ.get(ENV_WORKERS)
    if raw is None:
        return None
    try:
        return max(0, int(raw))
    except ValueError:
        return None


def default_workers() -> int:
    """CLI default: ``SECNDP_WORKERS`` if set, else the CPU count."""
    env = _env_workers()
    if env is not None:
        return env
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count for a library call.

    ``workers`` (clamped at 0) wins when given; otherwise the
    ``SECNDP_WORKERS`` environment variable; otherwise 0 — parallelism
    is opt-in below the CLI.  Inside a daemonic pool worker the answer
    is always 0: nested pools are unsupported by multiprocessing.
    """
    if mp.current_process().daemon:
        return 0
    if workers is not None:
        return max(0, int(workers))
    env = _env_workers()
    return env if env is not None else 0


# -- shared task pools ---------------------------------------------------------

_POOLS: dict = {}


def _shutdown_pools() -> None:
    for pool in _POOLS.values():
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass
    _POOLS.clear()


atexit.register(_shutdown_pools)


def _pmap_init(counter) -> None:
    with counter.get_lock():
        wid = counter.value
        counter.value += 1
    obs.set_worker_label(f"pmap-{wid}")


def _pmap_ping(_: int) -> int:
    return os.getpid()


def _get_pool(n: int):
    """A lazily created spawn pool of size ``n``, health-checked once."""
    pool = _POOLS.get(n)
    if pool is None:
        ctx = mp.get_context("spawn")
        counter = ctx.Value("i", 0)
        pool = ctx.Pool(processes=n, initializer=_pmap_init, initargs=(counter,))
        try:
            pool.map_async(_pmap_ping, range(n)).get(timeout=POOL_START_TIMEOUT)
        except Exception:
            pool.terminate()
            pool.join()
            raise
        _POOLS[n] = pool
    return pool


def _pmap_task(item, fn: Callable, collect_metrics: bool, collect_trace: bool):
    """Runs in the worker: call ``fn`` and capture its obs delta."""
    if collect_metrics:
        obs.enable()
    if collect_trace:
        obs.enable_tracing()
    result = fn(item)
    snap = obs.snapshot() if collect_metrics else None
    events = obs.trace_events() if collect_trace else None
    if collect_metrics:
        obs.reset()
    if collect_trace:
        obs.clear_trace()
    return result, snap, events


def parallel_map(fn: Callable, items: Iterable, workers: Optional[int] = None) -> List:
    """``[fn(x) for x in items]``, fanned across a spawn pool.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) and so must the items and results.
    Order is preserved.  With an effective worker count of 0 or 1 — or
    whenever the pool cannot be started — this is exactly the in-process
    list comprehension, which is what makes results deterministic
    regardless of worker count: each item is computed independently
    either way.

    Worker-side metrics and trace events are merged into the parent's
    registries after every task, so ``--stats`` output is complete.
    """
    items = list(items)
    n = min(resolve_workers(workers), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    try:
        pool = _get_pool(n)
    except Exception:
        return [fn(item) for item in items]
    task = functools.partial(
        _pmap_task,
        fn=fn,
        collect_metrics=obs.enabled(),
        collect_trace=obs.tracing_enabled(),
    )
    results: List = []
    for result, snap, events in pool.map(task, items):
        if snap is not None:
            obs.merge(snap)
        if events:
            obs.ingest_events(events)
        results.append(result)
    return results
