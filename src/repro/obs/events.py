"""Structured security-event audit log (JSONL), off by default.

The paper's verification-failure interrupt (Sec. V-E3) and the recovery
ladder built on it (DESIGN.md Sec. 11) are *security events*: evidence
that untrusted memory misbehaved and a record of what the enclave did
about it.  This module gives every such step a typed, attributable
audit record:

* :class:`SecurityEvent` — one frozen record: monotonically increasing
  ``seq``, wall-clock ``ts``, a ``kind`` from the constants below, the
  affected ``table`` / ``rows`` / ciphertext ``version``, the emitting
  ``worker`` (the `repro.obs.tracing` worker label) and ``pid``, plus a
  free-form ``details`` dict.
* :class:`EventLog` — a thread-safe in-memory ring of the last
  :data:`RING_CAPACITY` events with an optional append-only JSONL
  sink.  Every emitted event is written (and flushed) as one JSON
  line, so the file doubles as a durable journal:
  :func:`read_events` loads it back and
  :meth:`repro.faults.recovery.RecoveryLog.replay_events` rebuilds
  quarantine/repair state from it on restart.

Like metrics and tracing, the layer is opt-in: the module-level
:func:`emit` helper checks one module attribute and returns immediately
when no log is installed, so instrumented call sites (all of which sit
on failure/recovery paths, never on the healthy hot path) cost one
branch when auditing is off.  Enable with :func:`enable_events`, the
CLI ``--events PATH`` flag, or ``SECNDP_EVENTS`` in the environment
(``1`` for in-memory only, anything else is treated as a sink path).
A run that needs its own events back (a harness, a CLI command) scopes
them with :func:`journal`, which selects them by ``seq``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from . import tracing

__all__ = [
    "SecurityEvent",
    "EventLog",
    "enable_events",
    "disable_events",
    "event_log",
    "journal",
    "emit",
    "read_events",
    "ENV_EVENTS",
    "RING_CAPACITY",
    # event kinds
    "VERIFY_FAILURE",
    "RECOVERY_RETRY",
    "RECOVERY_FALLBACK",
    "RECOVERY_REPAIR",
    "RECOVERY_EXHAUSTED",
    "QUARANTINE",
    "QUARANTINE_HIT",
    "REENCRYPT",
    "SERVE_START",
    "SERVE_DRAIN",
    "SERVE_OVERLOAD",
    "NODE_BLAME",
    "NODE_QUARANTINE",
    "NODE_RESHARD",
    "NODE_TIMEOUT",
    "NODE_DEAD",
    "CLUSTER_START",
    "CLUSTER_DRAIN",
    "EVENT_KINDS",
]

ENV_EVENTS = "SECNDP_EVENTS"

#: Events an :class:`EventLog` keeps in memory; older ones fall off the
#: ring (the JSONL sink and the per-kind counts keep everything).
RING_CAPACITY = 100_000

# -- event kinds (the typed vocabulary; DESIGN.md Sec. 13) ---------------------

VERIFY_FAILURE = "verify_failure"          #: a tag check rejected a result
RECOVERY_RETRY = "recovery_retry"          #: ladder rung 1: re-offload
RECOVERY_FALLBACK = "recovery_fallback"    #: rung 2: trusted non-NDP recompute
RECOVERY_REPAIR = "recovery_repair"        #: rung 3: plaintext repair
RECOVERY_EXHAUSTED = "recovery_exhausted"  #: ladder failed; error propagated
QUARANTINE = "quarantine"                  #: rows marked served-trusted-only
QUARANTINE_HIT = "quarantine_hit"          #: query short-circuited by quarantine
REENCRYPT = "reencrypt"                    #: rung 4: region re-keyed, versions bumped
SERVE_START = "serve_start"                #: serving front-end began accepting
SERVE_DRAIN = "serve_drain"                #: serving front-end drained and stopped
SERVE_OVERLOAD = "serve_overload"          #: admission gate entered/left shedding
NODE_BLAME = "node_blame"                  #: a shard's tag share failed its own check
NODE_QUARANTINE = "node_quarantine"        #: a node crossed the blame threshold
NODE_RESHARD = "node_reshard"              #: a quarantined node's rows reassigned
NODE_TIMEOUT = "node_timeout"              #: a node missed its dispatch deadline
NODE_DEAD = "node_dead"                    #: a node's connection is gone for good
CLUSTER_START = "cluster_start"            #: coordinator began serving a shard map
CLUSTER_DRAIN = "cluster_drain"            #: coordinator drained and stopped

EVENT_KINDS = (
    VERIFY_FAILURE,
    RECOVERY_RETRY,
    RECOVERY_FALLBACK,
    RECOVERY_REPAIR,
    RECOVERY_EXHAUSTED,
    QUARANTINE,
    QUARANTINE_HIT,
    REENCRYPT,
    SERVE_START,
    SERVE_DRAIN,
    SERVE_OVERLOAD,
    NODE_BLAME,
    NODE_QUARANTINE,
    NODE_RESHARD,
    NODE_TIMEOUT,
    NODE_DEAD,
    CLUSTER_START,
    CLUSTER_DRAIN,
)


@dataclass(frozen=True)
class SecurityEvent:
    """One audit record.  ``rows`` is the row-address attribution the
    multi-node blame-assignment direction (ROADMAP) builds on."""

    seq: int
    ts: float
    kind: str
    table: Optional[str] = None
    rows: Tuple[int, ...] = ()
    worker: Optional[Union[int, str]] = None
    version: Optional[int] = None
    pid: int = 0
    details: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
        }
        if self.table is not None:
            payload["table"] = self.table
        if self.rows:
            payload["rows"] = list(self.rows)
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.version is not None:
            payload["version"] = self.version
        if self.pid:
            payload["pid"] = self.pid
        if self.details:
            payload["details"] = self.details
        return json.dumps(payload, sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SecurityEvent":
        return cls(
            seq=int(data.get("seq", 0)),
            ts=float(data.get("ts", 0.0)),
            kind=str(data.get("kind", "")),
            table=data.get("table"),
            rows=tuple(int(r) for r in data.get("rows", ())),
            worker=data.get("worker"),
            version=data.get("version"),
            pid=int(data.get("pid", 0)),
            details=dict(data.get("details", {})),
        )


class EventLog:
    """Bounded in-memory event ring with an optional JSONL sink.

    Every :meth:`emit` appends to the ring (oldest events fall off past
    :data:`RING_CAPACITY`; ``total`` and the per-kind counts keep the
    exact tally) and, when a ``path`` was given, writes one flushed JSON line
    — security events are rare and each one is evidence, so durability
    beats batching here.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=RING_CAPACITY)
        self._counts: Dict[str, int] = {}
        self.total = 0  #: events emitted; also the ``seq`` of the latest
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    # -- recording -------------------------------------------------------------

    def emit(
        self,
        kind: str,
        table: Optional[str] = None,
        rows: Any = (),
        worker: Optional[Union[int, str]] = None,
        version: Optional[int] = None,
        **details: Any,
    ) -> SecurityEvent:
        if worker is None:
            worker = tracing.worker_label()
        event = SecurityEvent(
            seq=0,  # replaced under the lock below
            ts=time.time(),
            kind=str(kind),
            table=table,
            rows=tuple(int(r) for r in rows),
            worker=worker,
            version=version,
            pid=os.getpid(),
            details=details,
        )
        with self._lock:
            self.total += 1
            object.__setattr__(event, "seq", self.total)
            self._ring.append(event)
            self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
            if self._file is not None:
                self._file.write(event.to_json() + "\n")
                self._file.flush()
        return event

    # -- reading ---------------------------------------------------------------

    def events(self) -> List[SecurityEvent]:
        with self._lock:
            return list(self._ring)

    def counts_by_kind(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


#: The installed log, or None.  The gated :func:`emit` helper reads this
#: attribute directly; keep it a plain module global so the disabled
#: path stays one load + one is-check (pinned by check_overhead).
_LOG: Optional[EventLog] = None


def enable_events(path: Optional[Union[str, Path]] = None) -> EventLog:
    """Install a fresh :class:`EventLog` (closing any previous one).

    ``path=None`` keeps events in memory only; with a path every event
    is also journalled as one JSON line.
    """
    global _LOG
    if _LOG is not None:
        _LOG.close()
    _LOG = EventLog(path)
    return _LOG


def disable_events() -> None:
    """Close and uninstall the event log; emit sites return to one branch."""
    global _LOG
    if _LOG is not None:
        _LOG.close()
    _LOG = None


def event_log() -> Optional[EventLog]:
    """The installed log (for draining/inspection), or ``None``."""
    return _LOG


@contextmanager
def journal(path: Optional[Union[str, Path]] = None):
    """Scope one run's audit events — the one way a run reads the journal.

    Installs a log for the run when ``path`` names a JSONL sink or none
    is configured (in memory then); an already-installed log — e.g. the
    CLI's ``--events`` sink — is used as it is.  Yields a function
    returning the events emitted since entry, selected by ``seq`` so a
    full or wrapping ring still yields exactly the scope's events that
    it holds (still callable after exit); on exit uninstalls only what
    it installed.
    """
    own_log = path is not None or _LOG is None
    log = enable_events(path) if own_log else _LOG
    start = log.total
    try:
        yield lambda: [event for event in log.events() if event.seq > start]
    finally:
        if own_log:
            disable_events()


def emit(
    kind: str,
    table: Optional[str] = None,
    rows: Any = (),
    worker: Optional[Union[int, str]] = None,
    version: Optional[int] = None,
    **details: Any,
) -> Optional[SecurityEvent]:
    """Record one security event (no-op while auditing is disabled)."""
    log = _LOG
    if log is None:
        return None
    return log.emit(
        kind, table=table, rows=rows, worker=worker, version=version, **details
    )


def read_events(path: Union[str, Path]) -> List[SecurityEvent]:
    """Load a JSONL journal back into :class:`SecurityEvent` records.

    Malformed lines (e.g. a torn final write after a crash) are skipped
    — a journal that loads partially still quarantines every row it
    records, which is strictly safer than refusing to load.
    """
    out: List[SecurityEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(SecurityEvent.from_dict(json.loads(line)))
            except (ValueError, TypeError):
                continue
    return out


# Ambient activation: SECNDP_EVENTS=1 keeps an in-memory log; any other
# non-empty value is an append-sink path.  Mirrors SECNDP_METRICS.
_raw = os.environ.get(ENV_EVENTS, "").strip()
if _raw:
    enable_events(None if _raw.lower() in ("1", "true", "yes", "on") else _raw)
del _raw
