"""Verification-triggered recovery (what a deployed enclave does next).

The paper stops at the verification-failure interrupt (Sec. V-E3); this
module models the handler.  A :class:`RecoveryPolicy` configures a
four-rung ladder, climbed per failing query - one the batch's check
named, the batch's offload having been its attempt 0:

1. **Retry** the offloaded computation (bounded attempts, exponential
   backoff with deterministic jitter) - recovers transient NDP/bus
   faults, which re-roll on every attempt.
2. **Trusted non-NDP recompute**: read every queried row over the bus
   as one batch of PF=1 weighted summations, each verified
   *individually* (it has a full tag identity), and pool on the trusted
   side - recovers persistent faults in the NDP compute path while
   still refusing corrupted data.  This is exactly the paper's non-NDP
   baseline path (:mod:`repro.baselines.non_ndp`) used as the degraded
   mode.
3. **Repair + quarantine**: rows whose individual verification fails are
   truly corrupted in memory; when the enclave retains the plaintext
   (recovery-enabled stores do), their residues are substituted from it
   and the rows are quarantined - later queries touching them skip
   straight to the trusted path.
4. **Re-encryption** with bumped versions once a table accumulates
   ``reencrypt_after`` repairs: the region is re-keyed fresh into
   untrusted memory (Sec. V-A version bump), clearing the quarantine.

Every rung is observable (``recovery.*`` counters / spans), every
ladder outcome is recorded in a bounded :class:`RecoveryLog` (a query
the batch served clean is only counted) so chaos harnesses can prove
detection and recovery rates instead of asserting them, and
every quarantine/repair/re-encryption emits a typed audit event
(:mod:`repro.obs.events`).  With a JSONL event sink configured those
events double as a *persistent quarantine journal*:
:meth:`RecoveryLog.replay_events` rebuilds quarantine and repair state
from a recorded stream, so a restarted store keeps refusing known-bad
rows (see ``SecureEmbeddingStore.load_quarantine_journal``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from .. import obs
from ..errors import RecoveryExhaustedError

__all__ = ["RecoveryPolicy", "RecoveryOutcome", "RecoveryLog", "RecoveryExhaustedError"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for the recovery ladder.

    One policy, two rung lists: the store climbs it per query over rows
    (all six knobs), the cluster coordinator per dispatch over nodes
    (``max_retries`` and :meth:`backoff_s`).

    Parameters
    ----------
    max_retries:
        Full re-offload attempts after the first detected failure.
    backoff_base_s / jitter:
        Attempt ``k`` sleeps ``backoff_base_s * 2**k`` scaled by a
        deterministic jitter in ``[1-jitter, 1+jitter]`` (decorrelates
        retry storms across queries without giving up replayability).
    reencrypt_after:
        Re-encrypt a table under bumped versions once this many of its
        rows have been repaired (0/None disables).
    retain_plaintext:
        Keep the quantized residues trusted-side at load time; required
        for rung 3/4.  Costs one plaintext copy of each table.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.002
    jitter: float = 0.5
    reencrypt_after: Optional[int] = 4
    retain_plaintext: bool = True
    sleep: Callable[[float], None] = time.sleep

    def backoff_s(self, attempt: int, salt: int = 0) -> float:
        """Deterministic backoff-with-jitter for retry ``attempt`` (0-based)."""
        base = self.backoff_base_s * (2.0 ** attempt)
        if self.jitter <= 0:
            return base
        # Cheap deterministic hash -> [1-jitter, 1+jitter]; no RNG state.
        h = (attempt * 0x9E3779B1 + salt * 0x85EBCA77) & 0xFFFFFFFF
        return base * (1.0 - self.jitter + 2.0 * self.jitter * (h / 0xFFFFFFFF))


@dataclass(frozen=True)
class RecoveryOutcome:
    """How one query that climbed the ladder was served."""

    table: str
    rows: tuple
    #: "retry", "fallback", "repair", or "quarantined" (served
    #: trusted-side without attempting the offload)
    resolved_via: str
    detected: bool          #: at least one VerificationError was raised
    attempts: int           #: offload attempts, the batch's included
    repaired_rows: tuple = ()


class RecoveryLog:
    """Bounded per-store log of ladder outcomes plus quarantine/repair state.

    A query its batch served clean is only counted (``clean``, reported
    as ``"ok"`` by :meth:`counts_by_resolution`): the log keeps what the
    ladder did, not every query the store answered.
    """

    MAX_OUTCOMES = 100_000

    def __init__(self) -> None:
        self.outcomes: List[RecoveryOutcome] = []
        self.clean = 0
        self.quarantined: Dict[str, Set[int]] = {}
        self.repairs: Dict[str, int] = {}
        self.reencryptions: Dict[str, int] = {}

    def record(self, outcome: RecoveryOutcome) -> None:
        if len(self.outcomes) < self.MAX_OUTCOMES:
            self.outcomes.append(outcome)

    def quarantine_rows(self, table: str, rows: Sequence[int]) -> None:
        row_ids = [int(r) for r in rows]
        self.quarantined.setdefault(table, set()).update(row_ids)
        obs.emit_event(obs.QUARANTINE, table=table, rows=row_ids)

    def quarantined_rows(self, table: str) -> Set[int]:
        return self.quarantined.get(table, set())

    def clear_quarantine(self, table: str) -> None:
        self.quarantined.pop(table, None)
        self.repairs.pop(table, None)

    def note_repairs(self, table: str, n: int) -> int:
        self.repairs[table] = self.repairs.get(table, 0) + n
        return self.repairs[table]

    def note_reencryption(self, table: str) -> None:
        self.reencryptions[table] = self.reencryptions.get(table, 0) + 1

    # -- persistent journal (repro.obs.events) ---------------------------------

    def replay_events(self, events: Iterable["obs.SecurityEvent"]) -> int:
        """Rebuild quarantine/repair/re-encryption state from audit events.

        Mutates the dicts *directly* — replay must never re-emit, or a
        journal reload would append every event to the journal again.
        A ``reencrypt`` event clears the table's quarantine exactly like
        the live ladder does (the region was re-keyed; the old damage is
        gone).  Returns the number of state-bearing events applied.
        """
        applied = 0
        for event in events:
            if event.table is None:
                continue
            if event.kind == obs.QUARANTINE:
                self.quarantined.setdefault(event.table, set()).update(event.rows)
                applied += 1
            elif event.kind == obs.RECOVERY_REPAIR:
                n = len(event.rows) or int(event.details.get("repaired", 0))
                self.repairs[event.table] = self.repairs.get(event.table, 0) + n
                applied += 1
            elif event.kind == obs.REENCRYPT:
                self.reencryptions[event.table] = (
                    self.reencryptions.get(event.table, 0) + 1
                )
                self.quarantined.pop(event.table, None)
                self.repairs.pop(event.table, None)
                applied += 1
        return applied

    # -- accounting --------------------------------------------------------------

    def detected_count(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    def counts_by_resolution(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"ok": self.clean} if self.clean else {}
        for o in self.outcomes:
            counts[o.resolved_via] = counts.get(o.resolved_via, 0) + 1
        return counts
