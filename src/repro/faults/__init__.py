"""Fault injection and verification-triggered recovery.

The paper's guarantee is *detection* (Alg. 2/3, Thms. 1-2, the
Sec. V-E3 verification-failure interrupt); this package supplies both
the faults to detect and the handler that turns a detection into a
served result:

* :mod:`repro.faults.plan` - :class:`FaultPlan` / :class:`FaultInjector`:
  composable, seeded descriptions of ciphertext bit flips, tag
  tamper/replay, skewed NDP partial sums, OTP version flips, command
  packet drop/dup/delay, and cluster-node byzantine/slow/dead faults.
* :mod:`repro.faults.hooks` - process-wide activation; off by default,
  one branch on the hot paths, ambient activation via
  ``SECNDP_FAULT_PLAN``.
* :mod:`repro.faults.recovery` - :class:`RecoveryPolicy`: bounded
  retries with backoff+jitter, trusted non-NDP recompute with per-row
  verification, plaintext repair + quarantine, and re-encryption under
  bumped versions.

DESIGN.md Sec. 11 documents the fault model and the recovery state
machine; ``python -m repro chaos`` replays evaluation workloads under a
plan and reports detection/recovery rates.
"""

from .hooks import (
    ENV_FAULT_PLAN,
    ambient_injector,
    armed,
    armed_injector,
    clear,
    injected,
    install,
)
from .plan import (
    MEMORY_FAULTS,
    NODE_FAULTS,
    PRESET_PLANS,
    TRANSIENT_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    ScriptedDirectives,
)
from .recovery import RecoveryExhaustedError, RecoveryLog, RecoveryOutcome, RecoveryPolicy

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "ScriptedDirectives",
    "PRESET_PLANS",
    "MEMORY_FAULTS",
    "TRANSIENT_FAULTS",
    "NODE_FAULTS",
    "ENV_FAULT_PLAN",
    "install",
    "clear",
    "injected",
    "armed",
    "armed_injector",
    "ambient_injector",
    "RecoveryPolicy",
    "RecoveryOutcome",
    "RecoveryLog",
    "RecoveryExhaustedError",
]
