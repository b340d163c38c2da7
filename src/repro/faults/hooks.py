"""Process-wide fault-injection activation (off by default, ~free).

Hook sites in the protocol, NDP and serving layers all follow the same
two-step guard::

    inj = fault_hooks.armed_injector()
    if inj is not None:
        ...  # slow path: maybe inject

:func:`armed_injector` is one module-attribute load plus (at most) one
attribute read - when no injector is installed it returns ``None``
immediately, so the disabled cost on the hot paths is a single branch
(held to an absolute per-serve budget by ``benchmarks/check_overhead.py``).

Installation is explicit (:func:`install` / :func:`clear` /
:func:`injected`), or ambient via the ``SECNDP_FAULT_PLAN`` environment
variable: when set to a preset name (``ci-default``) or a
``kind=rate,...`` spec, :func:`ambient_injector` lazily builds one
injector for the whole process.  Recovery-enabled serving paths
(:class:`~repro.workloads.secure_sls.SecureEmbeddingStore` with a
:class:`~repro.faults.recovery.RecoveryPolicy`) pick the ambient
injector up automatically - which is how the chaos CI job drives the
tier-1 suite: only paths that can *recover* are ever faulted.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Optional

from .plan import FaultInjector, FaultPlan

__all__ = [
    "ENV_FAULT_PLAN",
    "install",
    "clear",
    "get",
    "armed_injector",
    "armed",
    "disarmed",
    "injected",
    "ambient_injector",
]

ENV_FAULT_PLAN = "SECNDP_FAULT_PLAN"

#: The installed injector, or None.  Hot sites read this attribute
#: directly through :func:`armed_injector`; keep it a plain module
#: global so the disabled path stays one load + one is-check.
_INJECTOR: Optional[FaultInjector] = None

#: Lazily-built injector from SECNDP_FAULT_PLAN; False = not probed yet.
_AMBIENT: object = False


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide injector (replaces any prior)."""
    global _INJECTOR
    _INJECTOR = injector
    return injector


def clear() -> None:
    """Remove the installed injector; hot paths go back to one branch."""
    global _INJECTOR
    _INJECTOR = None


def get() -> Optional[FaultInjector]:
    """The installed injector regardless of arming (for introspection)."""
    return _INJECTOR


def armed_injector() -> Optional[FaultInjector]:
    """The installed injector iff it is armed - the hot-site guard."""
    inj = _INJECTOR
    if inj is not None and inj._armed > 0:
        return inj
    return None


@contextmanager
def injected(plan: FaultPlan, arm: bool = True):
    """Install (and optionally arm) a fresh injector for a ``with`` block."""
    global _INJECTOR
    previous = _INJECTOR
    inj = install(FaultInjector(plan))
    if arm:
        inj.arm()
    try:
        yield inj
    finally:
        if arm:
            inj.disarm()
        _INJECTOR = previous


#: :func:`armed`'s no-op, shared by every call that has no injector.
_DISARMED = nullcontext()


def armed(injector: Optional[FaultInjector]):
    """Temporarily install *and arm* ``injector`` (no-op when ``None``).

    This is what recovery-enabled serving paths wrap their offload
    attempts in: hook sites fire only inside the block, so everything
    outside - direct protocol use, fallback reads, honest benchmarks -
    stays fault-free even with a process-wide plan in the environment.
    The no-op is one shared ``nullcontext``: a store with no injector
    wraps every wave in it, where a generator context cost ≈ 5 µs of a
    ≈ 50 µs one-term wave (two-core VM).
    """
    return _DISARMED if injector is None else _armed(injector)


@contextmanager
def _armed(injector: FaultInjector):
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    injector.arm()
    try:
        yield injector
    finally:
        injector.disarm()
        _INJECTOR = previous


@contextmanager
def disarmed():
    """No injector fires or draws inside the block: the trusted side's own
    cross-checks take nothing from the plan's stream, so its order holds."""
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = None
    try:
        yield
    finally:
        _INJECTOR = previous


def ambient_injector() -> Optional[FaultInjector]:
    """Injector described by ``SECNDP_FAULT_PLAN``, built once per process.

    Returns None when the variable is unset, empty, or unparsable (a bad
    plan must never take the serving path down - that would be the fault
    injector injecting a fault into itself).
    """
    global _AMBIENT
    if _AMBIENT is False:
        raw = os.environ.get(ENV_FAULT_PLAN, "").strip()
        if not raw:
            _AMBIENT = None
        else:
            try:
                plan = FaultPlan.parse(raw)
                _AMBIENT = None if plan.empty else FaultInjector(plan)
            except Exception:
                _AMBIENT = None
    return _AMBIENT
