"""Compiled kernel tier for the limb-field and AES hot paths.

The limb-vectorized NumPy kernels (:mod:`repro.crypto.limb_field`,
:func:`repro.crypto.aes.aes128_encrypt_blocks`) are the serving floor:
every tag sweep, verification dot and OTP pad generation funnels through
them.  This package adds an *optional* compiled tier behind the existing
dispatch — same inputs, bit-identical outputs, another order of
magnitude of throughput — with one backend, ``cc`` (:mod:`._cc`): a
small C translation unit compiled once with the host C compiler into a
content-addressed shared library under ``~/.cache/secndp-kernels``
(override with ``SECNDP_KERNEL_CACHE``) and loaded via :mod:`ctypes`.
No third-party dependency; the compile is paid once per source hash,
every later process just ``dlopen``s the cached object.  Its pad engine (AES blocks
and the fused ``ctr_pads`` counter-mode sweep) uses AES-NI where the CPU
has it, chosen at run time.

Tier policy
-----------
``SECNDP_KERNEL_TIER`` (or :func:`set_tier` / the CLI ``--kernel-tier``)
selects one of:

* ``auto``   (default) — ``native`` when the backend loads, else ``numpy``;
  a failed probe bumps the ``kernel.native_unavailable`` counter exactly
  once and never warns.
* ``native`` — require the compiled backend; raise
  :class:`~repro.errors.ConfigurationError` when it cannot be built
  (the remedy is a C compiler on ``PATH``).
* ``numpy``  — force the always-available NumPy limb kernels.
* ``scalar`` — force the bit-exact :class:`~repro.crypto.prime_field.PrimeField`
  oracle for all field work (``limb_field.supports_field`` reports
  ``False``); AES stays on the NumPy path (there is no practical scalar
  bulk-AES tier).

Invalid values raise :class:`~repro.errors.ConfigurationError` naming
the allowed tiers — misconfiguration fails fast instead of silently
serving from an unexpected tier.

The scalar :class:`PrimeField` remains the correctness oracle and the
NumPy tier the always-available fallback; the property suite in
``tests/test_kernels.py`` pins scalar == numpy == native on random limb
vectors, power-weight row tags, AES test-vector blocks and the fused
segment sums of both halves of the split.  DESIGN.md Sec. 14 documents
the dispatch order.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from typing import Optional

from .. import obs
from ..errors import ConfigurationError

__all__ = [
    "TIERS",
    "ENV_KERNEL_TIER",
    "ENV_KERNEL_CACHE",
    "NativeUnavailable",
    "resolve_policy",
    "policy",
    "set_tier",
    "use_tier",
    "active_tier",
    "active_native",
    "native_available",
    "backend_name",
    "unavailable_reason",
    "warmup",
    "last_warmup_ns",
    "tier_code",
    "publish",
]

#: Accepted values for the tier policy (env, CLI and :func:`set_tier`).
TIERS = ("auto", "scalar", "numpy", "native")

ENV_KERNEL_TIER = "SECNDP_KERNEL_TIER"
ENV_KERNEL_CACHE = "SECNDP_KERNEL_CACHE"

#: Backend modules probed in order for the ``native`` tier.  Tests
#: monkeypatch this tuple to simulate an absent/broken backend.
_BACKEND_MODULES = ("_cc",)

#: ``kernel.tier`` gauge encoding (documented in DESIGN.md Sec. 14).
_TIER_CODES = {"scalar": 0, "numpy": 1, "native": 2}


class NativeUnavailable(RuntimeError):
    """The compiled backend cannot be built or loaded on this host.

    Raised by backend modules at import (no compiler, compile failure,
    failed self-test); under the ``auto`` policy it degrades the tier to
    ``numpy``, under an explicit ``native`` request it surfaces as a
    :class:`ConfigurationError`.
    """


# Resolution state: policy is what was requested, active is the concrete
# tier serving kernels.  Both resolve lazily on first use so importing
# the package never compiles anything.
_policy: Optional[str] = None
_active: Optional[str] = None
_backend = None
_probed = False
_probe_error: Optional[str] = None
_last_warmup_ns: Optional[int] = None


def resolve_policy(value: Optional[str] = None) -> str:
    """Validate a tier request (explicit value, else the environment).

    Returns one of :data:`TIERS`; raises :class:`ConfigurationError` on
    anything else so a typo in ``SECNDP_KERNEL_TIER`` or ``--kernel-tier``
    fails fast instead of silently falling back to another tier.
    """
    raw = value if value is not None else os.environ.get(ENV_KERNEL_TIER, "")
    tier = str(raw).strip().lower() or "auto"
    if tier not in TIERS:
        source = "--kernel-tier" if value is not None else ENV_KERNEL_TIER
        raise ConfigurationError(
            f"invalid kernel tier {raw!r} from {source} "
            f"(choose from: {', '.join(TIERS)})"
        )
    return tier


def policy() -> str:
    """The requested tier policy (resolving the environment lazily)."""
    global _policy
    if _policy is None:
        _policy = resolve_policy()
    return _policy


def _probe():
    """One-shot native backend probe.

    Failure is the *expected* state on hosts without a C compiler: it
    is recorded once as the
    ``kernel.native_unavailable`` counter plus :func:`unavailable_reason`
    — no warnings, no retries, no log spam.
    """
    global _probed, _backend, _probe_error
    if _probed:
        return _backend
    _probed = True
    reasons = []
    for name in _BACKEND_MODULES:
        try:
            _backend = importlib.import_module(f".{name}", __package__)
            return _backend
        except (ImportError, NativeUnavailable, OSError) as exc:
            reasons.append(f"{name.lstrip('_')}: {exc}")
    _probe_error = "; ".join(reasons) or "no backend modules configured"
    obs.inc("kernel.native_unavailable")
    return None


def _resolve() -> str:
    """Map the policy onto a concrete serving tier (probing if needed)."""
    global _active
    requested = policy()
    if requested in ("scalar", "numpy"):
        _active = requested
    elif requested == "native":
        if _probe() is None:
            raise ConfigurationError(
                "kernel tier 'native' requested but no compiled backend is "
                f"available ({unavailable_reason()}); it is built with the "
                f"host C compiler, so put one on PATH, or set "
                f"{ENV_KERNEL_TIER} to one of: {', '.join(TIERS)}"
            )
        _active = "native"
    else:  # auto
        _active = "native" if _probe() is not None else "numpy"
    publish()
    return _active


def active_tier() -> str:
    """The concrete tier in effect: ``scalar`` | ``numpy`` | ``native``."""
    return _active if _active is not None else _resolve()


def active_native():
    """The loaded native backend module, or ``None`` off the native tier.

    This is the hot-path accessor: after the first resolution it is one
    global read + comparison, so the dispatch sites in
    ``crypto/limb_field.py`` and ``crypto/aes.py`` stay ~free on the
    NumPy tier.
    """
    tier = _active if _active is not None else _resolve()
    return _backend if tier == "native" else None


def set_tier(value: Optional[str] = None) -> str:
    """Set (and immediately resolve) the tier policy.

    ``None`` re-reads ``SECNDP_KERNEL_TIER``.  Returns the concrete
    active tier; raises :class:`ConfigurationError` on invalid values or
    an unsatisfiable ``native`` request.
    """
    global _policy, _active
    _policy = resolve_policy(value) if value is not None else resolve_policy()
    _active = None
    return _resolve()


@contextlib.contextmanager
def use_tier(value: str):
    """Context manager pinning the tier policy inside a block.

    Used by the benchmarks to measure the NumPy and native tiers against
    each other in one process, and by tests to force specific paths.
    """
    global _policy, _active
    saved = (_policy, _active)
    try:
        set_tier(value)
        yield active_tier()
    finally:
        _policy, _active = saved


def native_available() -> bool:
    """True when a compiled backend loads on this host (probes once)."""
    return _probe() is not None


def backend_name() -> Optional[str]:
    """``"cc"`` when the backend is loaded, else ``None``."""
    return getattr(_backend, "NAME", None) if _probe() is not None else None


def unavailable_reason() -> Optional[str]:
    """Why the native probe failed (``None`` before probing / on success)."""
    return _probe_error


def warmup() -> int:
    """Resolve the tier and run every kernel once on tiny inputs.

    This is where all one-time cost lives: the C backend compiles or
    ``dlopen``s its cached shared object.  Benchmarks and
    ``check_overhead`` call this *before* their timed regions so
    steady-state numbers never carry compile latency.  Returns the
    elapsed nanoseconds and publishes them as ``kernel.jit_warmup_ns``.
    """
    global _last_warmup_ns
    t0 = time.perf_counter_ns()
    tier = active_tier()
    if tier == "native" and _backend is not None:
        _backend.warmup()
    ns = time.perf_counter_ns() - t0
    _last_warmup_ns = ns
    if obs.enabled():
        obs.gauge("kernel.jit_warmup_ns", ns)
    return ns


def last_warmup_ns() -> Optional[int]:
    """Duration of the most recent :func:`warmup` (``None`` if never run)."""
    return _last_warmup_ns


def tier_code(tier: Optional[str] = None) -> int:
    """Numeric encoding of a tier for the ``kernel.tier`` gauge."""
    return _TIER_CODES[tier if tier is not None else active_tier()]


def publish() -> None:
    """Publish ``kernel.tier`` (and warmup, when known) as gauges."""
    if not obs.enabled() or _active is None:
        return
    obs.gauge("kernel.tier", _TIER_CODES[_active])
    if _last_warmup_ns is not None:
        obs.gauge("kernel.jit_warmup_ns", _last_warmup_ns)


def _reset_for_tests() -> None:
    """Forget all resolution state (tests only)."""
    global _policy, _active, _backend, _probed, _probe_error, _last_warmup_ns
    _policy = None
    _active = None
    _backend = None
    _probed = False
    _probe_error = None
    _last_warmup_ns = None
