"""Composable, seeded fault plans (the chaos half of Sec. V-E3).

SecNDP's verification scheme (Alg. 2/3, Thms. 1-2) exists to *detect*
misbehaviour of untrusted memory and NDP units; this module supplies the
misbehaviour.  A :class:`FaultPlan` names a set of fault kinds and
per-opportunity rates; a :class:`FaultInjector` draws deterministic,
seeded decisions from the plan and applies them at the hook sites spread
through the protocol, NDP and cluster layers (see
:mod:`repro.faults.hooks` for the activation model - injection is off by
default and costs one ``is None`` check on the hot paths).

Fault taxonomy (mapped to the paper's threat model, Sec. II):

========================  =====================================================
kind                      models
========================  =====================================================
``ciphertext_bit``        persistent bit flips in stored ciphertext (rowhammer,
                          stuck cells, malicious writes)
``tag_replay``            a stored tag replaced by a stale value (replay)
``tag_tamper``            a forged tag summation returned by the NDP PU
``result_skew``           a skewed data partial sum returned by the NDP PU
``version_flip``          the trusted side regenerating pads under a wrong OTP
                          counter version (version-management bug)
``node_byzantine``        a cluster NDP node returning a forged tag share
``node_slow``             a cluster node answering past its deadline
``node_dead``             a cluster node process dying mid-run
``node_partition``        a cluster node unreachable (network partition)
========================  =====================================================

All of the memory/compute kinds are *tag-covered*: any of them that
perturbs a served result breaks the Alg. 5 tag identity, so verification
must detect them with probability 1 (up to the m/q forgery bound, which
is negligible at the real field size).  Of the node kinds only
``node_byzantine`` is a data fault, the rest exercise the coordinator's
liveness ladder.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError

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
]


class FaultKind(str, Enum):
    """One injectable misbehaviour; see the module table for semantics."""

    CIPHERTEXT_BIT = "ciphertext_bit"
    TAG_REPLAY = "tag_replay"
    TAG_TAMPER = "tag_tamper"
    RESULT_SKEW = "result_skew"
    VERSION_FLIP = "version_flip"
    NODE_BYZANTINE = "node_byzantine"
    NODE_SLOW = "node_slow"
    NODE_DEAD = "node_dead"
    NODE_PARTITION = "node_partition"


#: Persistent corruptions of untrusted memory, applied to a device's
#: stored ciphertext/tags (recovered only by repair + re-encryption).
MEMORY_FAULTS = (FaultKind.CIPHERTEXT_BIT, FaultKind.TAG_REPLAY)

#: Per-call transient faults on the protocol path (a retry re-rolls them).
TRANSIENT_FAULTS = (
    FaultKind.TAG_TAMPER,
    FaultKind.RESULT_SKEW,
    FaultKind.VERSION_FLIP,
)

#: Faults against cluster NDP node processes (DESIGN.md Sec. 16).  Only
#: ``node_byzantine`` is a data fault (tag-covered: the coordinator's
#: per-shard check must catch it with probability 1 up to m/q); the rest
#: exercise the blame/quarantine/re-shard liveness ladder.
NODE_FAULTS = (
    FaultKind.NODE_BYZANTINE,
    FaultKind.NODE_SLOW,
    FaultKind.NODE_DEAD,
    FaultKind.NODE_PARTITION,
)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded description of what to break and how often.

    ``rates`` maps fault kinds to per-opportunity probabilities: for
    memory faults the opportunity is one stored element (or one stored
    tag), for transient faults one protocol call, for node faults one
    cluster dispatch.  Everything a plan does is derived from ``seed``,
    so a chaos run is replayable.  A kind that is not a
    :class:`FaultKind` is refused with a :class:`ConfigurationError`
    naming the kinds, whichever entry point built the plan.
    """

    rates: Mapping[Union[FaultKind, str], float] = field(default_factory=dict)
    seed: int = 0
    name: str = "custom"
    #: Hard cap on injected faults across the injector's lifetime; keeps
    #: CI chaos runs bounded.  ``None`` = unbounded.
    max_faults: Optional[int] = None
    #: Seconds of injected delay per ``node_slow`` dispatch.
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        normalized: Dict[FaultKind, float] = {}
        for kind, rate in dict(self.rates).items():
            try:
                kind = FaultKind(kind)
            except ValueError:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} (choose from: "
                    f"{', '.join(k.value for k in FaultKind)})"
                ) from None
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {kind.value!r} must be in [0, 1], got {rate}"
                )
            if rate > 0.0:
                normalized[kind] = rate
        object.__setattr__(self, "rates", normalized)
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be non-negative")
        if self.max_faults is not None and self.max_faults < 0:
            raise ConfigurationError("max_faults must be non-negative")

    def rate(self, kind: FaultKind) -> float:
        return self.rates.get(kind, 0.0)

    @property
    def empty(self) -> bool:
        return not self.rates

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a preset name or a ``kind=rate,...`` spec.

        ``"ci-default"`` -> the committed CI preset;
        ``"ciphertext_bit=1e-3,tag_tamper=0.01"`` -> a custom plan.
        An optional ``seed=N`` entry overrides ``seed``.
        """
        spec = spec.strip()
        if spec in PRESET_PLANS:
            return PRESET_PLANS[spec]
        rates: Dict[str, float] = {}
        plan_seed = seed
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigurationError(
                    f"bad fault-plan entry {part!r} (want kind=rate; presets: "
                    f"{', '.join(sorted(PRESET_PLANS))})"
                )
            key, value = (s.strip() for s in part.split("=", 1))
            if key == "seed":
                plan_seed = int(value)
                continue
            rates[key] = float(value)
        return cls(rates=rates, seed=plan_seed, name=spec or "empty")


#: Named plans.  ``ci-default`` is what the chaos CI job runs the tier-1
#: suite under: every recovery-enabled serving path sees low-rate
#: transient faults and must still produce bit-exact results.
PRESET_PLANS: Dict[str, FaultPlan] = {
    "ci-default": FaultPlan(
        name="ci-default",
        seed=2022,
        rates={
            FaultKind.RESULT_SKEW: 0.02,
            FaultKind.TAG_TAMPER: 0.01,
            FaultKind.VERSION_FLIP: 0.005,
        },
        max_faults=200,
        delay_s=0.01,
    ),
    "memory-storm": FaultPlan(
        name="memory-storm",
        seed=7,
        rates={
            FaultKind.CIPHERTEXT_BIT: 1e-3,
            FaultKind.TAG_REPLAY: 1e-3,
        },
    ),
    "paper-5e3": FaultPlan(
        # The Sec. V-E3 scenario: occasional wrong NDP results that the
        # verification-failure interrupt must catch.
        name="paper-5e3",
        seed=53,
        rates={
            FaultKind.RESULT_SKEW: 0.05,
            FaultKind.TAG_TAMPER: 0.02,
        },
    ),
    "chaos-cluster": FaultPlan(
        # The ISSUE-10 acceptance scenario: per-node tag tampering and
        # node kills at 1e-3; blame precision/recall must be 1.0 and
        # every answer bit-identical to the single-host oracle.
        name="chaos-cluster",
        seed=1022,
        rates={
            FaultKind.NODE_BYZANTINE: 1e-3,
            FaultKind.NODE_DEAD: 1e-3,
            FaultKind.NODE_SLOW: 5e-4,
        },
        delay_s=0.02,
    ),
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-hoc exposure accounting."""

    kind: FaultKind
    site: str
    context: str
    detail: str = ""


class FaultInjector:
    """Draws seeded decisions from a plan and logs what it broke.

    Thread-safe, though serving draws from one thread only (the event
    loop runs every batch), and per-process: cluster nodes never install
    one, the coordinator ships them concrete directives instead, so all
    randomness lives in a single seeded stream.

    The injector only fires while *armed* (see :mod:`repro.faults.hooks`):
    recovery-enabled serving paths arm it around their protocol calls, so
    direct protocol use - tests, examples, honest benchmarks - never sees
    an injected fault even when a plan is installed process-wide.
    """

    #: Bounded event log; chaos runs at CI scale stay well under this.
    MAX_EVENTS = 100_000

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._lock = threading.Lock()
        self._armed = 0
        self._context = ""
        self.events: List[FaultEvent] = []
        self.injected = 0

    # -- arming ----------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed > 0

    def arm(self) -> None:
        with self._lock:
            self._armed += 1

    def disarm(self) -> None:
        with self._lock:
            self._armed = max(0, self._armed - 1)

    def set_context(self, context: str) -> None:
        """Label subsequent events (e.g. ``"query:3"``) for attribution."""
        self._context = context

    # -- decisions -------------------------------------------------------------

    def _record(self, kind: FaultKind, site: str, detail: str = "") -> None:
        self.injected += 1
        if len(self.events) < self.MAX_EVENTS:
            self.events.append(
                FaultEvent(kind=kind, site=site, context=self._context, detail=detail)
            )

    def _budget_left(self) -> bool:
        return self.plan.max_faults is None or self.injected < self.plan.max_faults

    def decide(self, kind: FaultKind, site: str, detail: str = "") -> bool:
        """One seeded Bernoulli draw; records the event when it fires."""
        rate = self.plan.rate(kind)
        if rate <= 0.0:
            return False
        with self._lock:
            if not self._budget_left():
                return False
            if self._rng.random() >= rate:
                return False
            self._record(kind, site, detail)
            return True

    def _randint(self, low: int, high: int) -> int:
        with self._lock:
            return int(self._rng.integers(low, high))

    # -- transient protocol faults ---------------------------------------------

    def perturb_result(
        self, ring, values: np.ndarray, site: str, detail: str = ""
    ) -> np.ndarray:
        """Maybe skew one lane of an NDP data partial sum."""
        if not self.decide(FaultKind.RESULT_SKEW, site, detail):
            return values
        values = values.copy()
        lane = self._randint(0, max(values.shape[-1], 1))
        delta = ring.dtype(self._randint(1, 1 << 16))
        flat = values.reshape(-1, values.shape[-1])
        flat[0, lane] = ring.add(flat[0, lane], delta)
        return values

    def perturb_scalar_result(self, ring, value: int, site: str) -> int:
        if not self.decide(FaultKind.RESULT_SKEW, site):
            return value
        return int(ring.add(ring.dtype(value), ring.dtype(self._randint(1, 1 << 16))))

    def perturb_tag(self, fieldobj, tag: int, site: str, detail: str = "") -> int:
        """Maybe forge a returned tag summation."""
        if not self.decide(FaultKind.TAG_TAMPER, site, detail):
            return tag
        return fieldobj.add(tag, self._randint(1, 1 << 30))

    def perturb_version(self, version: int, site: str) -> int:
        """Maybe flip the OTP counter version the trusted side uses."""
        if not self.decide(FaultKind.VERSION_FLIP, site):
            return version
        return version ^ 1

    # -- persistent memory corruption ------------------------------------------

    def corrupt_device(self, device, names=None) -> Dict[str, set]:
        """Flip stored ciphertext bits / replay stored tags in place.

        Walks the device's stored matrices and, per element (per tag),
        draws against the ``ciphertext_bit`` (``tag_replay``) rate.
        Returns ``{table: {row, ...}}`` of corrupted rows so a chaos
        harness knows exactly which queries were exposed.  This is the
        "memory is untrusted" half of the threat model made concrete;
        it is invoked explicitly by chaos harnesses/tests, never from a
        hot path.
        """
        bit_rate = self.plan.rate(FaultKind.CIPHERTEXT_BIT)
        replay_rate = self.plan.rate(FaultKind.TAG_REPLAY)
        corrupted: Dict[str, set] = {}
        if bit_rate <= 0.0 and replay_rate <= 0.0:
            return corrupted
        names = list(names) if names is not None else list(device._store)
        for name in names:
            enc = device._store[name]
            rows: set = set()
            ct = enc.ciphertext
            if bit_rate > 0.0:
                with self._lock:
                    mask = self._rng.random(ct.shape) < bit_rate
                for i, j in zip(*np.nonzero(mask)):
                    if not self._budget_left():
                        break
                    bit = self._randint(0, enc.params.element_bits)
                    ct[i, j] ^= ct.dtype.type(1 << bit)
                    rows.add(int(i))
                    with self._lock:
                        self._record(
                            FaultKind.CIPHERTEXT_BIT,
                            "device.store",
                            f"{name}[{int(i)},{int(j)}] bit {bit}",
                        )
            if replay_rate > 0.0 and enc.tag_limbs is not None:
                with self._lock:
                    tag_mask = self._rng.random(enc.n_rows) < replay_rate
                for (i,) in zip(*np.nonzero(tag_mask)):
                    if not self._budget_left():
                        break
                    stale = self._randint(1, 1 << 62)
                    enc.set_tag(
                        int(i), (enc.tag(int(i)) + stale) % ((1 << 127) - 1)
                    )
                    rows.add(int(i))
                    with self._lock:
                        self._record(
                            FaultKind.TAG_REPLAY, "device.store", f"{name}[{int(i)}]"
                        )
            if rows:
                corrupted[name] = rows
        return corrupted

    # -- node faults (cluster tier) ---------------------------------------------

    def node_directive(self, site: str) -> Optional[Tuple]:
        """One cluster dispatch's fate, decided coordinator-side.

        The single seeded stream lives on the trusted coordinator and
        the node just obeys the directive shipped in the ``partial_sum``
        payload:

        * ``("byzantine",)`` — node forges its tag shares (caught by the
          per-shard check, blamed, and failed over);
        * ``("slow", delay_s)`` — node sleeps past the deadline;
        * ``("dead",)`` — node process exits before answering;
        * ``("partition",)`` — node never answers this request.
        """
        if self.decide(FaultKind.NODE_BYZANTINE, site):
            return ("byzantine",)
        if self.decide(FaultKind.NODE_DEAD, site):
            return ("dead",)
        if self.decide(FaultKind.NODE_PARTITION, site):
            return ("partition",)
        if self.decide(FaultKind.NODE_SLOW, site):
            return ("slow", self.plan.delay_s)
        return None

    # -- reporting --------------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind.value] = counts.get(ev.kind.value, 0) + 1
        return counts


class ScriptedDirectives:
    """Deterministic stand-in for :meth:`FaultInjector.node_directive`.

    ``script`` maps a node name to ``(dispatch_index, directive)`` pairs,
    ``dispatch_index`` counting that node's own dispatches from 0.  Every
    fired directive lands in ``events`` as the :class:`FaultEvent` a
    seeded draw would have recorded (``site="node:<name>"``), so ground
    truth reads the same from either source.
    """

    def __init__(self, script: Mapping[str, List[Tuple[int, Tuple]]]):
        self.script = {node: dict(entries) for node, entries in script.items()}
        self._seen: Dict[str, int] = {}
        self.events: List[FaultEvent] = []

    def node_directive(self, site: str) -> Optional[Tuple]:
        node = site.split(":", 1)[-1]
        i = self._seen.get(node, 0)
        self._seen[node] = i + 1
        directive = self.script.get(node, {}).get(i)
        if directive is not None:
            self.events.append(
                FaultEvent(FaultKind(f"node_{directive[0]}"), site, f"dispatch:{i}")
            )
        return directive
