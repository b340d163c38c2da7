"""High-level secure embedding store: quantized SLS over SecNDP.

This is the deployment-facing API the paper's DLRM use case implies: an
enclave owns a set of embedding tables, quantizes them with one of the
ciphertext-friendly schemes (table-wise or column-wise, Sec. VI-A),
encrypts them into untrusted memory, and serves verified
SparseLengthsWeightedSum queries whose affine correction happens on the
trusted side.

The store also enforces the overflow budget of footnote 1 /
Thm. A.2: at construction it computes the largest pooling factor for
which `PF * max(a) * max(q)` fits the ring, and rejects larger queries
up front rather than letting verification fail at runtime.

With a :class:`~repro.faults.recovery.RecoveryPolicy` attached the store
additionally models what a deployed enclave does *after* the
verification-failure interrupt of Sec. V-E3: bounded retries, a trusted
non-NDP recompute with per-row verification, plaintext repair with
per-row quarantine, and re-encryption of the region under bumped
versions (DESIGN.md Sec. 11).  Recovery-enabled stores arm the
process-wide fault injector (:mod:`repro.faults.hooks`) around their
offload attempts, which is how chaos runs drive faults only into paths
that can absorb them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..core.device import QueryBatch, UntrustedNdpDevice, integral_terms
from ..core.protocol import SecNDPProcessor
from ..errors import ConfigurationError, RecoveryExhaustedError, VerificationError
from ..faults import hooks as fault_hooks
from ..faults.plan import FaultInjector
from ..faults.recovery import RecoveryLog, RecoveryOutcome, RecoveryPolicy
from .quantization import ColumnwiseQuantizer, TablewiseQuantizer

__all__ = ["QueryOutcome", "SecureEmbeddingStore"]

_BLOCK_BYTES = 16

_INT64_MAX = int(np.iinfo(np.int64).max)


class OtpCacheInfo(NamedTuple):
    """Pad-block counts in ``functools.lru_cache.cache_info`` field order."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query verdict from :meth:`SecureEmbeddingStore.sls_scatter`.

    ``ok`` queries carry served values; failed queries name the terminal
    exception (``kind`` is the :mod:`repro.errors` class name, ``exc`` the
    exception :meth:`~SecureEmbeddingStore.sls_many` raises) so the
    serving layer can emit a typed per-request error.  ``degraded`` marks
    a query that climbed the recovery ladder - the batch's check named
    it, or it touched a quarantined row - whether or not it was then
    served; its clean batch-mates are not degraded.
    """

    ok: bool
    error: Optional[str] = None
    kind: Optional[str] = None
    degraded: bool = False
    exc: Optional[Exception] = field(default=None, repr=False, compare=False)

    @classmethod
    def failure(cls, exc: Exception, degraded: bool) -> "QueryOutcome":
        return cls(False, str(exc), type(exc).__name__, degraded, exc)


#: The outcome of every clean query (one shared instance: it is frozen).
_OK = QueryOutcome(ok=True)


@dataclass
class _TableEntry:
    name: str
    scale: np.ndarray      # float64 per column (a table-wise scale repeated)
    bias: np.ndarray
    n_rows: int
    dim: int
    max_quant: int


class SecureEmbeddingStore:
    """Quantize, encrypt and serve embedding tables through SecNDP.

    Parameters
    ----------
    processor / device:
        The trusted and untrusted protocol parties.
    quantization:
        ``"table"`` (one scale/bias per table) or ``"column"`` (per
        column); both commute with pooling over ciphertext.
    bits:
        Quantized integer width (8 in the paper's evaluation).
    verify:
        Attach tags and verify every query (default True).
    base_addr:
        Start of the arena in untrusted memory where tables are placed.
    recovery:
        Optional :class:`RecoveryPolicy`; when set, every query is served
        through the verification-triggered recovery ladder (retry ->
        trusted recompute -> repair/quarantine -> re-encryption) instead
        of letting :class:`VerificationError` propagate.  Requires
        ``verify=True``.
    fault_injector:
        Explicit :class:`FaultInjector` armed around this store's offload
        attempts.  Defaults to the process-wide injector
        (:func:`repro.faults.hooks.get`) or the ambient
        ``SECNDP_FAULT_PLAN`` one; only consulted when ``recovery`` is
        set - a store that cannot recover is never armed.
    """

    def __init__(
        self,
        processor: SecNDPProcessor,
        device: UntrustedNdpDevice,
        quantization: str = "table",
        bits: int = 8,
        verify: bool = True,
        base_addr: int = 0x100000,
        recovery: Optional[RecoveryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if quantization not in ("table", "column"):
            raise ConfigurationError(
                f"quantization must be 'table' or 'column', got {quantization!r}"
            )
        if fault_injector is not None and recovery is None:
            raise ConfigurationError(
                "fault_injector requires a RecoveryPolicy (an unrecoverable "
                "store must never arm fault injection)"
            )
        if recovery is not None and not verify:
            raise ConfigurationError(
                "recovery requires verify=True (detection drives the ladder)"
            )
        self.processor = processor
        self.device = device
        self.quantization = quantization
        self.bits = bits
        self.verify = verify
        self._cursor = base_addr
        self._tables: Dict[str, _TableEntry] = {}
        self.recovery = recovery
        self.recovery_log = RecoveryLog()
        self._plain: Dict[str, np.ndarray] = {}
        if recovery is not None:
            self.fault_injector = (
                fault_injector
                if fault_injector is not None
                else (fault_hooks.get() or fault_hooks.ambient_injector())
            )
        else:
            self.fault_injector = None

    # -- loading ---------------------------------------------------------------

    def add_table(self, name: str, values: np.ndarray) -> None:
        """Quantize + encrypt one float table into untrusted memory."""
        if name in self._tables:
            raise ConfigurationError(f"table {name!r} already loaded")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ConfigurationError("embedding table must be 2-D")
        if self.quantization == "table":
            q, scale, bias = TablewiseQuantizer(self.bits).quantize(values)
            scale_arr = np.full(values.shape[1], scale)
            bias_arr = np.full(values.shape[1], bias)
        else:
            q, scales, biases = ColumnwiseQuantizer(self.bits).quantize(values)
            scale_arr, bias_arr = scales, biases

        # Pad columns so each row fills whole cipher blocks (Alg. 1 chunks
        # the matrix into w_c-bit blocks); padding columns are sliced off
        # at query time.
        elems_per_block = self.processor.params.elements_per_block
        pad_cols = (-q.shape[1]) % elems_per_block
        if pad_cols:
            q = np.concatenate(
                [q, np.zeros((q.shape[0], pad_cols), dtype=q.dtype)], axis=1
            )

        ring = self.processor.ring
        encoded = ring.encode(q.astype(np.int64))
        enc = self.processor.encrypt_matrix(
            encoded, self._cursor, f"emb/{name}", with_tags=self.verify
        )
        self.device.store(name, enc)
        if self.recovery is not None and self.recovery.retain_plaintext:
            # Trusted-side copy of the quantized residues: rung 3 (repair)
            # and rung 4 (re-encryption) of the recovery ladder need it.
            self._plain[name] = encoded.copy()
        footprint = encoded.size * self.processor.params.element_bytes
        self._cursor = -(-(self._cursor + footprint) // _BLOCK_BYTES) * _BLOCK_BYTES

        self._tables[name] = _TableEntry(
            name=name,
            scale=np.asarray(scale_arr, dtype=np.float64),
            bias=np.asarray(bias_arr, dtype=np.float64),
            n_rows=values.shape[0],
            dim=values.shape[1],
            max_quant=int(q.max()) if q.size else 0,
        )

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def cache_info(self) -> OtpCacheInfo:
        """``(0, generated, 0, 0, 0)``: every query-path pad block is generated.

        ``misses`` is :attr:`~repro.crypto.otp.OtpGenerator.pad_blocks`;
        there is no pad cache, so the other fields are 0.  Kept in this
        shape because ``benchmarks/e2e`` reads its ``.hits`` / ``.misses``.
        """
        return OtpCacheInfo(0, self.processor.encryptor.otp.pad_blocks, 0, 0, 0)

    def tag_cache_info(self) -> OtpCacheInfo:
        """All zeros: tag pads are always regenerated (``mac.tag_pads``).

        Kept because ``benchmarks/e2e`` reads its ``.hits`` / ``.misses``
        beside :meth:`cache_info`.
        """
        return OtpCacheInfo(0, 0, 0, 0, 0)

    # -- query validation --------------------------------------------------------------

    def _entry(self, name: str) -> _TableEntry:
        entry = self._tables.get(name)
        if entry is None:
            raise ConfigurationError(f"unknown table {name!r}")
        return entry

    def max_pooling_factor(self, name: str, max_weight: int = 1) -> int:
        """Largest PF guaranteed not to overflow the ring for this table.

        Verification treats a column sum reaching ``2^w_e`` as a fault
        (Thm. A.2), so callers must stay under
        ``PF * max_weight * max(q) < 2^w_e``.
        """
        per_term = max(self._entry(name).max_quant, 1) * max(max_weight, 1)
        return max((self.processor.ring.modulus - 1) // per_term, 0)

    def validate_batch(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> QueryBatch:
        """The one query validator; returns the batch in CSR form.

        Every serving path - :meth:`sls`, :meth:`sls_many`,
        :meth:`sls_scatter`, the front-end's pre-admission check
        (:meth:`verdict`) and the cluster coordinator - refuses an
        invalid query here with one :class:`ConfigurationError` per
        defect, in one order: negative weight, rows / weights length
        mismatch, unknown table, overflow budget (Thm. A.2), row range -
        before any pad is generated or any node dispatched.  A
        :class:`QueryBatch` holds unsigned residues paired with its rows
        by construction, so it takes the table-side checks only: a few
        reductions over its flat arrays, no walk over its queries.
        """
        if isinstance(batch_rows, QueryBatch):
            self._check_terms(
                name, batch_rows.rows, batch_rows.weights, batch_rows.offsets.tolist()
            )
            return batch_rows
        try:
            rows, weights, offsets = QueryBatch.flatten_lists(batch_rows, batch_weights)
        except ConfigurationError:
            # A row is fractional or the lengths differ; a weight defect
            # is still reported first.
            if batch_weights is not None:
                self._integer_weights(list(chain.from_iterable(batch_weights)))
            raise
        ring = self.processor.ring
        if weights is None:
            weights = np.ones(rows.size, dtype=ring.dtype)
        weights = self._integer_weights(weights)
        self._check_terms(name, rows, weights, offsets.tolist())
        # Inside the budget every weight is < 2^w_e, so the cast is exact.
        return QueryBatch(rows, weights.astype(ring.dtype, copy=False), offsets)

    def verdict(
        self, name: str, rows: np.ndarray, weights: np.ndarray, offsets: np.ndarray
    ) -> Optional[Dict[int, ConfigurationError]]:
        """Each query this table cannot serve, by index, with its refusal;
        ``None`` when it can serve them all.

        The serving front-end's pre-admission check, one call per socket
        read: a query the table cannot serve would fail the whole
        coalesced batch it joins.  The queries are CSR terms - query ``q``
        owns ``[offsets[q], offsets[q + 1])`` of ``rows`` and ``weights``,
        both ``int64``, weights possibly negative.  Whole-batch minima and
        maxima clear a valid batch; otherwise per-query reductions name
        the suspects, and a suspect's refusal is the one
        :meth:`validate_batch` gives that query alone.  Observes nothing -
        :meth:`sls_scatter` does, for the batch.
        """
        entry = self._tables.get(name)
        if entry is None:
            suspects = range(offsets.size - 1)
        elif not rows.size:
            return None
        else:
            # The overflow budget as PF * max_weight <= limit
            # (max_pooling_factor's bound, without the division).
            limit = (self.processor.ring.modulus - 1) // max(entry.max_quant, 1)
            ends = offsets.tolist()
            if (
                weights.min() >= 0
                and max(map(sub, ends[1:], ends)) * max(int(weights.max()), 1) <= limit
                and rows.min() >= 0
                and rows.max() < entry.n_rows
            ):
                return None
            lengths = offsets[1:] - offsets[:-1]
            nonempty = np.flatnonzero(lengths)
            starts = offsets[nonempty]
            odd = (rows < 0) | (rows >= entry.n_rows) | (weights < 0)
            heaviest = np.maximum(np.maximum.reduceat(weights, starts), 1)
            # PF * w > limit  <=>  w > limit // PF; clipped into int64, which
            # can only add suspects.
            over = heaviest > min(limit, _INT64_MAX) // lengths[nonempty]
            suspects = nonempty[np.logical_or.reduceat(odd, starts) | over].tolist()
        refusals = {}
        for q in suspects:
            lo, hi = int(offsets[q]), int(offsets[q + 1])
            try:
                self.validate_batch(name, [rows[lo:hi].tolist()], [weights[lo:hi].tolist()])
            except ConfigurationError as exc:
                refusals[q] = exc
        return refusals or None

    @staticmethod
    def _integer_weights(weights) -> np.ndarray:
        """``weights`` as non-negative integers, or the first refusal."""
        weights = integral_terms(weights, "weights")
        if weights.dtype.kind != "u" and weights.size and weights.min() < 0:
            raise ConfigurationError("weights must be non-negative integers")
        return weights

    def _check_terms(
        self, name: str, rows: np.ndarray, weights: np.ndarray, ends: List[int]
    ) -> None:
        """The table-side checks over CSR terms; query ``q`` owns
        ``[ends[q], ends[q + 1])`` and weights may be any integer dtype."""
        entry = self._entry(name)
        if not rows.size:
            return
        # Longest query with the heaviest weight is exact for one query and
        # a bound for many: only a batch it condemns is walked query by query.
        longest = max(map(sub, ends[1:], ends))
        if longest > self.max_pooling_factor(name, int(weights.max())):
            for lo, hi in zip(ends, ends[1:]):
                max_w = int(weights[lo:hi].max()) if hi > lo else 1
                if hi - lo > self.max_pooling_factor(name, max_w):
                    raise ConfigurationError(
                        f"pooling factor {hi - lo} with max weight {max_w} may "
                        f"overflow Z(2^{self.processor.params.element_bits}) for "
                        f"table {name!r}; split the query"
                    )
        # One reduction bounds both ends: a negative row wraps past any table.
        if int(rows.astype(np.uint64, copy=False).max()) >= entry.n_rows:
            raise ConfigurationError(
                f"row id outside [0, {entry.n_rows}) for table {name!r}"
            )

    # -- queries -----------------------------------------------------------------------

    def sls(
        self,
        name: str,
        rows: Sequence[int],
        weights: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Verified SparseLengths(Weighted)Sum, returned as floats.

        The NDP side pools quantized ciphertext; the trusted side applies
        the affine correction ``res = resq * scale + bias * sum(a)``.
        Weights must be non-negative integers (the protocol operates on
        ring residues; Sec. IV-A).  :meth:`sls_many` of one query.
        """
        return self.sls_many(name, [rows], None if weights is None else [weights])[0]

    def sls_split(
        self,
        name: str,
        rows: Sequence[int],
        weights: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Like :meth:`sls` but transparently splits oversized queries.

        A pooling factor beyond the ring's overflow budget is broken into
        chunks that each verify independently; the chunk results are
        summed in the (float) corrected domain.  This is how a deployment
        serves the analytics workload's PF=10,000 queries with an 8-bit
        element ring, at the cost of one extra verification per chunk.
        """
        if weights is None:
            weights = [1] * len(rows)
        if len(weights) != len(rows):
            raise ConfigurationError("rows and weights must have equal length")
        if len(rows) == 0:
            raise ConfigurationError("empty query")
        max_w = max(int(w) for w in weights)
        budget = self.max_pooling_factor(name, max_w)
        if budget < 1:
            raise ConfigurationError(
                f"even a single row may overflow the ring for table {name!r}"
            )
        total = np.zeros(self._entry(name).dim)
        for start in range(0, len(rows), budget):
            total += self.sls(
                name,
                list(rows[start : start + budget]),
                list(weights[start : start + budget]),
            )
        return total

    def sls_many(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> np.ndarray:
        """Batched verified SLS: pooled vectors for many queries at once.

        :meth:`sls_scatter` raising the first failed query's error
        (``VerificationError``, or ``RecoveryExhaustedError`` on a
        recovering store): the DLRM inference-batch hot path.
        """
        values, outcomes = self.sls_scatter(name, batch_rows, batch_weights)
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.exc
        return values

    def sls_scatter(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[np.ndarray, List["QueryOutcome"]]:
        """The store's one serving path: batched SLS, one outcome per query.

        One amortized offload serves the batch - every term's OTP and
        tag pads regenerated and summed - and the pass that adds the two
        halves names every query whose own tag identity fails (Alg. 5 per
        query, :meth:`SecNDPProcessor.combine_and_verify`).  Clean queries are
        answered from the batch.  A failing query emits one
        ``verify_failure`` naming its rows and fails alone: with no
        :class:`RecoveryPolicy` it gets an all-zero row and a failed
        :class:`QueryOutcome` (``VerificationError``); with one it climbs
        the recovery ladder from its first retry, the batch having been
        attempt 0 (:meth:`_recover`).  A query touching a quarantined row
        is never offloaded; it is served trusted-side while its
        batch-mates ride the batch.

        Returns ``(values, outcomes)``: one row per query (zeros where it
        failed), bit-identical to serving that query alone, and
        ``outcomes[i]`` for query ``i``.  A :class:`QueryBatch` (what the
        front-end builds) is taken as-is.
        """
        batch = self.validate_batch(name, batch_rows, batch_weights)
        if obs.enabled():
            obs.inc("sls.batch.calls")
            obs.inc("sls.batch.queries", len(batch))
            obs.inc("sls.batch.rows_total", int(batch.rows.size))
        offload, hot = self._route_around_quarantine(name, batch)
        with obs.span("sls.batch"):
            residues, failed = self._offload(name, offload, "batch")
        values = self.dequantize(name, residues, batch.weight_sums())
        outcomes = [_OK] * len(batch)
        ladder = sorted(hot.union(failed))
        if self.recovery is not None:
            self.recovery_log.clean += len(batch) - len(ladder)
        for q in ladder:
            lo, hi = batch.offsets[q : q + 2]
            one = QueryBatch(batch.rows[lo:hi], batch.weights[lo:hi], np.array([0, hi - lo]))
            if q not in hot:
                obs.inc("recovery.detections")
                obs.emit_event(
                    obs.VERIFY_FAILURE, table=name, rows=one.rows.tolist(), attempt=0
                )
            if self.recovery is None:
                exc = VerificationError(
                    f"tag mismatch for query {q} on {name!r} "
                    f"(tampering, replay, or ring overflow)"
                )
                values[q], outcomes[q] = 0.0, QueryOutcome.failure(exc, degraded=False)
                continue
            try:
                if q in hot:
                    values[q] = self._serve_quarantined(name, one)
                else:
                    values[q] = self._recover(name, q, one)
            except RecoveryExhaustedError as exc:
                values[q], outcomes[q] = 0.0, QueryOutcome.failure(exc, degraded=True)
            else:
                outcomes[q] = QueryOutcome(ok=True, degraded=True)
        return values, outcomes

    def _offload(
        self, name: str, batch: QueryBatch, context: Optional[str] = None
    ) -> Tuple[np.ndarray, List[int]]:
        """One offload of ``batch`` and its check: ``(residues, failing queries)``.

        The store's only call into the protocol split.  With a
        ``context`` (the batch, or one ladder retry) the store's fault
        injector is armed around the offload and labels what it fires
        ``"<table>:<context>"``; without one (rung 2's PF=1 reads) it
        stays disarmed, so the degraded mode is always honest.
        """
        inj = self.fault_injector if context is not None else None
        if inj is not None:
            inj.set_context(f"{name}:{context}")
        with fault_hooks.armed(inj):
            return self.processor.offload_batch(self.device, name, batch, self.verify)

    def _route_around_quarantine(
        self, name: str, batch: QueryBatch
    ) -> Tuple[QueryBatch, Set[int]]:
        """``batch`` without the queries that touch a quarantined row, and those.

        The NDP offload of such a query would only fail again (rung 3's
        short-circuit); its terms leave the offload, so it is an empty
        query there and its batch-mates keep their indices.
        """
        if self.recovery is None:
            return batch, set()
        quarantined = self.recovery_log.quarantined_rows(name)
        if not quarantined:
            return batch, set()
        touched = np.isin(batch.rows, np.fromiter(quarantined, np.int64, len(quarantined)))
        if not touched.any():
            return batch, set()
        owner = np.repeat(np.arange(len(batch)), np.diff(batch.offsets))
        hot = np.unique(owner[touched])
        return batch.select(~np.isin(owner, hot)), set(hot.tolist())

    # -- reference ---------------------------------------------------------------------

    def dequantized_table(self, name: str) -> np.ndarray:
        """Plaintext view of the quantized table (for accuracy analysis).

        Requires the trusted side: decrypts the stored ciphertext and
        applies the affine map - bit-identical to what :meth:`sls` pools.
        """
        entry = self._entry(name)
        enc = self.device.stored(name)
        q = self.processor.decrypt_matrix(enc).astype(np.float64)[:, : entry.dim]
        return q * entry.scale[None, :] + entry.bias[None, :]

    def dequantize(self, name: str, values: np.ndarray, weight_sums) -> np.ndarray:
        """The trusted affine correction ``resq * scale + bias * sum(a)``.

        ``values`` is one pooled residue vector of table ``name`` with its
        scalar weight sum, or a ``(n, m)`` matrix with one weight sum per
        row - the last step of every serving path, local or clustered.
        """
        entry = self._entry(name)
        out = values[..., : entry.dim] * entry.scale
        out += entry.bias * np.asarray(weight_sums, dtype=np.float64)[..., None]
        return out

    # -- verification-triggered recovery (DESIGN.md Sec. 11) ---------------------------

    def _recover(self, name: str, idx: int, one: QueryBatch) -> np.ndarray:
        """The recovery ladder of query ``idx``, which failed its batch.

        The batch was attempt 0, so the ladder goes on from the first
        retry: bounded re-offloads of the query alone, then the trusted
        recompute (rung 2) with repair or exhaustion (rung 3).  A query
        whose rows a batch-mate's repair quarantined meanwhile goes
        trusted-side at once, as any quarantined query does.
        """
        rows = one.rows.tolist()
        if not self.recovery_log.quarantined_rows(name).isdisjoint(rows):
            return self._serve_quarantined(name, one)
        policy = self.recovery
        attempts = 1
        for attempt in range(1, policy.max_retries + 1):
            obs.emit_event(
                obs.RECOVERY_RETRY, table=name, rows=rows, attempt=attempt - 1
            )
            policy.sleep(policy.backoff_s(attempt - 1, salt=idx))
            attempts += 1
            residues, failed = self._offload(name, one, f"q{idx}:a{attempt}")
            if not failed:
                self.recovery_log.record(
                    RecoveryOutcome(name, tuple(rows), "retry", True, attempts)
                )
                return self.dequantize(name, residues[0], one.weight_sums()[0])
            obs.inc("recovery.detections")
            obs.emit_event(obs.VERIFY_FAILURE, table=name, rows=rows, attempt=attempt)

        # Rungs 2/3: retries exhausted -> trusted non-NDP recompute with
        # per-row verification, repairing rows that are truly corrupted.
        obs.inc("recovery.fallbacks")
        obs.emit_event(
            obs.RECOVERY_FALLBACK, table=name, rows=rows, attempts=attempts
        )
        return self._serve_trusted(name, one, attempts)

    def _serve_quarantined(self, name: str, one: QueryBatch) -> np.ndarray:
        """A query touching known-bad rows, served trusted-side (rung 3)."""
        obs.emit_event(obs.QUARANTINE_HIT, table=name, rows=one.rows.tolist())
        return self._serve_trusted(name, one, attempts=0)

    def _serve_trusted(self, name: str, one: QueryBatch, attempts: int) -> np.ndarray:
        """Rungs 2/3 for one query, logged; ``attempts`` 0 = quarantined."""
        values, repaired = self._trusted_query(name, one)
        if attempts:
            via, detected = ("repair" if repaired else "fallback"), True
        else:
            via, detected = "quarantined", bool(repaired)
        self.recovery_log.record(
            RecoveryOutcome(
                name, tuple(one.rows.tolist()), via, detected, attempts, tuple(repaired)
            )
        )
        return self.dequantize(name, values, one.weight_sums()[0])

    def _trusted_query(self, name: str, one: QueryBatch) -> Tuple[np.ndarray, List[int]]:
        """Rung 2/3: per-row verified reads, pooled trusted-side.

        The query's distinct rows are read as one batch of PF=1 weighted
        sums (each has a full tag identity, so the check pinpoints exactly
        which rows are corrupted); the pooling happens in the enclave.
        Never armed: this is the paper's non-NDP degraded mode and must
        stay honest.  Rows that fail their check are repaired from
        retained plaintext (quarantine + possible re-encryption follow)
        or, with no plaintext, raise :class:`RecoveryExhaustedError`.
        """
        ring = self.processor.ring
        distinct = np.unique(one.rows)
        singles = QueryBatch(
            distinct,
            np.ones(distinct.size, dtype=ring.dtype),
            np.arange(distinct.size + 1),
        )
        residues, failed = self._offload(name, singles)
        bad_rows = distinct[failed].tolist()
        if bad_rows:
            plain = self._plain.get(name)
            if plain is None:
                obs.emit_event(
                    obs.RECOVERY_EXHAUSTED,
                    table=name,
                    rows=bad_rows,
                    reason="no retained plaintext",
                )
                raise RecoveryExhaustedError(
                    f"rows {bad_rows} of table {name!r} fail verification and "
                    f"no trusted plaintext is retained "
                    f"(RecoveryPolicy.retain_plaintext=False)"
                )
            obs.emit_event(obs.RECOVERY_REPAIR, table=name, rows=bad_rows)
            residues[failed] = plain[bad_rows]
            self._after_repair(name, bad_rows)
        stacked = residues[np.searchsorted(distinct, one.rows)]
        return ring.dot(one.weights, stacked), bad_rows

    def _after_repair(self, name: str, repaired_rows: Sequence[int]) -> None:
        policy = self.recovery
        self.recovery_log.quarantine_rows(name, repaired_rows)
        total = self.recovery_log.note_repairs(name, len(repaired_rows))
        if policy.reencrypt_after and total >= policy.reencrypt_after:
            self.reencrypt_table(name)

    def quarantined_rows(self, name: str) -> Set[int]:
        """Rows of ``name`` currently served trusted-side only."""
        return set(self.recovery_log.quarantined_rows(name))

    def load_quarantine_journal(self, path) -> int:
        """Reload quarantine/repair state from a JSONL security-event journal.

        ``path`` is a file produced by a previous process's
        ``obs.enable_events(path)`` sink (or the CLI ``--events PATH``
        flag).  Replays quarantine / repair / re-encryption events into
        this store's :class:`RecoveryLog` — a restarted store keeps
        serving known-bad rows trusted-side instead of re-learning the
        damage one verification failure at a time.  Replay never
        re-emits, so loading a journal does not append to it.  Events
        for tables this store does not hold are ignored.  Returns the
        number of state-bearing events applied.
        """
        events = [
            event
            for event in obs.read_events(path)
            if event.table in self._tables
        ]
        return self.recovery_log.replay_events(events)

    def reencrypt_table(self, name: str) -> None:
        """Rung 4: re-encrypt a table from trusted plaintext, bumped versions.

        The Sec. V-A version bump made operational: fresh data/checksum/
        tag versions are drawn from the processor's
        :class:`~repro.core.versions.VersionManager`, the region is
        re-encrypted wholesale into untrusted memory, and the table's
        quarantine is cleared - the persistent damage is gone.  Requires
        retained plaintext.
        """
        plain = self._plain.get(name)
        if plain is None:
            raise ConfigurationError(
                f"cannot re-encrypt table {name!r}: no trusted plaintext "
                f"retained (load it under a RecoveryPolicy with "
                f"retain_plaintext=True)"
            )
        old = self.device.stored(name)
        retired_data, retired_tag = old.version, old.tag_version
        enc = self.processor.encrypt_matrix(
            plain, old.base_addr, f"emb/{name}", with_tags=self.verify
        )
        self.device.store(name, enc)
        self.recovery_log.clear_quarantine(name)
        self.recovery_log.note_reencryption(name)
        obs.emit_event(
            obs.REENCRYPT,
            table=name,
            version=enc.version,
            retired_version=retired_data,
            retired_tag_version=retired_tag,
        )
