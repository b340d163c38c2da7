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
from itertools import accumulate
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..core.device import QueryBatch, UntrustedNdpDevice, negative_weights, query_terms
from ..core.protocol import SecNDPProcessor
from ..errors import ConfigurationError, RecoveryExhaustedError, VerificationError
from ..faults import hooks as fault_hooks
from ..faults.plan import FaultInjector
from ..faults.recovery import RecoveryLog, RecoveryOutcome, RecoveryPolicy
from .quantization import ColumnwiseQuantizer, TablewiseQuantizer

__all__ = ["CheckedBatch", "QueryOutcome", "SecureEmbeddingStore"]

_BLOCK_BYTES = 16

_INT64 = np.dtype(np.int64)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _unsigned_max(terms: np.ndarray) -> int:
    """The largest ``int64`` term read as unsigned (a negative one wraps
    past any bound); ``argmax`` beats a ufunc reduction at every size."""
    unsigned = terms.view(np.uint64)
    return int(unsigned[unsigned.argmax()])


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
    #: Thm. A.2's budget: a query may pool PF rows at max weight w while
    #: PF * max(w, 1) <= limit, i.e. PF * w * max(q) < 2^w_e
    limit: int


class CheckedBatch(QueryBatch):
    """A batch :meth:`SecureEmbeddingStore.verdict` found servable against
    ``entry``, the table it checked it against: residue weights inside the
    budget, rows inside the table.  :meth:`~SecureEmbeddingStore.sls_scatter`
    serves it unchecked while ``entry`` is still the table's.  A query's
    check is its own, so its sub-batches (:meth:`take`) and joins
    (:meth:`SecureEmbeddingStore.join`) stay checked.
    """

    __slots__ = ("entry",)

    def __init__(self, rows, weights, offsets, entry: _TableEntry):
        super().__init__(rows, weights, offsets)
        self.entry = entry

    def take(self, keep) -> "CheckedBatch":
        """The queries at positions ``keep`` (ascending)."""
        lengths = np.diff(self.offsets)
        picked = np.zeros(len(self), dtype=bool)
        picked[keep] = True
        terms = np.repeat(picked, lengths)
        offsets = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(lengths[picked], out=offsets[1:])
        return CheckedBatch(self.rows[terms], self.weights[terms], offsets, self.entry)


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
        self._residues = processor.ring.dtype  #: a checked batch's weights
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
            limit=(ring.modulus - 1) // max(int(q.max()) if q.size else 0, 1),
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
        return self._entry(name).limit // max(max_weight, 1)

    def validate_batch(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> CheckedBatch:
        """The batch as a :class:`CheckedBatch`, or its first refusal.

        Every serving path - :meth:`sls`, :meth:`sls_many`,
        :meth:`sls_scatter`, the cluster coordinator - refuses a query
        here, before any pad or node work: lists meet the term rule
        (:func:`~repro.core.device.query_terms`), then every batch the
        table rule (:meth:`verdict`), which raises its lowest refused
        query's error.  A batch checked against the table as it is now
        passes as it is.
        """
        if isinstance(batch_rows, CheckedBatch) and batch_rows.entry is self._tables.get(name):
            return batch_rows
        if isinstance(batch_rows, QueryBatch):
            rows, weights, offsets = batch_rows.rows, batch_rows.weights, batch_rows.offsets
        else:
            rows, weights, offsets = query_terms(batch_rows, batch_weights)
        checked, refused = self.verdict(name, rows, weights, offsets)
        if refused:
            raise refused[min(refused)]
        if checked is None:  # an unknown table, with no query to refuse
            self._entry(name)
        return checked

    def verdict(
        self, name: str, rows: np.ndarray, weights: np.ndarray, offsets: np.ndarray
    ) -> Tuple[Optional[CheckedBatch], Dict[int, ConfigurationError]]:
        """The table rule: ``(checked, refused)`` - the batch as a
        :class:`CheckedBatch` with its refused queries emptied (``None``
        for an unknown table), and each refused query's error by index.

        The one producer of a checked batch, and the front-end's check of
        each socket read.  Query ``q`` owns ``[offsets[q], offsets[q +
        1])`` of ``rows`` (``int64``) and ``weights`` (integers, perhaps
        negative).  A query is refused for a negative weight, an unknown
        table, a pooling factor over Thm. A.2's budget at its heaviest
        weight, or a row outside the table, in that order
        (:meth:`_refusal`).  A clean batch is cleared in one pass, a
        reduction over each term array: ``int64`` row ids and weights read
        unsigned (a negative one wraps huge), the rows' maximum below
        ``n_rows`` and the heaviest weight inside the budget of the longest
        query.  Else per-query reductions name suspects, and each
        suspect's refusal is the rule over its own terms.  Observes
        nothing: :meth:`sls_scatter` does, for the batch.
        """
        entry = self._tables.get(name)
        ends = offsets.tolist()
        refused = {}
        longest = max(map(sub, ends[1:], ends), default=0)
        if entry is None or rows.dtype != _INT64 or weights.dtype != _INT64 or rows.size and (
            _unsigned_max(rows) >= entry.n_rows
            or longest * max(_unsigned_max(weights), 1) > entry.limit
        ):
            suspects = range(offsets.size - 1)
            if entry is not None:  # per-query reductions, a superset of the refused
                lengths = np.diff(offsets)
                nonempty = np.flatnonzero(lengths)
                starts = offsets[nonempty]
                odd = (rows < 0) | (rows >= entry.n_rows) | (weights < 0)
                heaviest = np.maximum(np.maximum.reduceat(weights, starts), 1)
                # PF * w > limit  <=>  w > limit // PF; clipped into int64,
                # which can only add suspects.
                over = heaviest > min(entry.limit, _INT64_MAX) // lengths[nonempty]
                suspects = nonempty[np.logical_or.reduceat(odd, starts) | over].tolist()
            for q in suspects:
                lo, hi = ends[q], ends[q + 1]
                refusal = self._refusal(name, entry, rows[lo:hi], weights[lo:hi], hi - lo)
                if refusal is not None:
                    refused[q] = refusal
            if entry is None:
                return None, refused
            if refused:
                kept = np.ones(rows.size, dtype=bool)
                for q in refused:
                    kept[ends[q] : ends[q + 1]] = False
                rows, weights = rows[kept], weights[kept]
                offsets = np.concatenate(([0], np.cumsum(kept)))[offsets]
        # Inside the budget every weight is < 2^w_e, so the cast is exact.
        residues = weights.astype(self._residues, copy=False)
        return CheckedBatch(rows, residues, offsets, entry), refused

    def _refusal(
        self, name: str, entry: Optional[_TableEntry], rows, weights, pooling: int
    ) -> Optional[ConfigurationError]:
        """The refusal of one query's terms, pooling ``pooling`` rows, or
        ``None``."""
        negative = negative_weights(weights)
        if negative is not None or entry is None:
            return negative or ConfigurationError(f"unknown table {name!r}")
        max_w = int(weights.max()) if weights.size else 1
        if pooling * max(max_w, 1) > entry.limit:
            return ConfigurationError(
                f"pooling factor {pooling} with max weight {max_w} may overflow "
                f"Z(2^{self.processor.params.element_bits}) for table {name!r}; "
                f"split the query"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= entry.n_rows):
            return ConfigurationError(f"row id outside [0, {entry.n_rows}) for table {name!r}")
        return None

    def join(self, parts: List[CheckedBatch]) -> QueryBatch:
        """Checked parts as one batch, in order: checked if they share an entry."""
        first, *rest = parts
        if not rest:
            return first
        ends = accumulate(part.rows.size for part in parts)
        rows = np.concatenate([part.rows for part in parts])
        weights = np.concatenate([part.weights for part in parts])
        offsets = np.concatenate(
            [first.offsets] + [part.offsets[1:] + end for part, end in zip(rest, ends)]
        )
        entry = first.entry
        if all(part.entry is entry for part in rest):
            return CheckedBatch(rows, weights, offsets, entry)
        return QueryBatch(rows, weights, offsets)

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
        rows, weights, _ = query_terms([rows], None if weights is None else [weights])
        if not rows.size:
            raise ConfigurationError("empty query")
        budget = self.max_pooling_factor(name, int(weights.max()))
        if budget < 1:
            raise ConfigurationError(
                f"even a single row may overflow the ring for table {name!r}"
            )
        total = np.zeros(self._entry(name).dim)
        for start in range(0, rows.size, budget):
            total += self.sls(name, rows[start : start + budget], weights[start : start + budget])
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
        ``outcomes[i]`` for query ``i``.  Lists and plain
        :class:`QueryBatch` es are checked first (:meth:`validate_batch`);
        a :class:`CheckedBatch` of this table as it is now - what the
        front-end builds, through :meth:`verdict` - is served without a
        second check.
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
        out += np.multiply.outer(weight_sums, entry.bias)
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
