"""The untrusted memory party's half of the SecNDP split (Sec. V-C).

The device stores :class:`EncryptedMatrix` ciphertext and reduces a
:class:`QueryBatch` over it with the weighted ring and tag-field sums an
unprotected NDP PU would execute (Sec. IV-D: "there is no modification
in the NDP implementation needed").  Nothing here holds or could use a
key: pads, tags and the cipher are the trusted side's
(:mod:`repro.core.protocol`), and ``tests/test_roles.py`` pins that a
cluster node loads only this half.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import kernels as _kernels
from ..crypto import limb_field
from ..crypto.ring import Ring
from ..errors import ConfigurationError
from ..faults import hooks as fault_hooks
from .params import SecNDPParams

__all__ = [
    "EncryptedMatrix", "PartialSumShare", "QueryBatch", "UntrustedNdpDevice", "integral_terms"
]


def integral_terms(values, what: str) -> np.ndarray:
    """``values`` (row ids or weights) as a flat integer array, by the one
    rule every entry point applies: a term is an integer, or a float with
    no fractional part (a trace's ``1.0`` / ``2.0`` weights).  Anything
    else - ``1.5``, ``nan``, a string - is a :class:`ConfigurationError`,
    never truncated into a different query.  An integer array passes on
    its dtype; integral floats come back as ``int64``, and Python ints no
    NumPy integer dtype holds (``2^64 - 1`` beside ``-1``) as objects.
    """
    try:
        terms = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be integers: {exc}") from None
    if terms.ndim != 1:
        raise ConfigurationError(f"{what} must be a flat sequence of integers")
    kind = terms.dtype.kind
    if kind in "iu":
        return terms
    whole = (np.abs(terms) < 2.0**63) & (np.trunc(terms) == terms) if kind == "f" else None
    if whole is not None and whole.all():
        return terms.astype(np.int64)
    if kind in "fO" and all(isinstance(t, (int, np.integer)) for t in values):
        return np.asarray(values, dtype=object)
    bad = terms[~whole][0] if kind == "f" else terms.dtype
    raise ConfigurationError(f"{what} must be integers or integral floats, got {bad!r}")


def _check_bounds(idx: np.ndarray, bound: int, what: str) -> None:
    """Refuse any index outside ``[0, bound)`` (NumPy would wrap a negative
    one and raise ``IndexError`` past the end)."""
    bad = (idx < 0) | (idx >= bound)
    if bad.any():
        raise ConfigurationError(
            f"{what} {int(idx[bad][0])} outside the stored table's {bound} {what}s"
        )


@dataclass
class EncryptedMatrix:
    """Ciphertext of a 2-D matrix plus the metadata needed to operate on it.

    ``ciphertext`` is an ``(n, m)`` array of ring residues living (in the
    architectural model) in untrusted memory at byte address ``base_addr``.
    ``tag_limbs``, when present, holds the per-row encrypted tags
    ``C_{T_i}`` produced by Alg. 3 - also untrusted data - as an
    ``(n, 4)`` array of 32-bit limbs (:mod:`repro.crypto.limb_field`),
    the form every tag sum gathers from; :attr:`tags` is its int view.
    """

    ciphertext: np.ndarray
    base_addr: int
    version: int
    params: SecNDPParams
    tag_limbs: Optional[np.ndarray] = None
    checksum_version: Optional[int] = None
    tag_version: Optional[int] = None

    @property
    def tags(self) -> Optional[list]:
        """The encrypted tags as Python ints (a copy: write with :meth:`set_tag`)."""
        if self.tag_limbs is None:
            return None
        return limb_field.from_limbs(self.tag_limbs)

    def tag(self, i: int) -> int:
        """Encrypted tag ``C_{T_i}`` of row ``i`` as a Python int."""
        return limb_field.from_limbs(self.tag_limbs[i])

    def set_tag(self, i: int, tag: int) -> None:
        """Overwrite stored tag ``i`` (memory tampering, replay)."""
        self.tag_limbs[i] = limb_field.pack([tag])[0]

    @property
    def n_rows(self) -> int:
        return self.ciphertext.shape[0]

    @property
    def n_cols(self) -> int:
        return self.ciphertext.shape[1]

    @property
    def row_bytes(self) -> int:
        return self.n_cols * self.params.element_bytes

    def row_addr(self, i: int) -> int:
        """Physical byte address of row ``i`` (``paddr(P_i)``)."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        return self.base_addr + i * self.row_bytes

    def row_addrs(self, rows) -> np.ndarray:
        """Vectorised :meth:`row_addr`: ``uint64`` addresses, same bounds check."""
        rows = np.asarray(rows, dtype=np.int64)
        bad = (rows < 0) | (rows >= self.n_rows)
        if bad.any():
            raise IndexError(
                f"row {int(rows[bad][0])} out of range [0, {self.n_rows})"
            )
        return np.uint64(self.base_addr) + rows.astype(np.uint64) * np.uint64(
            self.row_bytes
        )

    def element_addr(self, i: int, j: int) -> int:
        """Physical byte address of element ``P_{i,j}``."""
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range [0, {self.n_cols})")
        return self.row_addr(i) + j * self.params.element_bytes


@dataclass
class PartialSumShare:
    """One party's (or one shard's) contribution to a batch of queries.

    ``values`` has shape ``(n_queries, m)``: row ``q`` is a ring share of
    ``sum_k a_k * P_{i_k, j}`` (zeros when the query touches none of the
    shard's rows).  ``tag_shares`` holds the matching per-query field
    elements as ``(n_queries, 4)`` limbs
    (:mod:`repro.crypto.limb_field`), or ``None`` when the share was
    computed without verification material.

    Both components live in exact modular structures (the ring
    ``Z(2^w_e)`` and the tag field), so summing shares in any order and
    any grouping reproduces the sequential result bit for bit.
    """

    values: np.ndarray
    tag_shares: Optional[np.ndarray]


class QueryBatch:
    """A batch of weighted-summation queries in CSR form.

    ``rows`` (``int64``) and ``weights`` (ring residues) hold every
    query's terms back to back; query ``q`` owns
    ``[offsets[q], offsets[q+1])``.  Both halves of the protocol reduce a
    batch with one gathered, segmented sum over these arrays
    (:meth:`ring_sums`, :meth:`tag_sums`).  ``nonempty`` lists the
    queries that have terms and ``starts`` their offsets - the segment
    boundaries the NumPy reductions use.
    """

    __slots__ = ("rows", "weights", "offsets", "nonempty", "starts")

    def __init__(self, rows: np.ndarray, weights: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.weights = weights
        self.offsets = offsets
        self.nonempty = np.flatnonzero(offsets[1:] > offsets[:-1])
        self.starts = offsets[self.nonempty]

    def __len__(self) -> int:
        return self.offsets.size - 1

    @staticmethod
    def flatten_lists(batch_rows, batch_weights=None) -> tuple:
        """``(rows, raw weights or None, offsets)`` of per-query sequences."""
        if batch_weights is not None and len(batch_weights) != len(batch_rows):
            raise ConfigurationError(
                "batch_rows and batch_weights must have equal length"
            )
        lengths = [len(rows) for rows in batch_rows]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rows = integral_terms(list(chain.from_iterable(batch_rows)), "rows")
        rows = rows.astype(np.int64, copy=False)
        if batch_weights is None:
            return rows, None, offsets
        if [len(weights) for weights in batch_weights] != lengths:
            raise ConfigurationError("rows and weights must have equal length")
        # Weights may be signed or reach 2^64 - 1; encode() judges.
        flat = list(chain.from_iterable(batch_weights))
        return rows, integral_terms(flat, "weights") if flat else None, offsets

    @classmethod
    def flatten(cls, ring: Ring, batch_rows, batch_weights=None) -> "QueryBatch":
        """CSR form of per-query row / weight sequences (weights default to 1).

        A ``QueryBatch`` passes through, so layers hand the arrays down
        instead of re-walking lists.
        """
        if isinstance(batch_rows, cls):
            return batch_rows
        rows, weights, offsets = cls.flatten_lists(batch_rows, batch_weights)
        if weights is None:
            weights = np.ones(rows.size, dtype=ring.dtype)
        return cls(rows, ring.encode(weights), offsets)

    def select(self, mask: np.ndarray) -> "QueryBatch":
        """The sub-batch of the terms picked by ``mask`` (same queries)."""
        kept = np.concatenate(([0], np.cumsum(mask)))
        return QueryBatch(self.rows[mask], self.weights[mask], kept[self.offsets])

    def scatter(self, sums: np.ndarray) -> np.ndarray:
        """Per-segment results as one row per query (zeros where empty; a
        batch with no terms at all has no segments and is all zeros)."""
        if self.nonempty.size == len(self):
            return sums
        out = np.zeros((len(self),) + sums.shape[1:], dtype=sums.dtype)
        out[self.nonempty] = sums
        return out

    def weight_sums(self) -> np.ndarray:
        """``sum_k a_k`` per query (``uint64``; the affine bias multiplier)."""
        return self.scatter(np.add.reduceat(self.weights, self.starts, dtype=np.uint64))

    def ring_sums(
        self, ring: Ring, table: np.ndarray, idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``sum_k a_k * table[idx[k]]`` per query, in the ring.

        ``idx=None`` means the table's own rows (term ``k`` reads row
        ``k``).  This is the multiply-accumulate of both halves of the
        split: the NDP PU's over stored ciphertext (``idx`` the batch's
        rows) and, on the NumPy tier, the OTP PU's over per-term pads
        (``idx=None``; the native pad half is ``pad_segsum``).  On the
        native tier gather, product and segmented sum are one compiled
        pass (``ring_segsum``); the NumPy tier gathers, then runs
        :meth:`Ring.segment_dot`.  A row outside ``table`` is never read:
        the kernel checks every index in its loop and declines, and the
        NumPy path then refuses the row with :class:`ConfigurationError`.
        """
        nat = _kernels.active_native()
        if nat is not None and table.dtype == ring.dtype:
            out = nat.ring_segsum(table, self.weights, idx, self.offsets)
            if out is not None:
                return out
        rows = self._gather(table, idx)
        return self.scatter(ring.segment_dot(self.weights, rows, self.starts))

    def tag_sums(
        self, field, table: np.ndarray, idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``sum_k a_k * table[idx[k]]`` per query, in the tag field.

        ``table`` holds ``(n, 4)`` limb rows (stored encrypted tags,
        ``uint32``, or the NumPy tier's tag pads, ``uint64``); ``idx`` as
        in :meth:`ring_sums`.  Under GF(2^127 - 1) on the native tier a
        ``uint32`` table is one compiled pass (``limb_segsum``: u128
        columns, exact below ``2^28`` terms a query, canonical limbs
        out); otherwise a gather
        and :func:`limb_field.field_segment_dot`, which also serves every
        other tag field through the scalar oracle.
        """
        nat = _kernels.active_native()
        if nat is not None and limb_field.supports_field(field):
            out = nat.limb_segsum(table, self.weights, idx, self.offsets)
            if out is not None:
                return out
        rows = self._gather(table, idx)
        return self.scatter(
            limb_field.field_segment_dot(field, self.weights, rows, self.starts)
        )

    @staticmethod
    def _gather(table: np.ndarray, idx: Optional[np.ndarray]) -> np.ndarray:
        """``table[idx]``, refusing any index outside the table."""
        if idx is None:
            return table
        _check_bounds(idx, table.shape[0], "row")
        return table[idx]


class UntrustedNdpDevice:
    """Memory-side party: stores ciphertext, computes over it on request.

    Everything this class holds (ciphertext, encrypted tags) and computes
    is considered attacker-visible and attacker-controllable in the threat
    model (Sec. II).  The ``tamper_*`` hooks let tests and examples inject
    exactly the misbehaviours the verification scheme must catch.
    """

    def __init__(self, params: SecNDPParams):
        self.params = params
        self.ring = params.ring()
        self.field = params.field()
        self._store: dict = {}
        # Fault-injection state (None = honest device).
        self._result_delta: Optional[int] = None
        self._tag_delta: Optional[int] = None

    # -- storage --------------------------------------------------------------

    def store(self, name: str, encrypted: EncryptedMatrix) -> None:
        """Receive ciphertext (the T0 initialisation arrow of Fig. 4)."""
        self._store[name] = encrypted

    def stored(self, name: str) -> EncryptedMatrix:
        """The matrix stored as ``name``; every lookup of the device."""
        try:
            return self._store[name]
        except KeyError:
            raise ConfigurationError(f"no matrix {name!r} stored on this device") from None

    # -- honest NDP operations (identical to unprotected NDP) -----------------

    def _sums(
        self, name: str, batch: QueryBatch, data: bool, tags: bool
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-query ciphertext sums and/or encrypted-tag sums of ``batch``.

        One gather and one segmented reduction each: identical math to an
        unprotected NDP PU.  The fault hooks then visit the queries in
        order - data sum (``device.row_sum``), then tag sum
        (``device.tag_sum``) - but only when a ``tamper_*`` delta or an
        armed injector makes this device misbehave; a fault names its
        query in the event detail (``"query <q>"``).
        """
        enc = self.stored(name)
        if tags and enc.tag_limbs is None:
            raise ConfigurationError(f"matrix {name!r} stored without tags")
        values = tag_sums = None
        if data:
            values = batch.ring_sums(self.ring, enc.ciphertext, batch.rows)
        if tags:
            tag_sums = batch.tag_sums(self.field, enc.tag_limbs, batch.rows)
        inj = fault_hooks.armed_injector()
        if self._result_delta is None and self._tag_delta is None and inj is None:
            return values, tag_sums
        served = batch.nonempty.tolist()
        ints = limb_field.from_limbs(tag_sums[batch.nonempty]) if tags else served
        for q, tag in zip(served, ints):
            if data:
                if self._result_delta is not None:
                    values[q, 0] = self.ring.add(values[q, 0], self._result_delta)
                if inj is not None:
                    values[q] = inj.perturb_result(
                        self.ring, values[q], "device.row_sum", f"query {q}"
                    )
            if tags:
                forged = tag
                if self._tag_delta is not None:
                    forged = self.field.add(forged, self._tag_delta)
                if inj is not None:
                    forged = inj.perturb_tag(
                        self.field, forged, "device.tag_sum", f"query {q}"
                    )
                if forged != tag:
                    tag_sums[q] = limb_field.pack([forged])[0]
        return values, tag_sums

    def weighted_element_sum(
        self,
        name: str,
        rows: Sequence[int],
        cols: Sequence[int],
        weights: Sequence[int],
    ) -> int:
        """``C_res = sum_k a_k * C_{i_k, j_k} mod 2^w_e`` (Alg. 4 line 7)."""
        enc = self.stored(name)
        rows, cols = integral_terms(rows, "rows"), integral_terms(cols, "cols")
        weights = np.asarray(weights)
        if not rows.shape == cols.shape == weights.shape:
            raise ConfigurationError("rows, cols and weights must have equal length")
        _check_bounds(rows, enc.n_rows, "row")
        _check_bounds(cols, enc.n_cols, "column")
        elems = enc.ciphertext[rows, cols]
        total = self.ring.dot(weights, elems[:, None])[0]
        if self._result_delta is not None:
            total = self.ring.add(total, self._result_delta)
        inj = fault_hooks.armed_injector()
        if inj is not None:
            total = inj.perturb_scalar_result(self.ring, int(total), "device.element_sum")
        return int(total)

    def partial_sum_batch(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tags: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The untrusted half of a batch (Alg. 5 lines 5/15).

        For each query ``q``: ``C_res[q] = sum_k a_k * C_{i_k}`` over the
        stored ciphertext and, when ``with_tags``, ``C_T_res[q] = sum_k
        a_k * C_{T_k}`` over the encrypted tags (``(n_queries, 4)``
        limbs) — computed entirely from attacker-visible state, with no
        key material.  The trusted side adds its pad halves
        (:meth:`~repro.core.protocol.SecNDPProcessor.pad_share_batch` via
        :meth:`~repro.core.protocol.SecNDPProcessor.combine_device_sums`).
        This is the whole wire contract of a cluster NDP node: ciphertext
        sums go out, nothing decryptable comes back.
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        return self._sums(name, batch, data=True, tags=with_tags)

    # -- adversarial hooks -----------------------------------------------------

    def tamper_results(self, delta: int) -> None:
        """Make the device add ``delta`` to every returned data result."""
        self._result_delta = delta

    def tamper_tags(self, delta: int) -> None:
        """Make the device add ``delta`` to every returned tag result."""
        self._tag_delta = delta

    def behave_honestly(self) -> None:
        self._result_delta = None
        self._tag_delta = None

    def corrupt_stored_ciphertext(self, name: str, i: int, j: int, delta: int) -> None:
        """Flip stored ciphertext in place (memory tampering / bit flips)."""
        enc = self.stored(name)
        enc.ciphertext[i, j] = self.ring.add(enc.ciphertext[i, j], delta)

    def replay_stored_tag(self, name: str, i: int, stale_tag: int) -> None:
        """Replace a stored tag with a stale value (replay attack)."""
        enc = self.stored(name)
        if enc.tag_limbs is None:
            raise ConfigurationError("no tags to replay")
        enc.set_tag(i, stale_tag)
