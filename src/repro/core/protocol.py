"""The SecNDP computation protocols - Algorithms 4 and 5.

Two roles cooperate over a bus, exactly as in the appendix protocol
listings:

* :class:`UntrustedNdpDevice` - the memory-side party.  It only ever sees
  ciphertext ``C`` and encrypted tags ``C_T``; its operations (weighted
  summation in the ring, weighted tag summation in the field) are
  *identical* to what an unprotected NDP PU would execute, which is the
  paper's key deployment claim (Sec. IV-D: "there is no modification in
  the NDP implementation needed").
* :class:`SecNDPProcessor` - the trusted party.  It regenerates OTPs from
  addresses and versions (no memory traffic), runs the same weighted
  summation over its pad share, adds the two shares to decrypt, and
  verifies the result against the tag reconstruction of Alg. 5.

Overflow semantics (paper footnote 1 / Thm. A.2): ring arithmetic wraps
silently, but any column whose *integer* weighted sum of residues reaches
``2^w_e`` breaks the tag identity by a multiple of ``2^w_e``, so
verification detects it.  Applications are expected to budget
``PF * max(a) * max(P) < 2^w_e`` (the DLRM and analytics workloads do).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as _kernels
from .. import obs
from ..crypto import limb_field
from ..crypto.ring import Ring
from ..crypto.tweaked import TweakedCipher
from ..errors import ConfigurationError, ShardVerificationError, VerificationError
from ..faults import hooks as fault_hooks
from .checksum import LinearChecksum, MultiPointChecksum
from .encryption import ArithmeticEncryptor, EncryptedMatrix
from .mac import EncryptedLinearMac
from .params import SecNDPParams
from .versions import VersionManager

__all__ = [
    "UntrustedNdpDevice",
    "SecNDPProcessor",
    "WeightedSumResult",
    "PartialSumShare",
    "QueryBatch",
    "integral_terms",
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


@dataclass
class WeightedSumResult:
    """What comes back from a verified weighted-summation query.

    ``values`` are plaintext ring residues; ``verified`` records whether a
    tag check was performed (and passed - a failed check raises instead).
    """

    values: np.ndarray
    verified: bool


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

    def row_union(self) -> tuple:
        """Distinct rows, ascending, and the index of each term in them.

        Terms that are already distinct and ascending (a typical single
        query) are their own union and need no sort: their index is
        ``None``, the own-rows convention of :meth:`ring_sums`.
        """
        rows = self.rows
        if rows.size < 2 or (rows[1:] > rows[:-1]).all():
            return rows, None
        return np.unique(rows, return_inverse=True)

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
        rows) and the OTP PU's over the pads of the row union.  On the
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
        ``uint32``, or regenerated tag pads, ``uint64``); ``idx`` as in
        :meth:`ring_sums`.  Under GF(2^127 - 1) on the native tier this is
        one compiled pass (``limb_segsum``: u128 columns, exact below
        ``2^28`` terms a query, canonical limbs out); otherwise a gather
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
        """``table[idx]``, refusing any index outside the table (NumPy
        would wrap a negative one and raise ``IndexError`` past the end)."""
        if idx is None:
            return table
        bad = (idx < 0) | (idx >= table.shape[0])
        if bad.any():
            raise ConfigurationError(
                f"row {int(idx[bad][0])} outside the stored table's "
                f"{table.shape[0]} rows"
            )
        return table[idx]


def _require_tags(enc: EncryptedMatrix, name: str) -> None:
    if enc.tag_limbs is None or enc.checksum_version is None:
        raise VerificationError(
            f"matrix {name!r} was encrypted without verification tags"
        )


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
        return self._store[name]

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
        if name not in self._store:
            raise ConfigurationError(f"no matrix {name!r} stored on this device")
        enc = self._store[name]
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
        enc = self._store[name]
        elems = enc.ciphertext[np.asarray(rows), np.asarray(cols)]
        total = self.ring.dot(np.asarray(weights), elems[:, None])[0]
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
        (:meth:`SecNDPProcessor.pad_share_batch` via
        :meth:`SecNDPProcessor.combine_device_sums`).  This is the whole
        wire contract of a cluster NDP node: ciphertext sums go out,
        nothing decryptable comes back.
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
        enc = self._store[name]
        enc.ciphertext[i, j] = self.ring.add(enc.ciphertext[i, j], delta)

    def replay_stored_tag(self, name: str, i: int, stale_tag: int) -> None:
        """Replace a stored tag with a stale value (replay attack)."""
        enc = self._store[name]
        if enc.tag_limbs is None:
            raise ConfigurationError("no tags to replay")
        enc.set_tag(i, stale_tag)


class SecNDPProcessor:
    """Trusted party: encrypts, regenerates pads, decrypts, verifies.

    Parameters
    ----------
    key:
        The processor secret key ``K`` (16 bytes).
    params:
        Shared scheme parameters.
    versions:
        Version manager; a default (64-region budget) is created if absent.
    """

    def __init__(
        self,
        key: bytes,
        params: Optional[SecNDPParams] = None,
        versions: Optional[VersionManager] = None,
        multipoint_checksum: bool = False,
    ):
        self.params = params or SecNDPParams()
        self.cipher: TweakedCipher = self.params.cipher(key)
        self.ring = self.params.ring()
        self.field = self.params.field()
        self.encryptor = ArithmeticEncryptor(self.cipher, self.params)
        # multipoint_checksum selects the Alg. 8 variant (appendix D),
        # which extracts cnt_s = w_c/w_t evaluation points per cipher
        # block and tightens the forgery bound to m/(cnt_s * q).
        checksum = (
            MultiPointChecksum(self.cipher, self.params)
            if multipoint_checksum
            else None
        )
        self.mac = EncryptedLinearMac(self.cipher, self.params, checksum=checksum)
        self.checksum = self.mac.checksum
        self.versions = versions or VersionManager(
            version_bits=self.params.layout.version_bits
        )

    # -- initialisation (T0 in Fig. 4) ----------------------------------------

    def encrypt_matrix(
        self,
        plaintext: np.ndarray,
        base_addr: int,
        region: str,
        with_tags: bool = True,
    ) -> EncryptedMatrix:
        """Run ``ArithEnc``: encrypt and (optionally) tag a matrix.

        ``plaintext`` holds ring residues.  Three independent versions are
        drawn for the three cipher domains, matching Alg. 1/2/3 each
        calling ``V()`` separately.
        """
        obs.inc("protocol.matrices_encrypted")
        data_version = self.versions.fresh(f"{region}/data")
        with obs.span("protocol.encrypt"):
            encrypted = self.encryptor.encrypt(plaintext, base_addr, data_version)
        if with_tags:
            checksum_version = self.versions.fresh(f"{region}/checksum")
            tag_version = self.versions.fresh(f"{region}/tag")
            self.mac.attach_tags(encrypted, plaintext, checksum_version, tag_version)
        return encrypted

    # -- fault-injection view ---------------------------------------------------

    @staticmethod
    def _pad_source(enc: EncryptedMatrix) -> EncryptedMatrix:
        """The matrix view pads are regenerated from.

        Normally ``enc`` itself; under an armed fault injector the OTP
        counter version may be flipped (a version-management fault,
        Sec. V-A) so the regenerated pads no longer match the ciphertext
        and verification must trip.  One ``is None`` check when faults
        are off.
        """
        inj = fault_hooks.armed_injector()
        if inj is None:
            return enc
        version = inj.perturb_version(enc.version, "protocol.otp_version")
        if version == enc.version:
            return enc
        return replace(enc, version=version)

    # -- queries (T1 in Fig. 4) -------------------------------------------------

    def weighted_row_sums(
        self,
        device: UntrustedNdpDevice,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        verify: bool = True,
    ) -> np.ndarray:
        """Alg. 4 + Alg. 5 for a batch of weighted-summation queries.

        Computes ``res[q, j] = sum_k a_k * P_{i_k, j} mod 2^w_e`` for
        every query and column, with optional tag verification - the
        SLS / pooling primitive the evaluation offloads to NDP, as the
        composition of the split stated once: the trusted pad half
        (:meth:`pad_share_batch`, one pad sweep for the union of rows),
        the untrusted ciphertext half
        (:meth:`UntrustedNdpDevice.partial_sum_batch`), the one adder on
        the critical path (:meth:`combine_device_sums`, Sec. V-E3) and
        the tag check (:meth:`finalize_row_sums`).
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        share = self._share(device, name, batch, verify)
        return self.finalize_row_sums(device.stored(name), name, [share], verify)

    def weighted_row_sum(
        self,
        device: UntrustedNdpDevice,
        name: str,
        rows: Sequence[int],
        weights: Sequence[int],
        verify: bool = True,
    ) -> WeightedSumResult:
        """:meth:`weighted_row_sums` for one query (a batch of one)."""
        values = self.weighted_row_sums(device, name, [rows], [weights], verify)
        return WeightedSumResult(values=values[0], verified=verify)

    def partial_row_sum_batch(
        self,
        device: UntrustedNdpDevice,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tag_shares: bool = True,
    ) -> PartialSumShare:
        """One shard's decrypted share: both halves against a local device.

        ``batch_rows[q]`` lists only the rows of query ``q`` that this
        shard owns (possibly none); the store serves its whole batch as
        one share.  No verification happens here;
        :meth:`verify_partial_share` checks the share against its own
        restricted checksum and :meth:`finalize_row_sums` the recombined
        totals.
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        return self._share(device, name, batch, with_tag_shares)

    def _share(
        self, device: UntrustedNdpDevice, name: str, batch: QueryBatch, with_tags: bool
    ) -> PartialSumShare:
        """Pad half + device half of ``batch``, added (the split, in-process)."""
        obs.inc("protocol.queries", len(batch))
        pad = self.pad_share_batch(
            device.stored(name), name, batch, with_tag_shares=with_tags
        )
        with obs.span("protocol.offload"):
            sums = device.partial_sum_batch(name, batch, with_tags=with_tags)
        return self.combine_device_sums(pad, *sums)

    def pad_share_batch(
        self,
        enc: EncryptedMatrix,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tag_shares: bool = True,
    ) -> PartialSumShare:
        """The trusted half of a batch: the same sums over regenerated pads.

        ``E_res[q] = sum_k a_k * pad_{i_k}`` per query (and, when
        ``with_tag_shares``, the tag-pad sums ``E_T_res[q]``) — computed
        entirely key-side, with no device interaction (:meth:`pad_shares`
        with one owner).  The key never leaves the trusted side: a remote
        shard only ever receives ciphertext and returns ciphertext sums.
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        return self.pad_shares(enc, name, batch, [(batch, None)], with_tag_shares)[0]

    def pad_shares(
        self,
        enc: EncryptedMatrix,
        name: str,
        batch: QueryBatch,
        owners: Sequence[Tuple[QueryBatch, Optional[np.ndarray]]],
        with_tag_shares: bool = True,
    ) -> List[PartialSumShare]:
        """:meth:`pad_share_batch` split by owner, from one pad sweep.

        ``owners[s]`` is ``(batch.select(mask), mask)`` (``(batch, None)``
        for every term); share ``s`` is that sub-batch's pad half.  Data
        OTPs *and* tag pads are generated once for the row union of the
        whole batch (the AES hot path, amortized over a DLRM batch's
        overlapping hot rows), then each query's share is one gather and
        one segmented sum: a sharded batch costs the trusted side what an
        unsharded one does.
        """
        if with_tag_shares:
            _require_tags(enc, name)
        union, where = batch.row_union()
        pads = np.zeros((0, enc.n_cols), dtype=self.ring.dtype)
        tag_pads = np.zeros((0, limb_field.NUM_LIMBS), dtype=np.uint64)
        if union.size:
            with obs.span("protocol.otp"):
                pads = self.encryptor.pads_for_rows(self._pad_source(enc), union)
                if with_tag_shares:
                    tag_pads = self.mac.tag_pad_limbs_for_rows(enc, union)
        shares = []
        with obs.span("protocol.combine"):
            for part, mask in owners:
                # A ``None`` ``where`` means the terms are their own union.
                if mask is None:
                    pick = where
                else:
                    pick = np.flatnonzero(mask) if where is None else where[mask]
                tags = part.tag_sums(self.field, tag_pads, pick) if with_tag_shares else None
                shares.append(PartialSumShare(part.ring_sums(self.ring, pads, pick), tags))
        return shares

    def combine_device_sums(
        self,
        pad: PartialSumShare,
        device_values: np.ndarray,
        device_tag_sums: Optional[np.ndarray] = None,
    ) -> PartialSumShare:
        """Add a device's ciphertext-domain sums onto the trusted pad half.

        ``values = C_res + E_res`` in the ring and ``tag_shares =
        C_T_res + E_T_res`` in the field: the decrypt-and-reconstruct
        step of Alg. 5 with the two halves computed by different
        parties.  The device inputs are untrusted — shape mismatches
        raise :class:`ConfigurationError` so callers can blame the
        shard that produced them; forged sums pass through and are
        caught by :meth:`verify_partial_share`.
        """
        values = np.asarray(device_values, dtype=self.ring.dtype)
        if values.shape != pad.values.shape:
            raise ConfigurationError(
                f"device sums shape {values.shape} does not match the "
                f"pad share shape {pad.values.shape}"
            )
        tag_shares = None
        if pad.tag_shares is not None:
            tags = None if device_tag_sums is None else np.asarray(device_tag_sums)
            if tags is None or tags.shape != pad.tag_shares.shape or tags.dtype.kind != "u":
                raise ConfigurationError(
                    "device tag sums missing or mismatched against the "
                    "pad share's tag shares"
                )
            tag_shares = limb_field.field_add(self.field, tags, pad.tag_shares)
        return PartialSumShare(
            values=self.ring.add(values, pad.values), tag_shares=tag_shares
        )

    def _mismatches(self, values: np.ndarray, tag_shares: np.ndarray, key) -> np.ndarray:
        """Queries whose retrieved tag differs from the checksum of ``values``.

        One checksum sweep over the whole ``(n_queries, m)`` result
        matrix (the verification engine of Alg. 5 line 10), compared
        limb for limb.
        """
        computed = self.checksum.row_tag_limbs(values, key)
        return np.flatnonzero((computed != tag_shares).any(axis=1))

    def failed_share_queries(
        self,
        enc: EncryptedMatrix,
        name: str,
        part: PartialSumShare,
        key=None,
    ) -> List[int]:
        """Batch-local query indices whose tag share fails *this* shard.

        The checksum is linear with no affine term (``T = sum_j P_j *
        s^(m-j)``), so its restriction to one shard's row partition is
        an exact identity of its own: shard ``s``'s combined tag share
        ``C_T_res + E_T_res`` over the rows it served must equal
        ``result_tag`` of its decrypted partial values.  A mismatch
        therefore blames this shard specifically — no other shard's
        share enters the check.  Subject to the same per-query forgery
        bound (``m/q``) and ring-overflow caveat as the combined check;
        a *whole-query* overflow splits across shards and is only
        visible to the combined identity, which is why
        :meth:`finalize_row_sums` keeps checking totals even when
        per-shard checks ran.  A share holding every term of its queries
        (the store's batch) has no such gap: this is then Alg. 5 for
        each query, every failing one named in one sweep.
        """
        if part.tag_shares is None:
            raise VerificationError(
                "partial share carries no tag shares; recompute with "
                "with_tag_shares=True to verify"
            )
        _require_tags(enc, name)
        if key is None:
            key = self.checksum.key_for(enc.base_addr, enc.checksum_version)
        with obs.span("protocol.verify"):
            failed = self._mismatches(part.values, part.tag_shares, key).tolist()
        if failed:
            obs.inc("protocol.verify.failures", len(failed))
        return failed

    def verify_partial_share(
        self,
        enc: EncryptedMatrix,
        name: str,
        part: PartialSumShare,
        key=None,
        shard=None,
    ) -> None:
        """Raise :class:`ShardVerificationError` if ``part`` fails its check.

        The raising twin of :meth:`failed_share_queries` for callers that
        want the Alg. 5 abort semantics with blame attached.
        """
        failed = self.failed_share_queries(enc, name, part, key=key)
        if failed:
            raise ShardVerificationError(
                f"tag share mismatch for shard {shard!r} on {name!r}: "
                f"queries {failed} (tampering, replay, or a forged share)",
                shard=shard,
                queries=failed,
            )

    def finalize_row_sums(
        self,
        enc: EncryptedMatrix,
        name: str,
        partials: Sequence[PartialSumShare],
        verify: bool = True,
    ) -> np.ndarray:
        """Combine shard shares into the verified result matrix (trusted side).

        Ring-adds the value shares and field-adds the tag shares across
        shards, then runs the Alg. 5 check on every recombined total in
        one sweep (the first failing query raises): because every shard
        partitions the query's rows and both structures are exact
        modular arithmetic, the totals — and hence the verification
        outcome — are bit-identical to the unsharded queries.

        Blame is the caller's: :meth:`verify_partial_share` checks one
        share against its *own* restricted checksum and names its shard.
        This combined check is still needed after those pass: per-shard
        identities are exact over residues, but a whole-query integer
        overflow of ``2^w_e`` (Thm. A.2) splits across shards and only
        breaks the recombined identity.
        """
        partials = list(partials)
        if not partials:
            return np.zeros((0, enc.n_cols), dtype=self.ring.dtype)
        res = reduce(self.ring.add, (part.values for part in partials))
        if not verify:
            return res
        _require_tags(enc, name)
        key = self.checksum.key_for(enc.base_addr, enc.checksum_version)
        with obs.span("protocol.verify"):
            if any(part.tag_shares is None for part in partials):
                raise VerificationError(
                    "partial share carries no tag shares; recompute "
                    "with with_tag_shares=True to verify"
                )
            retrieved = reduce(
                lambda a, b: limb_field.field_add(self.field, a, b),
                (part.tag_shares for part in partials),
            )
            failed = self._mismatches(res, retrieved, key)
            if failed.size:
                q = int(failed[0])
                t_res = self.checksum.result_tag(res[q], key)
                obs.inc("protocol.verify.failures", int(failed.size))
                raise VerificationError(
                    f"tag mismatch for query {q} on {name!r}: computed "
                    f"{t_res:#x}, retrieved "
                    f"{limb_field.from_limbs(retrieved[q]):#x} "
                    f"(tampering, replay, or ring overflow)"
                )
        return res

    def finalize_row_sum_batch(
        self,
        enc: EncryptedMatrix,
        name: str,
        partials: Sequence[PartialSumShare],
        verify: bool = True,
    ) -> List[WeightedSumResult]:
        """:meth:`finalize_row_sums`, one :class:`WeightedSumResult` per query."""
        values = self.finalize_row_sums(enc, name, partials, verify)
        return [WeightedSumResult(values=row, verified=verify) for row in values]

    def weighted_element_sum(
        self,
        device: UntrustedNdpDevice,
        name: str,
        rows: Sequence[int],
        cols: Sequence[int],
        weights: Sequence[int],
    ) -> int:
        """Scalar Alg. 4: ``res = sum_k a_k * P_{i_k, j_k} mod 2^w_e``.

        Element-granular queries cannot be tag-verified (tags cover whole
        rows), matching the paper where verification is defined for the
        vector weighted summation (Alg. 5).
        """
        weights_ring = self.ring.encode(np.asarray(weights))
        enc = device.stored(name)
        c_res = device.weighted_element_sum(name, rows, cols, weights_ring)
        elem_addrs = np.array(
            [enc.element_addr(int(i), int(j)) for i, j in zip(rows, cols)],
            dtype=np.uint64,
        )
        pads = self.encryptor.otp.pad_elements_at(elem_addrs, enc.version)
        e_res = self.ring.dot(weights_ring, pads[:, None])[0]
        return int(self.ring.add(self.ring.dtype(c_res), e_res))

    # -- convenience --------------------------------------------------------------

    def decrypt_matrix(self, encrypted: EncryptedMatrix) -> np.ndarray:
        return self.encryptor.decrypt(encrypted)
