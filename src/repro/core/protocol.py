"""The trusted processor's half of the SecNDP protocols - Algorithms 4 and 5.

Two roles cooperate over a bus, exactly as in the appendix protocol
listings, and each has its own module:

* :class:`~repro.core.device.UntrustedNdpDevice` - the memory-side
  party (:mod:`repro.core.device`).  It only ever sees ciphertext ``C``
  and encrypted tags ``C_T`` and sums them as an unprotected NDP PU
  would.
* :class:`SecNDPProcessor` - the trusted party, here.  It regenerates
  OTPs from addresses and versions (no memory traffic), runs the same
  weighted summation over its pad share, adds the two shares to decrypt,
  and verifies the result against the tag reconstruction of Alg. 5.

Overflow semantics (paper footnote 1 / Thm. A.2): ring arithmetic wraps
silently, but any column whose *integer* weighted sum of residues reaches
``2^w_e`` breaks the tag identity by a multiple of ``2^w_e``, so
verification detects it.  Applications are expected to budget
``PF * max(a) * max(P) < 2^w_e`` (the DLRM and analytics workloads do).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as _kernels
from .. import obs
from ..crypto import limb_field
from ..crypto.aes import BLOCK_BYTES
from ..crypto.tweaked import TweakedCipher
from ..errors import ConfigurationError, ShardVerificationError, VerificationError
from ..faults import hooks as fault_hooks
from .checksum import MultiPointChecksum
from .device import EncryptedMatrix, PartialSumShare, QueryBatch, UntrustedNdpDevice
from .encryption import ArithmeticEncryptor
from .mac import EncryptedLinearMac
from .params import SecNDPParams
from .versions import VersionManager

# benchmarks/e2e imports UntrustedNdpDevice from here.
__all__ = ["SecNDPProcessor", "WeightedSumResult", "UntrustedNdpDevice"]


@dataclass
class WeightedSumResult:
    """What comes back from a verified weighted-summation query.

    ``values`` are plaintext ring residues; ``verified`` records whether a
    tag check was performed (and passed - a failed check raises instead).
    """

    values: np.ndarray
    verified: bool


_NO_TAG_SHARES = (
    "partial share carries no tag shares; recompute with with_tag_shares=True to verify"
)


def _require_tags(enc: EncryptedMatrix, name: str) -> None:
    if enc.tag_limbs is None or enc.checksum_version is None:
        raise VerificationError(
            f"matrix {name!r} was encrypted without verification tags"
        )


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
        self.cipher = TweakedCipher(key)
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
            version_bits=self.cipher.layout.version_bits
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
        (:meth:`pad_share_batch`, every term's pads regenerated and summed),
        the untrusted ciphertext half
        (:meth:`UntrustedNdpDevice.partial_sum_batch`), the one adder on
        the critical path (:meth:`combine_device_sums`, Sec. V-E3) and
        the tag check (:meth:`finalize_row_sums`).
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        enc, pad, sums = self._halves(device, name, batch, verify)
        share = self.combine_device_sums(pad, *sums)
        return self.finalize_row_sums(enc, name, [share], verify)

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
        _, pad, sums = self._halves(device, name, batch, with_tag_shares)
        return self.combine_device_sums(pad, *sums)

    def offload_batch(
        self, device: UntrustedNdpDevice, name: str, batch: QueryBatch, verify: bool = True
    ) -> Tuple[np.ndarray, List[int]]:
        """Both halves of ``batch``, added and (``verify``) checked in one
        pass: ``(values, failing queries)``, the store's call into the split."""
        enc, pad, sums = self._halves(device, name, batch, verify)
        if not verify:
            return self.combine_device_sums(pad, *sums).values, []
        share, failed = self.combine_and_verify(enc, name, pad, *sums)
        return share.values, failed

    def _halves(
        self, device: UntrustedNdpDevice, name: str, batch: QueryBatch, with_tags: bool
    ) -> tuple:
        """``(enc, pad half, device half)`` of ``batch`` (the split, in-process)."""
        obs.inc("protocol.queries", len(batch))
        enc = device.stored(name)
        pad = self.pad_share_batch(enc, name, batch, with_tag_shares=with_tags)
        with obs.span("protocol.offload"):
            return enc, pad, device.partial_sum_batch(name, batch, with_tags=with_tags)

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
        entirely key-side, with no device interaction.  This is the OTP
        PU of Sec. V-C: each term's pads are regenerated from its row
        address and summed as they leave the cipher, with no row union
        and no pad array (``pad_segsum``, one compiled pass on the native
        tier; the NumPy tier runs the same per-term algorithm).  The key
        never leaves the trusted side: a remote shard only ever receives
        ciphertext and returns ciphertext sums.
        """
        batch = QueryBatch.flatten(self.ring, batch_rows, batch_weights)
        if with_tag_shares:
            _require_tags(enc, name)
        src, rows = self._pad_source(enc), batch.rows
        tag_version = enc.tag_version if with_tag_shares else None
        with obs.span("protocol.otp"):
            nat = _kernels.active_native()
            if nat is not None and (tag_version is None or limb_field.supports_field(self.field)):
                layout = self.cipher.layout
                sums = nat.pad_segsum(
                    self.cipher.key, layout.addr_bits, layout.pad_bits,
                    (src.version, tag_version), src.base_addr, src.row_bytes,
                    src.n_rows, batch.weights, rows, batch.offsets,
                )
                if sums is not None:
                    self.encryptor.otp.count(rows.size * src.row_bytes // BLOCK_BYTES)
                    if tag_version is not None:
                        obs.inc("mac.tag_pads", rows.size)
                    return PartialSumShare(*sums)
            values = batch.ring_sums(self.ring, self.encryptor.pads_for_rows(src, rows))
            if tag_version is None:
                return PartialSumShare(values, None)
            tags = batch.tag_sums(self.field, self.mac.tag_pad_limbs_for_rows(enc, rows))
        return PartialSumShare(values, tags)

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
        caught by :meth:`verify_partial_share`.  The add of
        :meth:`combine_and_verify`'s pass, without its check.
        """
        values, tags = self._device_halves(pad, device_values, device_tag_sums)
        with obs.span("protocol.combine"):
            values, tags, _ = self._combine_verify(pad.values, pad.tag_shares, values, tags)
        return PartialSumShare(values=values, tag_shares=tags)

    def combine_and_verify(
        self,
        enc: EncryptedMatrix,
        name: str,
        pad: PartialSumShare,
        device_values: np.ndarray,
        device_tag_sums: Optional[np.ndarray] = None,
    ) -> Tuple[PartialSumShare, List[int]]:
        """:meth:`combine_device_sums` and :meth:`failed_share_queries` as
        the one pass they are, the verification engine beside the OTP PU
        (Sec. V-C): ``(share, failing queries)``; a failure blames the
        device whose sums went in."""
        values, tags = self._device_halves(pad, device_values, device_tag_sums)
        if tags is None:
            raise VerificationError(_NO_TAG_SHARES)
        _require_tags(enc, name)
        key = self.checksum.key_for(enc.base_addr, enc.checksum_version)
        with obs.span("protocol.verify"):
            values, tags, failed = self._combine_verify(
                pad.values, pad.tag_shares, values, tags, key
            )
        return PartialSumShare(values=values, tag_shares=tags), self._failures(failed)

    def _device_halves(self, pad: PartialSumShare, device_values, device_tag_sums) -> tuple:
        """A device's sums shaped like ``pad`` (tag sums ``None`` when it
        has none), else :class:`ConfigurationError`."""
        values = np.asarray(device_values, dtype=self.ring.dtype)
        if values.shape != pad.values.shape:
            raise ConfigurationError(
                f"device sums shape {values.shape} does not match the "
                f"pad share shape {pad.values.shape}"
            )
        if pad.tag_shares is None:
            return values, None
        tags = None if device_tag_sums is None else np.asarray(device_tag_sums)
        if tags is None or tags.shape != pad.tag_shares.shape or tags.dtype.kind != "u":
            raise ConfigurationError(
                "device tag sums missing or mismatched against the "
                "pad share's tag shares"
            )
        return values, tags

    def _combine_verify(self, values, tags, dev_values=None, dev_tags=None, key=None) -> tuple:
        """The trusted side's one pass over a share (Alg. 5 lines 8-10): add
        a device's sums (``None``: already combined) in the ring and the
        field and, with a checksum ``key``, list the queries whose result
        tag differs from their tag share: ``(values, tag_shares, failed)``.
        The whole pass (add and check) is one ``combine_verify`` call on the
        native tier; a part of it, and every step on the NumPy tier, runs
        in NumPy."""
        nat = _kernels.active_native()
        if (
            nat is not None and dev_tags is not None and key is not None
            and limb_field.supports_field(self.field)
        ):
            weights = self.checksum.column_words(key, values.shape[1])
            out = nat.combine_verify(values, tags, dev_values, dev_tags, weights)
            if out is not None:
                return out
        if dev_values is not None:
            values = self.ring.add(dev_values, values)
        if dev_tags is not None:
            tags = limb_field.field_add(self.field, dev_tags, tags)
        if key is None:
            return values, tags, []
        computed = self.checksum.row_tag_limbs(values, key)
        return values, tags, np.flatnonzero((computed != tags).any(axis=1)).tolist()

    def _mismatches(self, values: np.ndarray, tag_shares: np.ndarray, key) -> List[int]:
        """Queries whose retrieved tag differs from the checksum of ``values``."""
        return self._combine_verify(values, tag_shares, key=key)[2]

    @staticmethod
    def _failures(failed: List[int]) -> List[int]:
        """Failing query indices, counted."""
        if failed:
            obs.inc("protocol.verify.failures", len(failed))
        return failed

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
        each query, every failing one named in one sweep.  The check of
        :meth:`combine_and_verify`'s pass, on a share already combined.
        """
        if part.tag_shares is None:
            raise VerificationError(_NO_TAG_SHARES)
        _require_tags(enc, name)
        if key is None:
            key = self.checksum.key_for(enc.base_addr, enc.checksum_version)
        with obs.span("protocol.verify"):
            return self._failures(self._mismatches(part.values, part.tag_shares, key))

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
            raise self.shard_error(name, shard, failed)

    @staticmethod
    def shard_error(name: str, shard, failed: List[int]) -> ShardVerificationError:
        """The Alg. 5 abort for ``shard``'s share whose queries ``failed``."""
        return ShardVerificationError(
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
                raise VerificationError(_NO_TAG_SHARES)
            retrieved = reduce(
                lambda a, b: limb_field.field_add(self.field, a, b),
                (part.tag_shares for part in partials),
            )
            failed = self._failures(self._mismatches(res, retrieved, key))
            if failed:
                q = failed[0]
                t_res = self.checksum.result_tag(res[q], key)
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
