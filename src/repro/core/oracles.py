"""Sign / verification oracles and security-game harnesses (Appendix C).

Algorithms 6 and 7 package the weighted-summation protocol as MAC
oracles so the standard forgery game of Definition A.4 can be played
against them:

* ``ws-MAC_K(P, Addr)`` - the *sign oracle*: encrypt + tag a matrix, run
  the honest protocol, and emit the NDP-visible transcript
  ``(C_res_0 .. C_res_{m-1}, C_T_res)``.
* ``ws-Verify_K(C, Addr)`` - the *verification oracle*: accept a candidate
  transcript and answer pass/fail by running Alg. 5 - the processor's
  own split, the verifier that serves - with the candidate values
  substituted for the NDP's messages.

These are used by the test suite to demonstrate Theorems 1 and 2
empirically: honest transcripts verify; modified transcripts forge only
with probability ~``m/q`` (measurable once ``q`` is made small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..crypto import limb_field
from .device import UntrustedNdpDevice
from .params import SecNDPParams
from .protocol import SecNDPProcessor

__all__ = ["SignedTranscript", "WeightedSummationOracles"]


@dataclass(frozen=True)
class SignedTranscript:
    """The ``C`` bit string of Definition A.4: per-column results + tag."""

    c_res: Tuple[int, ...]
    c_t_res: int
    addr: int

    def with_c_res(self, index: int, value: int) -> "SignedTranscript":
        mutated = list(self.c_res)
        mutated[index] = value
        return SignedTranscript(tuple(mutated), self.c_t_res, self.addr)

    def with_tag(self, value: int) -> "SignedTranscript":
        return SignedTranscript(self.c_res, value, self.addr)


class WeightedSummationOracles:
    """``ws-MAC`` and ``ws-Verify`` for a fixed index/weight pattern.

    The appendix fixes the sequences ``[i_0..i_{PF-1}]`` and
    ``[a_0..a_{PF-1}]`` as protocol constants; they are constructor
    arguments here.
    """

    def __init__(
        self,
        key: bytes,
        rows: Sequence[int],
        weights: Sequence[int],
        params: SecNDPParams | None = None,
    ):
        self.processor = SecNDPProcessor(key, params)
        self.params = self.processor.params
        self.rows = [int(i) for i in rows]
        self.weights = [int(a) for a in weights]
        self._sign_count = 0

    # -- Alg. 6 ----------------------------------------------------------------

    def sign(self, plaintext: np.ndarray, addr: int) -> SignedTranscript:
        """``ws-MAC_K(P, Addr)``: honest protocol run, NDP messages returned.

        The messages are the device half of the split
        (:meth:`UntrustedNdpDevice.partial_sum_batch`) for a batch of one.
        """
        device = UntrustedNdpDevice(self.params)
        region = f"oracle-sign-{self._sign_count}"
        self._sign_count += 1
        enc = self.processor.encrypt_matrix(plaintext, addr, region, with_tags=True)
        device.store(region, enc)
        self._last_region = region
        self._last_enc = enc

        values, tag_sums = device.partial_sum_batch(region, [self.rows], [self.weights])
        c_t_res = limb_field.from_limbs(tag_sums[0])
        return SignedTranscript(tuple(int(x) for x in values[0]), c_t_res, addr)

    # -- Alg. 7 ----------------------------------------------------------------

    def verify(self, transcript: SignedTranscript) -> bool:
        """``ws-Verify_K(C, Addr)``: Alg. 5 with adversary-chosen messages.

        Verifies against the keys/versions of the most recent sign for the
        same address (the game fixes the signed matrix; the adversary
        forges transcripts, not matrices).  The candidate messages take
        the place of a device's sums in the verifier that serves: the
        processor's pad half (:meth:`SecNDPProcessor.pad_share_batch`),
        :meth:`~SecNDPProcessor.combine_device_sums` and
        :meth:`~SecNDPProcessor.failed_share_queries`.  ``c_t_res`` is a
        128-bit word, reduced into the tag field as a node's tag sums are.
        """
        enc = self._last_enc
        if transcript.addr != enc.base_addr or not 0 <= transcript.c_t_res < 1 << 128:
            return False
        processor = self.processor
        region = self._last_region
        pad = processor.pad_share_batch(enc, region, [self.rows], [self.weights])
        c_res = np.array([transcript.c_res], dtype=processor.ring.dtype)
        c_t_res = limb_field.field_reduce(
            processor.field, limb_field.pack([transcript.c_t_res])
        )
        share = processor.combine_device_sums(pad, c_res, c_t_res)
        return not processor.failed_share_queries(enc, region, share)
