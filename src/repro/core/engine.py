"""Functional model of the SecNDP engine (paper Sec. V-C, Fig. 5).

The architectural SecNDP engine sits next to the memory controller and
contains three blocks:

* the **encryption engine** - AES pipelines that turn (address, version)
  pairs into OTP blocks;
* the **OTP PU** - a mirror of the NDP PU that runs the same commands over
  the OTP share, with the same number of registers;
* the **verification engine** - computes linear checksums of results.

This module models the *functional* behaviour (registers, buffers, the
final adder of ``SecNDPLd``); the *timing* behaviour (throughput limits,
packet bottleneck attribution) lives in :mod:`repro.ndp.secndp_engine`.
Keeping the two separate mirrors the paper's split between scheme
correctness (Sec. IV) and architectural performance (Sec. V-VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, VerificationError
from .encryption import ArithmeticEncryptor, EncryptedMatrix
from .mac import EncryptedLinearMac
from .params import SecNDPParams

__all__ = ["OtpPu", "SecNDPEngine"]


class OtpPu:
    """The OTP processing unit: same registers and ALU as an NDP PU.

    Registers accumulate the processor-side share during ``SecNDPInst``
    streams; ``NDP_reg``-style register pressure therefore applies to the
    OTP side exactly as to the NDP side (Sec. V-C2).
    """

    def __init__(self, params: SecNDPParams, n_registers: int = 8):
        if n_registers < 1:
            raise ConfigurationError("OTP PU needs at least one register")
        self.params = params
        self.ring = params.ring()
        self.field = params.field()
        self.n_registers = n_registers
        self._data_regs: List[Optional[np.ndarray]] = [None] * n_registers
        self._tag_regs: List[int] = [0] * n_registers

    def _check_reg(self, reg: int) -> None:
        if not 0 <= reg < self.n_registers:
            raise ConfigurationError(
                f"register {reg} out of range [0, {self.n_registers})"
            )

    def clear(self, reg: int) -> None:
        self._check_reg(reg)
        self._data_regs[reg] = None
        self._tag_regs[reg] = 0

    def accumulate(self, reg: int, weight: int, pads: np.ndarray) -> None:
        """Multiply-accumulate one row of pads into a register."""
        self._check_reg(reg)
        contribution = self.ring.mul(
            np.full(pads.shape, weight, dtype=self.ring.dtype), pads
        )
        if self._data_regs[reg] is None:
            self._data_regs[reg] = contribution
        else:
            self._data_regs[reg] = self.ring.add(self._data_regs[reg], contribution)

    def accumulate_tag(self, reg: int, weight: int, tag_pad: int) -> None:
        self._check_reg(reg)
        self._tag_regs[reg] = self.field.add(
            self._tag_regs[reg], self.field.mul(weight, tag_pad)
        )

    def read(self, reg: int) -> np.ndarray:
        self._check_reg(reg)
        if self._data_regs[reg] is None:
            raise ConfigurationError(f"register {reg} read before any accumulate")
        return self._data_regs[reg]

    def read_tag(self, reg: int) -> int:
        self._check_reg(reg)
        return self._tag_regs[reg]


class SecNDPEngine:
    """Functional engine: encryption engine + OTP PU + verification engine.

    Drives a full ``SecNDPInst`` / ``SecNDPLd`` sequence for one query:
    ``begin_query`` clears a register pair, ``issue`` streams one
    (row, weight) command to the OTP PU, and ``load_and_verify`` performs
    the final share addition and optional tag check, raising
    :class:`~repro.errors.VerificationError` on mismatch (the interrupt of
    Sec. V-E3).
    """

    def __init__(
        self,
        encryptor: ArithmeticEncryptor,
        mac: EncryptedLinearMac,
        n_registers: int = 8,
    ):
        self.encryptor = encryptor
        self.mac = mac
        self.params = encryptor.params
        self.ring = encryptor.ring
        self.field = mac.field
        self.otp_pu = OtpPu(self.params, n_registers)
        self.checksum = mac.checksum

    def begin_query(self, reg: int) -> None:
        self.otp_pu.clear(reg)

    def issue(
        self, reg: int, encrypted: EncryptedMatrix, row: int, weight: int
    ) -> None:
        """One ``SecNDPInst``: replicate the NDP command on the OTP share."""
        pads = self.encryptor.pads_for_rows(encrypted, [row])[0]
        w = int(self.ring.encode(np.asarray(weight)))
        self.otp_pu.accumulate(reg, w, pads)
        if encrypted.tag_limbs is not None:
            tag_pad = self.mac.tag_pads_for_rows(encrypted, [row])[0]
            self.otp_pu.accumulate_tag(reg, w, tag_pad)

    def load_and_verify(
        self,
        reg: int,
        encrypted: EncryptedMatrix,
        ndp_result: np.ndarray,
        ndp_tag: Optional[int] = None,
    ) -> np.ndarray:
        """One ``SecNDPLd``: add shares; verify when a tag is supplied."""
        e_res = self.otp_pu.read(reg)
        res = self.ring.add(np.asarray(ndp_result, dtype=self.ring.dtype), e_res)
        if ndp_tag is not None:
            if encrypted.checksum_version is None:
                raise VerificationError("matrix has no checksum version")
            key = self.checksum.key_for(
                encrypted.base_addr, encrypted.checksum_version
            )
            # res is a vector of ring residues; result_tag dispatches to
            # the limb-vectorized checksum for the default tag field.
            t_res = self.checksum.result_tag(res, key)
            retrieved = self.field.add(ndp_tag, self.otp_pu.read_tag(reg))
            if retrieved != t_res:
                raise VerificationError(
                    "SecNDPLd verification failed: tag mismatch "
                    f"(computed {t_res:#x}, retrieved {retrieved:#x})"
                )
        return res
