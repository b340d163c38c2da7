"""Instruction-level execution of the SecNDP ISA (Sec. V-E walkthrough).

Binds the command formats of :mod:`repro.ndp.commands` to the functional
models: a :class:`SecNdpExecutor` owns one SecNDP engine (processor side)
and one NDP DIMM (memory side), translates a pooling query into the exact
instruction sequence of Sec. V-E -

    ArithEnc        (once per region: encrypt + tag + shard to ranks)
    SecNDPInst ...  (one per queried row: NDP command + OTP-PU replica)
    SecNDPLd        (per participating rank: share add + verification)

- and executes it.  This is the most hardware-faithful functional path
in the repository: register allocation, per-rank partial sums, and the
final cross-rank reduction all happen exactly as the micro-architecture
section describes, and integration tests check it against the plain
protocol-layer answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.encryption import EncryptedMatrix
from ..core.engine import SecNDPEngine
from ..core.protocol import SecNDPProcessor
from ..errors import ConfigurationError, VerificationError
from ..faults import hooks as fault_hooks
from .commands import NdpInst, NdpLd, NdpOp, SecNdpInst, SecNdpLd
from .dimm import NdpDimm

__all__ = ["SecNdpExecutor", "ShardedRegion"]


@dataclass
class ShardedRegion:
    """A region encrypted and striped round-robin across the DIMM ranks."""

    name: str
    encrypted: EncryptedMatrix
    n_ranks: int
    row_elems: int

    def rank_of_row(self, row: int) -> int:
        return row % self.n_ranks

    def local_offset(self, row: int) -> int:
        """Element offset of the row inside its rank shard."""
        return (row // self.n_ranks) * self.row_elems


class SecNdpExecutor:
    """Executes SecNDP instruction streams against engine + DIMM models."""

    def __init__(
        self,
        processor: SecNDPProcessor,
        n_ranks: int = 4,
        n_registers: int = 8,
    ):
        self.processor = processor
        self.n_ranks = n_ranks
        self.n_registers = n_registers
        self.engine = SecNDPEngine(
            processor.encryptor, processor.mac, n_registers=n_registers
        )
        self.dimm = NdpDimm(
            processor.ring, processor.field, n_ranks=n_ranks,
            n_registers=n_registers,
        )
        # One tag accumulator per (rank, register): the extended-register
        # design of Sec. V-D where NDP PUs carry a tag lane.
        self._regions: Dict[str, ShardedRegion] = {}
        self._instructions_executed = 0

    # -- ArithEnc ----------------------------------------------------------------

    def arith_enc(
        self,
        name: str,
        plaintext: np.ndarray,
        base_addr: int,
        with_tags: bool = True,
    ) -> ShardedRegion:
        """Encrypt a region and stripe its ciphertext across the ranks."""
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} already encrypted")
        encrypted = self.processor.encrypt_matrix(
            plaintext, base_addr, name, with_tags=with_tags
        )
        n_rows, row_elems = encrypted.ciphertext.shape
        region = ShardedRegion(
            name=name,
            encrypted=encrypted,
            n_ranks=self.n_ranks,
            row_elems=row_elems,
        )
        # Build each rank's shard: rows r with r % n_ranks == rank, packed.
        for rank in range(self.n_ranks):
            rows = list(range(rank, n_rows, self.n_ranks))
            shard = encrypted.ciphertext[rows].reshape(-1)
            self.dimm.load_shard(rank, shard)
            # Tag lanes live beside the data in the PU model.
        self._regions[name] = region
        return region

    # -- query execution -------------------------------------------------------------

    def weighted_sum(
        self,
        name: str,
        rows: Sequence[int],
        weights: Sequence[int],
        reg: int = 0,
        verify: bool = True,
    ) -> np.ndarray:
        """Run the full SecNDPInst / SecNDPLd sequence for one query."""
        region = self._regions[name]
        enc = region.encrypted
        if verify and enc.tag_limbs is None:
            raise VerificationError(f"region {name!r} encrypted without tags")
        ring = self.processor.ring
        weights_ring = [int(w) for w in ring.encode(np.asarray(weights))]

        # Issue one SecNDPInst per (row, weight); the NDP command reaches
        # the owning rank's PU, the SecNDP engine mirrors it on the OTP PU.
        self.engine.begin_query(reg)
        touched_ranks: List[int] = []
        rank_tag_acc: Dict[int, int] = {}
        for row, weight in zip(rows, weights_ring):
            rank = region.rank_of_row(int(row))
            inst = SecNdpInst(
                inner=NdpInst(
                    paddr=region.local_offset(int(row)),
                    op=NdpOp.MAC,
                    vsize=region.row_elems,
                    dsize=self.processor.params.element_bits,
                    imm=weight,
                    reg_id=reg,
                ),
                version=enc.version,
                verify=verify,
            )
            if rank not in touched_ranks:
                touched_ranks.append(rank)
                self.dimm.pus[rank].clear(reg)
            # Command-channel faults: a dropped SecNDPInst never reaches
            # the rank's PU, a duplicated one executes twice.  Either way
            # the OTP-PU replica diverges from the NDP share and Alg. 5
            # must catch it at SecNDPLd time.
            inj = fault_hooks.armed_injector()
            cmd_fault = inj.command_fault("executor.inst") if inj is not None else None
            if cmd_fault != "drop":
                # The NDP side executes the *unmodified* command.
                self.dimm.execute(rank, inst.to_ndp_command())
                if verify:
                    self.dimm.pus[rank].mac_tag(reg, weight, enc.tag(int(row)))
                if cmd_fault == "dup":
                    self.dimm.execute(rank, inst.to_ndp_command())
                    if verify:
                        self.dimm.pus[rank].mac_tag(reg, weight, enc.tag(int(row)))
            # The processor side replicates it on the OTP PU.
            self.engine.issue(reg, enc, int(row), weight)
            self._instructions_executed += 1

        # SecNDPLd per touched rank: collect partial ciphertext sums (and
        # tag partials); the final reduction is the engine's share add.
        ld = SecNdpLd(
            inner=NdpLd(reg_id=reg, vsize=region.row_elems,
                        dsize=self.processor.params.element_bits),
            verify=verify,
        )
        c_res = np.zeros(region.row_elems, dtype=ring.dtype)
        c_t_res = 0
        for rank in touched_ranks:
            c_res = ring.add(c_res, self.dimm.load(rank, ld.inner))
            if verify:
                c_t_res = self.processor.field.add(
                    c_t_res, self.dimm.pus[rank].load_tag(reg)
                )
        return self.engine.load_and_verify(
            reg, enc, c_res, c_t_res if verify else None
        )

    @property
    def instructions_executed(self) -> int:
        return self._instructions_executed
