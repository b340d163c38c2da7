"""Medical data analytics workload (paper Sec. VI-A (2)).

A gene-expression database (patients x genes) is stored encrypted in
memory; researchers submit lists of patient IDs and the NDP units compute
group summations, from which the processor derives means and two-sample
t-statistics (Student's t-test [71]) - e.g. case vs. control expression
of a gene.

The secure path uses the exact SecNDP weighted-summation protocol: the
expression matrix is fixed-point-quantized into the ring, patient rows
are pooled with weight 1, and the t-test runs on the decrypted sums.
Sums of squares (needed for variances) reuse the same machinery over an
element-wise-squared copy of the matrix - a standard trick that keeps
every NDP operation linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.device import UntrustedNdpDevice
from ..core.protocol import SecNDPProcessor
from ..errors import ConfigurationError
from .datasets import GeneExpressionData
from .quantization import FixedPointCodec

__all__ = ["TTestResult", "welch_t_test", "SecureGeneDatabase"]


@dataclass(frozen=True)
class TTestResult:
    """Two-sample (Welch) t-test summary for one gene."""

    t_statistic: float
    dof: float
    mean_case: float
    mean_control: float

    @property
    def significant_at_3sigma(self) -> bool:
        return abs(self.t_statistic) > 3.0


def welch_t_test(
    sum_a: float, sumsq_a: float, n_a: int,
    sum_b: float, sumsq_b: float, n_b: int,
) -> TTestResult:
    """Welch's t-test from group sums and sums of squares.

    Using only (sum, sum of squares, count) is what makes the test
    computable from NDP summation results alone.
    """
    if n_a < 2 or n_b < 2:
        raise ConfigurationError("need at least two samples per group")
    mean_a = sum_a / n_a
    mean_b = sum_b / n_b
    var_a = max((sumsq_a - n_a * mean_a**2) / (n_a - 1), 0.0)
    var_b = max((sumsq_b - n_b * mean_b**2) / (n_b - 1), 0.0)
    se = math.sqrt(var_a / n_a + var_b / n_b)
    if se == 0.0:
        t = 0.0 if mean_a == mean_b else math.inf
        dof = float(n_a + n_b - 2)
    else:
        t = (mean_a - mean_b) / se
        num = (var_a / n_a + var_b / n_b) ** 2
        den = (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        dof = num / den if den > 0 else float(n_a + n_b - 2)
    return TTestResult(t, dof, mean_a, mean_b)


class SecureGeneDatabase:
    """Gene-expression DB queried through the SecNDP protocol.

    Stores two encrypted matrices - the fixed-point expression values and
    their element-wise squares - so both first and second moments are
    available as verified linear queries.
    """

    REGION = "gene-db"
    REGION_SQ = "gene-db-sq"

    def __init__(
        self,
        data: GeneExpressionData,
        processor: SecNDPProcessor,
        device: UntrustedNdpDevice,
        codec: Optional[FixedPointCodec] = None,
        base_addr: int = 0x100000,
        verify: bool = True,
    ):
        self.data = data
        self.processor = processor
        self.device = device
        self.verify = verify
        self.codec = codec or FixedPointCodec(frac_bits=8)
        ring = processor.ring

        fixed = self.codec.quantize(data.expression)
        # Squares are stored at half the fractional precision so their
        # integer range matches the same ring width.
        self.sq_codec = FixedPointCodec(
            frac_bits=self.codec.frac_bits, total_bits=self.codec.total_bits
        )
        fixed_sq = self.sq_codec.quantize(data.expression**2)

        if np.any(fixed < 0) or np.any(fixed_sq < 0):
            raise ConfigurationError("expression values must be non-negative")

        enc = processor.encrypt_matrix(
            ring.encode(fixed), base_addr, self.REGION, with_tags=verify
        )
        device.store(self.REGION, enc)
        sq_base = base_addr + 2 * fixed.size * processor.params.element_bytes
        sq_base = -(-sq_base // 16) * 16
        enc_sq = processor.encrypt_matrix(
            ring.encode(fixed_sq), sq_base, self.REGION_SQ, with_tags=verify
        )
        device.store(self.REGION_SQ, enc_sq)

    # -- queries --------------------------------------------------------------

    def group_sum(self, patient_ids: Sequence[int]) -> np.ndarray:
        """Verified NDP summation of the patients' expression vectors."""
        ones = [1] * len(patient_ids)
        res = self.processor.weighted_row_sum(
            self.device, self.REGION, list(patient_ids), ones, verify=self.verify
        )
        return self.codec.dequantize(res.values.astype(np.int64))

    def group_sum_squares(self, patient_ids: Sequence[int]) -> np.ndarray:
        ones = [1] * len(patient_ids)
        res = self.processor.weighted_row_sum(
            self.device, self.REGION_SQ, list(patient_ids), ones, verify=self.verify
        )
        return self.sq_codec.dequantize(res.values.astype(np.int64))

    def t_test(self, gene: int) -> TTestResult:
        """Case-vs-control Welch t-test for one gene, via secure sums."""
        case_ids = np.flatnonzero(self.data.is_case)
        ctrl_ids = np.flatnonzero(~self.data.is_case)
        sums_case = self.group_sum(case_ids)
        sums_ctrl = self.group_sum(ctrl_ids)
        sq_case = self.group_sum_squares(case_ids)
        sq_ctrl = self.group_sum_squares(ctrl_ids)
        return welch_t_test(
            float(sums_case[gene]), float(sq_case[gene]), len(case_ids),
            float(sums_ctrl[gene]), float(sq_ctrl[gene]), len(ctrl_ids),
        )
