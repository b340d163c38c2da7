"""Embedding tables and the SparseLengths(Weighted)Sum operation.

DLRM's categorical features are looked up in large embedding tables and
pooled: an SLS query carries ``PF`` row indices and weights, and produces
``res_j = sum_k a_k * P_{i_k, j}`` (paper Fig. 6).  This module is the
*functional* embedding substrate: tables as NumPy arrays, plain and
weighted pooling, and the fixed-point view SecNDP computes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["EmbeddingTable", "sls", "sls_weighted"]


@dataclass
class EmbeddingTable:
    """One embedding table of shape ``(n_rows, dim)``.

    ``values`` may be float32 (reference model) or an integer dtype
    (quantized / fixed-point operation).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ConfigurationError("embedding table must be 2-D")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def row_bytes(self) -> int:
        return self.dim * self.values.dtype.itemsize

    def lookup(self, rows: Sequence[int]) -> np.ndarray:
        return self.values[np.asarray(rows, dtype=np.int64)]


def sls(table: EmbeddingTable, rows: Sequence[int]) -> np.ndarray:
    """SparseLengthsSum: unweighted pooling of the given rows."""
    return table.lookup(rows).sum(axis=0)


def sls_weighted(
    table: EmbeddingTable,
    rows: Sequence[int],
    weights: Sequence[float],
) -> np.ndarray:
    """SparseLengthsWeightedSum: ``sum_k a_k * P[i_k]``."""
    rows = np.asarray(rows, dtype=np.int64)
    weights = np.asarray(weights)
    if rows.shape[0] != weights.shape[0]:
        raise ConfigurationError("rows and weights must have equal length")
    gathered = table.values[rows]
    return (weights[:, None] * gathered).sum(axis=0)
