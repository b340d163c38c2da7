"""Quantization-accuracy experiment - reproduces Table IV.

Table IV reports LogLoss on a production recommendation model under four
embedding precisions: fp32, 32-bit fixed point, 8-bit table-wise, and
8-bit column-wise quantization.  The production model and dataset are not
available, so (per the substitution policy in DESIGN.md) we train a
small-scale DLRM on a planted-signal synthetic CTR dataset and evaluate
the same four precision settings on a held-out split, isolating the
precision change by overriding only the pooled-embedding inputs.

Expected shape (the paper's finding): fixed-32 is bit-near fp32;
both 8-bit schemes degrade LogLoss by well under 0.1%, with column-wise
at or below table-wise degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..parallel import parallel_map
from ..workloads.datasets import click_dataset
from ..workloads.dlrm import DlrmConfig, DlrmModel
from ..workloads.quantization import (
    ColumnwiseQuantizer,
    FixedPointCodec,
    RowwiseQuantizer,
    TablewiseQuantizer,
)

__all__ = ["AccuracyReport", "quantization_accuracy"]

SCHEMES = [
    "32-bit floating point",
    "32-bit fixed point",
    "table-wise quantization (8-bit)",
    "column-wise quantization (8-bit)",
    "row-wise quantization (8-bit)",
]


@dataclass(frozen=True)
class AccuracyReport:
    """LogLoss per precision scheme plus degradations vs fp32."""

    logloss: Dict[str, float]

    def degradation(self, scheme: str) -> float:
        base = self.logloss["32-bit floating point"]
        return self.logloss[scheme] - base

    def degradation_pct(self, scheme: str) -> float:
        base = self.logloss["32-bit floating point"]
        return 100.0 * (self.logloss[scheme] - base) / base

    def rows(self) -> List[tuple]:
        return [
            (name, self.logloss[name], self.degradation(name))
            for name in SCHEMES
            if name in self.logloss
        ]


def _pooled_from_tables(
    model: DlrmModel, tables: List[np.ndarray], sparse_rows
) -> np.ndarray:
    """Pool per-sample embeddings from externally supplied table values."""
    cfg = model.config
    batch = len(sparse_rows)
    out = np.zeros((batch, cfg.n_tables, cfg.embedding_dim), dtype=np.float64)
    for s in range(batch):
        for t in range(cfg.n_tables):
            rows = np.asarray(sparse_rows[s][t], dtype=np.int64)
            out[s, t] = tables[t][rows].sum(axis=0)
    return out


def _scheme_logloss(item):
    """Evaluate one precision scheme; must stay picklable.

    Each cell re-quantizes the (small) fp32 tables itself so the items
    stay light: shipping the trained model once per scheme is cheaper
    than shipping five sets of dequantized tables.
    """
    scheme, model, fp32_tables, dense_eval, rows_eval, labels_eval = item
    if scheme == "32-bit floating point":
        return scheme, model.logloss(dense_eval, rows_eval, labels_eval)
    if scheme == "32-bit fixed point":
        codec = FixedPointCodec(frac_bits=16)
        tables = [codec.dequantize(codec.quantize(t)) for t in fp32_tables]
    elif scheme == "table-wise quantization (8-bit)":
        tw = TablewiseQuantizer()
        tables = [tw.dequantize(*tw.quantize(t)) for t in fp32_tables]
    elif scheme == "column-wise quantization (8-bit)":
        cw = ColumnwiseQuantizer()
        tables = [cw.dequantize(*cw.quantize(t)) for t in fp32_tables]
    else:
        rw = RowwiseQuantizer()
        tables = [rw.dequantize(*rw.quantize(t)) for t in fp32_tables]
    loss = model.logloss(
        dense_eval,
        rows_eval,
        labels_eval,
        pooled_override=_pooled_from_tables(model, tables, rows_eval),
    )
    return scheme, loss


def quantization_accuracy(
    n_tables: int = 4,
    rows_per_table: int = 512,
    n_train: int = 4000,
    n_eval: int = 2000,
    epochs: int = 15,
    lr: float = 0.1,
    seed: int = 7,
    include_rowwise: bool = True,
    workers: Optional[int] = None,
) -> AccuracyReport:
    """Train a small DLRM and measure LogLoss under each precision scheme."""
    config = DlrmConfig(
        name="accuracy-dlrm",
        bottom_mlp=(16, 32, 8),  # chain output must equal embedding_dim
        top_mlp=(64, 32, 1),
        n_tables=n_tables,
        rows_per_table=rows_per_table,
        embedding_dim=8,
    )
    data = click_dataset(
        n_train + n_eval, n_tables, rows_per_table, dense_dim=16, seed=seed
    )
    model = DlrmModel(config, seed=seed)
    model.train(
        data.dense[:n_train],
        data.sparse_rows[:n_train],
        data.labels[:n_train],
        epochs=epochs,
        lr=lr,
        seed=seed,
    )

    dense_eval = data.dense[n_train:]
    rows_eval = data.sparse_rows[n_train:]
    labels_eval = data.labels[n_train:]

    fp32_tables = [t.values.astype(np.float64) for t in model.tables]
    schemes = [s for s in SCHEMES if include_rowwise or "row-wise" not in s]
    cells = parallel_map(
        _scheme_logloss,
        [
            (scheme, model, fp32_tables, dense_eval, rows_eval, labels_eval)
            for scheme in schemes
        ],
        workers=workers,
    )
    return AccuracyReport(logloss=dict(cells))
