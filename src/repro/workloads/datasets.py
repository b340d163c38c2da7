"""Synthetic datasets standing in for the paper's proprietary data.

The paper's accuracy study (Table IV) uses a production recommendation
model and a production CTR dataset; its analytics workload uses private
gene-expression data (UK-Biobank-like).  Neither is available, so we
generate synthetic equivalents whose *structure* matches what the
experiments exercise:

* :func:`click_dataset` - a planted-model click-through dataset: labels
  are drawn from a ground-truth DLRM-like scorer over random dense and
  categorical features, so a trained model achieves a non-trivial
  LogLoss and quantization perturbs it measurably.
* :func:`gene_expression` - patient x gene expression levels with a
  disease-associated subset of genes shifted for case patients, so
  group-mean differences and t-statistics are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigurationError

__all__ = ["ClickDataset", "click_dataset", "GeneExpressionData", "gene_expression"]


@dataclass
class ClickDataset:
    """Synthetic CTR data: dense features, per-table row indices, labels."""

    dense: np.ndarray                      #: (n, dense_dim) float
    sparse_rows: List[List[List[int]]]     #: [sample][table] -> row indices
    labels: np.ndarray                     #: (n,) {0,1}

    @property
    def n_samples(self) -> int:
        return len(self.labels)


def click_dataset(
    n_samples: int,
    n_tables: int,
    rows_per_table: int,
    dense_dim: int = 16,
    pooling_factor: int = 4,
    seed: int = 0,
) -> ClickDataset:
    """Planted-model CTR dataset.

    A hidden scorer combines a random linear model on the dense features
    with random per-row utilities for the categorical features; labels
    are Bernoulli draws from the sigmoid of the hidden score.  Trained
    models therefore have real signal to fit, and the achievable LogLoss
    sits in the realistic 0.5-0.7 band.
    """
    if min(n_samples, n_tables, rows_per_table, pooling_factor) < 1:
        raise ConfigurationError("dataset dimensions must be positive")
    rng = np.random.default_rng(seed)
    dense = rng.normal(0, 1, size=(n_samples, dense_dim))
    dense_w = rng.normal(0, 0.7 / np.sqrt(dense_dim), size=dense_dim)
    row_utility = [
        rng.normal(0, 0.4, size=rows_per_table) for _ in range(n_tables)
    ]
    sparse_rows: List[List[List[int]]] = []
    score = dense @ dense_w
    for s in range(n_samples):
        per_table = []
        for t in range(n_tables):
            rows = rng.integers(0, rows_per_table, size=pooling_factor)
            per_table.append([int(r) for r in rows])
            score[s] += row_utility[t][rows].mean()
        sparse_rows.append(per_table)
    prob = 1.0 / (1.0 + np.exp(-score))
    labels = (rng.random(n_samples) < prob).astype(np.float64)
    return ClickDataset(dense=dense, sparse_rows=sparse_rows, labels=labels)


@dataclass
class GeneExpressionData:
    """Patient x gene expression matrix with case/control labels."""

    expression: np.ndarray     #: (n_patients, n_genes) float, non-negative
    is_case: np.ndarray        #: (n_patients,) bool
    disease_genes: np.ndarray  #: indices of genes shifted in cases

    @property
    def n_patients(self) -> int:
        return self.expression.shape[0]

    @property
    def n_genes(self) -> int:
        return self.expression.shape[1]


def gene_expression(
    n_patients: int,
    n_genes: int,
    n_disease_genes: int = 16,
    effect_size: float = 1.5,
    case_fraction: float = 0.3,
    seed: int = 0,
) -> GeneExpressionData:
    """Synthetic expression data with a planted disease signal.

    Expression levels are log-normal-ish (non-negative, right-skewed);
    case patients have ``disease_genes`` shifted upward by
    ``effect_size`` standard deviations so two-sample t-tests on those
    genes reject and on others do not.
    """
    if n_disease_genes > n_genes:
        raise ConfigurationError("more disease genes than genes")
    rng = np.random.default_rng(seed)
    base = rng.gamma(shape=4.0, scale=2.0, size=(n_patients, n_genes))
    is_case = rng.random(n_patients) < case_fraction
    disease_genes = rng.choice(n_genes, size=n_disease_genes, replace=False)
    shift = effect_size * base[:, disease_genes].std(axis=0)
    base[np.ix_(is_case, disease_genes)] += shift
    return GeneExpressionData(
        expression=base, is_case=is_case, disease_genes=np.sort(disease_genes)
    )
