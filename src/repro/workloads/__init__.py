"""Evaluation workloads: DLRM recommendation inference and medical analytics."""

from .analytics import SecureGeneDatabase, TTestResult, welch_t_test
from .datasets import (
    ClickDataset,
    GeneExpressionData,
    click_dataset,
    gene_expression,
)
from .dlrm import RMC_CONFIGS, DlrmConfig, DlrmModel
from .embedding import EmbeddingTable, sls, sls_weighted
from .perf import analytics_workload, sls_workload
from .secure_sls import SecureEmbeddingStore
from .quantization import (
    ColumnwiseQuantizer,
    FixedPointCodec,
    RowwiseQuantizer,
    TablewiseQuantizer,
)
from .traces import SlsTrace, analytics_trace, production_trace, random_trace

__all__ = [
    "SecureGeneDatabase",
    "TTestResult",
    "welch_t_test",
    "ClickDataset",
    "GeneExpressionData",
    "click_dataset",
    "gene_expression",
    "RMC_CONFIGS",
    "DlrmConfig",
    "DlrmModel",
    "EmbeddingTable",
    "sls",
    "sls_weighted",
    "analytics_workload",
    "sls_workload",
    "SecureEmbeddingStore",
    "ColumnwiseQuantizer",
    "FixedPointCodec",
    "RowwiseQuantizer",
    "TablewiseQuantizer",
    "SlsTrace",
    "analytics_trace",
    "production_trace",
    "random_trace",
]
