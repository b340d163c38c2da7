"""Deep Learning Recommendation Model (DLRM) - functional model + Table I configs.

The paper evaluates four representative DLRM configurations (Table I)::

    name        bottom FC     top FC      #Emb  total Emb. size
    RMC1-small  256-128-32    256-64-1      8    1   GB
    RMC1-large  256-128-32    256-64-1     12    1.5 GB
    RMC2-small  256-128-32    256-128-1    24    3   GB
    RMC2-large  256-128-32    256-128-1    64    8   GB

with 32-element embedding rows.  The embedding-lookup (SLS) portion is
offloaded to NDP; the MLPs run on the CPU TEE.  This module provides:

* :class:`DlrmConfig` - the Table I parameter sets (full scale) plus a
  ``scaled`` constructor for laptop-size simulation with identical
  geometry *shape*;
* :class:`DlrmModel` - a NumPy implementation (bottom MLP, embedding
  pooling, dot-product feature interaction, top MLP, sigmoid) with
  mini-batch SGD training - enough to measure LogLoss deltas between
  quantization schemes (Table IV);
* FLOP accounting used by the end-to-end CPU-portion model (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .embedding import EmbeddingTable

__all__ = ["DlrmConfig", "RMC_CONFIGS", "DlrmModel"]

EMBEDDING_DIM = 32
BYTES_PER_FP32 = 4


@dataclass(frozen=True)
class DlrmConfig:
    """One Table I row (or a scaled-down version of it).

    ``bottom_mlp`` and ``top_mlp`` follow the paper's layer-chain notation:
    "256-128-32" means a 256-wide input, one 128-wide hidden layer, and a
    32-wide output.  The bottom chain's input is the dense-feature width
    and its output must match the embedding dimension (dot interaction);
    the top chain's nominal input is the post-interaction feature width.
    """

    name: str
    bottom_mlp: Tuple[int, ...]      #: full layer chain incl. input width
    top_mlp: Tuple[int, ...]         #: full layer chain incl. input width (last = 1)
    n_tables: int
    rows_per_table: int
    embedding_dim: int = EMBEDDING_DIM

    def __post_init__(self) -> None:
        if len(self.bottom_mlp) < 2 or len(self.top_mlp) < 2:
            raise ConfigurationError("MLP chains need an input and an output width")
        if self.top_mlp[-1] != 1:
            raise ConfigurationError("top MLP must end in a single logit")
        if min(self.n_tables, self.rows_per_table, self.embedding_dim) < 1:
            raise ConfigurationError("invalid DLRM geometry")
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ConfigurationError(
                "dot interaction requires bottom_mlp[-1] == embedding_dim "
                f"({self.bottom_mlp[-1]} != {self.embedding_dim})"
            )

    @property
    def dense_dim(self) -> int:
        """Width of the dense-feature input (the bottom chain's input)."""
        return self.bottom_mlp[0]

    @property
    def total_embedding_bytes(self) -> int:
        return (
            self.n_tables
            * self.rows_per_table
            * self.embedding_dim
            * BYTES_PER_FP32
        )

    def scaled(self, rows_per_table: int) -> "DlrmConfig":
        """Same architecture with smaller tables (simulation scaling knob)."""
        return replace(self, rows_per_table=rows_per_table)

    # -- FLOP accounting (CPU-TEE portion of the end-to-end model) -----------

    def mlp_flops_per_sample(self) -> int:
        """Multiply-accumulate FLOPs of both MLPs for one sample.

        Uses the configured chains directly (the paper's notation fixes
        the top input width at 256, independent of table count), plus the
        pairwise-dot interaction cost which does grow with table count.
        """
        flops = 0
        for a, b in zip(self.bottom_mlp[:-1], self.bottom_mlp[1:]):
            flops += 2 * a * b
        n_vec = self.n_tables + 1
        n_pairs = n_vec * (n_vec - 1) // 2
        flops += 2 * n_pairs * self.embedding_dim
        for a, b in zip(self.top_mlp[:-1], self.top_mlp[1:]):
            flops += 2 * a * b
        return flops


def _rows_for_size(total_bytes: int, n_tables: int) -> int:
    return total_bytes // (n_tables * EMBEDDING_DIM * BYTES_PER_FP32)


#: The Table I configurations at full (paper) scale.
RMC_CONFIGS: Dict[str, DlrmConfig] = {
    "RMC1-small": DlrmConfig(
        "RMC1-small", (256, 128, 32), (256, 64, 1), 8, _rows_for_size(1 << 30, 8)
    ),
    "RMC1-large": DlrmConfig(
        "RMC1-large", (256, 128, 32), (256, 64, 1), 12,
        _rows_for_size(3 << 29, 12),  # 1.5 GB
    ),
    "RMC2-small": DlrmConfig(
        "RMC2-small", (256, 128, 32), (256, 128, 1), 24, _rows_for_size(3 << 30, 24)
    ),
    "RMC2-large": DlrmConfig(
        "RMC2-large", (256, 128, 32), (256, 128, 1), 64, _rows_for_size(8 << 30, 64)
    ),
}


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


class DlrmModel:
    """NumPy DLRM: dense MLP + embedding pooling + interaction + top MLP."""

    def __init__(self, config: DlrmConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.tables: List[EmbeddingTable] = [
            EmbeddingTable(
                rng.normal(
                    0.0, 0.1, size=(config.rows_per_table, config.embedding_dim)
                ).astype(np.float32)
            )
            for _ in range(config.n_tables)
        ]
        self.bottom_weights = self._init_mlp(
            rng, config.bottom_mlp[0], config.bottom_mlp[1:]
        )
        # The functional top MLP takes the *actual* interaction width
        # (bottom output + pairwise dots); the configured top_mlp[0] is the
        # paper's nominal input width, used only for FLOP accounting.
        n_vec = config.n_tables + 1
        n_pairs = n_vec * (n_vec - 1) // 2
        top_in = config.bottom_mlp[-1] + n_pairs
        self.top_weights = self._init_mlp(rng, top_in, config.top_mlp[1:])

    @staticmethod
    def _init_mlp(
        rng: np.random.Generator, in_dim: int, widths: Sequence[int]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        layers = []
        prev = in_dim
        for width in widths:
            scale = np.sqrt(2.0 / prev)
            layers.append(
                (
                    rng.normal(0.0, scale, size=(prev, width)).astype(np.float64),
                    np.zeros(width, dtype=np.float64),
                )
            )
            prev = width
        return layers

    # -- forward ------------------------------------------------------------------

    @staticmethod
    def _mlp_forward(
        layers: List[Tuple[np.ndarray, np.ndarray]],
        x: np.ndarray,
        final_linear: bool,
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        activations = [x]
        for idx, (w, b) in enumerate(layers):
            x = x @ w + b
            if not (final_linear and idx == len(layers) - 1):
                x = _relu(x)
            activations.append(x)
        return x, activations

    def pooled_embeddings(
        self,
        sparse_rows: Sequence[Sequence[Sequence[int]]],
        sparse_weights: Optional[Sequence[Sequence[Sequence[float]]]] = None,
        pooled_override: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pool each table's rows per sample -> (batch, n_tables, dim).

        ``pooled_override`` lets callers substitute externally computed
        pooled vectors (e.g. produced by the SecNDP protocol or by a
        quantized table) while keeping the rest of the model identical -
        this is how the accuracy experiment isolates the embedding
        precision change.
        """
        if pooled_override is not None:
            return np.asarray(pooled_override, dtype=np.float64)
        batch = len(sparse_rows)
        cfg = self.config
        out = np.zeros((batch, cfg.n_tables, cfg.embedding_dim), dtype=np.float64)
        for s in range(batch):
            for t in range(cfg.n_tables):
                rows = np.asarray(sparse_rows[s][t], dtype=np.int64)
                gathered = self.tables[t].values[rows].astype(np.float64)
                if sparse_weights is not None:
                    w = np.asarray(sparse_weights[s][t], dtype=np.float64)[:, None]
                    out[s, t] = (gathered * w).sum(axis=0)
                else:
                    out[s, t] = gathered.sum(axis=0)
        return out

    def forward(
        self,
        dense: np.ndarray,
        sparse_rows: Sequence[Sequence[Sequence[int]]],
        sparse_weights: Optional[Sequence] = None,
        pooled_override: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predicted click probability per sample."""
        bottom_out, _ = self._mlp_forward(
            self.bottom_weights, np.asarray(dense, dtype=np.float64), False
        )
        pooled = self.pooled_embeddings(sparse_rows, sparse_weights, pooled_override)
        interacted = self._interact(bottom_out, pooled)
        logit, _ = self._mlp_forward(self.top_weights, interacted, True)
        return _sigmoid(logit[:, 0])

    def _interact(self, bottom_out: np.ndarray, pooled: np.ndarray) -> np.ndarray:
        """Dot-product feature interaction (DLRM's 'dot' mode)."""
        batch = bottom_out.shape[0]
        vectors = np.concatenate([bottom_out[:, None, :], pooled], axis=1)
        gram = np.einsum("bid,bjd->bij", vectors, vectors)
        n_vec = vectors.shape[1]
        iu = np.triu_indices(n_vec, k=1)
        pairs = gram[:, iu[0], iu[1]]
        return np.concatenate([bottom_out, pairs], axis=1)

    # -- training -------------------------------------------------------------------

    def train(
        self,
        dense: np.ndarray,
        sparse_rows: Sequence,
        labels: np.ndarray,
        epochs: int = 3,
        lr: float = 0.05,
        batch_size: int = 128,
        seed: int = 0,
    ) -> float:
        """Mini-batch SGD on binary cross-entropy.

        Backprop covers both MLPs and the embedding rows touched by each
        batch.  Returns the final training LogLoss.  The implementation
        favours clarity over speed: the accuracy experiment trains a
        small-scale model.
        """
        rng = np.random.default_rng(seed)
        n = len(labels)
        dense = np.asarray(dense, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        final_loss = float("inf")
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch_idx = order[start : start + batch_size]
                final_loss = self._sgd_step(
                    dense[batch_idx],
                    [sparse_rows[i] for i in batch_idx],
                    labels[batch_idx],
                    lr,
                )
        return final_loss

    def _sgd_step(
        self,
        dense: np.ndarray,
        sparse_rows: Sequence,
        labels: np.ndarray,
        lr: float,
    ) -> float:
        batch = dense.shape[0]
        cfg = self.config

        # Forward with cached activations.
        bottom_out, bottom_acts = self._mlp_forward(self.bottom_weights, dense, False)
        pooled = self.pooled_embeddings(sparse_rows)
        vectors = np.concatenate([bottom_out[:, None, :], pooled], axis=1)
        gram = np.einsum("bid,bjd->bij", vectors, vectors)
        n_vec = vectors.shape[1]
        iu = np.triu_indices(n_vec, k=1)
        pairs = gram[:, iu[0], iu[1]]
        top_in = np.concatenate([bottom_out, pairs], axis=1)
        logit, top_acts = self._mlp_forward(self.top_weights, top_in, True)
        pred = _sigmoid(logit[:, 0])

        eps = 1e-12
        loss = -np.mean(
            labels * np.log(pred + eps) + (1 - labels) * np.log(1 - pred + eps)
        )

        # Backward: BCE + sigmoid gives (pred - label) at the logit.
        grad = ((pred - labels) / batch)[:, None]
        grad_top_in = self._mlp_backward(self.top_weights, top_acts, grad, True, lr)

        d_bottom = grad_top_in[:, : cfg.bottom_mlp[-1]].copy()
        d_pairs = grad_top_in[:, cfg.bottom_mlp[-1] :]

        # Interaction backward: d(gram[i,j]) flows to both vectors.
        d_vectors = np.zeros_like(vectors)
        for p, (i, j) in enumerate(zip(iu[0], iu[1])):
            gp = d_pairs[:, p][:, None]
            d_vectors[:, i] += gp * vectors[:, j]
            d_vectors[:, j] += gp * vectors[:, i]
        d_bottom += d_vectors[:, 0]

        # Embedding-row updates.
        for s in range(batch):
            for t in range(cfg.n_tables):
                rows = np.asarray(sparse_rows[s][t], dtype=np.int64)
                update = lr * d_vectors[s, t + 1]
                self.tables[t].values[rows] -= update.astype(np.float32)

        self._mlp_backward(self.bottom_weights, bottom_acts, d_bottom, False, lr)
        return float(loss)

    @staticmethod
    def _mlp_backward(
        layers: List[Tuple[np.ndarray, np.ndarray]],
        activations: List[np.ndarray],
        grad_out: np.ndarray,
        final_linear: bool,
        lr: float,
    ) -> np.ndarray:
        grad = grad_out
        for idx in range(len(layers) - 1, -1, -1):
            w, b = layers[idx]
            is_last = idx == len(layers) - 1
            post = activations[idx + 1]
            if not (final_linear and is_last):
                grad = grad * (post > 0)
            pre = activations[idx]
            gw = pre.T @ grad
            gb = grad.sum(axis=0)
            grad = grad @ w.T
            layers[idx] = (w - lr * gw, b - lr * gb)
        return grad

    # -- evaluation --------------------------------------------------------------------

    def logloss(
        self,
        dense: np.ndarray,
        sparse_rows: Sequence,
        labels: np.ndarray,
        pooled_override: Optional[np.ndarray] = None,
    ) -> float:
        pred = self.forward(dense, sparse_rows, pooled_override=pooled_override)
        eps = 1e-12
        labels = np.asarray(labels, dtype=np.float64)
        return float(
            -np.mean(
                labels * np.log(pred + eps) + (1 - labels) * np.log(1 - pred + eps)
            )
        )
