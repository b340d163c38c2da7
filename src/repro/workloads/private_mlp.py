"""Private MLP inference over SecNDP - the GEMV generality claim.

The paper's running primitive is a non-private vector times a *private*
matrix (Sec. IV-A: "machine learning inference using private models",
models as "the service provider's IP").  This module builds that use
case end to end: an MLP whose weight matrices live arithmetically
encrypted in untrusted memory, with every layer's ``x @ W`` evaluated as
verified weighted row summations (row ``i`` of ``W`` weighted by
``x_i``), quantized the same way the DLRM path quantizes embeddings.

The activation vector is the TEE's (non-private per the threat model:
weights are the secret); the weights never leave memory in plaintext,
and any tampering with them - or with the NDP's partial products - is
caught by the tag check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.device import UntrustedNdpDevice
from ..core.protocol import SecNDPProcessor
from ..errors import ConfigurationError
from .secure_sls import SecureEmbeddingStore

__all__ = ["PrivateMlp"]

#: activations are quantized to this many levels per unit interval
ACTIVATION_SCALE = 64


@dataclass
class _Layer:
    name: str
    in_dim: int
    out_dim: int
    bias: np.ndarray


class PrivateMlp:
    """An MLP whose weights are SecNDP-encrypted in untrusted memory.

    Layers are dense ``in_dim x out_dim`` float matrices; biases stay on
    the trusted side (they are tiny and used once per layer).  Forward
    evaluation quantizes the activation vector to non-negative integers
    (shift-and-scale), runs the weighted row summation over ciphertext,
    and undoes the affine maps exactly - so the only error vs. float
    inference is the two quantizations, which the tests bound.
    """

    def __init__(
        self,
        processor: SecNDPProcessor,
        device: UntrustedNdpDevice,
        quantization: str = "column",
        verify: bool = True,
    ):
        self.store = SecureEmbeddingStore(
            processor, device, quantization=quantization, verify=verify
        )
        self.layers: List[_Layer] = []
        # Column sums of the dequantized weights, needed to undo the
        # activation shift; computed once per layer at load time (they
        # are derivable on the trusted side and leak nothing new).
        self._colsums: dict = {}

    # -- construction ------------------------------------------------------------

    def add_layer(self, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ConfigurationError("layer weights must be 2-D (in_dim x out_dim)")
        if self.layers and weights.shape[0] != self.layers[-1].out_dim:
            raise ConfigurationError(
                f"layer input {weights.shape[0]} does not match previous "
                f"output {self.layers[-1].out_dim}"
            )
        bias = (
            np.zeros(weights.shape[1])
            if bias is None
            else np.asarray(bias, dtype=np.float64)
        )
        if bias.shape != (weights.shape[1],):
            raise ConfigurationError("bias shape mismatch")
        name = f"layer{len(self.layers)}"
        self.store.add_table(name, weights)
        self.layers.append(
            _Layer(name=name, in_dim=weights.shape[0], out_dim=weights.shape[1],
                   bias=bias)
        )
        self._colsums[name] = self.store.dequantized_table(name).sum(axis=0)

    # -- inference ----------------------------------------------------------------

    @staticmethod
    def _quantize_activations(x: np.ndarray) -> Tuple[np.ndarray, float, float]:
        """Map activations to non-negative integers: ``q = round((x-lo)*s)``.

        Non-negativity is required by the protocol (ring residues); the
        shift is undone exactly using the column sums of the weights,
        which the trusted side can reconstruct from one extra secure
        query with all-ones weights... but cheaper: fold the shift into
        the result using the same secure dot product with q == s*lo.
        """
        lo = float(np.min(x))
        q = np.rint((x - lo) * ACTIVATION_SCALE).astype(np.int64)
        return q, lo, float(ACTIVATION_SCALE)

    def _secure_matvec(self, layer: _Layer, x: np.ndarray) -> np.ndarray:
        """``x @ W`` with W encrypted: weighted sum of W's rows by q_i,
        then exact affine correction for the activation quantization."""
        if x.shape != (layer.in_dim,):
            raise ConfigurationError(
                f"activation dim {x.shape} != layer input ({layer.in_dim},)"
            )
        q, lo, scale = self._quantize_activations(x)
        rows = list(range(layer.in_dim))
        pooled = self.store.sls_split(layer.name, rows, [int(v) for v in q])
        # pooled = sum_i q_i * W[i]; undo q = (x - lo) * scale:
        #   x @ W = pooled / scale + lo * colsum(W)
        return pooled / scale + lo * self._colsums[layer.name]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network on one input vector (ReLU between layers)."""
        if not self.layers:
            raise ConfigurationError("no layers added")
        h = np.asarray(x, dtype=np.float64)
        for idx, layer in enumerate(self.layers):
            h = self._secure_matvec(layer, h) + layer.bias
            if idx < len(self.layers) - 1:
                h = np.maximum(h, 0.0)
        return h

    def forward_plaintext(self, x: np.ndarray) -> np.ndarray:
        """Reference path over the *dequantized* weights (isolates the
        activation-quantization error from the weight-quantization error)."""
        h = np.asarray(x, dtype=np.float64)
        for idx, layer in enumerate(self.layers):
            w = self.store.dequantized_table(layer.name)
            h = h @ w + layer.bias
            if idx < len(self.layers) - 1:
                h = np.maximum(h, 0.0)
        return h
