#!/usr/bin/env python
"""Secure DLRM inference: embedding lookups offloaded through SecNDP.

Reproduces the paper's primary use case (Sec. VI-A (1)): the MLPs of a
recommendation model run on the trusted CPU while the bandwidth-hungry
SparseLengthsWeightedSum over private embedding tables is offloaded to
untrusted NDP, under 8-bit table-wise quantization (the scheme the paper
proposes so pooling can run directly over ciphertext).

The script checks end-to-end that predictions through the secure path
match the quantized plaintext model exactly, then reports the predicted
architectural speedup of the offload from the cycle-level simulator.

Run:  python examples/dlrm_inference.py
"""

import numpy as np

from repro.baselines import run_non_ndp
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.ndp import AesEngineModel, NdpConfig, NdpSimulator, TagScheme
from repro.workloads import (
    DlrmConfig,
    DlrmModel,
    TablewiseQuantizer,
    click_dataset,
    random_trace,
    sls_workload,
)

KEY = b"secret-dlrm-key!"
BATCH = 8


def secure_pooled_embeddings(model, processor, device, quantizers, sparse_rows):
    """Pool every (sample, table) lookup through the SecNDP protocol."""
    cfg = model.config
    pooled = np.zeros((len(sparse_rows), cfg.n_tables, cfg.embedding_dim))
    for s, per_table in enumerate(sparse_rows):
        for t, rows in enumerate(per_table):
            weights = [1] * len(rows)
            res = processor.weighted_row_sum(
                device, f"table{t}", rows, weights, verify=True
            )
            scale, bias = quantizers[t]
            pooled[s, t] = res.values.astype(np.float64) * scale + bias * len(rows)
    return pooled


def main() -> None:
    # -- a small DLRM + synthetic CTR traffic ---------------------------------
    config = DlrmConfig(
        "demo", (16, 32, 8), (64, 32, 1), n_tables=4, rows_per_table=256,
        embedding_dim=8,
    )
    model = DlrmModel(config, seed=0)
    data = click_dataset(BATCH, config.n_tables, config.rows_per_table,
                         dense_dim=16, seed=0)

    # -- quantize tables (8-bit table-wise) and encrypt them ------------------
    params = SecNDPParams(element_bits=32)  # pooled sums stay in 32-bit ring
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    tw = TablewiseQuantizer()
    quantizers = []
    addr = 0x10_0000
    for t, table in enumerate(model.tables):
        q, scale, bias = tw.quantize(table.values)
        enc = processor.encrypt_matrix(
            q.astype(np.uint32), addr, f"table{t}", with_tags=True
        )
        device.store(f"table{t}", enc)
        quantizers.append((scale, bias))
        addr += 2 * q.size * 4

    # -- secure inference ------------------------------------------------------
    pooled_secure = secure_pooled_embeddings(
        model, processor, device, quantizers, data.sparse_rows
    )
    pred_secure = model.forward(
        data.dense, data.sparse_rows, pooled_override=pooled_secure
    )

    # -- reference: quantized plaintext pooling --------------------------------
    pooled_plain = np.zeros_like(pooled_secure)
    for s, per_table in enumerate(data.sparse_rows):
        for t, rows in enumerate(per_table):
            q, scale, bias = tw.quantize(model.tables[t].values)
            pooled_plain[s, t] = (
                q[rows].astype(np.float64).sum(axis=0) * scale + bias * len(rows)
            )
    pred_plain = model.forward(
        data.dense, data.sparse_rows, pooled_override=pooled_plain
    )

    assert np.allclose(pred_secure, pred_plain), "secure path diverged!"
    print(f"secure predictions match quantized plaintext for all {BATCH} samples")
    print("  first three CTR estimates:", np.round(pred_secure[:3], 4).tolist())

    # -- architectural speedup of the offload ----------------------------------
    scaled = config.scaled(50_000)
    traces = [random_trace(50_000, 16, 80, seed=t) for t in range(4)]
    workload = sls_workload(scaled, traces, element_bytes=1, batch=16)
    base = run_non_ndp(workload)
    sec = NdpSimulator(
        NdpConfig(8, 8, tag_scheme=TagScheme.VER_COLOC)
    ).run(workload)
    secndp_ns = sec.secndp_ns(AesEngineModel(12))
    print(f"simulated SLS portion: non-NDP {base.total_ns / 1e3:.1f} us vs "
          f"SecNDP {secndp_ns / 1e3:.1f} us "
          f"({base.total_ns / secndp_ns:.2f}x speedup, 8 ranks, Ver-coloc)")
    print("dlrm_inference OK")


if __name__ == "__main__":
    main()
