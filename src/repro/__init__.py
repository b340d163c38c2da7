"""SecNDP: Secure Near-Data Processing with Untrusted Memory (HPCA 2022).

A from-scratch Python reproduction of the complete SecNDP system:

* :mod:`repro.core` - the paper's contribution: arithmetic encryption
  (Alg. 1), linear checksums and encrypted MACs (Alg. 2/3/8), the
  weighted-summation and verification protocols (Alg. 4/5), split by
  role into the untrusted device (:mod:`repro.core.device`) and the
  trusted processor (:mod:`repro.core.protocol`), and the security-game
  oracles (Alg. 6/7), which run the verifier that serves.
* :mod:`repro.crypto` - AES-128, tweaked counter systems, ring and
  prime-field arithmetic (all implemented from scratch).
* :mod:`repro.memsim` - event-driven cycle-level DDR4 model (Table II).
* :mod:`repro.ndp` - NDP packets, AES- and SecNDP-engine timing,
  tag-placement schemes and the NDP simulator.
* :mod:`repro.workloads` - DLRM recommendation inference and medical
  analytics, with traces and quantization schemes.
* :mod:`repro.baselines` - non-NDP, TEE, SGX and unprotected NDP.
* :mod:`repro.analysis` - energy (Table V), area, accuracy (Table IV).
* :mod:`repro.harness` - per-table / per-figure experiment drivers.
* :mod:`repro.obs` - metrics registry + phase tracing across all layers.
* :mod:`repro.kernels` - optional compiled tier (C, built with the host
  compiler) for the limb-field and AES hot paths behind
  ``SECNDP_KERNEL_TIER`` dispatch.
* :mod:`repro.serve` / :mod:`repro.cluster` - the asyncio front-end and
  the sharded cluster of keyless NDP nodes.

Each subpackage loads only when it is imported by name.

Quickstart::

    import numpy as np
    from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice

    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(key=b"0123456789abcdef", params=params)
    device = UntrustedNdpDevice(params)

    table = np.arange(64 * 32, dtype=np.uint32).reshape(64, 32) % 1000
    enc = processor.encrypt_matrix(table, base_addr=0x1000, region="table")
    device.store("table", enc)

    result = processor.weighted_row_sum(
        device, "table", rows=[3, 17, 42], weights=[1, 2, 3]
    )
"""

from .errors import (
    ConfigurationError,
    RecoveryExhaustedError,
    SecNDPError,
    VerificationError,
    VersionBudgetError,
    VersionReuseError,
)

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "RecoveryExhaustedError",
    "SecNDPError",
    "VerificationError",
    "VersionBudgetError",
    "VersionReuseError",
    "__version__",
]
