"""Scenarios whose outputs were recorded at the parent of the array-native
batch path (``tests/data/parent_golden.json``) and must not move.

Kept as a module of plain functions so the recording can be repeated on
any commit: ``python tests/golden_scenarios.py`` prints the JSON.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
from repro.core.serialization import serialize_matrix
from repro.faults.plan import FaultInjector, FaultKind, FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))

BLOB_PARAMS = {
    "mersenne": SecNDPParams(element_bits=32),
    "m61": SecNDPParams(element_bits=16, tag_modulus=(1 << 61) - 1),
}


def tagged_matrix(params: SecNDPParams):
    """A small tagged matrix under a fixed key, versions and address."""
    processor = SecNDPProcessor(KEY, params)
    n_cols = 2 * params.elements_per_block
    plaintext = np.random.default_rng(5).integers(0, 1 << 12, size=(6, n_cols))
    return processor.encrypt_matrix(
        plaintext.astype(params.ring().dtype), 0x4000, "golden"
    )


def serialized_blob(label: str) -> str:
    return serialize_matrix(tagged_matrix(BLOB_PARAMS[label])).hex()


def persistent_faults() -> dict:
    """A seeded plan of stored-memory faults served through the ladder.

    Ciphertext bit flips and tag replays are drawn by
    ``FaultInjector.corrupt_device`` (one mask draw per table, then one
    draw per hit); ten single queries and three batches of eight then run
    through the recovery store.  Transient kinds are left at rate 0: they
    consume no randomness, so the sequence below is a function of the
    stored state alone.
    """
    params = SecNDPParams(element_bits=32)
    plan = FaultPlan(
        name="golden",
        seed=77,
        rates={FaultKind.CIPHERTEXT_BIT: 2e-3, FaultKind.TAG_REPLAY: 2e-2},
    )
    injector = FaultInjector(plan)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params),
        UntrustedNdpDevice(params),
        recovery=RecoveryPolicy(backoff_base_s=0.0, reencrypt_after=None),
        fault_injector=injector,
    )
    rng = np.random.default_rng(9)
    store.add_table("t", rng.normal(size=(256, 16)))
    corrupted = injector.corrupt_device(store.device, ["t"])
    answers = []
    for _ in range(10):
        rows = [int(r) for r in rng.integers(0, 256, size=6)]
        weights = [int(w) for w in rng.integers(1, 4, size=6)]
        answers.append(store.sls("t", rows, weights).tolist())
    for _ in range(3):
        rows = [[int(r) for r in rng.integers(0, 256, size=5)] for _ in range(8)]
        answers.append(store.sls_many("t", rows, [[1] * 5 for _ in rows]).tolist())
    tags = store.device.stored("t").tags
    return {
        "corrupted": sorted(int(r) for r in corrupted.get("t", ())),
        "events": [[e.kind.value, e.site, e.context, e.detail] for e in injector.events],
        "outcomes": [
            [o.table, list(o.rows), o.resolved_via, o.detected, o.attempts,
             list(o.repaired_rows)]
            for o in store.recovery_log.outcomes
        ],
        "counts": store.recovery_log.counts_by_resolution(),
        "tags_sha": hashlib.sha256(
            b"".join(int(t).to_bytes(16, "little") for t in tags)
        ).hexdigest(),
        "answers_sha": hashlib.sha256(json.dumps(answers).encode()).hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps({
        **{f"blob_{label}": serialized_blob(label) for label in BLOB_PARAMS},
        "faults_persistent": persistent_faults(),
    }))
