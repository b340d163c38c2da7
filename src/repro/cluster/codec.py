"""Wire codecs for the cluster tier's frame payloads.

Cluster frames reuse the :mod:`repro.serve.protocol` length-prefixed
container and its JSON codec (the binary body there covers the
client<->server hop only), so everything here maps protocol objects to
plain JSON-able values:

* encrypted tables travel as the :mod:`repro.core.serialization` binary
  container, base64-armoured — ciphertext and encrypted tags are
  untrusted data and the container is already self-describing;
* node answers are *ciphertext-domain* sums — the ``(n_queries, m)``
  ``C_res`` ring residues and the ``(n_queries, 4)`` limbs of the
  ``C_T_res`` field elements, each as raw little-endian bytes
  (base64-armoured, shape alongside) — see
  :meth:`UntrustedNdpDevice.partial_sum_batch`;
* :class:`~repro.core.params.SecNDPParams` ships as its constructor
  fields (the counter-block layout is the default everywhere in this
  repo, so only widths and the tag modulus travel).

No key material ever crosses this wire: cluster NDP nodes are the
*untrusted* memory party of the SecNDP threat model, so ``shard_assign``
carries only public params and already-encrypted tables, and
``partial_sum`` responses carry only sums over that ciphertext.  The
trusted coordinator regenerates every pad share locally.

Every decoder treats its input as attacker-controlled: malformed
structure, non-integers, byte strings of the wrong length for their
declared shape and out-of-range values all surface as
:class:`~repro.errors.ConfigurationError`, which the coordinator's
recovery ladder converts into blame on the sending node.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.encryption import EncryptedMatrix
from ..core.params import SecNDPParams
from ..core.serialization import deserialize_matrix, serialize_matrix
from ..crypto import limb_field
from ..errors import ConfigurationError

__all__ = [
    "encode_params",
    "decode_params",
    "encode_table",
    "decode_table",
    "encode_device_sums",
    "decode_device_sums",
    "encode_queries",
    "decode_queries",
]


def encode_params(params: SecNDPParams) -> Dict[str, Any]:
    return {
        "element_bits": int(params.element_bits),
        "tag_modulus": int(params.tag_modulus),
    }


def decode_params(payload: Dict[str, Any]) -> SecNDPParams:
    try:
        return SecNDPParams(
            element_bits=int(payload["element_bits"]),
            tag_modulus=int(payload["tag_modulus"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad params payload: {exc}") from exc


def encode_table(enc: EncryptedMatrix) -> str:
    return base64.b64encode(serialize_matrix(enc)).decode("ascii")


def decode_table(payload: str, params: SecNDPParams) -> EncryptedMatrix:
    try:
        blob = base64.b64decode(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad table payload: {exc}") from exc
    return deserialize_matrix(blob, params)


def encode_device_sums(
    values: np.ndarray, tag_sums: Optional[np.ndarray]
) -> Dict[str, Any]:
    """Node → coordinator: ciphertext-domain sums, nothing decryptable."""
    values = np.asarray(values)
    wire = values.astype(values.dtype.newbyteorder("<"), copy=False)
    return {
        "shape": list(values.shape),
        "values": base64.b64encode(wire.tobytes()).decode("ascii"),
        "tag_sums": (
            None
            if tag_sums is None
            else base64.b64encode(
                np.asarray(tag_sums).astype("<u4").tobytes()
            ).decode("ascii")
        ),
    }


def decode_device_sums(
    payload: Dict[str, Any], params: SecNDPParams
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Decode an untrusted node's sums defensively.

    A hostile node controls every byte here: a missing field, a shape
    that is not two non-negative integers, bytes that are not base64 or
    not exactly ``shape`` elements of the ring's width (``n_queries``
    rows of four 32-bit limbs for the tag sums) are mapped to
    :class:`ConfigurationError` so the dispatch ladder can blame the
    sender, before anything is allocated from the declared shape; tag
    sums are reduced into the field so the exact field arithmetic
    downstream only ever sees canonical elements.
    """
    dtype = np.dtype(params.ring().dtype).newbyteorder("<")
    try:
        n_q, n_cols = payload["shape"]
        if type(n_q) is not int or type(n_cols) is not int or n_q < 0 or n_cols < 0:
            raise ValueError(f"bad shape {payload['shape']!r}")
        raw = base64.b64decode(payload["values"], validate=True)
        if len(raw) != n_q * n_cols * dtype.itemsize:
            raise ValueError(f"{len(raw)} value bytes for shape {n_q}x{n_cols}")
        values = (
            np.frombuffer(raw, dtype=dtype).astype(params.ring().dtype).reshape(n_q, n_cols)
        )
        tag_sums = None
        if payload.get("tag_sums") is not None:
            raw = base64.b64decode(payload["tag_sums"], validate=True)
            if len(raw) != n_q * 4 * limb_field.NUM_LIMBS:
                raise ValueError(f"{len(raw)} tag bytes for {n_q} queries")
            tag_sums = limb_field.field_reduce(
                params.field(),
                np.frombuffer(raw, dtype="<u4").reshape(n_q, limb_field.NUM_LIMBS),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad device sums payload: {exc}") from exc
    return values, tag_sums


def encode_queries(
    batch_rows: Sequence[Sequence[int]],
    batch_weights: Sequence[Sequence[int]],
) -> Dict[str, Any]:
    return {
        "batch_rows": [[int(r) for r in rows] for rows in batch_rows],
        "batch_weights": [[int(w) for w in ws] for ws in batch_weights],
    }


def decode_queries(payload: Dict[str, Any]):
    try:
        rows = [[int(r) for r in q] for q in payload["batch_rows"]]
        weights = [[int(w) for w in q] for q in payload["batch_weights"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad queries payload: {exc}") from exc
    if len(rows) != len(weights):
        raise ConfigurationError("batch_rows and batch_weights length mismatch")
    return rows, weights
