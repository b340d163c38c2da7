"""Wire codecs for the cluster tier's frame payloads.

Cluster frames reuse the :mod:`repro.serve.protocol` length-prefixed
container and its JSON codec (the binary body there covers the
client<->server hop only), so everything here maps protocol objects to
plain JSON-able values:

* encrypted tables travel as the :mod:`repro.core.serialization` binary
  container, base64-armoured — ciphertext and encrypted tags are
  untrusted data and the container is already self-describing;
* a ``partial_sum`` request is a ``QueryBatch`` in CSR form: term
  ``counts`` and ``rows`` (``<u4``), ``weights`` at a declared ``width``;
* node answers are *ciphertext-domain* sums — the ``(n_queries, m)``
  ``C_res`` ring residues and the ``(n_queries, 4)`` limbs of the
  ``C_T_res`` field elements (shape alongside) — see
  :meth:`UntrustedNdpDevice.partial_sum_batch`; these arrays and the
  request's travel as raw little-endian bytes, base64-armoured;
* :class:`~repro.core.params.SecNDPParams` ships as its constructor
  fields, every one of them (the element width and the tag modulus),
  each a JSON integer.

No key material ever crosses this wire: cluster NDP nodes are the
*untrusted* memory party of the SecNDP threat model, so ``shard_assign``
carries only public params and already-encrypted tables, and
``partial_sum`` carries rows and weights out and sums over that
ciphertext back.  The trusted coordinator generates every pad share.

Every decoder treats its input as attacker-controlled: malformed
structure, non-integers, byte strings of the wrong length for their
declared counts, shape or width and out-of-range values all surface as
:class:`~repro.errors.ConfigurationError` (checked before anything is
built), which the coordinator's recovery ladder converts into blame on
the sending node.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.device import EncryptedMatrix, QueryBatch
from ..core.params import SecNDPParams
from ..core.serialization import deserialize_matrix, serialize_matrix
from ..crypto import limb_field
from ..crypto.ring import Ring
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
    """Each field must be a JSON integer: ``8.5``, ``"8"`` and ``true`` are
    refused, never coerced; then the params' own checks run."""
    try:
        fields = {name: payload[name] for name in ("element_bits", "tag_modulus")}
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"bad params payload: {exc}") from exc
    if any(type(value) is not int for value in fields.values()):
        raise ConfigurationError(f"bad params payload: non-integer in {fields}")
    return SecNDPParams(**fields)


def encode_table(enc: EncryptedMatrix) -> str:
    return base64.b64encode(serialize_matrix(enc)).decode("ascii")


def decode_table(payload: str, params: SecNDPParams) -> EncryptedMatrix:
    try:
        blob = base64.b64decode(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad table payload: {exc}") from exc
    return deserialize_matrix(blob, params)


def _b64(array: np.ndarray, dtype) -> str:
    """``array`` as raw little-endian words of ``dtype``, base64-armoured."""
    return base64.b64encode(np.asarray(array).astype(dtype, copy=False).tobytes()).decode("ascii")


def _words(text: Any, dtype) -> np.ndarray:
    """Inverse of :func:`_b64`: a read-only view of the words ``text`` holds."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"{len(raw)} bytes are not whole {dtype} words")
    return np.frombuffer(raw, dtype=dtype)


def encode_device_sums(
    values: np.ndarray, tag_sums: Optional[np.ndarray]
) -> Dict[str, Any]:
    """Node → coordinator: ciphertext-domain sums, nothing decryptable."""
    values = np.asarray(values)
    return {
        "shape": list(values.shape),
        "values": _b64(values, values.dtype.newbyteorder("<")),
        "tag_sums": None if tag_sums is None else _b64(tag_sums, "<u4"),
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
    batch_rows: Union[QueryBatch, Sequence[Sequence[int]]],
    batch_weights: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, Any]:
    """Coordinator → node: a batch in CSR form.  A :class:`QueryBatch` ships
    its residues at the ring's width; lists ship 4-byte weights (8 if needed)."""
    if isinstance(batch_rows, QueryBatch):
        rows, weights, offsets = batch_rows.rows, batch_rows.weights, batch_rows.offsets
    else:
        rows, weights, offsets = QueryBatch.flatten_lists(batch_rows, batch_weights)
        weights = np.ones(rows.size, np.uint32) if weights is None else weights
        lo, hi = (int(weights.min()), int(weights.max())) if weights.size else (0, 0)
        if lo < 0 or hi >> 64:
            raise ConfigurationError(f"a weight outside [0, 2^64) cannot travel: {lo}..{hi}")
        weights = weights.astype(np.uint64 if hi >> 32 else np.uint32)
    if rows.size and (rows.min() < 0 or rows.max() >> 32):
        raise ConfigurationError("a row outside [0, 2^32) cannot travel")
    width = weights.dtype.itemsize
    return {
        "counts": _b64(np.diff(offsets), "<u4"),
        "rows": _b64(rows, "<u4"),
        "width": width,
        "weights": _b64(weights, f"<u{width}"),
    }


def decode_queries(payload: Dict[str, Any], ring: Ring) -> QueryBatch:
    """Decode a ``partial_sum`` batch, weights as residues of ``ring``;
    counts and width are checked against the bytes before anything is built."""
    try:
        width = payload["width"]
        if type(width) is not int or width not in (1, 2, 4, 8):
            raise ValueError(f"weight width {width!r} is not 1, 2, 4 or 8")
        counts = _words(payload["counts"], "<u4")
        rows = _words(payload["rows"], "<u4")
        weights = _words(payload["weights"], f"<u{width}")
        n_terms = int(counts.sum(dtype=np.uint64))
        if rows.size != n_terms or weights.size != n_terms:
            raise ValueError(f"{n_terms} terms declared, {rows.size} rows, {weights.size} weights")
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return QueryBatch(rows.astype(np.int64), ring.encode(weights), offsets)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad queries payload: {exc}") from exc
