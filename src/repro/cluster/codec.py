"""Wire codecs for the cluster tier's frame payloads.

Cluster frames travel in the :mod:`repro.serve.protocol` length-prefixed
container, whose binary codec covers the node hop's two hot messages.
This module maps protocol objects to the payloads those frames carry:

* a ``partial_sum`` request is a ``QueryBatch`` in CSR form
  (:func:`query_words`): term ``counts`` and ``rows`` (``<u4``) and
  ``weights`` at a declared ``width``;
* a node answers with *ciphertext-domain* sums (:func:`sum_words`) — the
  ``(n_queries, m)`` ``C_res`` ring residues and the ``(n_queries, 4)``
  ``<u4`` limbs of the ``C_T_res`` field elements, shape alongside — see
  :meth:`UntrustedNdpDevice.partial_sum_batch`;
* encrypted tables travel as the :mod:`repro.core.serialization` binary
  container, base64 text inside a JSON ``shard_assign`` frame —
  ciphertext and encrypted tags are untrusted data and the container is
  already self-describing;
* :class:`~repro.core.params.SecNDPParams` ships as its constructor
  fields, every one of them (the element width and the tag modulus),
  each a JSON integer.

The words of a batch and of its sums are raw little-endian bytes
(``memoryview``; :func:`~repro.serve.protocol.is_raw` tells them from
base64 text): the coordinator sends them, and a node answers them, as a
binary frame, so they cross the wire and arrive as they are.
:func:`encode_queries` and :func:`encode_device_sums` are the JSON arm
of the same payloads, every array base64 text; a node still answers a
JSON ``partial_sum`` frame in JSON, but the coordinator never sends one.
Only the frozen end-to-end benchmark's stage replay uses that arm, and
it can go once the benchmark replays the binary frames.
:func:`decode_queries` and :func:`decode_device_sums` take either form
and are the one place every semantic check runs.

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
from ..serve.protocol import is_raw

__all__ = [
    "encode_params",
    "decode_params",
    "encode_table",
    "decode_table",
    "sum_words",
    "encode_device_sums",
    "decode_device_sums",
    "query_words",
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


def _word_bytes(array: np.ndarray, dtype) -> memoryview:
    """``array`` as raw little-endian words of ``dtype``."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(np.uint8))


def _armoured(words: Dict[str, Any]) -> Dict[str, Any]:
    """A payload's JSON arm: every raw word array as base64 text."""
    return {
        key: base64.b64encode(value).decode("ascii") if is_raw(value) else value
        for key, value in words.items()
    }


def _words(field: Any, dtype) -> np.ndarray:
    """A read-only view of the words ``field`` holds: raw bytes from a
    binary frame, or base64 text from a JSON one."""
    raw = field if is_raw(field) else base64.b64decode(field, validate=True)
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"{len(raw)} bytes are not whole {dtype} words")
    return np.frombuffer(raw, dtype=dtype)


def sum_words(values: np.ndarray, tag_sums: Optional[np.ndarray]) -> Dict[str, Any]:
    """Node → coordinator: ciphertext-domain sums, nothing decryptable, as
    raw words (a tag limb's bits above 32 are not carried)."""
    values = np.asarray(values)
    return {
        "shape": list(values.shape),
        "values": _word_bytes(values, values.dtype.newbyteorder("<")),
        "tag_sums": None if tag_sums is None else _word_bytes(tag_sums, "<u4"),
    }


def encode_device_sums(
    values: np.ndarray, tag_sums: Optional[np.ndarray]
) -> Dict[str, Any]:
    """:func:`sum_words` as JSON (base64 arrays)."""
    return _armoured(sum_words(values, tag_sums))


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
        values = _words(payload["values"], dtype)
        if values.size != n_q * n_cols:
            raise ValueError(f"{values.nbytes} value bytes for shape {n_q}x{n_cols}")
        values = values.astype(params.ring().dtype).reshape(n_q, n_cols)
        tag_sums = None
        if payload.get("tag_sums") is not None:
            limbs = _words(payload["tag_sums"], "<u4")
            if limbs.size != n_q * limb_field.NUM_LIMBS:
                raise ValueError(f"{limbs.nbytes} tag bytes for {n_q} queries")
            tag_sums = limb_field.field_reduce(
                params.field(), limbs.reshape(n_q, limb_field.NUM_LIMBS)
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad device sums payload: {exc}") from exc
    return values, tag_sums


def query_words(
    batch_rows: Union[QueryBatch, Sequence[Sequence[int]]],
    batch_weights: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, Any]:
    """Coordinator → node: a batch in CSR form, as raw words.  A
    :class:`QueryBatch` ships its residues at the ring's width; lists ship
    4-byte weights (8 if needed)."""
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
        "counts": _word_bytes(np.diff(offsets), "<u4"),
        "rows": _word_bytes(rows, "<u4"),
        "width": width,
        "weights": _word_bytes(weights, f"<u{width}"),
    }


def encode_queries(
    batch_rows: Union[QueryBatch, Sequence[Sequence[int]]],
    batch_weights: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, Any]:
    """:func:`query_words` as JSON (base64 arrays)."""
    return _armoured(query_words(batch_rows, batch_weights))


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
        # Unsigned words no wider than the ring are residues already.
        weights = weights.astype(ring.dtype) if 8 * width <= ring.width else ring.encode(weights)
        return QueryBatch(rows.astype(np.int64), weights, offsets)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad queries payload: {exc}") from exc
