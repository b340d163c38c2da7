"""Binary serialization of encrypted matrices.

An :class:`~repro.core.device.EncryptedMatrix` is untrusted data: in
a real deployment it lives in DRAM or on disk next to the NDP device.
This module defines a compact, versioned, self-describing container so
ciphertext + tags can be written out (e.g. persisted to near-storage NDP,
shipped to another host) and reloaded without the trusted party - only
decryption requires the key.

Layout (little-endian)::

    magic      4s   b"SNDP"
    version    u16  format version (1)
    elem_bits  u16  w_e
    n_rows     u32
    n_cols     u32
    base_addr  u64
    data_ver   u64  counter-mode version of the data
    flags      u32  bit0: tags present
    cs_ver     u64  checksum version (if tags)
    tag_ver    u64  tag version (if tags)
    tag_bytes  u32  bytes per serialized tag (if tags)
    ciphertext n_rows*n_cols elements, little-endian
    tags       n_rows * tag_bytes (if tags)
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from ..crypto.limb_field import NUM_LIMBS
from ..errors import ConfigurationError
from .device import EncryptedMatrix
from .params import SecNDPParams

__all__ = ["serialize_matrix", "deserialize_matrix", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"SNDP"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHHIIQQI")
_TAG_HEADER = struct.Struct("<QQI")
_FLAG_TAGS = 1


def _tag_rows(limbs: np.ndarray) -> np.ndarray:
    """Byte view ``(n_rows, 16)`` of a contiguous ``<u4`` limb array."""
    return limbs.view(np.uint8).reshape(limbs.shape[0], 4 * NUM_LIMBS)


def serialize_matrix(matrix: EncryptedMatrix) -> bytes:
    """Serialize ciphertext (and tags, when present) to bytes."""
    ct = np.ascontiguousarray(
        matrix.ciphertext, dtype=matrix.params.ring().dtype
    )
    flags = 0
    tag_block = b""
    tag_header = b""
    if matrix.tag_limbs is not None:
        if matrix.checksum_version is None or matrix.tag_version is None:
            raise ConfigurationError("tagged matrix missing tag versions")
        flags |= _FLAG_TAGS
        tag_bytes = matrix.params.tag_bytes
        tag_header = _TAG_HEADER.pack(
            matrix.checksum_version, matrix.tag_version, tag_bytes
        )
        # Each limb row is one little-endian 128-bit integer; a tag is
        # its first ``tag_bytes`` bytes.
        limbs = np.ascontiguousarray(matrix.tag_limbs, dtype="<u4")
        tag_block = _tag_rows(limbs)[:, :tag_bytes].tobytes()
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        matrix.params.element_bits,
        matrix.n_rows,
        matrix.n_cols,
        matrix.base_addr,
        matrix.version,
        flags,
    )
    return header + tag_header + ct.astype("<" + ct.dtype.str[1:]).tobytes() + tag_block


def deserialize_matrix(
    data: bytes, params: Optional[SecNDPParams] = None
) -> EncryptedMatrix:
    """Reconstruct an :class:`EncryptedMatrix` from :func:`serialize_matrix` output.

    ``params`` must match the serialized element width and (for tagged
    matrices) have a tag modulus of the same byte width; a default
    :class:`SecNDPParams` with the serialized element width is built when
    omitted.
    """
    if len(data) < _HEADER.size:
        raise ConfigurationError("truncated SecNDP container (header)")
    magic, fmt, elem_bits, n_rows, n_cols, base_addr, version, flags = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if magic != MAGIC:
        raise ConfigurationError(f"bad magic {magic!r}; not a SecNDP container")
    if fmt != FORMAT_VERSION:
        raise ConfigurationError(f"unsupported format version {fmt}")
    if params is None:
        params = SecNDPParams(element_bits=elem_bits)
    elif params.element_bits != elem_bits:
        raise ConfigurationError(
            f"params element width {params.element_bits} != serialized {elem_bits}"
        )
    offset = _HEADER.size

    checksum_version = tag_version = None
    tag_bytes = 0
    if flags & _FLAG_TAGS:
        if len(data) < offset + _TAG_HEADER.size:
            raise ConfigurationError("truncated SecNDP container (tag header)")
        checksum_version, tag_version, tag_bytes = _TAG_HEADER.unpack(
            data[offset : offset + _TAG_HEADER.size]
        )
        if tag_bytes != params.tag_bytes:
            raise ConfigurationError(
                f"tag width {tag_bytes} does not match params ({params.tag_bytes})"
            )
        offset += _TAG_HEADER.size

    ring = params.ring()
    ct_bytes = n_rows * n_cols * params.element_bytes
    if len(data) < offset + ct_bytes:
        raise ConfigurationError("truncated SecNDP container (ciphertext)")
    ct = np.frombuffer(
        data, dtype="<" + np.dtype(ring.dtype).str[1:], count=n_rows * n_cols,
        offset=offset,
    ).astype(ring.dtype).reshape(n_rows, n_cols)
    offset += ct_bytes

    tag_limbs = None
    if flags & _FLAG_TAGS:
        expected = n_rows * tag_bytes
        if len(data) < offset + expected:
            raise ConfigurationError("truncated SecNDP container (tags)")
        tag_limbs = np.zeros((n_rows, NUM_LIMBS), dtype="<u4")
        _tag_rows(tag_limbs)[:, :tag_bytes] = np.frombuffer(
            data, dtype=np.uint8, count=expected, offset=offset
        ).reshape(n_rows, tag_bytes)
        offset += expected

    return EncryptedMatrix(
        ciphertext=ct,
        base_addr=base_addr,
        version=version,
        params=params,
        tag_limbs=tag_limbs,
        checksum_version=checksum_version,
        tag_version=tag_version,
    )
