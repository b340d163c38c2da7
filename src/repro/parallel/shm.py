"""Shared-memory arenas for ciphertext and tag data.

The parallel serving engine places each table's ciphertext matrix (and
the limb array of its per-row tags) into ``multiprocessing.shared_memory``
segments so every pool worker maps the *same* physical pages — attaching
is a zero-copy ``mmap``, not a pickle round-trip.  This mirrors the
paper's deployment picture: ciphertext and encrypted tags are public,
shared, untrusted data; only the key and the regenerated OTPs are
private, and those travel once per pool start inside the worker
initializer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - stdlib module, but stay importable
    _shm = None

__all__ = [
    "shared_memory_available",
    "ArraySpec",
    "create_shared_array",
    "attach_shared_array",
]

def shared_memory_available() -> bool:
    """Probe whether shared-memory segments can actually be created.

    ``/dev/shm`` may be missing or unwritable in minimal containers; the
    engine uses this probe to degrade to the in-process path instead of
    failing at pool start.
    """
    if _shm is None:
        return False
    try:
        seg = _shm.SharedMemory(create=True, size=16)
    except Exception:
        return False
    seg.close()
    try:
        seg.unlink()
    except Exception:
        pass
    return True


class ArraySpec(NamedTuple):
    """Picklable handle for a shared numpy array (name + geometry)."""

    name: str
    shape: tuple
    dtype: str


def create_shared_array(arr: np.ndarray):
    """Copy ``arr`` into a fresh shared segment.

    Returns ``(spec, segment)``; the caller owns the segment and must
    ``close()`` + ``unlink()`` it when the pool shuts down.
    """
    arr = np.ascontiguousarray(arr)
    seg = _shm.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    return ArraySpec(seg.name, tuple(arr.shape), np.dtype(arr.dtype).str), seg


def attach_shared_array(spec: ArraySpec):
    """Map an existing shared segment as a numpy array (zero-copy).

    Pool workers share the parent's resource-tracker process, whose
    per-name cache deduplicates the attach-side re-registration that
    pre-3.13 ``SharedMemory`` performs — so the owner's single
    ``unlink()`` keeps the tracker clean and attachers do nothing extra.
    """
    seg = _shm.SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
    return view, seg
