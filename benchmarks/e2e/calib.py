"""Host calibration: a fixed kernel that turns wall time into reference-box time.

The reference box's speed moves 10-40 % in phases that last seconds to
minutes (hypervisor steal, neighbours), so a raw wall-clock number says
as much about the minute it was taken in as about the code.  Every timed
sample of the benchmark is therefore paired with one run of
:func:`calib` taken right after it and reported as
``t * CALIB_REF / calib_t``: what the sample would have read on the
reference box at its quiet speed.

The kernel is built like the serving path it stands in for:

* a 3 000-step pure-Python integer loop   - interpreter-bound, like the
  frame codec and the scheduler;
* two masked 76x76 ``uint64`` matmuls     - arithmetic-bound, like the
  limb-field kernels;
* a 4 096-row gather-and-sum from a 16 MiB ``uint32`` table - memory-
  bound, like the device's ciphertext sums.

The three parts take about 0.4, 0.7 and 0.7 ms.  The issue's sizes
(1 500 steps, 96x96, 2 048 rows) put three quarters of the kernel in the
matmuls, and the matmuls alone track the workloads worst: over eight runs
each of ``serve_hot`` and ``serve_cold`` the spread of the normalised wave
time was 0.08 with those proportions, 0.05 with the matmul and the gather
weighted equally, 0.02-0.06 with the gather alone (README, "What the
normalisation can and cannot do").

A sample taken right after the program ran measures the cache the
program left behind as much as the host, so :func:`calib_s` runs the
kernel once untimed before the timed runs.

:data:`CALIB_REF` and the kernel are frozen: a later change that edits
either rescales every number in ``baseline.json``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

__all__ = ["CALIB_REF", "calib", "calib_s", "normalise", "normalise_solo"]

#: Seconds one :func:`calib` takes on the quiet reference box (median of
#: 2 000 runs on the 2-vCPU box this benchmark was defined on, taken while
#: ``steal`` in ``/proc/stat`` stood still).
CALIB_REF = 0.00145

_LOOP_STEPS = 3000
_MAT_N = 76
_MASK = np.uint64((1 << 20) - 1)
_TABLE_ROWS = 1 << 16          # x 64 uint32 columns = 16 MiB
_TABLE_COLS = 64
_GATHER_ROWS = 4096

_rng = np.random.default_rng(0x5EC9D9)
_MAT_A = _rng.integers(0, 1 << 20, size=(_MAT_N, _MAT_N), dtype=np.uint64)
_MAT_B = _rng.integers(0, 1 << 20, size=(_MAT_N, _MAT_N), dtype=np.uint64)
_TABLE = _rng.integers(0, 1 << 32, size=(_TABLE_ROWS, _TABLE_COLS), dtype=np.uint32)
_GATHERS = _rng.integers(0, _TABLE_ROWS, size=(64, _GATHER_ROWS))
_gather_turn = 0


def calib() -> int:
    """Run the calibration kernel once; the return value only keeps the
    work from being optimised away."""
    global _gather_turn
    acc = 0
    for i in range(_LOOP_STEPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    prod = (_MAT_A @ _MAT_B) & _MASK
    prod = (prod @ _MAT_A) & _MASK
    # Rotating index sets: one fixed set would sit in the last-level
    # cache after the first call and stop being memory-bound.
    rows = _GATHERS[_gather_turn % len(_GATHERS)]
    _gather_turn += 1
    pooled = _TABLE[rows].sum(axis=0, dtype=np.uint64)
    return acc ^ int(prod[0, 0]) ^ int(pooled[0])


def calib_s(repeats: int = 1) -> float:
    """Seconds per :func:`calib` right now (median of ``repeats`` runs,
    after one untimed run)."""
    calib()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calib()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def normalise(sample_s: float, calib_sample_s: float) -> float:
    """``sample_s`` as it would read at the reference box's quiet speed."""
    return sample_s * CALIB_REF / calib_sample_s


def normalise_solo(sample_s: float, calib_sample_s: float, window_s: float) -> float:
    """Host-normalise a latency that contains a fixed timer.

    The scheduler's batch window is a timer, not work: it lasts
    ``window_s`` however fast the host is, so only the rest is scaled.
    """
    window_s = min(window_s, sample_s)
    return window_s + normalise(sample_s - window_s, calib_sample_s)
