"""Host-speed calibration: a fixed kernel timed beside the program.

On a shared host the speed of the machine drifts by tens of percent over
minutes, so two runs of the same code can differ more than any bound a
regression gate could use.  The benchmark therefore times a fixed
calibration kernel in the same process and the same minutes as the
program, and reports every host-clock duration *at reference speed*:

    reference seconds = host seconds * REFERENCE_S / median(kernel seconds)

The kernel packs every 31-mer of a fixed read matrix with shift-OR, sorts
them and counts the distinct ones, like the oracle, but in buffers
allocated once: it takes no page faults and no system time, as the
program's counting kernels do not, so only the processor's speed moves it.
It uses numpy only, no ``repro``, so no change to the program can change
it; a program that gets slower is still measured slower.  On a host where
the kernel takes ``REFERENCE_S`` the scale is 1.  Its inputs do not depend
on the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from oracle import K

#: Seconds the kernel is taken to need on the reference host.
REFERENCE_S = 0.008

_READS = np.random.default_rng(20_250_701).integers(0, 4, size=(1_000, 150), dtype=np.uint8)
_CODES = _READS.astype(np.uint64)
_WINDOWS = _READS.shape[1] - K + 1
_PACKED = np.empty((_READS.shape[0], _WINDOWS), dtype=np.uint64)
_SORTED = np.empty(_PACKED.size, dtype=np.uint64)
_CHANGES = np.empty(_PACKED.size - 1, dtype=bool)


def kernel() -> int:
    """Number of distinct k-mers of the fixed reads, computed in place."""
    _PACKED.fill(0)
    for j in range(K):
        np.left_shift(_PACKED, np.uint64(2), out=_PACKED)
        np.bitwise_or(_PACKED, _CODES[:, j:j + _WINDOWS], out=_PACKED)
    np.copyto(_SORTED, _PACKED.reshape(-1))
    _SORTED.sort()
    np.not_equal(_SORTED[1:], _SORTED[:-1], out=_CHANGES)
    return int(np.count_nonzero(_CHANGES)) + 1


def samples(n: int) -> list[float]:
    """Host seconds of *n* runs of the kernel, after one untimed warm-up run.

    The warm-up refills the caches the program's last call evicted, so the
    timings do not depend on how much memory the program touches.
    """
    kernel()
    out = []
    for _ in range(n):
        t = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t)
    return out


def scale(timings: list[float]) -> float:
    """Factor from host seconds to reference seconds, given kernel timings."""
    return REFERENCE_S / statistics.median(timings)
