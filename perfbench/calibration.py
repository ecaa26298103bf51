"""Host-speed calibration for the end-to-end timings.

Shared virtual machines can change speed by tens of percent over seconds to
minutes: on a 2-vCPU Xeon VM at 2.0 GHz the median latency of one fixed
solve, taken over 5 s windows, ranged from 97 ms to 198 ms within three
minutes with no other load in the machine, and steal time stayed zero.
A fixed kernel of the same kind of work (small NumPy operations and
interpreter-bound loops, no exactspca code) timed right before and after each
solve in the same process tracks that speed: the ratio of solve to kernel
time varied 6-9% over the same windows where the solve alone varied 17%.

Each end-to-end latency is therefore scaled by ``REFERENCE_S`` over the
kernel's time around it, which expresses it in seconds of a host on which the
kernel takes ``REFERENCE_S``.  The raw figures are printed on the summary
line.  ``setup_s`` runs in fresh processes, where this kernel did not track
import time; it is scaled the same way by a compile kernel of its own (see
``setup_probe.py``).  What the scaling cannot separate is a slowdown
that the program causes in its own process outside the solve (for example a
thread left spinning); the raw figures and the traced per-layer times, which
are not scaled, still show it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.004  # kernel time that defines the reference host speed

_MATRIX = np.random.default_rng(7).standard_normal((8, 8))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    started = perf_counter()
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(150):
        v = _MATRIX[:, i % 8].copy()
        for _ in range(3):
            v = _MATRIX @ v
            v /= np.linalg.norm(v)
        acc += float(v @ _MATRIX @ v)
        for j in range(40):
            key = (i * 31 + j) % 97
            table[key] = table.get(key, 0) + j
    if not np.isfinite(acc) or len(table) != 97:
        raise RuntimeError("calibration kernel produced an unexpected result")
    return perf_counter() - started


def scale(seconds: float, kernel_before: float, kernel_after: float,
          reference: float = REFERENCE_S) -> float:
    """``seconds`` in reference-host seconds, from the kernel times around it:
    on the reference host the kernel takes ``reference`` seconds."""
    return seconds * reference / ((kernel_before + kernel_after) / 2.0)
