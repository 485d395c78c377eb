"""Host-speed calibration.

On a shared virtual machine the same computation can take from 1 to 2.5
times as much CPU time, depending on what other guests do. The speed changes
over seconds to minutes. So the benchmark times this fixed kernel just
before and just after every item and every set-up. The mean of the two,
divided by REFERENCE_S, is the host's slow-down at that moment, and the
benchmark divides the item's time by it. The kernel mixes the two kinds of
work truckdrone does: interpreted Python, and numpy on arrays of a few
thousand elements.
"""

from __future__ import annotations

import numpy as np

REFERENCE_S = 0.010

_rng = np.random.default_rng(12345)
_A = _rng.random(4000)
_B = _rng.random(4000)


def kernel() -> float:
    """Fixed work, about REFERENCE_S of CPU time on a quiet host."""
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    mask = np.ones(_A.size, dtype=bool)
    for k in range(150):
        mask &= _A >= k / 3000.0
        idx = np.flatnonzero(mask & (_B <= 0.9))
        acc += float(np.sqrt(_A[idx] * _A[idx] + 1.0).min())
    return acc


def slowdown(clock) -> float:
    """Run the kernel once; its time on `clock` over REFERENCE_S."""
    t0 = clock()
    kernel()
    return (clock() - t0) / REFERENCE_S
