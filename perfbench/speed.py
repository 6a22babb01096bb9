"""Machine-speed normalisation of benchmark timings.

On a shared machine the speed of a core drifts by itself: a fixed loop of
pure-Python, big-integer and LAPACK work takes up to ±25% longer from one
second to the next, in phases of seconds to minutes, and every kind of work
slows together.  A timing taken in a slow phase is therefore rescaled by a
fixed reference workload timed right before and right after it:

    nominal seconds = seconds * REF_S / mean(reference before, after)

REF_S is about the reference's median time on the 2-vCPU machine the
benchmark was defined on (0.034-0.046 s over several hours), so nominal
seconds read as seconds at that machine's typical speed.  The reference runs no ``benford_lab`` code, so a change to the
program moves the nominal time exactly as it moves the raw time.  Its
inputs hold about 3 MB.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.040

# the four kinds of work the workloads do, in fixed amounts
_RNG = np.random.Generator(np.random.Philox(key=[0, 99]))
_MATS = _RNG.standard_normal((40, 64, 64))
_VEC = _RNG.random(200_000)
_BIG = 7 ** 40_000


def reference_s() -> float:
    """Seconds taken by one run of the reference workload."""
    t = perf_counter()
    s = 0
    for i in range(400_000):        # interpreter
        s += i * i
    (_BIG * (_BIG + s)) // 3        # big integers
    np.linalg.qr(_MATS)             # LAPACK
    np.sort(_VEC)                   # numpy
    return perf_counter() - t


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / (0.5 * (ref_before + ref_after))
