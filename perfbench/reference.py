"""Host-speed reference: fixed kernels of the benchmark's own, timed next to
every problem, so that times can be given at one fixed host speed.

The shared machine this benchmark was built on changes speed by up to 1.5x
for seconds to minutes at a time, with nothing else running in the sandbox.
One run often sits wholly in a fast or a slow spell, so raw per-run medians
of identical code spread by 20-45% between runs.  A kernel doing the same
kind of work tracks the spells: over 90 s on a 2-core Xeon VM, the 5-second
medians of a degree-32 ``check_symbolic`` varied by 22% (quartile spread),
its ratio to the Fraction kernel below by 3%; a 512x256 SVD varied by 8%,
its ratio to the LAPACK kernel by 3%.

A normalised time is ``raw * NOMINAL_S / reference``, with ``reference``
the mean of the kernel times right before and right after the measured
work.  The kernels are not pseudoherm code, so a change to the program
moves the raw time and leaves the reference alone.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

import numpy as np

_rng = np.random.default_rng(14015255)
_FRACTIONS = [Fraction(float(x)) for x in _rng.standard_normal(40)]
_MATRIX = _rng.standard_normal((96, 96))


def _python_kernel():
    total = Fraction(0)
    for x in _FRACTIONS:
        for y in _FRACTIONS[:10]:
            total += x * y
    return total


def _lapack_kernel():
    return np.linalg.svd(_MATRIX)


def _spawn_kernel():
    argv = [sys.executable, "-S", "-c", "pass"]
    os.waitpid(os.posix_spawn(sys.executable, argv, os.environ), 0)


# "python" for work done by the interpreter (Fraction arithmetic); "mixed"
# for numpy work that is part LAPACK, part interpreter overhead around small
# matrices; "spawn" for fresh interpreters (the CLI and set-up), whose start
# tracked the Fraction kernel worse than no reference at all.
KERNELS = {"python": (_python_kernel,), "mixed": (_python_kernel, _lapack_kernel),
           "spawn": (_spawn_kernel,)}
# Reference times in a fast spell on the machine above; only the ratio
# between two commits matters, and both use these constants.
NOMINAL_S = {"python": 3.4e-3, "mixed": 6.0e-3, "spawn": 19e-3}


class HostSpeed:
    def __init__(self, kind: str):
        self.kernels = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]

    def sample(self) -> float:
        """Seconds the reference kernels take now."""
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - start

    def normalise(self, raw: float, before: float, after: float) -> float:
        return raw * self.nominal * 2.0 / (before + after)
