"""Host-speed calibration: a fixed kernel, timed between ops.

Other tenants of a shared host slow every process on it by 20 to 50% for
minutes at a time, longer than one run lasts. The best or median of a
run's repetitions then moves with the host, not with the program. So the
runner times this kernel before and after each op and reports the op in
reference seconds:

    op seconds * REFERENCE_S / kernel seconds around the op

The kernel is the benchmark's own code, a mix like one op's: Python
`Fraction` and dict work, many small numpy/LAPACK calls and a few
medium-sized ones. It never calls ergospec, so a change to the program
moves the reference seconds exactly as it moves the wall time. Its numpy
entry points are bound when this module is imported, before the tracer
rebinds them, so traced runs do not count the kernel's calls.
"""

import time
from fractions import Fraction

import numpy as np

# The kernel's time on the 2-vCPU Xeon KVM guest the benchmark was built
# on, in a quiet period; the scale that reference seconds are given in.
REFERENCE_S = 0.008

_svd = np.linalg.svd
_eigvals = np.linalg.eigvals
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 8))
_MEDIUM = _rng.standard_normal((64, 64))
_TALL = _rng.standard_normal((384, 32))


def kernel():
    """A fixed mix of Python work and small and medium numpy/LAPACK calls."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7, i)
    counts = {}
    for i in range(3000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    for _ in range(40):
        _svd(_SMALL)
        _eigvals(_SMALL)
        _SMALL @ _SMALL
    _svd(_MEDIUM)
    _eigvals(_MEDIUM)
    _svd(_TALL)
    return total


def kernel_seconds():
    """The better of two timings of the kernel."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Converts wall times to reference seconds. Each timed call is
    bracketed by kernel timings; the one after a call serves as the one
    before the next."""

    def __init__(self):
        self.last = None

    def time(self, call):
        """Run `call()`, which returns (result, wall seconds); return
        (result, reference seconds, wall seconds)."""
        before = self.last if self.last is not None else kernel_seconds()
        self.last = None  # a call that raises leaves no bracket behind
        result, wall = call()
        self.last = kernel_seconds()
        return result, wall * REFERENCE_S * 2 / (before + self.last), wall
