"""Host-speed reference for the timed benchmark run.

On a shared host the same decision can take 1.8 times longer from one
minute to the next, because other tenants load the machine.  The timed run
therefore runs this fixed kernel between decisions and divides each
decision's seconds by the mean of the kernel's seconds just before and just
after it.  That ratio cancels the host's speed of the moment.  Multiplied
by REFERENCE_S, it reads as seconds on a host where the kernel takes
REFERENCE_S.

The kernel mixes the kinds of work the library does: a k-d tree build and
query, an interpreted loop, a sort and a small SVD.  Its inputs are fixed,
so its work never changes.  It is the benchmark's own code; a change to the
library cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

# The kernel's seconds in the fastest phases of a shared 2-core VM
# (Python 3.11, numpy 2.4, scipy 1.17).  Fixed, so that results stay
# comparable between commits.
REFERENCE_S = 0.012

_RNG = np.random.default_rng(20160323)
_X = _RNG.normal(size=(3000, 4))
_Y = _RNG.normal(size=(3000, 4))


def kernel_seconds() -> float:
    """Seconds of one run of the fixed kernel."""
    t0 = perf_counter()
    cKDTree(_X).query(_Y, k=4)
    acc = 0.0
    for k in range(20000):
        acc += k * 0.5
    np.sort(_X[:, 0] * _Y[:, 1])
    np.linalg.svd(_X[:400])
    return perf_counter() - t0


class Clock:
    """Host-normalised seconds of work bracketed by kernel runs.

    ``normalised(seconds)`` must follow the work it measures directly: it
    runs the kernel once and pairs the result with the previous run."""

    def __init__(self) -> None:
        kernel_seconds()  # first-call costs stay out of the reference
        self.last = kernel_seconds()

    def normalised(self, seconds: float) -> float:
        after = kernel_seconds()
        ratio = seconds / (0.5 * (self.last + after))
        self.last = after
        return ratio * REFERENCE_S
