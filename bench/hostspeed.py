"""How fast the host runs Python right now, from a fixed reference kernel.

The shared cores of the host run the same code at two speeds about 1.6x
apart, switching within a second and at times staying slow for whole runs.
The benchmark divides in-process times by `host_factor()`, sampled before
and after every measured round.
"""
import math
from time import perf_counter

import numpy as np

# fast-state time of `reference_kernel` on the 2-core host the benchmark was
# defined on (Python 3.11, numpy 2.4); it sets the scale of every metric
REFERENCE_NOMINAL_S = 215e-6
_GRAM = np.diag([1.0, 1.0, -1.0])


def reference_kernel() -> float:
    """Interpreter-bound loop of small numpy calls, shaped like the
    library's inner loops but independent of it."""
    v = np.array([0.3, -0.2, 0.9])
    acc = 0.0
    for _ in range(40):
        w = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite reference state")
        q = float(w @ _GRAM @ w)
        acc += math.sqrt(abs(q)) + 1e-3 * q
        v = 0.999 * w + 0.001
    return acc


def host_factor() -> float:
    """Best of three reference timings over the nominal one: 1 when the host
    runs at its fast speed, about 1.6 when slow."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t0)
    return best / REFERENCE_NOMINAL_S
