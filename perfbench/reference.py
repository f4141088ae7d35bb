"""A fixed reference kernel that tracks the speed of the machine.

On a shared 2-vCPU virtual machine the host can alternate, for seconds or
minutes at a time, between speeds up to 2x apart, and CPU time slows with
wall time. The benchmark times this kernel between CLI calls and scales each
call's time by ``REFERENCE_MS / measured kernel time``. The kernel does
the same kind of work as propfit's inner loop (NumPy on 16-element arrays
and a 3x3 solve), so the two slow down alike and the ratio stays put.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 100
# The kernel's time on that machine in its fast phase, so scaled times read
# as milliseconds at that speed.
REFERENCE_MS = 2.0

_X = np.linspace(0.0, 1000.0, 16)
_THETA = np.array([1.4e5, 120.0, 400.0])


def _kernel() -> float:
    a1, a2, a3 = _THETA
    acc = 0.0
    for _ in range(ROUNDS):
        e = np.exp(-(_X + a2) / a3)
        f = a1 * (1.0 - e)
        d = a1 * e / a3
        J = np.column_stack([1.0 - e, d, d * (_X + a2) / a3]) / f[:, None]
        step = np.linalg.solve(J.T @ J, J.T @ (1.0 - e))
        acc += float(step @ step)
    return acc


def reference_ms() -> float:
    """Wall time of one kernel run, in milliseconds."""
    start = time.perf_counter()
    _kernel()
    return 1000.0 * (time.perf_counter() - start)
