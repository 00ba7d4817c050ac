"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same pass over the same inputs can take anywhere from
0.8x to 1.4x its usual time, in phases lasting seconds to minutes, and the
slowdown hits every instruction alike (thread CPU time equals wall time, so
this is not preemption).  The benchmark therefore times this kernel, which
mixes the same kind of work qthermo does (small complex ``eigh``, matrix
products and interpreter overhead), at regular intervals between
operations, and scales its timings to the speed at which one chunk takes
``REFERENCE_S``.  The kernel lives in the benchmark, so no change to qthermo
can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Seconds one chunk takes on a quiet 2-core x86-64 host (OpenBLAS, 1 thread).
REFERENCE_S = 0.010
# Run a chunk after an operation once this many seconds have passed since
# the last one (about 4% of the run).
INTERVAL_S = 0.25
_STEPS = 300

_rng = np.random.default_rng(20260)
_a = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _a + _a.conj().T
_RHO = np.eye(6, dtype=complex) / 6


def chunk() -> float:
    """Seconds taken by one fixed chunk of reference work."""
    rho = _RHO
    t0 = perf_counter()
    for _ in range(_STEPS):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-0.01j * w)) @ v.conj().T
        rho = u @ rho @ u.conj().T
    return perf_counter() - t0


def slowdown(samples: list) -> float:
    """Host slowdown over a window, relative to the reference speed.

    Chunks run at even time intervals, so their mean weights the window's
    slow and fast phases as they weigh on the operations timed in it.
    """
    return statistics.fmean(samples) / REFERENCE_S
