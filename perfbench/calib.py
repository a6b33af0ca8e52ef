"""The host-speed reference of the benchmark.

The host shares its cores with other tenants.  Its speed switches between
levels about 1.5x apart from one second to the next, and the share of time
spent at the slow level drifts over minutes, which no amount of averaging
within one run removes.  So the benchmark times a fixed reference kernel on
the measured CPU just before and just after every measured interval (a
child process, or one runner call in the warm child) and scales the
interval by the mean of the two speeds::

    speed  = REFERENCE_S / reference time
    scaled = raw * mean(speed before, speed after)

The kernel does the two kinds of work the program spends its time on:
interpreted Python and dense symmetric eigensolves of the size of the
M = 60 flow samples (183 x 183).  It does not touch indexlab, so no change
to the program changes it.  ``REFERENCE_S`` is close to the kernel's time on
the host it was tuned on (per-run medians of 0.023-0.031 s with one BLAS
thread on a 2-vCPU Intel Xeon virtual machine); it only sets the scale, so
scaled times read as seconds on a host where the kernel takes exactly
that long.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.025
_LOOP = 100_000
_EIGH_CALLS = 3
_REPEATS = 5
_DIM = 183

_matrix = None


def _symmetric():
    global _matrix
    if _matrix is None:
        import numpy as np

        a = np.random.default_rng(0).standard_normal((_DIM, _DIM))
        _matrix = a + a.T
    return _matrix


def _kernel(loop: int, eigh_calls: int) -> None:
    import numpy as np

    a = _symmetric()
    acc = 0
    for i in range(loop):
        acc += i * i % 7
    for _ in range(eigh_calls):
        np.linalg.eigh(a)


def reference_seconds() -> float:
    """The reference kernel's time: the median of :data:`_REPEATS` runs.

    A short untimed run first brings the kernel's code and data back into
    the caches, which the measured child has just filled with its own;
    otherwise the time after a child would depend on what the child did.
    The median discards a run that a brief stall of the host hit, which
    would otherwise misstate the speed of a whole measured interval.
    """
    _kernel(_LOOP // 10, 1)
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel(_LOOP, _EIGH_CALLS)
        times.append(time.perf_counter() - t0)
    return sorted(times)[_REPEATS // 2]


def normalize(raw: float, before: float, after: float) -> float:
    """``raw`` seconds scaled to the reference host speed.

    ``before`` and ``after`` are the reference kernel's times just before
    and just after the measured interval.  The speeds, not the times, are
    averaged, because a program's run time is its work over its mean speed.
    """
    return raw * (REFERENCE_S / before + REFERENCE_S / after) / 2.0
