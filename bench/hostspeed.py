"""Host-speed reference: a fixed pure-Python kernel timed between operations.

On a shared host, other tenants slow the CPU for stretches of seconds to
minutes, by up to 2x; process CPU time grows with wall time, so this is
contention for the core, not preemption, and neither clock removes it.  The
benchmark therefore times this kernel before and after every operation
(and every set-up probe) and scales the operation's time by
``REF_KERNEL_S / kernel time``.  Reported times read as seconds on a host
where the kernel takes ``REF_KERNEL_S``; the kernel does not touch bogolon,
so a change to the package moves the scaled time as much as the raw one.
Raw times are kept in the run record.

The kernel is interpreted scalar arithmetic, like the per-row and per-step
Python loops that dominate every workload.
"""

from __future__ import annotations

from time import perf_counter

#: Kernel time on an uncontended core (5th percentile over 5000 runs on a
#: 2-CPU 2.0 GHz x86-64 VM, Python 3.11).
REF_KERNEL_S = 1.2e-3


def kernel_s() -> float:
    """Seconds the reference kernel takes now (about 1.2 ms uncontended)."""
    start = perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += abs(complex(i, 1.0)) * 0.5
    return perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor turning a time measured between two kernel runs into
    reference seconds."""
    return 2.0 * REF_KERNEL_S / (before_s + after_s)
