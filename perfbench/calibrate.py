"""Machine-speed calibration for a shared, contended box.

On a shared 2-CPU virtual machine other tenants change the speed of the
same code by up to 2x for seconds to minutes, in CPU time as well as wall
time, so run-to-run medians of raw wall time spread by 40% and more. The
benchmark therefore times a fixed kernel between ops, independent of
cauchyls and made of the kind of work that dominates the workload, and
scales the run's op times by the kernel's reference time over its median
time in the run. The result is the op time at the speed the reference
machine had when KERNEL_REF_S was measured. The median over the whole run,
rather than the samples next to each op, corrects the slow shifts without
adding the kernel's own op-to-op noise.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# median kernel times on the reference machine (nproc 2, Intel Xeon, idle
# period): the unit of every scaled time; never re-measured, so scaled
# figures of different commits stay comparable
KERNEL_REF_S = {"mixed": 0.0171, "memory": 0.0225}

# grid of the mixed kernel's sparse system, between the inversion and
# synthesis grids of the nx=64 workloads
NX, NY = 129, 65
REPS = 6
SOLVES_PER_REP = 3
VECTOR_OPS_PER_REP = 20
PYTHON_OBJECTS_PER_REP = 200
# the memory kernel allocates, touches and sums fresh float64 arrays
MEMORY_ARRAY_LEN = 4_000_000
MEMORY_REPS = 3


def _laplacian(nx: int, ny: int) -> sp.csc_matrix:
    def d2(n):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))

    a = sp.kron(sp.eye(ny), d2(nx)) + sp.kron(d2(ny), sp.eye(nx))
    return (a + 1e-3 * sp.eye(nx * ny)).tocsc()


def mixed_kernel() -> Callable[[], None]:
    """Small sparse solves, small vector operations and Python objects:
    the mix of a Tikhonov iteration at nx=64."""
    lu = splu(_laplacian(NX, NY))
    rhs = np.linspace(0.0, 1.0, NX * NY)

    def run() -> None:
        for _ in range(REPS):
            for _ in range(SOLVES_PER_REP):
                x = lu.solve(rhs)
            v = x[:NX]
            for _ in range(VECTOR_OPS_PER_REP):
                v = np.clip(np.gradient(v, 0.5) + 1e-3, -1.0, 1.0)
            objs = [(i, float(i) * 0.5) for i in range(PYTHON_OBJECTS_PER_REP)]
            sum(b for _, b in objs)

    return run


def memory_kernel() -> Callable[[], None]:
    """Fresh pages and long sweeps: the cost profile of factorizing and
    solving on the fine transport grids."""

    def run() -> None:
        for _ in range(MEMORY_REPS):
            np.ones(MEMORY_ARRAY_LEN).sum()

    return run


KERNELS = {"mixed": mixed_kernel, "memory": memory_kernel}


class Speedometer:
    """Kernel timings taken between ops: one per `period` seconds since the
    last sample, at most `burst` at a time."""

    def __init__(self, kernel: str, period: float, burst: int):
        self.kind = kernel
        self.period = period
        self.burst = burst
        self._run = KERNELS[kernel]()
        self._last = time.perf_counter()
        self.kernel_s: list[float] = []
        self.kernel()  # first call pays one-off allocations

    def kernel(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        """Time the kernel once per `period` passed since the last sample;
        `burst` times when forced."""
        n = self.burst if force else min(
            self.burst, int((time.perf_counter() - self._last) / self.period))
        for _ in range(n):
            self.kernel_s.append(self.kernel())
        if n:
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Reference kernel time over this run's median kernel time."""
        return KERNEL_REF_S[self.kind] / statistics.median(self.kernel_s)
