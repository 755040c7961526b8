"""Host speed probe: three small fixed kernels timed next to the workload.

The reference machine is a 2-vCPU VM on a shared host whose speed swings
by up to 1.8 times over tens of seconds, with the load of other tenants.
The same swing moves a pure-Python loop, a scipy integration and a numpy
vector kernel alike, so the benchmark times these kernels around every
operation and divides each measured time by the host's slowness at that
moment. Every time the benchmark reports is therefore in reference
seconds: the seconds the work would take on the reference machine at its
usual speed. The raw seconds are kept in the result document.

The kernels use only the Python standard library, numpy and scipy, never
averager, so no change to the program under test moves them.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp  # bound now: tracing patches the module

#: median kernel times on the reference machine (2-vCPU Xeon VM, Python
#: 3.11, numpy 2.4, scipy 1.17) in its usual state, in seconds
REF_LOOP_S = 0.020
REF_ODE_S = 0.060
REF_VECTOR_S = 0.022

_X = np.linspace(0.0, 10.0, 100_000)


def _loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def _van_der_pol(t, x):
    return [x[1], (1.0 - x[0] * x[0]) * x[1] - x[0]]


def _ode() -> int:
    return solve_ivp(_van_der_pol, (0.0, 20.0), [0.5, 0.0],
                     rtol=1e-10, atol=1e-12).nfev


def _vector() -> float:
    total = 0.0
    for _ in range(5):
        total += float(np.sum(np.sin(_X) * np.cos(_X + 1.0)))
    return total


def kernel_times() -> tuple[float, float, float]:
    """Seconds the loop, ODE and vector kernels take right now."""
    times = []
    for kernel in (_loop, _ode, _vector):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return tuple(times)


# first calls pay for lazy set-up inside numpy and scipy; keep it out
kernel_times()


def slowness() -> float:
    """Host slowness now: 1.0 at the reference speed, 1.5 when 1.5x slower.

    The geometric mean of the three kernels' time ratios to the reference.
    """
    loop_s, ode_s, vector_s = kernel_times()
    return math.exp((math.log(loop_s / REF_LOOP_S)
                     + math.log(ode_s / REF_ODE_S)
                     + math.log(vector_s / REF_VECTOR_S)) / 3.0)
