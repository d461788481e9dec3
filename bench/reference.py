"""Reference kernel that tracks the machine's current speed.

On a shared host the speed of a vCPU wanders by tens of percent over
minutes, which moves every wall time the benchmark reports.  This kernel
does the same kind of work as the program, a DOP853 solve with a Python
right-hand side plus NumPy array maths, but uses none of the program's code,
so no change to the program can change its time.  An in-process workload
times it between every two consecutive ops; the mean of the times just
before and after an op, over NOMINAL_S, is that op's speed factor.  In a
240 s test of flow ops this cut the variation of 25 s windows' median
latency from 0.80-1.16 to 0.97-1.03 of their median.

Run as a script (``process_time``), it is the gauge for work done in fresh
processes, the CLI commands and the set-ups: interpreter start-up, the
imports the program makes besides its own modules, and one kernel() call,
timed from launch to exit.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import solve_ivp

#: median time of ``kernel()`` on the machine the baseline was measured on
NOMINAL_S = 0.010
#: median of ``process_time()`` on that machine
NOMINAL_PROCESS_S = 1.2


def _rhs(s, y):
    r, _, phi = y
    ratio = math.cosh(r) / math.sinh(r)
    c, sp = math.cos(phi), math.sin(phi)
    return (c, sp, 1.3 * c - ratio * sp)


def kernel() -> float:
    t0 = time.perf_counter()
    solve_ivp(_rhs, (0.0, 40.0), (0.1, 0.0, 0.05), method="DOP853",
              rtol=1e-11, atol=1e-13)
    x = np.linspace(0.01, 10.0, 20_000)
    for _ in range(10):
        np.cosh(x) / np.sinh(x)
    return time.perf_counter() - t0


def process_time(env=None, cwd=None) -> float:
    """Wall time of this file run as a script in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, cwd=cwd, check=True,
                   timeout=150)
    return time.perf_counter() - t0


if __name__ == "__main__":
    import scipy.interpolate  # noqa: F401  the program's other dependencies
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    kernel()
