"""A fixed computation that gauges how fast the machine runs right now.

On a shared VM the speed of the same code drifts by up to 2x over minutes,
as other tenants load the host; CPU time drifts with wall time, so the
slowdown is not preemption.  The benchmark runs this kernel between solver
runs and scales its timings by ``NOMINAL_MS / measured``, which reports them
at one fixed machine speed.  The kernel mixes the operations the solvers
spend their time in, on 64x64 float64 arrays driven from Python: 3x3
``ndimage.correlate`` and 5x5 ``convolve2d`` as in the convolution
operators, forward differences and a per-pixel group shrink as in the TV
term, elementwise work and a dot product.  It uses no code from ``src/``,
so a change to the package cannot move it.
"""

import time

import numpy as np
from scipy.ndimage import correlate
from scipy.signal import convolve2d

#: kernel time in ms at the speed timings are reported at
NOMINAL_MS = 8.0


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._img = rng.random((64, 64))
        self._k3 = rng.random((3, 3))
        self._k5 = rng.random((5, 5))

    def ms(self) -> float:
        """Wall time of one run of the kernel, in ms."""
        start = time.perf_counter()
        x = self._img
        for _ in range(10):
            u = correlate(x, self._k3, mode="mirror")
            v = convolve2d(u, self._k5, mode="full")[2:-2, 2:-2]
            dv = np.zeros_like(x)
            dh = np.zeros_like(x)
            dv[:-1, :] = x[1:, :] - x[:-1, :]
            dh[:, :-1] = x[:, 1:] - x[:, :-1]
            a, b = np.split(np.concatenate([dv.ravel(), dh.ravel()]), 2)
            norms = np.sqrt(a * a + b * b)
            shrink = np.maximum(norms - 0.1, 0.0) / np.maximum(norms, 1e-12)
            x = (0.5 * x + 1e-3 * np.log1p(u * u) + 1e-4 * v
                 + 1e-4 * (a * shrink).reshape(x.shape))
            float(np.dot(x.ravel(), x.ravel()))
        return 1e3 * (time.perf_counter() - start)
