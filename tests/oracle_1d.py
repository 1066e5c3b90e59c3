"""Brute-force 1D reference stepper used as the oracle in engine tests.

Deliberately primitive: plain Python loops over scalar numpy values, updating
the field lists in place, left to right, one cell at a time. No shared code
with the package kernels, no vectorization, no buffering. Every operation is
performed in the run dtype so single-precision results are reproduced bit for
bit, and the source sample is evaluated in double before the cast, the same
contract the engine documents.

The two update rules, per step n = 1..time_tot, after writing the source::

    hy[i] = cha[i]*hy[i] + chb[i]*(ez[i+1] - ez[i])    i = 0 .. xdim-2
    ez[i] = cea[i]*ez[i] + ceb[i]*(hy[i] - hy[i-1])    i = 1 .. xdim-1

with the semi-implicit loss factors, ``le = sigma*dt/(2*eps)`` and
``lh = sigma_star*dt/(2*mu)``::

    cea = (1 - le)/(1 + le)        ceb = dt/(delta*eps)/(1 + le)
    cha = (1 - lh)/(1 + lh)        chb = dt/(delta*mu)/(1 + lh)

which reduce bitwise to cha = cea = 1, chb = dt/(delta*mu) and ceb =
dt/(delta*eps) without loss. The source overwrites ez at the source cell, or
adds to it when ``soft``. In-place sweeps are safe here: neither rule reads
a cell of its own field other than the one it overwrites.
"""

from __future__ import annotations

import math

import numpy as np


def reference_run_1d(
    xdim: int,
    time_tot: int,
    source_cell: int,
    courant: float = 1.0,
    delta: float = 1.0,
    n_lambda: float = 20.0,
    tstart: int = 1,
    amplitude: float = 1.0,
    epsilon=None,
    mu=None,
    sigma=None,
    sigma_star=None,
    soft: bool = False,
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the reference stepper and return (ez, hy) after ``time_tot`` steps.

    Material arrays left as ``None`` are vacuum: eps = mu = 1, no loss.
    """
    f = np.dtype(dtype).type

    def cells(values, default):
        return [f(default)] * xdim if values is None else [f(v) for v in values]

    deltat = courant * delta
    eps, mu_ = cells(epsilon, 1.0), cells(mu, 1.0)
    sig, sig_star = cells(sigma, 0.0), cells(sigma_star, 0.0)

    dt = f(deltat)
    dl = f(delta)
    one = f(1.0)
    two = f(2.0)
    cea, ceb, cha, chb = [], [], [], []
    for i in range(xdim):
        le = sig[i] * dt / (two * eps[i])
        lh = sig_star[i] * dt / (two * mu_[i])
        cea.append((one - le) / (one + le))
        ceb.append(dt / (dl * eps[i]) / (one + le))
        cha.append((one - lh) / (one + lh))
        chb.append(dt / (dl * mu_[i]) / (one + lh))

    ez = [f(0.0)] * xdim
    hy = [f(0.0)] * xdim
    for n in range(1, time_tot + 1):
        phase = 2.0 * math.pi * (n - tstart) * deltat / n_lambda
        val = f(amplitude * math.sin(phase))
        ez[source_cell] = ez[source_cell] + val if soft else val
        for i in range(xdim - 1):
            hy[i] = cha[i] * hy[i] + chb[i] * (ez[i + 1] - ez[i])
        for i in range(1, xdim):
            ez[i] = cea[i] * ez[i] + ceb[i] * (hy[i] - hy[i - 1])
    return np.array(ez, dtype=dtype), np.array(hy, dtype=dtype)
