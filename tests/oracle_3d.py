"""Brute-force 3D reference stepper used as the oracle in engine tests.

The 3D counterpart of ``oracle_1d``: nested Python lists of numpy scalars,
updated in place one cell at a time, with no code shared with the package
kernels. Every operation is performed in the run dtype, so single-precision
results are reproduced bit for bit, and the source sample is evaluated in
double before the cast.

Per step n = 1..time_tot, after writing the source into ez, the six update
rules are (every array and coefficient at [i,j,k] unless shown otherwise)::

    hx = cha*hx + chb*((ey[i,j,k+1] - ey) - (ez[i,j+1,k] - ez))    j < ny-1, k < nz-1
    hy = cha*hy + chb*((ez[i+1,j,k] - ez) - (ex[i,j,k+1] - ex))    i < nx-1, k < nz-1
    hz = cha*hz + chb*((ex[i,j+1,k] - ex) - (ey[i+1,j,k] - ey))    i < nx-1, j < ny-1
    ex = cea*ex + ceb*((hz - hz[i,j-1,k]) - (hy - hy[i,j,k-1]))    j >= 1, k >= 1
    ey = cea*ey + ceb*((hx - hx[i,j,k-1]) - (hz - hz[i-1,j,k]))    i >= 1, k >= 1
    ez = cea*ez + ceb*((hy - hy[i-1,j,k]) - (hx - hx[i,j-1,k]))    i >= 1, j >= 1

with the semi-implicit loss factors, ``le = sigma*dt/(2*eps)`` and
``lh = sigma_star*dt/(2*mu)``::

    cea = (1 - le)/(1 + le)        ceb = dt/(delta*eps)/(1 + le)
    cha = (1 - lh)/(1 + lh)        chb = dt/(delta*mu)/(1 + lh)

In-place sweeps are safe: no rule reads a cell of its own field other than
the one it overwrites.
"""

from __future__ import annotations

import math

import numpy as np


def _cells(shape, value):
    nx, ny, nz = shape
    return [[[value] * nz for _ in range(ny)] for _ in range(nx)]


def _scalars(arr, f):
    return [[[f(v) for v in row] for row in plane] for plane in np.asarray(arr).tolist()]


def reference_run_3d(
    shape: tuple[int, int, int],
    time_tot: int,
    location: tuple[int, int, int],
    epsilon,
    mu,
    sigma,
    sigma_star,
    courant: float = 0.5,
    delta: float = 1.0,
    n_lambda: float = 20.0,
    tstart: int = 1,
    amplitude: float = 1.0,
    soft: bool = False,
    plane: bool = False,
    dtype=np.float64,
) -> dict[str, np.ndarray]:
    """Run the reference stepper; return the six components after ``time_tot`` steps."""
    f = np.dtype(dtype).type
    nx, ny, nz = shape
    deltat = courant * delta
    dt, dl, one, two = f(deltat), f(delta), f(1.0), f(2.0)

    eps, mu_ = _scalars(epsilon, f), _scalars(mu, f)
    sig, sig_star = _scalars(sigma, f), _scalars(sigma_star, f)
    cea, ceb = _cells(shape, None), _cells(shape, None)
    cha, chb = _cells(shape, None), _cells(shape, None)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                le = sig[i][j][k] * dt / (two * eps[i][j][k])
                lh = sig_star[i][j][k] * dt / (two * mu_[i][j][k])
                cea[i][j][k] = (one - le) / (one + le)
                ceb[i][j][k] = dt / (dl * eps[i][j][k]) / (one + le)
                cha[i][j][k] = (one - lh) / (one + lh)
                chb[i][j][k] = dt / (dl * mu_[i][j][k]) / (one + lh)

    zero = f(0.0)
    ex, ey, ez = _cells(shape, zero), _cells(shape, zero), _cells(shape, zero)
    hx, hy, hz = _cells(shape, zero), _cells(shape, zero), _cells(shape, zero)
    si, sj, sk = location
    for n in range(1, time_tot + 1):
        phase = 2.0 * math.pi * (n - tstart) * deltat / n_lambda
        val = f(amplitude * math.sin(phase))
        targets = [(sj, sk)] if not plane else [(j, k) for j in range(ny) for k in range(nz)]
        for j, k in targets:
            ez[si][j][k] = ez[si][j][k] + val if soft else val

        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    a, b = cha[i][j][k], chb[i][j][k]
                    if j < ny - 1 and k < nz - 1:
                        hx[i][j][k] = a * hx[i][j][k] + b * (
                            (ey[i][j][k + 1] - ey[i][j][k]) - (ez[i][j + 1][k] - ez[i][j][k])
                        )
                    if i < nx - 1 and k < nz - 1:
                        hy[i][j][k] = a * hy[i][j][k] + b * (
                            (ez[i + 1][j][k] - ez[i][j][k]) - (ex[i][j][k + 1] - ex[i][j][k])
                        )
                    if i < nx - 1 and j < ny - 1:
                        hz[i][j][k] = a * hz[i][j][k] + b * (
                            (ex[i][j + 1][k] - ex[i][j][k]) - (ey[i + 1][j][k] - ey[i][j][k])
                        )
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    a, b = cea[i][j][k], ceb[i][j][k]
                    if j >= 1 and k >= 1:
                        ex[i][j][k] = a * ex[i][j][k] + b * (
                            (hz[i][j][k] - hz[i][j - 1][k]) - (hy[i][j][k] - hy[i][j][k - 1])
                        )
                    if i >= 1 and k >= 1:
                        ey[i][j][k] = a * ey[i][j][k] + b * (
                            (hx[i][j][k] - hx[i][j][k - 1]) - (hz[i][j][k] - hz[i - 1][j][k])
                        )
                    if i >= 1 and j >= 1:
                        ez[i][j][k] = a * ez[i][j][k] + b * (
                            (hy[i][j][k] - hy[i - 1][j][k]) - (hx[i][j][k] - hx[i][j - 1][k])
                        )
    fields = {"ex": ex, "ey": ey, "ez": ez, "hx": hx, "hy": hy, "hz": hz}
    return {name: np.array(cells, dtype=dtype) for name, cells in fields.items()}
