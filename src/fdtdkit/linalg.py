"""Dense LU factorization with partial pivoting, backend-parametrized.

Hand-rolled rather than delegated to LAPACK because the execution backends
must produce byte-identical factors: the pivot search is a plain serial
argmax over the pivot column (first maximum wins on ties), and the trailing
submatrix update is split into column panels where every element is updated
by the same ``a[i, j] -= l[i] * u[j]`` expression regardless of how the
panels are assigned to workers. No reductions cross a panel boundary, so
Serial and Parallel(k) agree bitwise for every k.

Storage is the usual compact form: multipliers (unit lower triangle, diagonal
implied) below the diagonal and the upper factor on and above it, plus the
row permutation that was applied.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .backends import Backend, KernelPlan, StencilExecutor, execute_stencil
from .model import FloatArray

_SERIAL = Backend.serial()


class SingularMatrixError(ValueError):
    """Pivot column is exactly zero from the diagonal down; no factorization."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular: pivot column {column} is exactly zero")


@dataclass(frozen=True)
class LuFactorization:
    """Compact LU factors and the row permutation such that a[perm] = L @ U."""

    lu: FloatArray
    perm: np.ndarray

    def __post_init__(self) -> None:
        n = self.lu.shape[0]
        if self.lu.ndim != 2 or self.lu.shape[1] != n:
            raise ValueError(f"lu must be square, got shape {self.lu.shape}")
        if self.perm.shape != (n,):
            raise ValueError("perm length must match the matrix order")

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def _require_finite(arr: np.ndarray, name: str) -> None:
    # min and max propagate NaN, so the two bound every entry
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} must be finite everywhere")


def _as_square_float(a: FloatArray) -> FloatArray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"dtype must be float32 or float64, got {a.dtype}")
    _require_finite(a, "a")
    return a


def lu_factor(
    a: FloatArray,
    backend: Backend = _SERIAL,
    executor: StencilExecutor | None = None,
) -> LuFactorization:
    """Factor ``a`` in its own precision; the input matrix is left untouched.

    The trailing updates run on ``executor`` and are planned for its backend;
    ``backend`` only opens a new executor when none is passed in.

    Raises :class:`SingularMatrixError` when a pivot column is exactly zero
    below and on the diagonal (graceful degradation stops there; near-zero
    pivots proceed and surface as a large residual instead), and
    ``ValueError`` when ``a`` holds NaN or Inf.
    """
    a = _as_square_float(a).copy()
    n = a.shape[0]
    perm = np.arange(n)

    with nullcontext(executor) if executor is not None else StencilExecutor(backend) as ex:
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if a[p, k] == 0.0:
                raise SingularMatrixError(k)
            if p != k:
                a[[k, p]] = a[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            a[k + 1 :, k] /= a[k, k]
            if k + 1 == n:
                break
            l_col = a[k + 1 :, k]
            u_row = a[k]

            def kernel(lo: int, hi: int) -> None:
                a[k + 1 :, lo:hi] -= l_col[:, None] * u_row[lo:hi]

            plan = KernelPlan.for_range(k + 1, n, ex.backend, cells_per_index=n - k - 1)
            execute_stencil(kernel, plan, ex.backend, ex)
    return LuFactorization(lu=a, perm=perm)


def lu_solve(factorization: LuFactorization, b: FloatArray) -> FloatArray:
    """Solve A x = b from the compact factors by forward/back substitution.

    Raises ``ValueError`` when ``b`` holds NaN or Inf.
    """
    lu = factorization.lu
    n = factorization.n
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    _require_finite(b, "b")
    x = b[factorization.perm].astype(lu.dtype, copy=True)
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    return x


def relative_residual(a: FloatArray, x: FloatArray, b: FloatArray) -> float:
    """Scaled backward error: ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)."""
    r = a @ x - b
    norm_a = float(np.abs(a).sum(axis=1).max())
    denom = norm_a * float(np.abs(x).max()) + float(np.abs(b).max())
    if denom == 0.0:
        return 0.0
    return float(np.abs(r).max()) / denom


def residual_bound(n: int, precision_eps: float) -> float:
    """Acceptance ceiling for :func:`relative_residual`: n * 100 * eps."""
    return n * 100.0 * precision_eps
