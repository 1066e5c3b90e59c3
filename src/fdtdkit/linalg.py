"""Dense LU factorization with partial pivoting, backend-parametrized.

Hand-rolled rather than delegated to LAPACK because the execution backends
must produce byte-identical factors. The scheme is LAPACK ``dgetrf``'s
right-looking blocked factorization. For each panel of ``_NB`` columns:

1. the panel is factored unblocked, on the caller's thread: the pivot is the
   first maximum of ``|a[k:, k]|`` (a plain serial argmax), whole rows are
   swapped, and each rank-1 update ``a[i, j] -= l[i] * u[j]`` touches the
   panel's columns only;
2. the panel's rows right of it become ``U12`` by forward substitution, one
   row per call: ``a[i, k1:] -= a[i, k0:i] @ a[k0:i, k1:]``;
3. the trailing matrix takes ``a[k1:, j0:j1] -= L21 @ a[k0:k1, j0:j1]`` over
   a fixed grid of ``_TILE``-column tiles, counted from the panel's right
   edge and cut by :func:`execute_stencil` on a :class:`KernelPlan` over tile
   indices.

Chunk edges therefore always fall on tile edges, and every output element
is computed by one GEMM of the same shape whatever the backend or worker
count: Serial and Parallel(k) agree bitwise for every k. A matrix of order
``n <= _NB`` is step 1 alone, the classic unblocked loop.

BLAS does not promise that GEMM and GEMV give the same bits for every BLAS
thread count. With OpenBLAS they do at every size tried, and
``tests/test_linalg.py::test_bytes_do_not_depend_on_the_blas_thread_count``
guards it: it factors and solves the same matrices under
``OPENBLAS_NUM_THREADS=1`` and ``=2`` and requires equal bytes.

``_NB = 32`` and ``_TILE = 128`` were chosen by timing ``lu_factor`` on a
2-CPU Xeon (Haswell kernels, OpenBLAS 0.3.31), 21 interleaved repeats: at
n=1024 float64, serial, ``_NB = 32`` took 0.077 s and ``_NB = 64`` 0.088 s
(n=2048: 0.53 s against 0.56 s). The panel step is elementwise and its
cost grows with ``_NB``; a narrower panel makes the GEMMs thinner and
doubles the passes over the trailing matrix. 128-column tiles leave up to
8 chunks to split at n=1024 while each GEMM stays large; 64-column tiles
were slower, and 256-column ones were within the noise while leaving half
as many chunks.

Beyond its ``n * n`` result, :func:`lu_factor` holds one transient of at most
``n * _TILE`` elements per running chunk (the tile product, or the panel's
rank-1 product on the caller's thread), plus NumPy's iterator buffers;
:func:`workspace_bytes` counts both.

Storage is the usual compact form: multipliers (unit lower triangle, diagonal
implied) below the diagonal and the upper factor on and above it, plus the
row permutation that was applied.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .backends import Backend, KernelPlan, StencilExecutor, execute_stencil
from .model import FloatArray, all_finite, require_float_dtype

_SERIAL = Backend.serial()

# Panel width: columns factored unblocked before each trailing update.
_NB = 32
# Trailing-update tile width in columns; tiles are the unit of work split.
_TILE = 128


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


def _as_square_float(a: FloatArray) -> FloatArray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    require_float_dtype("a", a.dtype)
    if not all_finite(a):
        raise ValueError("a must be finite everywhere")
    return a


def _factor_panel(a: FloatArray, perm: np.ndarray, k0: int, k1: int) -> None:
    """Unblocked LU of columns ``[k0, k1)`` from row ``k0`` down, in place."""
    for k in range(k0, k1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise SingularMatrixError(k)
        if p != k:
            a[[k, p]] = a[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 : k1] -= a[k + 1 :, k, None] * a[k, k + 1 : k1]


def workspace_bytes(n: int, dtype: np.dtype, workers: int) -> int:
    """Upper bound on what :func:`lu_factor` allocates beyond its result.

    Per running chunk, at most ``workers`` at once: one tile product of up to
    ``n * _TILE`` elements (or, on the caller's thread, the panel's rank-1
    product of fewer than ``n * _NB``), plus the buffers of up to
    ``np.getbufsize()`` elements that NumPy's iterator may give each of the
    two strided operands of the in-place subtract.
    """
    per_chunk = n * min(n, _TILE) + 2 * np.getbufsize()
    return workers * per_chunk * np.dtype(dtype).itemsize


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
        for k0 in range(0, n, _NB):
            k1 = min(k0 + _NB, n)
            _factor_panel(a, perm, k0, k1)
            if k1 == n:
                break
            for i in range(k0 + 1, k1):
                a[i, k1:] -= a[i, k0:i] @ a[k0:i, k1:]
            l21 = a[k1:, k0:k1]
            u12 = a[k0:k1, k1:]
            trailing = a[k1:, k1:]

            def kernel(lo: int, hi: int) -> None:
                for t in range(lo, hi):
                    tile = slice(t * _TILE, (t + 1) * _TILE)
                    trailing[:, tile] -= l21 @ u12[:, tile]

            tiles = -(-(n - k1) // _TILE)
            plan = KernelPlan.for_range(0, tiles, ex.backend, cells_per_index=(n - k1) * _TILE)
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
    if not all_finite(b):
        raise ValueError("b must be finite everywhere")
    x = b[factorization.perm].astype(lu.dtype, copy=True)
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        # at i = n - 1 both slices are empty and the product is 0.0
        x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    return x


def relative_residual(a: FloatArray, x: FloatArray, b: FloatArray) -> float:
    """Scaled backward error: ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)."""
    r = a @ x - b
    # row sums in blocks of _TILE rows, so |a| is never a full n x n transient
    norm_a = max(float(np.abs(a[i : i + _TILE]).sum(axis=1).max()) for i in range(0, len(a), _TILE))
    denom = norm_a * float(np.abs(x).max()) + float(np.abs(b).max())
    if denom == 0.0:
        return 0.0
    return float(np.abs(r).max()) / denom


def residual_bound(n: int, precision_eps: float) -> float:
    """Acceptance ceiling for :func:`relative_residual`: n * 100 * eps."""
    return n * 100.0 * precision_eps
