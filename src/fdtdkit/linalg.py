"""Dense LU factorization with partial pivoting, backend-parametrized.

Hand-rolled rather than delegated to LAPACK because the execution backends
must produce byte-identical factors. The scheme is LAPACK ``dgetrf``'s
right-looking blocked factorization. For each panel of ``_NB`` columns:

1. the panel is copied once into a contiguous transposed buffer, where each
   of its columns is a contiguous row, and factored there recursively as
   LAPACK ``dgetrf2`` does (Toledo 1997, Gustavson 1997): factor the left
   half of the columns, forward-substitute the right half's top rows,
   update the rest with one GEMM, then recurse into the right half. One
   column is the base case: its pivot is the first maximum of ``|column|``
   (a plain serial argmax), the pivot row swap moves whole buffer columns,
   and the column is divided by the pivot. The panel's swaps reach the rest
   of the matrix once, when the panel is done: the buffer is written back
   to the rows where they started, then only the rows that moved are
   written, as whole rows (LAPACK ``dlaswp``);
2. the panel's rows right of it become ``U12`` by forward substitution, one
   row per call: ``a[i, k1:] -= a[i, k0:i] @ a[k0:i, k1:]``;
3. the trailing matrix takes ``a[k1:, j0:j1] -= L21 @ a[k0:k1, j0:j1]`` over
   a fixed grid of ``_TILE``-column tiles, counted from the panel's right
   edge, one tile after another.

Every backend runs the trailing update as one chunk of :func:`execute_stencil`,
on the caller's thread: BLAS already runs each tile's GEMM on its own
threads, so BLAS is the one parallel layer of the solve, and the solve opens
no pool of its own. A pool that split the tiles as well oversubscribed the
CPUs: on a 2-CPU Xeon, n=1024 float64 (perfbench ``lu-dense``, medians of
10 runs), ``parallel:2`` took 0.140 s against 0.113 s serial; as one chunk
it takes 0.102 s against 0.100 s.
The panel runs on the caller's thread too, so every output element is
computed by the same operations whatever the backend or worker count, and
Serial and Parallel(k) give the same bits. A matrix of order ``n <= _NB``
is step 1 alone.

BLAS does not promise that GEMM and GEMV give the same bits for every BLAS
thread count. With OpenBLAS they do at every size tried, and
``tests/test_linalg.py`` guards it: it factors and solves the same
matrices, with and without row swaps, under ``OPENBLAS_NUM_THREADS=1`` and
``=2`` and requires equal bytes.

``_NB = 64`` and ``_TILE = 128`` were chosen by timing ``lu_factor`` on a
2-CPU Xeon (Haswell kernels, OpenBLAS 0.3.31), n=1024 float64, serial. With
the recursive panel, two runs of ten alternating pairs of ``_NB = 32`` and
``64`` (median of 5 calls each) read 0.083 s against 0.073 s and 0.066 s
against 0.057 s, 64 faster in 9 of 10 pairs in each (n=2048: 0.45 s against
0.33 s, 10 of 10).
The recursion does most of the panel's work in GEMMs, so a wider panel
gives thicker trailing GEMMs and half the passes over the trailing matrix;
the old unblocked panel, whose elementwise cost grew with the width, had
made 32 the faster. With that panel and ``_NB = 32``, 64-column tiles were
slower and 256-column ones within the noise.

Beyond its ``n * n`` result, :func:`lu_factor` holds at most ``n * _TILE``
elements of transients at a time, since ``2 * _NB <= _TILE``: a tile
product; the panel's buffer of ``_NB * (n - k0)`` elements with the row
copy that the transpose is made from, or with a recursion step's GEMM
product; or, once the buffer is written back, the copy of the rows that
moved, at most ``2 * _NB`` of them. Below order ``_TILE`` the transpose's
two copies may pass ``n * n`` by up to ``n * _NB`` elements, which the
allowance for NumPy's iterator buffers covers; :func:`workspace_bytes`
counts both.

Storage is the usual compact form: multipliers (unit lower triangle, diagonal
implied) below the diagonal and the upper factor on and above it, plus the
row permutation that was applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import Backend, KernelPlan, StencilExecutor, execute_stencil
from .model import FloatArray, all_finite, require_float_dtype

_SERIAL = Backend.serial()

# Panel width: columns factored in one buffer before each trailing update.
_NB = 64
# Trailing-update tile width in columns; it fixes every GEMM's shape.
_TILE = 128


class SingularMatrixError(ValueError):
    """Pivot column is exactly zero from the diagonal down; no factorization."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular: pivot column {column} is exactly zero")


def _require_square(name: str, a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


@dataclass(frozen=True)
class LuFactorization:
    """Compact LU factors and the row permutation such that a[perm] = L @ U."""

    lu: FloatArray
    perm: np.ndarray

    def __post_init__(self) -> None:
        _require_square("lu", self.lu)
        if self.perm.shape != (self.n,):
            raise ValueError("perm length must match the matrix order")

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def _as_square_float(a: FloatArray) -> FloatArray:
    a = np.asarray(a)
    _require_square("a", a)
    require_float_dtype("a", a.dtype)
    if not all_finite(a):
        raise ValueError("a must be finite everywhere")
    return a


def _factor_buffer(t: FloatArray, rows: np.ndarray, k0: int, c0: int, c1: int) -> None:
    """Recursive LU (``dgetrf2``) of panel columns ``[c0, c1)`` in the buffer.

    ``t`` is the panel transposed, so ``t[c, r]`` is the entry of local row
    ``r`` and column ``c``. A pivot's row swap moves whole buffer columns at
    once, before any other column reads those rows, and the same two entries
    of ``rows``, which maps each buffer column to the local row it started as.
    """
    if c1 - c0 == 1:
        p = c0 + int(np.argmax(np.abs(t[c0, c0:])))
        if t[c0, p] == 0.0:
            raise SingularMatrixError(k0 + c0)
        if p != c0:
            t[:, c0], t[:, p] = t[:, p].copy(), t[:, c0].copy()
            rows[c0], rows[p] = rows[p], rows[c0]
        t[c0, c0 + 1 :] /= t[c0, c0]
        return
    mid = (c0 + c1) // 2
    _factor_buffer(t, rows, k0, c0, mid)
    # the right half's top rows by forward substitution with the left's unit L
    for k in range(c0, mid - 1):
        t[mid:c1, k + 1 : mid] -= t[mid:c1, k, None] * t[k, k + 1 : mid]
    t[mid:c1, mid:] -= t[mid:c1, c0:mid] @ t[c0:mid, mid:]
    _factor_buffer(t, rows, k0, mid, c1)


def _factor_panel(a: FloatArray, perm: np.ndarray, k0: int, k1: int) -> None:
    """LU of columns ``[k0, k1)`` from row ``k0`` down, in place.

    The panel is factored in a contiguous transposed copy; its row swaps then
    reach the rest of ``a`` and ``perm`` at once, moved rows only.
    """
    # rows first, then the transpose: 2.5x faster than one strided copy
    t = np.ascontiguousarray(a[k0:, k0:k1]).T.copy()
    start = np.arange(t.shape[1])
    rows = start.copy()
    _factor_buffer(t, rows, k0, 0, k1 - k0)
    # back where each row started, so the buffer is freed before rows move
    a[k0 + rows, k0:k1] = t.T
    del t
    moved = np.flatnonzero(rows != start)
    a[k0 + moved] = a[k0 + rows[moved]]
    perm[k0 + moved] = perm[k0 + rows[moved]]


def workspace_bytes(n: int, dtype: np.dtype) -> int:
    """Upper bound on what :func:`lu_factor` allocates beyond its result.

    One tile product of up to ``n * _TILE`` elements, or the panel's
    transposed buffer with its row copy or a recursion step's GEMM product,
    or the moved-rows copy of at most ``2 * _NB`` rows: each fits in
    ``n * _TILE`` (see the module docstring). Plus the buffers of up to
    ``np.getbufsize()`` elements that NumPy's iterator may give each of the
    two strided operands of an in-place subtract.
    """
    return (n * min(n, _TILE) + 2 * np.getbufsize()) * np.dtype(dtype).itemsize


def lu_factor(
    a: FloatArray,
    backend: Backend = _SERIAL,
    executor: StencilExecutor | None = None,
) -> LuFactorization:
    """Factor ``a`` in its own precision; the input matrix is left untouched.

    The trailing updates run on ``executor`` as one chunk each, on every
    backend. The solve opens no pool of its own: without ``executor`` they
    run inline on a ``StencilExecutor(backend)`` that is never entered.

    Raises :class:`SingularMatrixError` when a pivot column is exactly zero
    below and on the diagonal (graceful degradation stops there; near-zero
    pivots proceed and surface as a large residual instead), and
    ``ValueError`` when ``a`` holds NaN or Inf.
    """
    a = _as_square_float(a).copy()
    n = a.shape[0]
    perm = np.arange(n)
    ex = StencilExecutor(backend) if executor is None else executor
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
        execute_stencil(kernel, KernelPlan(0, tiles, ((0, tiles),)), ex.backend, ex)
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
    """Scaled backward error: ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf),
    or 0.0 where that denominator is 0."""
    r = a @ x - b
    # row sums in blocks of _TILE rows, so |a| is never a full n x n transient
    blocks = (float(np.abs(a[i : i + _TILE]).sum(axis=1).max()) for i in range(0, len(a), _TILE))
    # an empty system has no rows: its norms are 0, as is its denominator
    norm_a = max(blocks, default=0.0)
    denom = norm_a * float(np.abs(x).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    if denom == 0.0:
        return 0.0
    return float(np.abs(r).max()) / denom


def residual_bound(n: int, precision_eps: float) -> float:
    """Acceptance ceiling for :func:`relative_residual`: n * 100 * eps."""
    return n * 100.0 * precision_eps
