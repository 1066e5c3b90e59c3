"""Factorization correctness, pivoting, residual bounds, backend determinism."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdtdkit.backends import Backend, StencilExecutor
from fdtdkit.bench import _solve_problem, estimate_solve_bytes
from fdtdkit.linalg import (
    LuFactorization,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    relative_residual,
    residual_bound,
    workspace_bytes,
)
from fdtdkit.model import Precision


def _factors(fac):
    """Dense unit lower and upper triangles of the compact factors."""
    lower = np.tril(fac.lu, -1)
    np.fill_diagonal(lower, 1.0)
    return lower, np.triu(fac.lu)


def test_identity_factors_to_itself():
    eye = np.eye(4)
    fac = lu_factor(eye)
    np.testing.assert_array_equal(fac.lu, eye)
    np.testing.assert_array_equal(fac.perm, np.arange(4))


def test_two_by_two_hand_example():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    fac = lu_factor(a)
    # no pivot swap: multiplier 0.5, Schur complement 3 - 0.5*1 = 2.5
    np.testing.assert_array_equal(fac.lu, [[2.0, 1.0], [0.5, 2.5]])
    np.testing.assert_array_equal(fac.perm, [0, 1])
    lower, upper = _factors(fac)
    np.testing.assert_array_equal(lower, [[1.0, 0.0], [0.5, 1.0]])
    np.testing.assert_array_equal(upper, [[2.0, 1.0], [0.0, 2.5]])
    x = lu_solve(fac, np.array([3.0, 5.0]))
    np.testing.assert_allclose(x, [0.8, 1.4], rtol=1e-15)


def test_pivoting_swaps_rows():
    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    fac = lu_factor(a)
    np.testing.assert_array_equal(fac.perm, [1, 0])
    np.testing.assert_array_equal(fac.lu, [[2.0, 0.0], [0.0, 1.0]])
    x = lu_solve(fac, np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)


def test_permuted_rows_reconstruct_the_matrix():
    rng = np.random.default_rng(31)
    a = rng.uniform(-1.0, 1.0, (12, 12))
    fac = lu_factor(a)
    lower, upper = _factors(fac)
    np.testing.assert_allclose(lower @ upper, a[fac.perm], rtol=0, atol=1e-13)


def test_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError) as err:
        lu_factor(np.zeros((3, 3)))
    assert err.value.column == 0


def test_rank_deficient_matrix_is_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        lu_factor(a)
    assert err.value.column == 1


def test_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lu_factor(np.ones((3, 4)))
    with pytest.raises(ValueError):
        lu_factor(np.ones((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        LuFactorization(lu=np.ones((2, 2)), perm=np.array([0, 1, 2]))


def test_factors_and_right_hand_side_must_fit():
    with pytest.raises(ValueError, match="square"):
        LuFactorization(lu=np.ones((2, 3)), perm=np.arange(2))
    fac = lu_factor(np.array([[2.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match=r"b must have shape \(2,\)"):
        lu_solve(fac, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_and_solve_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        lu_factor(np.array([[bad, 1.0], [1.0, 1.0]]))
    fac = lu_factor(np.array([[2.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        lu_solve(fac, np.array([1.0, bad]))


def test_input_matrix_is_not_destroyed():
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    kept = a.copy()
    lu_factor(a)
    np.testing.assert_array_equal(a, kept)


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_seeded_residual_sweep(precision):
    rng = np.random.default_rng(99)
    dtype = precision.dtype
    for n in (5, 17, 60, 150):
        a = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(a, a.diagonal() + n)
        a = a.astype(dtype)
        b = rng.uniform(-1.0, 1.0, n).astype(dtype)
        x = lu_solve(lu_factor(a), b)
        assert x.dtype == dtype
        assert relative_residual(a, x, b) <= residual_bound(n, precision.eps)


def test_residual_bound_formula():
    assert residual_bound(64, 2.0**-52) == 64 * 100 * 2.0**-52
    assert residual_bound(1024, np.finfo(np.float32).eps) == 1024 * 100 * np.finfo(np.float32).eps


def test_parallel_factor_is_bitwise_serial():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, (300, 300))
    np.fill_diagonal(a, a.diagonal() + 300.0)
    serial = lu_factor(a)
    for backend in (Backend.parallel(1), Backend.parallel(2), Backend.parallel(4)):
        par = lu_factor(a, backend)
        assert np.array_equal(serial.lu, par.lu)
        assert np.array_equal(serial.perm, par.perm)


def test_repeat_factorization_is_deterministic():
    rng = np.random.default_rng(13)
    a = rng.uniform(-1.0, 1.0, (40, 40))
    first = lu_factor(a)
    second = lu_factor(a)
    assert np.array_equal(first.lu, second.lu)
    assert np.array_equal(first.perm, second.perm)


def test_solve_accepts_float64_rhs_for_float32_matrix():
    rng = np.random.default_rng(3)
    a = (rng.uniform(-1.0, 1.0, (8, 8)) + 8 * np.eye(8)).astype(np.float32)
    b64 = rng.uniform(-1.0, 1.0, 8)
    x = lu_solve(lu_factor(a), b64)
    assert x.dtype == np.float32
    assert relative_residual(a, x, b64.astype(np.float32)) <= residual_bound(8, Precision.SINGLE.eps)


def test_relative_residual_of_exact_solution_is_zero():
    a = np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    assert relative_residual(a, b, b) == 0.0


def test_zero_pivot_past_the_first_panel_names_its_column():
    a = np.zeros((101, 101))
    a[:100, :100] = np.eye(100)
    for backend in (Backend.serial(), Backend.parallel(2)):
        with pytest.raises(SingularMatrixError) as err:
            lu_factor(a, backend)
        assert err.value.column == 100


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
from fdtdkit.backends import Backend
from fdtdkit.bench import _solve_problem
from fdtdkit.linalg import lu_factor, lu_solve
from fdtdkit.model import Precision

for precision in (Precision.SINGLE, Precision.DOUBLE):
    a, b = _solve_problem(1000, precision, 17)
    for backend in (Backend.serial(), Backend.parallel(2)):
        fac = lu_factor(a, backend)
        x = lu_solve(fac, b)
        blob = fac.lu.tobytes() + fac.perm.tobytes() + x.tobytes()
        print(precision.value, backend, hashlib.sha256(blob).hexdigest())
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    # n = 1000 is not a multiple of the trailing-update tile, so the last
    # tile of every step is a narrower GEMM.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.splitlines())
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]
    # every backend agrees within a precision as well
    for lines in (digests[0][:2], digests[0][2:]):
        assert len({line.split()[-1] for line in lines}) == 1


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE], ids=lambda p: p.value)
@pytest.mark.parametrize("backend", [Backend.serial(), Backend.parallel(2)], ids=str)
def test_factor_and_solve_peak_memory_is_within_the_solve_model(precision, backend):
    n = 512
    a, b = _solve_problem(n, precision, 3)
    budget = estimate_solve_bytes(n, precision) + workspace_bytes(n, a.dtype, backend.workers)
    with StencilExecutor(backend) as ex:
        tracemalloc.start()
        try:
            lu_solve(lu_factor(a, backend, ex), b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the caller's matrix and right-hand side were allocated before tracing
    assert peak <= budget - a.nbytes


def test_residual_with_the_factors_alive_is_within_the_solve_model():
    # perfbench's lu-dense job takes the residual while it still holds the
    # factors, so the norm of a must not need an n x n transient of its own
    n, precision, backend = 1024, Precision.DOUBLE, Backend.parallel(2)
    a, b = _solve_problem(n, precision, 3)
    budget = estimate_solve_bytes(n, precision) + workspace_bytes(n, a.dtype, backend.workers)
    with StencilExecutor(backend) as ex:
        tracemalloc.start()
        try:
            fac = lu_factor(a, backend, ex)
            relative_residual(a, lu_solve(fac, b), b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the caller's matrix and right-hand side were allocated before tracing
    assert peak <= budget - a.nbytes
