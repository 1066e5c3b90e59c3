"""Work partitioning and the serial/parallel equivalence contract."""

import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fdtdkit.backends import (
    MIN_CHUNK_CELLS,
    WORKERS_ENV_VAR,
    Backend,
    BackendResourceError,
    KernelPlan,
    StencilExecutor,
    default_worker_count,
    execute_stencil,
)
from fdtdkit.engine import run
from fdtdkit.linalg import lu_factor
from fdtdkit.model import SimulationConfig, SourceSpec


def test_backend_parse_roundtrip():
    assert Backend.parse("serial") == Backend.serial()
    assert Backend.parse("parallel:4") == Backend("parallel", 4)
    assert str(Backend.parse("parallel:4")) == "parallel:4"
    assert str(Backend.serial()) == "serial"


def test_backend_parse_rejects_unknown():
    # k is plain decimal: no underscore, space, sign, leading zero or non-ASCII digit
    for text in (
        "gpu", "parallel:x", "parallel:",
        "parallel:1_0", "parallel: 2", "parallel:+2", "parallel:02", "parallel:\uff12",
    ):
        with pytest.raises(ValueError, match=re.escape(f"unknown backend {text!r}")):
            Backend.parse(text)
    with pytest.raises(ValueError, match=">= 1"):
        Backend.parse("parallel:0")
    with pytest.raises(ValueError):
        Backend("serial", 2)


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "3")
    assert default_worker_count() == 3
    assert Backend.parse("parallel").workers == 3
    monkeypatch.setenv(WORKERS_ENV_VAR, "0")
    with pytest.raises(ValueError):
        default_worker_count()
    # a non-integer names the variable, so the CLI's exit-2 message says what to fix
    for text in ("abc", "1_0", " 4", "+2"):
        monkeypatch.setenv(WORKERS_ENV_VAR, text)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            default_worker_count()


def test_worker_count_without_the_env_var_is_the_cpu_count(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert default_worker_count() == 7
    # os.cpu_count() is None when the count cannot be determined
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_worker_count() == 1


def test_plan_single_chunk_when_small_or_serial():
    serial = KernelPlan.for_range(0, 100, Backend.serial())
    assert serial.chunks == ((0, 100),)
    # parallel backend, but too little work to be worth splitting
    small = KernelPlan.for_range(0, MIN_CHUNK_CELLS, Backend.parallel(8))
    assert small.chunks == ((0, MIN_CHUNK_CELLS),)


def test_an_empty_range_plans_no_chunks_and_runs_nothing():
    calls = []
    for backend in (Backend.serial(), Backend.parallel(4)):
        plan = KernelPlan.for_range(5, 5, backend)
        assert (plan.start, plan.stop, plan.chunks) == (5, 5, ())
        with StencilExecutor(backend) as ex:
            execute_stencil(lambda lo, hi: calls.append((lo, hi)), plan, backend, ex)
    assert calls == []


def test_plan_partition_tiles_range():
    plan = KernelPlan.for_range(3, 100_003, Backend.parallel(4))
    assert plan.chunks[0][0] == 3
    assert plan.chunks[-1][1] == 100_003
    for (_, hi), (lo, _) in zip(plan.chunks[:-1], plan.chunks[1:]):
        assert hi == lo
    # every chunk respects the cell floor
    assert all(hi - lo >= MIN_CHUNK_CELLS for lo, hi in plan.chunks)
    assert len(plan.chunks) > 1
    # one chunk per worker once the range clears the floor that often
    assert len(plan.chunks) == 4


def test_plan_scales_by_cells_per_index():
    # 40 slab indices of 64*64 cells each: plenty of cells, few indices
    plan = KernelPlan.for_range(0, 40, Backend.parallel(4), cells_per_index=64 * 64)
    assert plan.chunks[0][0] == 0 and plan.chunks[-1][1] == 40
    assert 1 < len(plan.chunks) <= 16
    assert all((hi - lo) * 64 * 64 >= MIN_CHUNK_CELLS for lo, hi in plan.chunks)


def test_plan_rejects_malformed_chunks():
    with pytest.raises(ValueError):
        KernelPlan(0, 10, ((0, 5), (6, 10)))
    with pytest.raises(ValueError):
        KernelPlan(0, 10, ((0, 5),))
    with pytest.raises(ValueError):
        KernelPlan.for_range(10, 0, Backend.serial())


def test_kernel_coverage_exact_no_overlap():
    """Every index is written exactly once, nothing outside the range."""
    for backend in (Backend.serial(), Backend.parallel(2), Backend.parallel(8)):
        counts = np.zeros(3 * MIN_CHUNK_CELLS + 7, dtype=np.int64)

        def kernel(lo, hi):
            counts[lo:hi] += 1

        plan = KernelPlan.for_range(5, counts.shape[0] - 2, backend)
        with StencilExecutor(backend) as ex:
            execute_stencil(kernel, plan, backend, ex)
        assert np.all(counts[5 : counts.shape[0] - 2] == 1)
        assert np.all(counts[:5] == 0) and np.all(counts[-2:] == 0)


def test_parallel_one_equals_serial_plan():
    a = KernelPlan.for_range(0, 50_000, Backend.parallel(1))
    b = KernelPlan.for_range(0, 50_000, Backend.serial())
    assert a.chunks == b.chunks == ((0, 50_000),)


def test_stencil_bitwise_across_workers():
    rng = np.random.default_rng(2024)
    src = rng.standard_normal(120_000)
    coeff = rng.standard_normal(120_000)
    results = []
    for backend in (Backend.serial(), Backend.parallel(1), Backend.parallel(4), Backend.parallel(8)):
        out = np.zeros_like(src)

        def kernel(lo, hi):
            out[lo:hi] = coeff[lo:hi] * src[lo:hi] + (src[lo:hi] - coeff[lo:hi])

        with StencilExecutor(backend) as ex:
            execute_stencil(kernel, KernelPlan.for_range(0, src.shape[0], backend), backend, ex)
        results.append(out.copy())
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_executor_reuse_and_worker_exceptions():
    backend = Backend.parallel(2)
    with StencilExecutor(backend) as ex:
        out = np.zeros(3 * MIN_CHUNK_CELLS)

        def fill(lo, hi):
            out[lo:hi] = 1.0

        execute_stencil(fill, KernelPlan.for_range(0, out.shape[0], backend), backend, ex)
        assert np.all(out == 1.0)

        def boom(lo, hi):
            raise RuntimeError("kernel failure")

        with pytest.raises(RuntimeError, match="kernel failure"):
            execute_stencil(boom, KernelPlan.for_range(0, out.shape[0], backend), backend, ex)


def test_backend_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="'serial' or 'parallel'"):
        Backend("gpu")


def test_plan_rejects_a_bad_cell_scale_and_a_chunkless_range():
    with pytest.raises(ValueError, match="cells_per_index"):
        KernelPlan.for_range(0, 10, Backend.serial(), cells_per_index=0)
    with pytest.raises(ValueError, match="at least one chunk"):
        KernelPlan(0, 10, ())


def test_entering_an_executor_starts_no_thread():
    # threads start with the first submits, so an entered pool costs no start-up
    before = threading.active_count()
    with StencilExecutor(Backend.parallel(4)):
        assert threading.active_count() == before


def test_a_thread_that_cannot_start_is_a_backend_resource_error(refused_thread_starts):
    backend = Backend.parallel(2)
    plan = KernelPlan.for_range(0, 4 * MIN_CHUNK_CELLS, backend)
    with StencilExecutor(backend) as ex:
        with pytest.raises(BackendResourceError, match="parallel:2") as err:
            execute_stencil(lambda lo, hi: None, plan, backend, ex)
    assert isinstance(err.value.__cause__, RuntimeError)


def test_a_refused_submit_raises_once_the_submitted_chunks_have_returned(monkeypatch):
    submit = ThreadPoolExecutor.submit
    submits = []

    def second_refused(self, fn, /, *args):
        submits.append(args)
        if len(submits) > 1:
            raise RuntimeError("can't start new thread")
        return submit(self, fn, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", second_refused)
    returned = []

    def slow(lo, hi):
        time.sleep(0.05)
        returned.append((lo, hi))

    backend = Backend.parallel(2)
    plan = KernelPlan.for_range(0, 4 * MIN_CHUNK_CELLS, backend)
    with StencilExecutor(backend) as ex:
        with pytest.raises(BackendResourceError):
            execute_stencil(slow, plan, backend, ex)
        # no thread is still writing when the error reaches the caller
        assert returned == [plan.chunks[0]]
    assert len(submits) == 2


def test_run_reports_a_thread_that_cannot_start_and_lu_factor_starts_none(refused_thread_starts):
    backend = Backend.parallel(2)
    config = SimulationConfig(extent=2**14, time_tot=2, source=SourceSpec(location=2**13))
    with pytest.raises(BackendResourceError, match="parallel:2"):
        run(config, backend=backend)
    # BLAS is the one parallel layer of the solve: every trailing update is one
    # chunk on the caller's thread, so no backend submits to its pool
    a = np.random.default_rng(5).uniform(-1.0, 1.0, (256, 256))
    serial = lu_factor(a)
    for workers in (2, 8):
        par = lu_factor(a, Backend.parallel(workers))
        assert par.lu.tobytes() == serial.lu.tobytes()
        assert par.perm.tobytes() == serial.perm.tobytes()
