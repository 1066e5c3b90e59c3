"""Serial and thread-pool execution of grid stencils.

The contract that everything else leans on: a stencil kernel computes each
output cell with one fixed arithmetic expression, so splitting its index
range into chunks cannot change a single bit of the result. There are no
reductions inside kernels, hence no reassociation. Serial and parallel
execution of the same plan therefore produce byte-identical arrays, and
Parallel(1) behaves exactly like Serial.

Kernels receive a half-open range ``[lo, hi)`` over the leading axis and must
write only cells inside it. Work units are contiguous blocks of at least
``MIN_CHUNK_CELLS`` cells; grids too small to split run serially whatever the
backend says.

Every kernel runs through :func:`execute_stencil` on a
:class:`StencilExecutor` that the caller has entered; the executor only owns
the worker pool's lifetime. The pool starts its threads as chunks are
submitted, so :func:`execute_stencil` is where a thread that cannot start
raises :class:`BackendResourceError`.

A backend is named ``serial``, ``parallel`` (``FDTDKIT_WORKERS`` workers,
else one per CPU) or ``parallel:<k>``. ``k`` and the variable are plain
ASCII decimal with no sign, space, underscore or leading zero, so every
accepted name round-trips through ``str``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

# Smallest work unit, in cells. Anything finer would be dominated by
# dispatch overhead.
MIN_CHUNK_CELLS = 4096

# Environment override for the worker count of `parallel` without an
# explicit count (and the CLI's default parallel backend).
WORKERS_ENV_VAR = "FDTDKIT_WORKERS"

Kernel = Callable[[int, int], None]


class BackendResourceError(RuntimeError):
    """A worker thread of the pool could not be started."""


def _worker_count(text: str) -> int | None:
    """The count ``text`` spells if it is the text ``str(int(text))`` prints, else None."""
    if text.isascii() and text.isdigit() and str(int(text)) == text:
        return int(text)
    return None


def default_worker_count() -> int:
    """Worker count for a bare `parallel` backend: env override, else CPU count."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is None:
        return os.cpu_count() or 1
    count = _worker_count(env)
    if count is None or count < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be a decimal integer >= 1, got {env!r}")
    return count


@dataclass(frozen=True)
class Backend:
    """Execution strategy: serial, or a fork-join pool of ``workers`` threads."""

    kind: str
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("serial", "parallel"):
            raise ValueError(f"backend kind must be 'serial' or 'parallel', got {self.kind!r}")
        if self.kind == "serial" and self.workers != 1:
            raise ValueError("serial backend always has exactly one worker")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")

    @classmethod
    def serial(cls) -> "Backend":
        return cls("serial", 1)

    @classmethod
    def parallel(cls, workers: int | None = None) -> "Backend":
        return cls("parallel", default_worker_count() if workers is None else workers)

    @classmethod
    def parse(cls, text: str) -> "Backend":
        """Parse 'serial', 'parallel', or 'parallel:<k>' with ``k`` plain decimal."""
        if text == "serial":
            return cls.serial()
        if text == "parallel":
            return cls.parallel()
        if text.startswith("parallel:"):
            workers = _worker_count(text[len("parallel:") :])
            if workers is not None:
                return cls.parallel(workers)
        raise ValueError(f"unknown backend {text!r}, expected 'serial' or 'parallel[:k]'")

    @property
    def is_parallel(self) -> bool:
        return self.kind == "parallel"

    def __str__(self) -> str:
        return "serial" if self.kind == "serial" else f"parallel:{self.workers}"


@dataclass(frozen=True)
class KernelPlan:
    """Partition of a leading-axis range into disjoint, covering work units."""

    start: int
    stop: int
    chunks: tuple[tuple[int, int], ...]

    @classmethod
    def for_range(
        cls,
        start: int,
        stop: int,
        backend: Backend,
        cells_per_index: int = 1,
    ) -> "KernelPlan":
        """Build a plan that keeps every work unit at or above the chunk floor.

        ``cells_per_index`` scales an index to a cell count: 1 for flat 1D
        arrays, ny*nz when an index selects a full slab of a 3D grid.
        """
        if stop < start:
            raise ValueError(f"empty range bounds reversed: [{start}, {stop})")
        if cells_per_index < 1:
            raise ValueError("cells_per_index must be >= 1")
        span = stop - start
        if span == 0:
            return cls(start, stop, ())
        total_cells = span * cells_per_index
        if backend.workers == 1 or total_cells < 2 * MIN_CHUNK_CELLS:
            return cls(start, stop, ((start, stop),))
        # Aim for a few chunks per worker, but never drop below the cell floor.
        floor_indices = max(1, math.ceil(MIN_CHUNK_CELLS / cells_per_index))
        max_chunks = max(1, span // floor_indices)
        n_chunks = min(backend.workers * 4, max_chunks)
        bounds = [start + (span * c) // n_chunks for c in range(n_chunks + 1)]
        # n_chunks <= span, so consecutive bounds differ by at least one
        return cls(start, stop, tuple(zip(bounds[:-1], bounds[1:])))

    def __post_init__(self) -> None:
        prev = self.start
        for lo, hi in self.chunks:
            if lo != prev or hi <= lo:
                raise ValueError(f"chunks must tile [{self.start}, {self.stop}) in order")
            prev = hi
        if self.chunks and prev != self.stop:
            raise ValueError("chunks do not cover the full range")
        if not self.chunks and self.stop > self.start:
            raise ValueError("non-empty range needs at least one chunk")


class StencilExecutor:
    """Owns the worker pool for a run; reusable across many stencil calls.

    Entering the context builds the pool once (parallel backends only) so a
    time-stepping loop does not pay pool construction per half-step. Exiting
    joins and tears it down. :func:`execute_stencil` runs kernels on it.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> "StencilExecutor":
        if self.backend.workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=self.backend.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def execute_stencil(
    kernel: Kernel,
    plan: KernelPlan,
    backend: Backend,
    executor: StencilExecutor,
) -> None:
    """Apply ``kernel`` to every chunk of ``plan``; fork-join, no partial results.

    The one path by which any kernel runs. Single-chunk plans (and serial
    backends, by construction) run inline on the caller's thread, as does
    every plan on an executor without a pool. Worker failures, and a thread
    that cannot start (:class:`BackendResourceError`), surface after all
    submitted chunks have settled, so a raise can never leave threads still
    writing. ``backend`` is the one the plan was built for.
    """
    pool = executor._pool
    if len(plan.chunks) <= 1 or pool is None:
        for lo, hi in plan.chunks:
            kernel(lo, hi)
        return
    futures: list[Future] = []
    try:
        for lo, hi in plan.chunks:
            futures.append(pool.submit(kernel, lo, hi))
    except RuntimeError as exc:
        # the refused chunk was queued before its thread failed to start, and
        # a running worker may still take it: joining the pool settles it too
        pool.shutdown(wait=True)
        raise BackendResourceError(f"{executor.backend} could not start a worker thread: {exc}") from exc
    wait(futures)
    for fut in futures:
        exc = fut.exception()
        if exc is not None:
            raise exc
