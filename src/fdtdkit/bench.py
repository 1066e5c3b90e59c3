"""Benchmark suite: memory bandwidth, dense solves, and field-update throughput.

Conventions used throughout, chosen once and stated here:

* A megabyte is 2**20 bytes. Bandwidth numbers are MB/s in that binary sense.
* The flop model for a dense left division (factor plus both triangular
  solves) is ``(2/3) n^3 + 2 n^2``. Reported gigaflops divide that model by
  the measured wall time; the factorization and solve are timed together,
  and the numbers say so by construction.
* Every timed quantity is the median of at least three samples, and each
  sample is stretched to a minimum measurement window by batching, so timer
  resolution never dominates.
* Oversized problems are skipped with a reason, never attempted: a skip
  record is an answer, a MemoryError mid-sweep is not.

All randomness flows from an explicit seed through ``numpy.random.default_rng``;
the same seed reproduces the same matrices, residuals, and record streams
bit for bit (timing fields aside).
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence, Union

import numpy as np

from .backends import Backend, StencilExecutor
from .engine import run
from .linalg import lu_factor, lu_solve, relative_residual
from .model import Precision, SimulationConfig

# Binary megabyte used by every bandwidth figure in this module.
MB = float(2**20)

# Skip reason recorded when a problem would not fit under the memory cap.
SKIP_MEMORY_LIMIT = "MemoryLimit"

# Shortest wall-clock span a single timing sample may cover.
MIN_WINDOW_S = 0.2

BANDWIDTH_TIERS = ("fresh-allocation", "warm-buffer")


class NonPositiveInputError(ValueError):
    """A count, size, or duration that must be positive was not."""


class MismatchedPairError(ValueError):
    """Speedup requested for records that do not describe the same problem."""


class InsufficientSamplesError(ValueError):
    """Fewer timing samples than the minimum needed for a robust median."""

    def __init__(self, got: int, need: int = 3):
        self.got = got
        self.need = need
        super().__init__(f"need at least {need} timing samples, got {got}")


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise NonPositiveInputError(f"{name} must be positive, got {value!r}")


def compute_bandwidth(nbytes: int, elapsed_s: float, repeats: int) -> float:
    """MB/s for moving ``nbytes`` bytes ``repeats`` times in ``elapsed_s`` seconds."""
    _require_positive("nbytes", nbytes)
    _require_positive("elapsed_s", elapsed_s)
    _require_positive("repeats", repeats)
    return (nbytes * repeats / MB) / elapsed_s


def flop_count(n: int) -> float:
    """Flops in one dense left division of order ``n``: (2/3) n^3 + 2 n^2.

    Covers the factorization plus both triangular solves; a single model is
    applied uniformly so throughput numbers stay comparable across sizes.
    """
    if n < 1:
        raise NonPositiveInputError(f"n must be >= 1, got {n}")
    return (2.0 * float(n) ** 3) / 3.0 + 2.0 * float(n) ** 2


def default_memory_cap() -> int:
    """Total system RAM in bytes, or a 4 GiB fallback when unknowable."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            return int(pages) * int(page_size)
    except (ValueError, OSError, AttributeError):
        pass
    return 4 * 2**30


def estimate_solve_bytes(n: int, precision: Precision) -> int:
    """Footprint model for one benchmark solve: two n*n matrices plus vectors.

    One matrix is factored in place, the original is kept for the residual
    check, and a handful of length-n vectors tag along.
    """
    itemsize = precision.dtype.itemsize
    return (2 * n * n + 4 * n) * itemsize


def _timed_samples(op: Callable[[], object], repeats: int) -> list[float]:
    """Per-call seconds, ``repeats`` samples, each stretched to the window.

    A calibration pass sizes an inner batch so one sample spans at least
    ``MIN_WINDOW_S``; the batch mean is the per-call figure for that sample.
    """
    if repeats < 3:
        raise InsufficientSamplesError(repeats)
    t0 = time.perf_counter()
    op()
    first = time.perf_counter() - t0
    inner = 1
    if first < MIN_WINDOW_S:
        inner = max(1, math.ceil(MIN_WINDOW_S / max(first, 1e-9)))
    samples: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            op()
        samples.append((time.perf_counter() - t0) / inner)
    return samples


# --- records --------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthRecord:
    """One copy-bandwidth measurement at a given tier and transfer size."""

    tier: str
    nbytes: int
    repeats: int
    elapsed_s: float
    mb_per_s: float

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "bench": "bandwidth",
            "tier": self.tier,
            "bytes": self.nbytes,
            "repeats": self.repeats,
            "precision": None,
            "backend": "serial",
            "elapsed_s": self.elapsed_s if include_timing else None,
            "flops": None,
            "mb_per_s": self.mb_per_s if include_timing else None,
            "residual": None,
            "skipped": None,
        }


@dataclass(frozen=True)
class SolveBenchRecord:
    """One dense-solve measurement, or a skip entry when it never ran."""

    bench: ClassVar[str] = "linsolve"
    n: int
    precision: Precision
    backend: Backend
    elapsed_s: float | None
    flops: float | None
    gigaflops: float | None
    residual: float | None
    skipped: str | None = None

    @property
    def rate(self) -> float | None:
        return self.gigaflops

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "bench": self.bench,
            "n": self.n,
            "precision": self.precision.value,
            "backend": str(self.backend),
            "elapsed_s": self.elapsed_s if include_timing else None,
            "flops": self.flops,
            "gigaflops": self.gigaflops if include_timing else None,
            "residual": self.residual,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class FdtdBenchRecord:
    """Field-update throughput for one grid, step count, and backend."""

    bench: ClassVar[str] = "fdtd"
    cells: int
    steps: int
    precision: Precision
    backend: Backend
    elapsed_s: float
    updates_per_s: float

    @property
    def n(self) -> int:
        return self.cells

    @property
    def rate(self) -> float:
        return self.updates_per_s

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "bench": self.bench,
            "n": self.cells,
            "steps": self.steps,
            "precision": self.precision.value,
            "backend": str(self.backend),
            "elapsed_s": self.elapsed_s if include_timing else None,
            "flops": None,
            "updates_per_s": self.updates_per_s if include_timing else None,
            "residual": None,
            "skipped": None,
        }


@dataclass(frozen=True)
class SpeedupRecord:
    """Serial/parallel rate pair for one problem; rates are gigaflops for
    solver benches and cell-updates/s for field benches."""

    bench: str
    n: int
    precision: Precision
    backend_parallel: Backend
    rate_serial: float
    rate_parallel: float
    speedup: float

    def key(self) -> str:
        return f"{self.bench}:{self.n}:{self.precision.value}:{self.backend_parallel}"

    def to_json_dict(self) -> dict:
        return {
            "serial": self.rate_serial,
            "parallel": self.rate_parallel,
            "speedup": self.speedup,
        }


# A record that carries a rate and can be paired into a speedup.
RateRecord = Union[SolveBenchRecord, FdtdBenchRecord]


def compute_speedup(parallel: RateRecord, serial: RateRecord) -> SpeedupRecord:
    """Pair a parallel and a serial record for the same problem.

    Raises :class:`MismatchedPairError` when sizes or precisions differ, or
    when the records come from different bench kinds or are skips.
    """
    if parallel.bench != serial.bench:
        raise MismatchedPairError(f"bench kinds differ: {parallel.bench} vs {serial.bench}")
    if parallel.n != serial.n:
        raise MismatchedPairError(f"sizes differ: {parallel.n} vs {serial.n}")
    if parallel.precision is not serial.precision:
        raise MismatchedPairError(
            f"precisions differ: {parallel.precision.value} vs {serial.precision.value}"
        )
    if not parallel.backend.is_parallel or serial.backend.is_parallel:
        raise MismatchedPairError("expected (parallel, serial) in that order")
    if parallel.rate is None or serial.rate is None:
        raise MismatchedPairError("cannot compute a speedup from skip records")
    return SpeedupRecord(
        bench=parallel.bench,
        n=parallel.n,
        precision=parallel.precision,
        backend_parallel=parallel.backend,
        rate_serial=serial.rate,
        rate_parallel=parallel.rate,
        speedup=parallel.rate / serial.rate,
    )


def pair_speedups(records: Sequence[RateRecord]) -> list[SpeedupRecord]:
    """Match each parallel measurement with the serial one for its problem."""
    serial_by_key = {
        (r.n, r.precision): r
        for r in records
        if not r.backend.is_parallel and r.rate is not None
    }
    pairs = []
    for rec in records:
        if rec.backend.is_parallel and rec.rate is not None:
            serial = serial_by_key.get((rec.n, rec.precision))
            if serial is not None:
                pairs.append(compute_speedup(rec, serial))
    return pairs


def speedup_summary(speedups: Sequence[SpeedupRecord]) -> dict:
    """Summary document keyed by bench:n:precision:backend."""
    return {rec.key(): rec.to_json_dict() for rec in speedups}


# --- bandwidth ------------------------------------------------------------


def measure_copy_bandwidth(nbytes: int, repeats: int = 5, tier: str = "warm-buffer") -> BandwidthRecord:
    """Time block copies between two byte buffers.

    The warm-buffer tier reuses both buffers across repeats and measures the
    steady in-memory copy rate. The fresh-allocation tier allocates the
    destination inside the timed region, so page faults and allocator work
    count. The two tiers probe different costs the way staged transfers and
    in-place copies do on accelerators; they are both host measurements, not
    a reproduction of any device figure.

    ``elapsed_s`` is the median per-copy time scaled by ``repeats``, so the
    stored rate always equals ``compute_bandwidth(nbytes, elapsed_s, repeats)``.
    """
    _require_positive("nbytes", nbytes)
    if tier not in BANDWIDTH_TIERS:
        raise ValueError(f"tier must be one of {BANDWIDTH_TIERS}, got {tier!r}")
    src = np.ones(nbytes, dtype=np.uint8)
    if tier == "warm-buffer":
        dst = np.zeros(nbytes, dtype=np.uint8)

        def op() -> None:
            np.copyto(dst, src)

    else:

        def op() -> None:
            fresh = np.empty(nbytes, dtype=np.uint8)
            np.copyto(fresh, src)

    samples = _timed_samples(op, repeats)
    elapsed = statistics.median(samples) * repeats
    return BandwidthRecord(
        tier=tier,
        nbytes=nbytes,
        repeats=repeats,
        elapsed_s=elapsed,
        mb_per_s=compute_bandwidth(nbytes, elapsed, repeats),
    )


def run_bandwidth_bench(sizes: Sequence[int], repeats: int = 5) -> list[BandwidthRecord]:
    """Both tiers at every size, fresh-allocation first."""
    return [
        measure_copy_bandwidth(nbytes, repeats, tier)
        for tier in BANDWIDTH_TIERS
        for nbytes in sizes
    ]


# --- dense solves ---------------------------------------------------------


def _solve_problem(n: int, precision: Precision, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded test system: uniform entries with an n*I diagonal boost.

    The boost keeps the matrix comfortably nonsingular so residuals measure
    the solver, not the conditioning lottery. The draw depends only on
    (seed, n); precisions share it and round it to their own dtype.
    """
    rng = np.random.default_rng([seed, n])
    a64 = rng.uniform(-1.0, 1.0, (n, n))
    b64 = rng.uniform(-1.0, 1.0, n)
    dtype = precision.dtype
    a = a64.astype(dtype)
    np.fill_diagonal(a, a.diagonal() + dtype.type(n))
    return a, b64.astype(dtype)


def run_linsolve_bench(
    sizes: Sequence[int],
    precisions: Sequence[Precision] = (Precision.SINGLE, Precision.DOUBLE),
    backends: Sequence[Backend] = (Backend.serial(),),
    seed: int = 0,
    repeats: int = 3,
    memory_cap_bytes: int | None = None,
) -> list[SolveBenchRecord]:
    """Dense-solve sweep over sizes, precisions, and backends.

    Problems whose footprint model exceeds the memory cap produce a skip
    record with reason ``MemoryLimit`` and are never allocated. Identical
    seeds give bitwise-identical matrices, solutions, and residuals. Before
    timing, every backend's factors, pivots and solution are checked
    byte-for-byte against the first backend's; a mismatch is a hard error.
    """
    cap = default_memory_cap() if memory_cap_bytes is None else memory_cap_bytes
    records: list[SolveBenchRecord] = []
    for n in sizes:
        if n < 1:
            raise NonPositiveInputError(f"matrix order must be >= 1, got {n}")
        for precision in precisions:
            needed = estimate_solve_bytes(n, precision)
            if needed > cap:
                for backend in backends:
                    records.append(
                        SolveBenchRecord(
                            n=n,
                            precision=precision,
                            backend=backend,
                            elapsed_s=None,
                            flops=None,
                            gigaflops=None,
                            residual=None,
                            skipped=SKIP_MEMORY_LIMIT,
                        )
                    )
                continue
            a, b = _solve_problem(n, precision, seed)
            reference: bytes | None = None
            for backend in backends:
                with StencilExecutor(backend) as ex:
                    fac = lu_factor(a, backend, ex)
                    x = lu_solve(fac, b)
                    blob = fac.lu.tobytes() + fac.perm.tobytes() + x.tobytes()
                    if reference is None:
                        reference = blob
                    elif blob != reference:
                        raise AssertionError(
                            f"backend {backend} disagrees with {backends[0]} on n={n} {precision.value}"
                        )
                    samples = _timed_samples(
                        lambda: lu_solve(lu_factor(a, backend, ex), b), repeats
                    )
                elapsed = statistics.median(samples)
                flops = flop_count(n)
                records.append(
                    SolveBenchRecord(
                        n=n,
                        precision=precision,
                        backend=backend,
                        elapsed_s=elapsed,
                        flops=flops,
                        gigaflops=flops / elapsed / 1e9,
                        residual=relative_residual(a, x, b),
                    )
                )
    return records


# --- field updates --------------------------------------------------------


def fdtd_cell_updates(config: SimulationConfig) -> int:
    """Cell updates in one run: cells * two half-steps * steps."""
    return config.cell_count * 2 * config.time_tot


def run_fdtd_bench(
    configs: Sequence[SimulationConfig],
    backends: Sequence[Backend] = (Backend.serial(),),
    repeats: int = 3,
) -> list[FdtdBenchRecord]:
    """Time full runs per backend; :func:`pair_speedups` pairs the rates.

    Before timing, every backend's final snapshot is checked byte-for-byte
    against the first backend's; a mismatch is a hard error because a fast
    wrong answer is not a benchmark result.
    """
    records: list[FdtdBenchRecord] = []
    for config in configs:
        reference: bytes | None = None
        for backend in backends:
            series = run(config, backend=backend)
            blob = b"".join(arr.tobytes() for arr in series.final.components().values())
            if reference is None:
                reference = blob
            elif blob != reference:
                raise AssertionError(
                    f"backend {backend} disagrees with {backends[0]} on {config.shape}"
                )
            samples = _timed_samples(lambda: run(config, backend=backend), repeats)
            elapsed = statistics.median(samples)
            rec = FdtdBenchRecord(
                cells=config.cell_count,
                steps=config.time_tot,
                precision=config.precision,
                backend=backend,
                elapsed_s=elapsed,
                updates_per_s=fdtd_cell_updates(config) / elapsed,
            )
            records.append(rec)
    return records
