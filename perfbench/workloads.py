"""The benchmark's workloads: seeded inputs, one timed job, and its gate.

A job is what a user waits for, timed only around calls into fdtdkit's
public functions:

* FDTD: ``SimulationConfig`` plus materials -> ``engine.run`` ->
  ``cli.emit_snapshot_csv`` into a file, up to the file's close.
* Solver: ``StencilExecutor`` -> ``linalg.lu_factor`` -> ``linalg.lu_solve``
  -> ``linalg.relative_residual``.

Inputs come from ``numpy.random.default_rng([seed, job])``, so one seed gives
the same sequence of jobs; generating them is the benchmark's own work and is
never timed. Digests, finiteness checks and byte counts run after the timed
region ends.

Every job takes a ``span(name)`` context-manager factory. The untraced run
passes ``no_span``; the traced run passes ``Tracer.span``.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np

from fdtdkit import backends, cli, engine, linalg, model
from fdtdkit.bench import fdtd_cell_updates, flop_count

SpanFactory = Callable[[str], ContextManager]

SERIAL = backends.Backend.serial()
PARALLEL = backends.Backend.parallel(2)
BACKENDS = (SERIAL, PARALLEL)
# Metric-name suffix per backend.
SUFFIX = {SERIAL: "serial", PARALLEL: "parallel2"}

_NULL = nullcontext()


def no_span(name: str) -> ContextManager:
    return _NULL


def _field_arrays(state: model.FieldState) -> list[np.ndarray]:
    if isinstance(state, model.FieldState3D):
        return list(state.components().values())
    return [state.ez, state.hy]


@dataclass
class JobOutput:
    """What one job produced, plus the gate's inputs, all taken after timing."""

    wall_s: float
    setup_s: float
    digest: bytes
    finite: bool
    residual_ok: bool = True
    facts: dict = field(default_factory=dict)


class FdtdWorkload:
    """A frozen-edge field run written to CSV.

    ``lossy_block`` replaces vacuum with a seeded lossy dielectric block, so
    the coefficients are non-uniform and the materials are built with
    ``MaterialGrid`` rather than ``make_vacuum_materials``.
    """

    kind = "fdtd"
    # Set-up is the same work on both backends, so both twins sample it.
    setup_backends = BACKENDS

    def __init__(
        self,
        name: str,
        extent: int | tuple[int, int, int],
        steps: int,
        precision: model.Precision,
        snapshot_every: int = 0,
        lossy_block: bool = False,
    ):
        self.name = name
        self.extent = extent
        self.steps = steps
        self.precision = precision
        self.snapshot_every = snapshot_every
        self.lossy_block = lossy_block
        self.shape = (extent,) if isinstance(extent, int) else tuple(extent)
        self.cells = int(np.prod(self.shape))
        self.components = 2 if len(self.shape) == 1 else 6

    @property
    def bytes_per_update(self) -> int:
        """Computed traffic of one cell update, never measured.

        Per field component: the coefficient pair, the component's own old
        value, each distinct neighbour component read once, and one write.
        1D updates one component with one neighbour array (5 values); 3D
        updates three components with two neighbour arrays each (18 values).
        """
        values = 5 if len(self.shape) == 1 else 3 * (2 + 1 + 2 + 1)
        return values * self.precision.dtype.itemsize

    @property
    def working_set_bytes(self) -> int:
        """Field components plus the four coefficient arrays."""
        return (self.components + 4) * self.cells * self.precision.dtype.itemsize

    def warmup(self) -> "FdtdWorkload":
        """The same grid and output shape over two steps: every allocation
        size a job makes, at a fraction of its cost."""
        return FdtdWorkload(
            self.name, self.extent, 2, self.precision, min(self.snapshot_every, 1), self.lossy_block
        )

    def make_inputs(self, seed: int, job: int) -> dict:
        rng = np.random.default_rng([seed, job])
        n_lambda = float(rng.uniform(15.0, 40.0))
        if len(self.shape) == 1:
            n = self.shape[0]
            return {"location": int(rng.integers(n // 4, 3 * n // 4)), "n_lambda": n_lambda}
        location = tuple(int(rng.integers(s // 4, 3 * s // 4)) for s in self.shape)
        inputs = {"location": location, "n_lambda": n_lambda}
        if self.lossy_block:
            dtype = self.precision.dtype
            block = []
            for size in self.shape:
                lo = int(rng.integers(2, size // 2))
                block.append(slice(lo, min(size - 2, lo + int(rng.integers(size // 4, size // 2)))))
            block = tuple(block)
            epsilon = np.ones(self.shape, dtype)
            sigma = np.zeros(self.shape, dtype)
            epsilon[block] = rng.uniform(2.0, 6.0)
            sigma[block] = rng.uniform(0.005, 0.05)
            inputs["materials"] = {
                "epsilon": epsilon,
                "mu": np.ones(self.shape, dtype),
                "sigma": sigma,
                "sigma_star": np.zeros(self.shape, dtype),
            }
        return inputs

    def run_job(self, inputs: dict, backend: backends.Backend, span: SpanFactory, csv_path: str) -> JobOutput:
        t0 = time.perf_counter()
        with span("model"):
            config = model.SimulationConfig(
                extent=self.extent,
                time_tot=self.steps,
                source=model.SourceSpec(location=inputs["location"], n_lambda=inputs["n_lambda"]),
                precision=self.precision,
                snapshot_every=self.snapshot_every,
            )
            if self.lossy_block:
                materials = model.MaterialGrid(**inputs["materials"])
            else:
                materials = model.make_vacuum_materials(config.extent, config.precision)
        t1 = time.perf_counter()
        with span("engine.run"):
            series = engine.run(config, materials, backend)
        with span("cli.emit"):
            with open(csv_path, "w", encoding="utf-8") as fh:
                cli.emit_snapshot_csv(series, fh)
        t2 = time.perf_counter()

        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        facts = {
            "cell_updates": fdtd_cell_updates(config),
            "csv_bytes": os.path.getsize(csv_path),
            "snapshots": len(series.states),
            "snapshot_bytes": sum(a.nbytes for state in series.states for a in _field_arrays(state)),
        }
        os.remove(csv_path)
        return JobOutput(
            wall_s=t2 - t0,
            setup_s=t1 - t0,
            digest=digest,
            finite=all(bool(np.isfinite(a).all()) for a in _field_arrays(series.final)),
            facts=facts,
        )


class LuWorkload:
    """Dense left division: the ``run_linsolve_bench`` matrix recipe."""

    kind = "lu"
    bytes_per_update = 0
    # Only the parallel twin's set-up starts a pool; the serial twin's is a
    # bare object construction, and mixing the two would make the median
    # jump between them.
    setup_backends = (PARALLEL,)

    def __init__(self, name: str, n: int, precision: model.Precision):
        self.name = name
        self.n = n
        self.precision = precision

    @property
    def working_set_bytes(self) -> int:
        return self.n * self.n * self.precision.dtype.itemsize

    def warmup(self) -> "LuWorkload":
        return self

    def make_inputs(self, seed: int, job: int) -> dict:
        rng = np.random.default_rng([seed, job])
        dtype = self.precision.dtype
        a = rng.uniform(-1.0, 1.0, (self.n, self.n)).astype(dtype)
        np.fill_diagonal(a, a.diagonal() + dtype.type(self.n))
        b = rng.uniform(-1.0, 1.0, self.n).astype(dtype)
        return {"a": a, "b": b}

    def run_job(self, inputs: dict, backend: backends.Backend, span: SpanFactory, csv_path: str) -> JobOutput:
        a, b = inputs["a"], inputs["b"]
        t0 = time.perf_counter()
        with backends.StencilExecutor(backend) as ex:
            t1 = time.perf_counter()
            with span("linalg.factor"):
                fac = linalg.lu_factor(a, backend, ex)
            with span("linalg.solve"):
                x = linalg.lu_solve(fac, b)
        with span("linalg.residual"):
            residual = linalg.relative_residual(a, x, b)
        t2 = time.perf_counter()

        digest = hashlib.sha256(fac.lu.tobytes() + fac.perm.tobytes() + x.tobytes()).digest()
        return JobOutput(
            wall_s=t2 - t0,
            setup_s=t1 - t0,
            digest=digest,
            finite=bool(np.isfinite(fac.lu).all() and np.isfinite(x).all()),
            residual_ok=residual <= linalg.residual_bound(self.n, self.precision.eps),
            facts={"residual": residual, "flops": flop_count(self.n)},
        )


WORKLOADS = {
    w.name: w
    for w in (
        FdtdWorkload("yee1d-long", 2**19, 300, model.Precision.DOUBLE),
        FdtdWorkload(
            "yee3d-lossy-snap",
            (48, 48, 48),
            200,
            model.Precision.SINGLE,
            snapshot_every=100,
            lossy_block=True,
        ),
        LuWorkload("lu-dense", 1024, model.Precision.DOUBLE),
    )
}
