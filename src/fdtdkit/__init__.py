"""Yee-grid FDTD solver with deterministic execution backends and benchmarks."""

from .backends import (
    Backend,
    BackendResourceError,
    KernelPlan,
    StencilExecutor,
    execute_stencil,
)
from .bench import (
    InsufficientSamplesError,
    compute_bandwidth,
    compute_speedup,
    flop_count,
    measure_copy_bandwidth,
    run_fdtd_bench,
    run_linsolve_bench,
)
from .engine import (
    SnapshotSeries,
    UpdateCoefficients,
    field_energy,
    run,
    step,
)
from .linalg import (
    LuFactorization,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    relative_residual,
    residual_bound,
)
from .model import (
    FieldState1D,
    FieldState3D,
    MaterialGrid,
    NonFiniteFieldError,
    Precision,
    SimulationConfig,
    SourceSpec,
    UnstableCourantError,
    make_vacuum_materials,
    validate_stability,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendResourceError",
    "FieldState1D",
    "FieldState3D",
    "InsufficientSamplesError",
    "KernelPlan",
    "LuFactorization",
    "MaterialGrid",
    "NonFiniteFieldError",
    "Precision",
    "SimulationConfig",
    "SingularMatrixError",
    "SnapshotSeries",
    "SourceSpec",
    "StencilExecutor",
    "UnstableCourantError",
    "UpdateCoefficients",
    "compute_bandwidth",
    "compute_speedup",
    "execute_stencil",
    "field_energy",
    "flop_count",
    "lu_factor",
    "lu_solve",
    "make_vacuum_materials",
    "measure_copy_bandwidth",
    "relative_residual",
    "residual_bound",
    "run",
    "run_fdtd_bench",
    "run_linsolve_bench",
    "step",
    "validate_stability",
]
