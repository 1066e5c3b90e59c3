"""Core model types for the Yee-grid solver.

Grids are uniform with a single space step ``delta`` on every axis. The time
step is tied to the space step through the Courant number::

    dt = courant * delta / c

In the default normalized unit system c = 1 (and vacuum has epsilon = mu = 1),
so ``dt`` equals ``courant`` numerically when ``delta`` is 1. The physical
unit system uses the SI vacuum constants instead.

All indexing is 0-based. Codes written in 1-based languages map onto this
module by subtracting one from every index: an ``Ez(2..xdim)`` update becomes
``ez[1:xdim]``, ``Hy(1..xdim-1)`` becomes ``hy[0:xdim-1]``, and a source
placed at ``xdim/2`` lands on cell ``xdim // 2``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import ClassVar, TypeVar, Union

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.floating]

# SI vacuum constants (CODATA 2018), used only in "physical" units mode.
C0 = 299792458.0
EPS0 = 8.8541878128e-12
MU0 = 1.25663706212e-6

# CFL bound per dimensionality: courant <= 1/sqrt(dims) for a uniform grid.
_COURANT_BOUNDS = {1: 1.0, 3: 1.0 / math.sqrt(3.0)}

# Relative slack when testing the CFL bound, so courant=1.0 in 1D or an
# exactly computed 1/sqrt(3) in 3D is accepted despite rounding.
_COURANT_RTOL = 1e-12


class UnstableCourantError(ValueError):
    """Courant number violates the CFL bound for the grid dimensionality."""

    def __init__(self, dims: int, courant: float, bound: float):
        self.dims = dims
        self.courant = courant
        self.bound = bound
        super().__init__(
            f"courant={courant!r} exceeds the {dims}D stability bound {bound!r}"
        )


class NonFiniteFieldError(ArithmeticError):
    """A snapshot or the final state of a run holds NaN or Inf in one component."""

    def __init__(self, step: int, component: str):
        self.step = step
        self.component = component
        super().__init__(f"{component} holds NaN or Inf at step {step}")


class Precision(enum.Enum):
    """Floating-point width used end to end by a run or benchmark."""

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self is Precision.SINGLE else np.float64)

    @property
    def eps(self) -> float:
        """Machine epsilon of the underlying dtype."""
        return float(np.finfo(self.dtype).eps)

    @classmethod
    def parse(cls, name: str) -> "Precision":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown precision {name!r}, expected 'single' or 'double'") from None


def validate_stability(dims: int, courant: float) -> None:
    """Raise :class:`UnstableCourantError` unless ``courant`` satisfies the CFL bound.

    The bound is 1.0 in 1D and 1/sqrt(3) in 3D. Values at the bound are
    accepted within a relative tolerance of 1e-12. ``courant`` is the
    vacuum Courant number, or in a medium that of its fastest cell.
    """
    if dims not in _COURANT_BOUNDS:
        raise ValueError(f"dims must be 1 or 3, got {dims}")
    bound = _COURANT_BOUNDS[dims]
    if not 0.0 < courant <= bound * (1.0 + _COURANT_RTOL):
        raise UnstableCourantError(dims, courant, bound)


def require_matching(**arrays: np.ndarray) -> None:
    """Raise ``ValueError`` unless every array matches the first in shape and dtype."""
    (first_name, first), *rest = arrays.items()
    for name, arr in rest:
        if arr.shape != first.shape or arr.dtype != first.dtype:
            raise ValueError(
                f"{first_name} {first.shape} {first.dtype} and {name} {arr.shape} {arr.dtype} "
                "do not match in shape and dtype"
            )


def require_float_dtype(name: str, dtype: np.dtype) -> None:
    """Raise ``ValueError`` unless ``dtype`` is float32 or float64, the two precisions."""
    if dtype not in (Precision.SINGLE.dtype, Precision.DOUBLE.dtype):
        raise ValueError(f"{name} dtype must be float32 or float64, got {dtype}")


def all_strides_zero(*arrays: np.ndarray) -> bool:
    """True when every stride of every array is 0: each is a broadcast of one
    value (``np.broadcast_to``), stored once for all its cells."""
    return not any(stride for arr in arrays for stride in arr.strides)


def stored_cells(arr: np.ndarray) -> np.ndarray:
    """``arr``, or its one stored cell as a 1-element view when every stride
    of ``arr`` is 0."""
    return arr.reshape(-1)[:1] if all_strides_zero(arr) else arr


def all_finite(arr: np.ndarray) -> bool:
    """True unless ``arr`` holds NaN or Inf; an empty array is finite."""
    # min and max propagate NaN, so the two bound every entry
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


Location = Union[int, tuple[int, int, int]]


@dataclass(frozen=True)
class SourceSpec:
    """Sinusoidal excitation written into Ez once per step.

    The injected value at step n is ``amplitude * sin(2*pi*(n - tstart)*dt /
    n_lambda)``, which starts from zero at ``n = tstart``. By default the
    write is a hard overwrite of a single cell. ``soft=True`` adds instead of
    overwriting. ``plane=True`` (3D only) excites the entire y-z plane at the
    source x index, which keeps a run uniform along y and z.
    """

    location: Location
    n_lambda: float = 20.0
    tstart: int = 1
    amplitude: float = 1.0
    soft: bool = False
    plane: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.n_lambda) or self.n_lambda <= 0.0:
            raise ValueError(f"n_lambda must be positive and finite, got {self.n_lambda!r}")
        if self.tstart < 0:
            raise ValueError(f"tstart must be non-negative, got {self.tstart!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")

    def value_at(self, n: int, deltat: float) -> float:
        """Source waveform at integer step ``n`` for time step ``deltat``."""
        phase = 2.0 * math.pi * (n - self.tstart) * deltat / self.n_lambda
        return self.amplitude * math.sin(phase)

    def validate_for_extent(self, shape: tuple[int, ...]) -> None:
        """Check the location holds one integer index per axis of ``shape``,
        each strictly inside its axis; a plane source checks only x."""
        loc = self.location if isinstance(self.location, tuple) else (self.location,)
        ints = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in loc)
        if len(loc) != len(shape) or not ints:
            raise ValueError(
                f"source location {self.location!r} needs one integer index per axis of {shape}"
            )
        if self.plane and len(shape) != 3:
            raise ValueError("plane sources are only meaningful in 3D")
        for idx, size in zip(loc[:1] if self.plane else loc, shape):
            if not 1 <= idx <= size - 2:
                raise ValueError(f"source index {idx} outside interior [1, {size - 2}]")


@dataclass(frozen=True)
class MaterialGrid:
    """Per-cell material arrays: permittivity, permeability, and losses.

    ``sigma`` is the electric conductivity and ``sigma_star`` the magnetic
    loss. All four arrays share one shape and one float dtype. An array whose
    strides are all 0 (``np.broadcast_to`` of one value) stores one value for
    every cell; it is checked, and later computed on, as that one cell.
    """

    epsilon: FloatArray
    mu: FloatArray
    sigma: FloatArray
    sigma_star: FloatArray

    def __post_init__(self) -> None:
        require_matching(
            epsilon=self.epsilon, mu=self.mu, sigma=self.sigma, sigma_star=self.sigma_star
        )
        require_float_dtype("material", self.dtype)
        low = {}
        for name in ("epsilon", "mu", "sigma", "sigma_star"):
            arr = stored_cells(getattr(self, name))
            # min and max propagate NaN, so the two bound every cell
            low[name], high = arr.min(), arr.max()
            if not (np.isfinite(low[name]) and np.isfinite(high)):
                raise ValueError(f"{name} must be finite everywhere")
        if not low["epsilon"] > 0:
            raise ValueError("epsilon must be positive everywhere")
        if not low["mu"] > 0:
            raise ValueError("mu must be positive everywhere")
        if low["sigma"] < 0 or low["sigma_star"] < 0:
            raise ValueError("sigma and sigma_star must be non-negative")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.epsilon.shape

    @property
    def dtype(self) -> np.dtype:
        return self.epsilon.dtype


def make_vacuum_materials(
    extent: int | tuple[int, int, int],
    precision: Precision = Precision.DOUBLE,
    units: str = "normalized",
) -> MaterialGrid:
    """Lossless vacuum materials for the given grid extent.

    Normalized units give epsilon = mu = 1; physical units give the SI
    vacuum constants. Losses are zero in both systems. Each array is a
    read-only ``np.broadcast_to`` view of one dtype scalar, so it takes no
    memory per cell; ``copy()`` it before writing into it.
    """
    shape = (extent,) if isinstance(extent, int) else tuple(extent)
    dtype = precision.dtype
    if units == "normalized":
        eps_val, mu_val = 1.0, 1.0
    elif units == "physical":
        eps_val, mu_val = EPS0, MU0
    else:
        raise ValueError(f"units must be 'normalized' or 'physical', got {units!r}")

    def uniform(val: float) -> FloatArray:
        return np.broadcast_to(dtype.type(val), shape)

    return MaterialGrid(epsilon=uniform(eps_val), mu=uniform(mu_val), sigma=uniform(0.0), sigma_star=uniform(0.0))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce a run, except materials and backend.

    ``extent`` is a cell count in 1D or an (nx, ny, nz) triple in 3D. The
    Courant number defaults to the largest stable value in 1D (1.0) and to
    0.5 in 3D. ``snapshot_every = 0`` keeps only the final state.
    """

    extent: int | tuple[int, int, int]
    time_tot: int
    source: SourceSpec
    delta: float = 1.0
    courant: float | None = None
    precision: Precision = Precision.DOUBLE
    snapshot_every: int = 0
    units: str = "normalized"

    def __post_init__(self) -> None:
        if isinstance(self.extent, int):
            sizes: tuple[int, ...] = (self.extent,)
        else:
            object.__setattr__(self, "extent", tuple(self.extent))
            sizes = self.extent
            if len(sizes) != 3:
                raise ValueError(f"3D extent needs three axes, got {sizes}")
        if any(s < 3 for s in sizes):
            raise ValueError(f"every axis needs at least 3 cells, got {sizes}")
        if self.delta <= 0.0 or not math.isfinite(self.delta):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if self.time_tot < 1:
            raise ValueError(f"time_tot must be at least 1, got {self.time_tot!r}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every!r}")
        if self.units not in ("normalized", "physical"):
            raise ValueError(f"units must be 'normalized' or 'physical', got {self.units!r}")
        if self.courant is None:
            object.__setattr__(self, "courant", 1.0 if self.dims == 1 else 0.5)
        validate_stability(self.dims, self.courant)
        self.source.validate_for_extent(self.shape)

    @property
    def dims(self) -> int:
        return 1 if isinstance(self.extent, int) else 3

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.extent,) if isinstance(self.extent, int) else self.extent

    @property
    def wave_speed(self) -> float:
        return 1.0 if self.units == "normalized" else C0

    @property
    def deltat(self) -> float:
        """Time step implied by the Courant number: courant * delta / c."""
        return self.courant * self.delta / self.wave_speed

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape))


_S = TypeVar("_S", bound="_FieldState")


class _FieldState:
    """Validation, copies and zero construction shared by the field states.

    ``NAMES`` fixes which arrays make up a state and in what order: the order
    of :meth:`components`, of CSV columns and of every byte comparison.
    """

    NAMES: ClassVar[tuple[str, ...]]
    NDIM: ClassVar[int]

    def __post_init__(self) -> None:
        first = getattr(self, self.NAMES[0])
        if first.ndim != self.NDIM:
            raise ValueError(
                f"{type(self).__name__} arrays must have ndim {self.NDIM}, got shape {first.shape}"
            )
        require_matching(**self.components())

    @classmethod
    def zeros(
        cls: type[_S], extent: int | tuple[int, int, int], precision: Precision = Precision.DOUBLE
    ) -> _S:
        dtype = precision.dtype
        return cls(**{name: np.zeros(extent, dtype) for name in cls.NAMES})

    def copy(self: _S) -> _S:
        return replace(self, **{name: arr.copy() for name, arr in self.components().items()})

    def components(self) -> dict[str, FloatArray]:
        return {name: getattr(self, name) for name in self.NAMES}


@dataclass(frozen=True)
class FieldState1D(_FieldState):
    """Ez/Hy field pair plus the step count that produced it."""

    NAMES = ("ez", "hy")
    NDIM = 1

    ez: FloatArray
    hy: FloatArray
    step: int = 0


@dataclass(frozen=True)
class FieldState3D(_FieldState):
    """All six field components on one (nx, ny, nz) grid, plus the step count.

    Components are stored on index-aligned arrays; the half-cell staggering
    lives in the update stencils, not in the storage.
    """

    NAMES = ("ex", "ey", "ez", "hx", "hy", "hz")
    NDIM = 3

    ex: FloatArray
    ey: FloatArray
    ez: FloatArray
    hx: FloatArray
    hy: FloatArray
    hz: FloatArray
    step: int = 0


FieldState = Union[FieldState1D, FieldState3D]
