"""Leapfrog update kernels and the time-stepping loop.

One full step advances the state in a fixed order: write the source value
into Ez, update all H components from the current E field, then update all E
components from the just-updated H field. In 1D the two updates are::

    hy[i] = cha[i]*hy[i] + chb[i]*(ez[i+1] - ez[i])    for i in [0, xdim-1)
    ez[i] = cea[i]*ez[i] + ceb[i]*(hy[i] - hy[i-1])    for i in [1, xdim)

Cells outside those ranges lack an upwind or downwind neighbor and are frozen:
they keep their initial values forever, which makes the grid edge behave like
a perfect reflector. The 3D kernels apply the same pattern per axis, with
forward differences feeding H and backward differences feeding E (every
array and coefficient indexed at [i,j,k] unless shown otherwise)::

    hx = cha*hx + chb*((ey[i,j,k+1] - ey) - (ez[i,j+1,k] - ez))    j < ny-1, k < nz-1
    hy = cha*hy + chb*((ez[i+1,j,k] - ez) - (ex[i,j,k+1] - ex))    i < nx-1, k < nz-1
    hz = cha*hz + chb*((ex[i,j+1,k] - ex) - (ey[i+1,j,k] - ey))    i < nx-1, j < ny-1
    ex = cea*ex + ceb*((hz - hz[i,j-1,k]) - (hy - hy[i,j,k-1]))    j >= 1, k >= 1
    ey = cea*ey + ceb*((hx - hx[i,j,k-1]) - (hz - hz[i-1,j,k]))    i >= 1, k >= 1
    ez = cea*ez + ceb*((hy - hy[i-1,j,k]) - (hx - hx[i,j-1,k]))    i >= 1, j >= 1

The parentheses give the evaluation order, which the bitwise oracle tests
reproduce. Only the kernels and their dispatch in ``_advance`` know a
state's dimensionality; everything else reads a state through
``components()`` and writes the source into ``ez``. Each kernel driver plans
its range for the backend of the executor it is given and hands the kernel
to :func:`~fdtdkit.backends.execute_stencil`, the one path that runs kernels.

Loss enters through semi-implicit coefficients. With ``le = sigma*dt/(2*eps)``
and ``lh = sigma_star*dt/(2*mu)``::

    cea = (1 - le)/(1 + le)        ceb = dt/(delta*eps)/(1 + le)
    cha = (1 - lh)/(1 + lh)        chb = dt/(delta*mu)/(1 + lh)

so the lossless case reduces bitwise to the plain ``dt/(delta*eps)`` and
``dt/(delta*mu)`` factors.

Half-steps update the live arrays in place. A component's update reads only
its own cell of itself; every neighbor it reads belongs to the other field,
which stays fixed for the whole half-step. So the execution backend may split
the index range into chunks in any order without changing a single bit of the
output (see :mod:`fdtdkit.backends`), and no second buffer is needed. A run
allocates its state once and copies it only to take a snapshot before the
last step; the final state keeps the live arrays. All arithmetic stays in
the run's precision; scalar factors are cast to the array dtype before any
kernel touches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .backends import Backend, KernelPlan, StencilExecutor, execute_stencil
from .model import (
    EPS0,
    MU0,
    FieldState,
    FieldState1D,
    FieldState3D,
    FloatArray,
    MaterialGrid,
    NonFiniteFieldError,
    SimulationConfig,
    SourceSpec,
    validate_stability,
)

_SERIAL = Backend.serial()


@dataclass(frozen=True)
class UpdateCoefficients:
    """Per-cell update factors derived from materials and the time step."""

    cea: FloatArray
    ceb: FloatArray
    cha: FloatArray
    chb: FloatArray

    def __post_init__(self) -> None:
        shape = self.cea.shape
        dtype = self.cea.dtype
        for name in ("ceb", "cha", "chb"):
            arr = getattr(self, name)
            if arr.shape != shape or arr.dtype != dtype:
                raise ValueError(f"{name} must match cea in shape and dtype")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cea.shape

    @property
    def dtype(self) -> np.dtype:
        return self.cea.dtype

    @classmethod
    def from_materials(
        cls, materials: MaterialGrid, deltat: float, delta: float
    ) -> "UpdateCoefficients":
        """Build the semi-implicit factors; all arithmetic in the material dtype."""
        dtype = materials.dtype
        dt = dtype.type(deltat)
        dl = dtype.type(delta)
        one = dtype.type(1.0)
        two = dtype.type(2.0)

        le = materials.sigma * dt / (two * materials.epsilon)
        lh = materials.sigma_star * dt / (two * materials.mu)
        if np.any(le >= one) or np.any(lh >= one):
            raise ValueError(
                "loss too strong for the semi-implicit update at this time step; "
                "reduce sigma, sigma_star, or the Courant number"
            )
        cea = (one - le) / (one + le)
        ceb = dt / (dl * materials.epsilon) / (one + le)
        cha = (one - lh) / (one + lh)
        chb = dt / (dl * materials.mu) / (one + lh)
        return cls(cea=cea, ceb=ceb, cha=cha, chb=chb)


@dataclass(frozen=True)
class SnapshotSeries:
    """Field states collected during a run, in strictly increasing step order."""

    states: tuple[FieldState, ...]

    def __post_init__(self) -> None:
        steps = self.steps
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("snapshot steps must be strictly increasing")

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(state.step for state in self.states)

    @property
    def final(self) -> FieldState:
        if not self.states:
            raise ValueError("empty snapshot series")
        return self.states[-1]


def _write_source(ez: FloatArray, source: SourceSpec, n: int, deltat: float) -> None:
    # The waveform is evaluated in double and cast once to the run's dtype.
    val = ez.dtype.type(source.value_at(n, deltat))
    # A point location indexes one cell in 1D and 3D alike; ez[i] is a y-z plane.
    target = source.location[0] if source.plane else source.location
    if source.soft:
        ez[target] += val
    else:
        ez[target] = val


# --- 1D kernels ---------------------------------------------------------


def _advance_h_1d(
    state: FieldState1D, coeff: UpdateCoefficients, executor: StencilExecutor
) -> None:
    ez, hy = state.ez, state.hy
    cha, chb = coeff.cha, coeff.chb

    def kernel(lo: int, hi: int) -> None:
        hy[lo:hi] = cha[lo:hi] * hy[lo:hi] + chb[lo:hi] * (ez[lo + 1 : hi + 1] - ez[lo:hi])

    plan = KernelPlan.for_range(0, hy.shape[0] - 1, executor.backend)
    execute_stencil(kernel, plan, executor.backend, executor)


def _advance_e_1d(
    state: FieldState1D, coeff: UpdateCoefficients, executor: StencilExecutor
) -> None:
    ez, hy = state.ez, state.hy
    cea, ceb = coeff.cea, coeff.ceb

    def kernel(lo: int, hi: int) -> None:
        ez[lo:hi] = cea[lo:hi] * ez[lo:hi] + ceb[lo:hi] * (hy[lo:hi] - hy[lo - 1 : hi - 1])

    plan = KernelPlan.for_range(1, ez.shape[0], executor.backend)
    execute_stencil(kernel, plan, executor.backend, executor)


# --- 3D kernels ---------------------------------------------------------
#
# Index-aligned storage; each component updates only where both of its
# difference neighbors exist, the rest stays frozen:
#
#   hx: j,k trimmed high   hy: i,k trimmed high   hz: i,j trimmed high
#   ex: j,k trimmed low    ey: i,k trimmed low    ez: i,j trimmed low
#
# One plan over all x slabs drives the three components of a field; the
# components trimmed along x clip their share of each chunk.


def _slab_plan(shape: tuple[int, int, int], backend: Backend) -> KernelPlan:
    return KernelPlan.for_range(0, shape[0], backend, cells_per_index=shape[1] * shape[2])


def _advance_h_3d(
    state: FieldState3D, coeff: UpdateCoefficients, executor: StencilExecutor
) -> None:
    ex, ey, ez = state.ex, state.ey, state.ez
    hx, hy, hz = state.hx, state.hy, state.hz
    nx, ny, nz = ex.shape
    cha, chb = coeff.cha, coeff.chb

    def kernel(lo: int, hi: int) -> None:
        s = (slice(lo, hi), slice(0, ny - 1), slice(0, nz - 1))
        hx[s] = cha[s] * hx[s] + chb[s] * (
            (ey[lo:hi, : ny - 1, 1:nz] - ey[s]) - (ez[lo:hi, 1:ny, : nz - 1] - ez[s])
        )
        hi = min(hi, nx - 1)  # hy and hz keep their high x face
        s = (slice(lo, hi), slice(None), slice(0, nz - 1))
        hy[s] = cha[s] * hy[s] + chb[s] * (
            (ez[lo + 1 : hi + 1, :, : nz - 1] - ez[s]) - (ex[lo:hi, :, 1:nz] - ex[s])
        )
        s = (slice(lo, hi), slice(0, ny - 1), slice(None))
        hz[s] = cha[s] * hz[s] + chb[s] * (
            (ex[lo:hi, 1:ny, :] - ex[s]) - (ey[lo + 1 : hi + 1, : ny - 1, :] - ey[s])
        )

    execute_stencil(kernel, _slab_plan(ex.shape, executor.backend), executor.backend, executor)


def _advance_e_3d(
    state: FieldState3D, coeff: UpdateCoefficients, executor: StencilExecutor
) -> None:
    ex, ey, ez = state.ex, state.ey, state.ez
    hx, hy, hz = state.hx, state.hy, state.hz
    ny, nz = ex.shape[1:]
    cea, ceb = coeff.cea, coeff.ceb

    def kernel(lo: int, hi: int) -> None:
        s = (slice(lo, hi), slice(1, ny), slice(1, nz))
        ex[s] = cea[s] * ex[s] + ceb[s] * (
            (hz[s] - hz[lo:hi, : ny - 1, 1:nz]) - (hy[s] - hy[lo:hi, 1:ny, : nz - 1])
        )
        lo = max(lo, 1)  # ey and ez keep their low x face
        s = (slice(lo, hi), slice(None), slice(1, nz))
        ey[s] = cea[s] * ey[s] + ceb[s] * (
            (hx[s] - hx[lo:hi, :, : nz - 1]) - (hz[s] - hz[lo - 1 : hi - 1, :, 1:nz])
        )
        s = (slice(lo, hi), slice(1, ny), slice(None))
        ez[s] = cea[s] * ez[s] + ceb[s] * (
            (hy[s] - hy[lo - 1 : hi - 1, 1:ny, :]) - (hx[s] - hx[lo:hi, : ny - 1, :])
        )

    execute_stencil(kernel, _slab_plan(ex.shape, executor.backend), executor.backend, executor)


# --- stepping -----------------------------------------------------------


def _advance(
    state: FieldState,
    coeff: UpdateCoefficients,
    source: SourceSpec | None,
    n: int,
    deltat: float,
    executor: StencilExecutor,
) -> None:
    """Advance the arrays of ``state`` to step ``n`` in place: source, H, E."""
    if source is not None:
        _write_source(state.ez, source, n, deltat)
    if isinstance(state, FieldState1D):
        _advance_h_1d(state, coeff, executor)
        _advance_e_1d(state, coeff, executor)
    else:
        _advance_h_3d(state, coeff, executor)
        _advance_e_3d(state, coeff, executor)


def step(
    state: FieldState,
    coeff: UpdateCoefficients,
    source: SourceSpec | None,
    deltat: float,
    backend: Backend = _SERIAL,
) -> FieldState:
    """One full step on a copy of ``state``: source write, H update, E update.

    ``source=None`` advances the fields without driving them. The input state
    is left untouched; the result owns its arrays and carries step count + 1.
    Coefficients must match the state in shape and dtype, so every cell has
    its own factors and all arithmetic stays in the state's precision, and a
    source must lie inside the state's grid.
    """
    if coeff.shape != state.ez.shape or coeff.dtype != state.ez.dtype:
        raise ValueError(
            f"coefficients {coeff.shape} {coeff.dtype} do not match "
            f"the state {state.ez.shape} {state.ez.dtype}"
        )
    if source is not None:
        source.validate_for_extent(state.ez.shape)
    n = state.step + 1
    out = replace(state.copy(), step=n)
    with StencilExecutor(backend) as executor:
        _advance(out, coeff, source, n, deltat, executor)
    return out


# --- run loop -----------------------------------------------------------


def field_energy(state: FieldState, materials: MaterialGrid) -> float:
    """Energy proxy: sum of eps*|E|^2 + mu*|H|^2 over the state's components.

    Not an exact discrete invariant, but monotone under loss once sources
    stop driving the grid.
    """
    fields = state.components().items()
    e_sq = sum(arr**2 for name, arr in fields if name.startswith("e"))
    h_sq = sum(arr**2 for name, arr in fields if name.startswith("h"))
    return float(np.sum(materials.epsilon * e_sq) + np.sum(materials.mu * h_sq))


def _checked(state: FieldState) -> FieldState:
    """Return ``state``, or raise :class:`NonFiniteFieldError` on its first bad component."""
    for name, arr in state.components().items():
        # min and max propagate NaN, so the two bound every cell
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise NonFiniteFieldError(state.step, name)
    return state


def run(
    config: SimulationConfig,
    materials: MaterialGrid | None = None,
    backend: Backend = _SERIAL,
) -> SnapshotSeries:
    """Run ``config.time_tot`` steps from a zero initial state.

    Snapshots are taken every ``snapshot_every`` steps (plus the final state
    if it does not land on the cadence); ``snapshot_every = 0`` keeps only
    the final state. Each snapshot owns its arrays outright. Results are
    byte-identical across backends and worker counts.

    Raises :class:`~fdtdkit.model.UnstableCourantError` when the Courant
    number of the fastest cell, ``courant * sqrt(vacuum eps*mu / min(eps*mu))``,
    breaks the CFL bound, and :class:`~fdtdkit.model.NonFiniteFieldError`
    as soon as a snapshot or the final state holds NaN or Inf. Only those
    states are checked, not every step.
    """
    if materials is None:
        from .model import make_vacuum_materials

        materials = make_vacuum_materials(config.extent, config.precision, config.units)
    if materials.shape != config.shape:
        raise ValueError(f"materials shape {materials.shape} != grid shape {config.shape}")
    if materials.dtype != config.precision.dtype:
        raise ValueError(
            f"materials dtype {materials.dtype} != run precision {config.precision.dtype}"
        )
    # The fastest cell has the smallest eps*mu. Vacuum's product is rounded in
    # the run's dtype, so a vacuum grid scales the Courant number by exactly 1.
    dtype = materials.dtype
    vacuum = dtype.type(1) if config.units == "normalized" else dtype.type(EPS0) * dtype.type(MU0)
    speed_sq = float(vacuum) / float((materials.epsilon * materials.mu).min())
    validate_stability(config.dims, config.courant * math.sqrt(speed_sq))
    coeff = UpdateCoefficients.from_materials(materials, config.deltat, config.delta)
    state_cls = FieldState1D if config.dims == 1 else FieldState3D
    state: FieldState = state_cls.zeros(config.extent, config.precision)

    states: list[FieldState] = []
    cadence = config.snapshot_every
    with StencilExecutor(backend) as executor:
        for n in range(1, config.time_tot + 1):
            _advance(state, coeff, config.source, n, config.deltat, executor)
            if cadence and n % cadence == 0 and n < config.time_tot:
                states.append(_checked(replace(state.copy(), step=n)))
    # The loop is over, so the final state keeps the live arrays.
    states.append(_checked(replace(state, step=config.time_tot)))
    return SnapshotSeries(states=tuple(states))
