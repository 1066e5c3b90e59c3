"""Leapfrog update kernels and the time-stepping loop.

One full step advances the state in a fixed order: write the source value
into Ez, update all H components from the current E field, then update all E
components from the just-updated H field. Forward differences of E feed H
and backward differences of H feed E (every array and coefficient indexed at
[i,j,k] unless shown otherwise)::

    hx = cha*hx + chb*((ey[i,j,k+1] - ey) - (ez[i,j+1,k] - ez))    j < ny-1, k < nz-1
    hy = cha*hy + chb*((ez[i+1,j,k] - ez) - (ex[i,j,k+1] - ex))    i < nx-1, k < nz-1
    hz = cha*hz + chb*((ex[i,j+1,k] - ex) - (ey[i+1,j,k] - ey))    i < nx-1, j < ny-1
    ex = cea*ex + ceb*((hz - hz[i,j-1,k]) - (hy - hy[i,j,k-1]))    j >= 1, k >= 1
    ey = cea*ey + ceb*((hx - hx[i,j,k-1]) - (hz - hz[i-1,j,k]))    i >= 1, k >= 1
    ez = cea*ez + ceb*((hy - hy[i-1,j,k]) - (hx - hx[i,j-1,k]))    i >= 1, j >= 1

Cells outside those ranges lack an upwind or downwind neighbor and are frozen:
they keep their initial values forever, which makes the grid edge behave like
a perfect reflector. 1D is the TM reduction of the same curl: a 1D state
holds only ez and hy along x, so each keeps the one term whose neighbor it
has::

    hy[i] = cha[i]*hy[i] + chb[i]*(ez[i+1] - ez[i])    for i in [0, xdim-1)
    ez[i] = cea[i]*ez[i] + ceb[i]*(hy[i] - hy[i-1])    for i in [1, xdim)

The parentheses give the evaluation order, which the bitwise oracle tests
reproduce. The ``_CURL`` table is the one place that encodes this curl; one
builder reads it for every state, so only the choice of state class for a
config knows a state's dimensionality. A run plans the leading axis once for
its executor's backend, and one pass over the plan's chunks builds the rows
of both half-steps; every step hands the H kernel and then the E kernel to
:func:`~fdtdkit.backends.execute_stencil`, the one path that runs kernels.

Each chunk's row of a component is split along the leading axis into runs
of two forms, decided per field from that field's coefficients over the
cells the row updates:

* a uniform run, where ``ca == 1`` exactly and ``cb`` holds one value bit
  for bit, stores that value as a scalar of the array dtype and computes
  ``f + cb*curl``;
* a general run computes ``ca*f + cb*curl``.

Both give the same bits for every cell: ``1*f == f`` exactly, a dtype
scalar times the curl is the per-cell product, and ``+`` and ``*`` commute
bitwise. A uniform run shorter than the chunk floor stays general, so a
medium that varies cell by cell is one general run; vacuum is one uniform
run, and reads two arrays fewer per update. Both forms write through
``out=`` into scratch buffers that a run allocates once per chunk and that
the chunk's H and E rows share, so a step allocates nothing.

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
from typing import Callable

import numpy as np

from . import backends
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
    all_finite,
    make_vacuum_materials,
    require_matching,
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
        require_matching(cea=self.cea, ceb=self.ceb, cha=self.cha, chb=self.chb)

    @classmethod
    def from_materials(
        cls, materials: MaterialGrid, deltat: float, delta: float
    ) -> "UpdateCoefficients":
        """Build the semi-implicit factors; all arithmetic in the material dtype.

        With ``l = sigma*dt / (2*eps)`` (``sigma_star`` and ``mu`` for H):
        ``a = (1 - l) / (1 + l)`` and ``b = dt / (dl*eps) / (1 + l)``. Each
        pair is computed in place in its two outputs plus one shared
        grid-sized transient, in that operation order, so the peak is five
        grid arrays.
        """
        dtype = materials.dtype
        dt = dtype.type(deltat)
        dl = dtype.type(delta)
        one = dtype.type(1.0)
        two = dtype.type(2.0)
        tmp = np.empty_like(materials.epsilon)

        def pair(loss: FloatArray, medium: FloatArray) -> tuple[FloatArray, FloatArray]:
            a = np.multiply(loss, dt)
            np.multiply(two, medium, out=tmp)
            np.divide(a, tmp, out=a)  # l
            if a.max() >= one:
                raise ValueError(
                    "loss too strong for the semi-implicit update at this time step; "
                    "reduce sigma, sigma_star, or the Courant number"
                )
            b = np.multiply(dl, medium)
            np.divide(dt, b, out=b)
            np.add(one, a, out=tmp)
            np.divide(b, tmp, out=b)
            np.subtract(one, a, out=a)
            np.divide(a, tmp, out=a)
            return a, b

        cea, ceb = pair(materials.sigma, materials.epsilon)
        cha, chb = pair(materials.sigma_star, materials.mu)
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


# --- the Yee curl -------------------------------------------------------
#
# One row per component: its two curl terms as (neighbour, axis), the first
# added and the second subtracted, in the order of the formulas above. H takes
# forward differences of E, E backward differences of H.

_CURL = {
    "hx": (("ey", 2), ("ez", 1)),
    "hy": (("ez", 0), ("ex", 2)),
    "hz": (("ex", 1), ("ey", 0)),
    "ex": (("hz", 1), ("hy", 2)),
    "ey": (("hx", 2), ("hz", 0)),
    "ez": (("hy", 0), ("hx", 1)),
}


def _curl_terms(names: tuple[str, ...]) -> int:
    """The most curl terms any component of a state with ``names`` keeps."""
    return max(sum(g in names for g, _ in _CURL[name]) for name in names)


def _curl_rows(state: FieldState, field: str, lo: int, hi: int) -> list[tuple]:
    """Chunk ``[lo, hi)`` of each ``field`` ("h" or "e") component that ``state``
    holds, with the curl terms whose neighbour it holds too.

    A row is ``(f, s, diffs)``: the component, the slices of the cells it
    updates, and per term the two views whose difference the term is: the
    neighbour on the cells shifted one step along the term's axis and on the
    cells themselves, shifted minus own for H and own minus shifted for E.
    Only cells whose shifted neighbour exists along every such axis update;
    the others stay frozen, so H loses its high face and E its low face along
    those axes.
    """
    d = 1 if field == "h" else -1
    arrays = state.components()
    rows = []
    for name, curl in _CURL.items():
        if name[0] != field or name not in arrays:
            continue
        f = arrays[name]
        terms = [(arrays[g], axis) for g, axis in curl if g in arrays]
        bounds = [(lo, hi), *((0, n) for n in f.shape[1:])]
        for _, a in terms:
            start, stop = bounds[a]
            bounds[a] = (max(start, -d), min(stop, f.shape[a] - d))
        s = tuple(slice(*b) for b in bounds)
        diffs = []
        for g, a in terms:
            shifted = g[s[:a] + (slice(bounds[a][0] + d, bounds[a][1] + d),) + s[a + 1 :]]
            diffs.append((shifted, g[s]) if d == 1 else (g[s], shifted))
        rows.append((f, s, diffs))
    return rows


def _uniform_spans(ca: FloatArray, cb: FloatArray) -> list[tuple[int, int, object]]:
    """Split the leading axis of a row's coefficients into ``(a, b, c)`` runs.

    ``c`` is the scalar of a uniform run, where every cell has ``ca == 1``
    and the bits of ``cb`` equal those of ``c``; it is ``None`` for a general
    run. A uniform run shorter than the chunk floor joins the general runs
    around it, so a medium that varies cell by cell stays one general run.
    """
    n = ca.shape[0]
    if ca.size == 0:
        return []
    axes = tuple(range(1, ca.ndim))
    # compare bits, not values: 0.0 == -0.0, but the two scale a curl apart
    bits = cb.view(f"u{cb.itemsize}")
    first = bits[(slice(None), *(0,) * len(axes))]
    same = bits == first.reshape(n, *(1,) * len(axes))
    uniform = (ca == 1).all(axis=axes) & same.all(axis=axes)

    def edges(uniform: np.ndarray) -> np.ndarray:
        """Both ends and every index where the form or the scalar changes."""
        cut = (uniform[1:] != uniform[:-1]) | (uniform[1:] & (first[1:] != first[:-1]))
        return np.concatenate(([0], np.flatnonzero(cut) + 1, [n]))

    cuts = edges(uniform)
    sizes = np.diff(cuts)
    long = sizes * (ca.size // n) >= backends.MIN_CHUNK_CELLS
    uniform = np.repeat(uniform[cuts[:-1]] & long, sizes)
    cuts = edges(uniform).tolist()
    return [(a, b, cb[a].flat[0] if uniform[a] else None) for a, b in zip(cuts[:-1], cuts[1:])]


def _update(f: FloatArray, ca, cb, diffs: list[tuple], bufs: list[FloatArray]) -> None:
    """``f = ca*f + cb*curl``, or ``f + cb*curl`` when ``ca`` is ``None``;
    ``curl`` is the first difference, less the second if there is one."""
    (p, q), *second = diffs
    curl = bufs[0]
    np.subtract(p, q, out=curl)
    if second:
        ((p2, q2),) = second
        np.subtract(p2, q2, out=bufs[1])
        np.subtract(curl, bufs[1], out=curl)
    np.multiply(cb, curl, out=curl)
    if ca is not None:
        np.multiply(ca, f, out=f)
    np.add(f, curl, out=f)


# --- stepping -----------------------------------------------------------


def _stepper(
    state: FieldState,
    coeff: UpdateCoefficients,
    source: SourceSpec | None,
    deltat: float,
    executor: StencilExecutor,
) -> Callable[[int], None]:
    """Return ``advance(n)``, which takes the arrays of ``state`` to step ``n``
    in place: source, H, E.

    One plan over the leading axis drives both half-steps; the components
    trimmed along that axis clip their share of each chunk. One loop builds
    every chunk's H and E runs and their scratch once, not per step or chunk:
    the Python work of a chunk runs under the GIL, where it stalls the other
    workers. Each chunk owns its scratch, one chunk-sized row per curl term,
    which its H and E runs share; no two chunks share a buffer.

    A run is ``(f, ca, cb, diffs, bufs)`` for :func:`_update`, all views of
    the run's cells: ``ca`` is ``None`` and ``cb`` a scalar of the array
    dtype for a uniform run, and ``bufs`` are views of the chunk's scratch,
    one per term.
    """
    shape = state.ez.shape
    cells_per_index = math.prod(shape[1:])
    plan = KernelPlan.for_range(0, shape[0], executor.backend, cells_per_index=cells_per_index)
    terms = _curl_terms(state.NAMES)
    runs: dict[tuple[str, int, int], list[tuple]] = {}
    for lo, hi in plan.chunks:
        scratch = np.empty((terms, (hi - lo) * cells_per_index), state.ez.dtype)
        for field, ca, cb in (("h", coeff.cha, coeff.chb), ("e", coeff.cea, coeff.ceb)):
            chunk = runs[field, lo, hi] = []
            for f, s, diffs in _curl_rows(state, field, lo, hi):
                for a, b, c in _uniform_spans(ca[s], cb[s]):
                    out = f[s][a:b]
                    bufs = [buf[: out.size].reshape(out.shape) for buf in scratch[: len(diffs)]]
                    coeffs = (ca[s][a:b], cb[s][a:b]) if c is None else (None, c)
                    chunk.append((out, *coeffs, [(p[a:b], q[a:b]) for p, q in diffs], bufs))

    # perfbench's kernel_kind tells H from E by these names alone; _stepper gives neither token.
    def h(lo: int, hi: int) -> None:
        for run in runs["h", lo, hi]:
            _update(*run)

    def e(lo: int, hi: int) -> None:
        for run in runs["e", lo, hi]:
            _update(*run)

    def advance(n: int) -> None:
        if source is not None:
            _write_source(state.ez, source, n, deltat)
        execute_stencil(h, plan, executor.backend, executor)
        execute_stencil(e, plan, executor.backend, executor)

    return advance


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
    require_matching(ez=state.ez, cea=coeff.cea)
    if source is not None:
        source.validate_for_extent(state.ez.shape)
    n = state.step + 1
    out = replace(state.copy(), step=n)
    with StencilExecutor(backend) as executor:
        _stepper(out, coeff, source, deltat, executor)(n)
    return out


# --- run loop -----------------------------------------------------------


def _checked(state: FieldState) -> FieldState:
    """Return ``state``, or raise :class:`NonFiniteFieldError` on its first bad component."""
    for name, arr in state.components().items():
        if not all_finite(arr):
            raise NonFiniteFieldError(state.step, name)
    return state


def _state_class(config: SimulationConfig) -> type[FieldState]:
    return FieldState1D if config.dims == 1 else FieldState3D


def run_footprint_bytes(config: SimulationConfig) -> int:
    """Bytes that ``run(config)`` holds while it steps, on the vacuum it
    builds when no materials are passed.

    Counts the live fields, the four material and four coefficient arrays,
    the scratch buffers (one grid's worth per curl term of a row, summed over
    the chunks) and every snapshot copy. Transients of the coefficient set-up
    and of the CSV writer are left out.
    """
    names = _state_class(config).NAMES
    cadence = config.snapshot_every
    snapshots = (config.time_tot - 1) // cadence if cadence else 0
    arrays = len(names) * (1 + snapshots) + 4 + 4 + _curl_terms(names)
    return arrays * config.cell_count * config.precision.dtype.itemsize


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
    state: FieldState = _state_class(config).zeros(config.extent, config.precision)

    states: list[FieldState] = []
    cadence = config.snapshot_every
    with StencilExecutor(backend) as executor:
        advance = _stepper(state, coeff, config.source, config.deltat, executor)
        for n in range(1, config.time_tot + 1):
            advance(n)
            if cadence and n % cadence == 0 and n < config.time_tot:
                states.append(_checked(replace(state.copy(), step=n)))
    # The loop is over, so the final state keeps the live arrays.
    states.append(_checked(replace(state, step=config.time_tot)))
    return SnapshotSeries(states=tuple(states))
