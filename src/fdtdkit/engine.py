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
Every row is one contiguous range of a component viewed flat. A term along
axis ``a`` reads its neighbour ``stride_a = prod(shape[a+1:])`` cells away,
so with ``reach`` the row's largest stride, H rows cover ``[0, size -
reach)`` and E rows ``[reach, size)``; each chunk of slabs takes its share.
Frozen cells on a face of a trailing axis (index ``n-1`` along an H term's
axis, 0 along an E term's) lie inside that range and read a neighbour
wrapped round from the next row or plane, so each chunk saves its slabs'
faces before its updates and writes them back after, on every half-step:
a plane source writes frozen ``ez`` cells every step.

Each row of a chunk is one run, of one of two forms:

* a uniform run, where the field's pair is one cell broadcast with
  ``ca == 1``, takes ``cb`` as a dtype scalar and computes ``f + cb*curl``;
* a general run computes ``ca*f + cb*curl``.

Both give the same bits for every cell: ``1*f == f`` exactly, a dtype
scalar times the curl is the per-cell product, and ``+`` and ``*`` commute
bitwise. :meth:`UpdateCoefficients.from_materials` stores a pair as one
cell when its materials hold one value each, so vacuum is uniform and a
medium that varies is general.

A row is cut into consecutive blocks of at most ``_BLOCK_BYTES`` bytes of
its field, and each block is one run, so a run's operands and its scratch
stay in a core's L2 between its three or four ufunc passes instead of
streaming the whole row through memory each time. Both forms write through
``out=`` into scratch buffers of one block per curl term (a whole chunk
when the chunk is smaller), which a run allocates once per chunk and which
the chunk's runs share, so a step allocates nothing. Blocks only reorder
independent cells, so they change no bit.

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

from .backends import Backend, KernelPlan, StencilExecutor, execute_stencil
from .model import (
    FieldState,
    FieldState1D,
    FieldState3D,
    FloatArray,
    MaterialGrid,
    NonFiniteFieldError,
    SimulationConfig,
    SourceSpec,
    all_finite,
    all_strides_zero,
    make_vacuum_materials,
    require_matching,
    stored_cells,
    validate_stability,
)

_SERIAL = Backend.serial()

# Largest block of a row, in bytes of its field, that one run of _sweep takes.
# Fitted, not derived: how many blocks a run keeps in L2 depends on its form
# and terms, and smaller blocks cost more ufunc calls, each retaking the GIL
# while other workers need it. Over 64 KiB to 2 MiB blocks on 1D f64 and 3D
# f32/f64 grids, serial and parallel:2 (BENCH_cache_blocks.json), 256 KiB was
# within 7% of the fastest size on average and 28% at worst; 128 KiB was
# faster on serial but up to 57% slower on parallel:2. Read when a run builds
# its rows, so tests may lower it.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class UpdateCoefficients:
    """Per-cell update factors derived from materials and the time step; a
    pair derived from materials of one value each is a broadcast of one cell."""

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
        pair is computed in place in its two outputs plus one transient, in
        that operation order, so the peak is five grid arrays. A pair whose
        two inputs each hold one value (``min == max`` over their stored
        cells) is computed on one cell and broadcast, so it takes no memory
        per cell; a loss of ``0.0`` beside ``-0.0`` is one value, as both
        give ``1 - l == 1 + l == 1``.
        """
        dtype = materials.dtype
        dt = dtype.type(deltat)
        dl = dtype.type(delta)
        one = dtype.type(1.0)
        two = dtype.type(2.0)

        def pair(loss: FloatArray, medium: FloatArray) -> tuple[FloatArray, FloatArray]:
            cell = all(stored_cells(x).min() == stored_cells(x).max() for x in (loss, medium))
            if cell:
                loss, medium = loss.flat[:1], medium.flat[:1]
            a = np.multiply(loss, dt)
            tmp = np.multiply(two, medium)
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
            if cell:
                return np.broadcast_to(a, materials.shape), np.broadcast_to(b, materials.shape)
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


def _curl_rows(state: FieldState, field: str, ca, cb, lo: int, hi: int) -> list[tuple]:
    """Slabs ``[lo, hi)`` of each ``field`` ("h" or "e") component that
    ``state`` holds, with the curl terms whose neighbour it holds too.

    A row is ``(f, ca, cb, diffs, faces)``: flat views of the component and
    its coefficients on the cells it updates, per term the two views whose
    difference the term is (shifted minus own for H, own minus shifted for
    E), and the slabs' frozen faces along the terms' trailing axes.
    """
    d = 1 if field == "h" else -1
    arrays = state.components()
    rows = []
    for name, curl in _CURL.items():
        if name[0] != field or name not in arrays:
            continue
        f = arrays[name]
        terms = [(arrays[g].reshape(-1), math.prod(f.shape[a + 1 :]), a) for g, a in curl if g in arrays]
        reach = max(stride for _, stride, _ in terms)
        start, stop = (0, f.size - reach) if d == 1 else (reach, f.size)
        s = slice(max(start, lo * f[0].size), min(stop, hi * f[0].size))
        diffs = [(g[s.start + d * stride : s.stop + d * stride], g[s])[::d] for g, stride, _ in terms]
        faces = [np.moveaxis(f, a, 0)[-1 if d == 1 else 0, lo:hi] for _, _, a in terms if a]
        rows.append((*(x.reshape(-1)[s] for x in (f, ca, cb)), diffs, faces))
    return rows


def _sweep(runs: list[tuple], faces: list[tuple[FloatArray, FloatArray]]) -> None:
    """One chunk's half-step: ``f = ca*f + cb*curl`` per run (``f + cb*curl``
    when ``ca`` is ``None``), ``curl`` being the first difference less any
    second, between saving the chunk's frozen faces and writing them back.
    A run is one block of a row; its ``bufs`` are the chunk's one block of
    scratch per term, which every run reuses."""
    for face, saved in faces:
        np.copyto(saved, face)
    for f, ca, cb, ((p, q), *second), bufs in runs:
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
    for face, saved in faces:
        np.copyto(face, saved)


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

    One plan over the leading axis drives both half-steps, and one loop
    builds every chunk's H and E runs, scratch and face buffers once, not
    per step: the Python work of a chunk runs under the GIL, where it stalls
    the other workers. A chunk's H and E runs share its scratch, one block
    per curl term (the chunk's cells, if fewer); no two chunks share a
    buffer.

    Each row is cut into blocks of ``_BLOCK_BYTES // itemsize`` cells, the
    last one possibly shorter, and each block is one run ``(f, ca, cb,
    diffs, bufs)`` for :func:`_sweep`, flat views of the block's cells:
    uniform, ``ca`` ``None`` and ``cb`` a dtype scalar, when the field's
    pair has all strides 0 and ``ca`` is 1; else general, with ``ca`` and
    ``cb`` contiguous or zero-stride views. ``f``, the diffs and ``bufs``,
    views of the chunk's scratch, one per term, are always contiguous.
    ``run`` hands over C-contiguous arrays, so the flat views write through
    to the state.
    """
    plane = state.ez[0].size
    plan = KernelPlan.for_range(0, len(state.ez), executor.backend, cells_per_index=plane)
    terms = _curl_terms(state.NAMES)
    block = _BLOCK_BYTES // state.ez.itemsize
    chunks: dict[tuple[str, int, int], tuple[list, list]] = {}
    for lo, hi in plan.chunks:
        scratch = np.empty((terms, min(block, (hi - lo) * plane)), state.ez.dtype)
        for field, ca, cb in (("h", coeff.cha, coeff.chb), ("e", coeff.cea, coeff.ceb)):
            runs, faces = chunks[field, lo, hi] = [], []
            uniform = all_strides_zero(ca, cb) and ca.flat[0] == 1
            for f, row_ca, row_cb, diffs, row_faces in _curl_rows(state, field, ca, cb, lo, hi):
                for start in range(0, f.size, block):
                    s = slice(start, start + block)
                    bufs = [buf[: f[s].size] for buf in scratch[: len(diffs)]]
                    coeffs = (None, cb.flat[0]) if uniform else (row_ca[s], row_cb[s])
                    runs.append((f[s], *coeffs, [(p[s], q[s]) for p, q in diffs], bufs))
                faces += [(face, np.empty_like(face)) for face in row_faces]

    # perfbench's kernel_kind tells H from E by these names alone; _stepper gives neither token.
    def h(lo: int, hi: int) -> None:
        _sweep(*chunks["h", lo, hi])

    def e(lo: int, hi: int) -> None:
        _sweep(*chunks["e", lo, hi])

    def advance(n: int) -> None:
        if source is not None:
            _write_source(state.ez, source, n, deltat)
        execute_stencil(h, plan, executor.backend, executor)
        execute_stencil(e, plan, executor.backend, executor)

    return advance


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

    Counts the live fields, the scratch buffers, one face buffer per
    trailing curl axis of each component and every snapshot copy. Vacuum
    materials and their coefficients are broadcasts of one cell, so none is
    counted. Transients of the coefficient set-up and of the CSV writer are
    left out. The scratch term, one grid's worth per curl term of a row, is
    an upper bound: a run allocates one block per term per chunk, which is
    a grid's worth only when every chunk is at most one block.
    """
    names = _state_class(config).NAMES
    cadence = config.snapshot_every
    snapshots = (config.time_tot - 1) // cadence if cadence else 0
    arrays = len(names) * (1 + snapshots) + _curl_terms(names)
    faces = sum(config.cell_count // config.shape[a] for name in names for g, a in _CURL[name] if g in names and a)
    return (arrays * config.cell_count + faces) * config.precision.dtype.itemsize


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
    vacuum = make_vacuum_materials(config.extent, config.precision, config.units)
    if materials is None:
        materials = vacuum
    require_matching(vacuum=vacuum.epsilon, materials=materials.epsilon)
    # The fastest cell has the smallest eps*mu. Vacuum's product is rounded in
    # the run's dtype, so a vacuum grid scales the Courant number by exactly 1.
    # A broadcast of one value is taken on its one cell, not over the grid.
    low = (stored_cells(materials.epsilon) * stored_cells(materials.mu)).min()
    speed_sq = float(vacuum.epsilon.flat[0] * vacuum.mu.flat[0]) / float(low)
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
