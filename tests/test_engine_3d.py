"""3D engine behavior: hand-worked curl samples, symmetry, and the 1D limit."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdtdkit.engine as engine
from fdtdkit.backends import Backend, KernelPlan
from fdtdkit.engine import UpdateCoefficients, run, step
from fdtdkit.model import (
    FieldState3D,
    MaterialGrid,
    Precision,
    SimulationConfig,
    SourceSpec,
    make_vacuum_materials,
)

from energy import discrete_energy
from oracle_3d import reference_run_3d


def vacuum_coefficients(shape, deltat):
    materials = make_vacuum_materials(shape, Precision.DOUBLE, "normalized")
    return UpdateCoefficients.from_materials(materials, deltat, 1.0)


def test_single_ez_spike_curls_into_four_h_samples():
    """One Ez sample at the center excites two Hx and two Hy cells, no Hz."""
    shape = (6, 6, 6)
    c = (3, 3, 3)
    coeff = vacuum_coefficients(shape, deltat=0.5)
    state = FieldState3D.zeros(shape)
    state.ez[c] = 1.0
    after = step(state, coeff, None, 0.5)

    expected_hx = np.zeros(shape)
    expected_hx[3, 2, 3] = -0.5
    expected_hx[3, 3, 3] = 0.5
    expected_hy = np.zeros(shape)
    expected_hy[2, 3, 3] = 0.5
    expected_hy[3, 3, 3] = -0.5
    np.testing.assert_array_equal(after.hx, expected_hx)
    np.testing.assert_array_equal(after.hy, expected_hy)
    np.testing.assert_array_equal(after.hz, np.zeros(shape))
    # the E half-step does not write H, and the input state is left alone
    expected_ez = np.zeros(shape)
    expected_ez[c] = 1.0
    np.testing.assert_array_equal(state.ez, expected_ez)
    np.testing.assert_array_equal(state.hx, np.zeros(shape))


def test_h_update_is_antisymmetric_across_the_spike():
    shape = (8, 8, 8)
    coeff = vacuum_coefficients(shape, deltat=0.5)
    state = FieldState3D.zeros(shape)
    state.ez[4, 4, 4] = 2.5
    after = step(state, coeff, None, 0.5)
    assert after.hx[4, 3, 4] == -after.hx[4, 4, 4]
    assert after.hy[3, 4, 4] == -after.hy[4, 4, 4]
    assert np.count_nonzero(after.hx) == 2
    assert np.count_nonzero(after.hy) == 2


def test_frozen_faces_in_3d():
    cfg = SimulationConfig(
        extent=(12, 12, 12), time_tot=40,
        source=SourceSpec(location=(6, 6, 6)), courant=0.5,
    )
    state = run(cfg).final
    # E components are frozen on their two low faces, H on their two high faces
    assert np.all(state.ez[0, :, :] == 0.0) and np.all(state.ez[:, 0, :] == 0.0)
    assert np.all(state.ex[:, 0, :] == 0.0) and np.all(state.ex[:, :, 0] == 0.0)
    assert np.all(state.ey[0, :, :] == 0.0) and np.all(state.ey[:, :, 0] == 0.0)
    assert np.all(state.hx[:, -1, :] == 0.0) and np.all(state.hx[:, :, -1] == 0.0)
    assert np.all(state.hy[-1, :, :] == 0.0) and np.all(state.hy[:, :, -1] == 0.0)
    assert np.all(state.hz[-1, :, :] == 0.0) and np.all(state.hz[:, -1, :] == 0.0)


def test_source_cell_cancellation_at_one_step():
    # at S = 0.5 the first E update exactly undoes the injected sample:
    # ceb * chb * 4 = 1, so the spike moves entirely into the H ring
    cfg = SimulationConfig(
        extent=(8, 8, 8), time_tot=1,
        source=SourceSpec(location=(4, 4, 4), n_lambda=4.0, tstart=0),
        courant=0.5,
    )
    state = run(cfg).final
    assert state.ez[4, 4, 4] == 0.0
    assert np.count_nonzero(state.hx) == 2
    assert np.count_nonzero(state.hy) == 2


def test_plane_source_fills_the_whole_sheet():
    # cea = cha = 1 and ceb = chb = 0 make both half-steps exact identities,
    # so a step changes nothing but the source cells
    ones, zeros = np.ones((8, 8, 8)), np.zeros((8, 8, 8))
    coeff = UpdateCoefficients(cea=ones, ceb=zeros, cha=ones, chb=zeros)
    plane = SourceSpec(location=(4, 4, 4), n_lambda=4.0, tstart=0, plane=True)
    state = FieldState3D.zeros((8, 8, 8))
    injected = step(state, coeff, plane, 0.5)
    val = plane.value_at(1, 0.5)
    assert val != 0.0
    assert np.all(injected.ez[4] == val)
    assert np.all(injected.ez[:4] == 0.0) and np.all(injected.ez[5:] == 0.0)
    point = SourceSpec(location=(4, 4, 4), n_lambda=4.0, tstart=0)
    single = step(state, coeff, point, 0.5)
    assert np.count_nonzero(single.ez) == 1


def test_plane_source_reduces_to_1d_profile():
    """A y/z-uniform 3D run must reproduce the 1D solution along x.

    Compared on the line (j = ny-1, k = 0), which no frozen-face artifact
    can reach within the first 8 steps of a 10-step run; wall influence
    crawls one cell per half-step update along each axis.
    """
    nx, ny, nz = 32, 8, 8
    steps = 10
    cfg3 = SimulationConfig(
        extent=(nx, ny, nz), time_tot=steps,
        source=SourceSpec(location=(16, 4, 4), plane=True),
        courant=0.5, snapshot_every=1,
    )
    cfg1 = SimulationConfig(
        extent=nx, time_tot=steps, source=SourceSpec(location=16), courant=0.5,
        snapshot_every=1,
    )
    series3 = run(cfg3)
    series1 = run(cfg1)
    assert series3.steps == series1.steps == tuple(range(1, steps + 1))
    compared_amplitude = 0.0
    for s3, s1 in zip(series3.states[:8], series1.states[:8]):
        ez_line = s3.ez[:, ny - 1, 0]
        hy_line = s3.hy[:, ny - 1, 0]
        np.testing.assert_allclose(ez_line, s1.ez, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(hy_line, s1.hy, rtol=0.0, atol=1e-10)
        compared_amplitude = max(compared_amplitude, float(np.max(np.abs(ez_line))))
    # the comparison must cover a real wave, not agreement about zeros
    assert compared_amplitude >= 0.5


def test_3d_backend_choice_does_not_change_bits():
    cfg = SimulationConfig(
        extent=(24, 24, 24), time_tot=8,
        source=SourceSpec(location=(12, 12, 12)), courant=0.5,
    )
    serial = run(cfg).final
    parallel = run(cfg, backend=Backend.parallel(4)).final
    for name, arr in serial.components().items():
        np.testing.assert_array_equal(arr, getattr(parallel, name), err_msg=name)


def test_3d_energy_grows_while_driven():
    shape = (10, 10, 10)
    materials = make_vacuum_materials(shape, Precision.DOUBLE, "normalized")
    coeff = vacuum_coefficients(shape, deltat=0.5)
    source = SourceSpec(location=(5, 5, 5))
    states = [FieldState3D.zeros(shape)]
    for _ in range(6):
        states.append(step(states[-1], coeff, source, 0.5))
    # the waveform's first sample is zero, so measure from step 2 on
    energy = [discrete_energy(a, b, materials) for a, b in zip(states[2:], states[3:])]
    assert energy[0] > 0.0
    assert all(nxt > before for before, nxt in zip(energy, energy[1:]))


def test_3d_single_precision_runs_in_dtype():
    cfg = SimulationConfig(
        extent=(8, 8, 8), time_tot=3, source=SourceSpec(location=(4, 4, 4)),
        courant=0.5, precision=Precision.SINGLE,
    )
    state = run(cfg).final
    assert all(arr.dtype == np.float32 for arr in state.components().values())
    assert np.any(state.ez != 0.0)


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_engine_matches_oracle_on_random_lossy_grids(precision):
    rng = np.random.default_rng(31)
    dtype = precision.dtype
    # small grids run as one chunk; the last one is split three ways by parallel:3
    shapes = [tuple(int(n) for n in rng.integers(3, 9, 3)) for _ in range(5)]
    shapes.append((24, 24, 22))
    assert len(KernelPlan.for_range(0, 24, Backend.parallel(3), 24 * 22).chunks) == 3
    for trial, shape in enumerate(shapes):
        steps = 3 if trial == len(shapes) - 1 else int(rng.integers(2, 12))
        location = tuple(int(rng.integers(1, n - 1)) for n in shape)
        soft, plane = bool(rng.integers(2)), bool(rng.integers(2))
        courant = float(rng.uniform(0.1, 0.57))
        arrays = {
            "epsilon": rng.uniform(1.0, 3.0, shape).astype(dtype),
            "mu": rng.uniform(1.0, 3.0, shape).astype(dtype),
            "sigma": rng.uniform(0.0, 0.1, shape).astype(dtype),
            "sigma_star": rng.uniform(0.0, 0.1, shape).astype(dtype),
        }
        cfg = SimulationConfig(
            extent=shape, time_tot=steps, courant=courant, precision=precision,
            source=SourceSpec(location=location, n_lambda=7.0, soft=soft, plane=plane),
        )
        expected = reference_run_3d(
            shape, steps, location, courant=courant, n_lambda=7.0, soft=soft,
            plane=plane, dtype=dtype, **arrays,
        )
        for backend in (Backend.serial(), Backend.parallel(3)):
            state = run(cfg, MaterialGrid(**arrays), backend).final
            for name, arr in state.components().items():
                assert np.array_equal(arr, expected[name]), (trial, str(backend), name)
            assert np.any(state.ez != 0.0)


HALF_STEP_BACKENDS = pytest.mark.parametrize("backend", [Backend.serial(), Backend.parallel(2)], ids=str)
HALF_STEP_EXTENTS = pytest.mark.parametrize("extent", [2**15, (32, 32, 32)], ids=["1d-vacuum", "3d-lossy-block"])


def _half_step_growth(extent, backend, monkeypatch):
    """Traced memory growth of each half-step of a 4-step run; the 3D block
    is lossy: on serial its E rows take the general form and the vacuum
    around it the short one."""
    location = 3 if isinstance(extent, int) else (3, 16, 16)
    cfg = SimulationConfig(extent=extent, time_tot=4, source=SourceSpec(location=location))
    materials = make_vacuum_materials(cfg.extent, cfg.precision, cfg.units)
    if cfg.dims == 3:
        # vacuum arrays are read-only broadcasts: paint the block on copies
        epsilon, sigma = materials.epsilon.copy(), materials.sigma.copy()
        epsilon[8:24, 4:18, 10:28] = 2.5
        sigma[8:24, 4:18, 10:28] = 0.05
        materials = MaterialGrid(epsilon, materials.mu, sigma, materials.sigma_star)
    growth = []
    execute_stencil = engine.execute_stencil

    def measured(kernel, plan, backend, executor):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        execute_stencil(kernel, plan, backend, executor)
        growth.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(engine, "execute_stencil", measured)
    tracemalloc.start()
    try:
        run(cfg, materials, backend)
    finally:
        tracemalloc.stop()
    assert len(growth) == 2 * cfg.time_tot
    return growth, cfg


@HALF_STEP_BACKENDS
@HALF_STEP_EXTENTS
def test_half_steps_allocate_nothing(extent, backend, monkeypatch):
    """Both row forms write into the run's scratch: no half-step allocates a
    temporary the size of a component."""
    growth, cfg = _half_step_growth(extent, backend, monkeypatch)
    # the futures of a fork-join are all a half-step may allocate
    assert max(growth) < cfg.cell_count * cfg.precision.dtype.itemsize


@HALF_STEP_BACKENDS
@HALF_STEP_EXTENTS
def test_half_steps_grow_by_less_than_64_kib(extent, backend, monkeypatch):
    """Every row operand is a contiguous flat range, so NumPy buffers none of
    them, and the face buffers exist before the first step."""
    growth, _ = _half_step_growth(extent, backend, monkeypatch)
    assert max(growth) < 64 * 1024


# the two faces of each component that the formulas in the engine docstring
# leave frozen, as (axis, index)
FROZEN_FACES = {
    "hx": ((1, -1), (2, -1)), "hy": ((0, -1), (2, -1)), "hz": ((0, -1), (1, -1)),
    "ex": ((1, 0), (2, 0)), "ey": ((0, 0), (2, 0)), "ez": ((0, 0), (1, 0)),
}


@pytest.mark.parametrize(
    "source",
    [None, SourceSpec(location=(4, 3, 2), n_lambda=6.0, tstart=0, soft=True, plane=True)],
    ids=["no-source", "soft-plane"],
)
def test_frozen_faces_keep_their_bytes(source, monkeypatch):
    """A row reads wrapped-round neighbours on the frozen faces inside its flat
    range; each chunk writes those faces back, bit for bit, on every backend."""
    monkeypatch.setattr("fdtdkit.backends.MIN_CHUNK_CELLS", 1)
    shape = (9, 7, 6)
    assert len(KernelPlan.for_range(0, shape[0], Backend.parallel(3), 7 * 6).chunks) > 1
    rng = np.random.default_rng(11)
    state = FieldState3D(**{name: rng.uniform(-1.0, 1.0, shape) for name in FieldState3D.NAMES})
    for name, faces in FROZEN_FACES.items():
        for axis, index in faces:
            face = np.moveaxis(getattr(state, name), axis, 0)[index]
            face[::2, ::2] = -0.0
            face[1::2, 1::2] = rng.choice([-1e300, 1e300], face[1::2, 1::2].shape)
    # a lossy half next to vacuum: mu and sigma_star hold one value, so H
    # rows take the uniform form and E rows the general one
    epsilon, mu, sigma, sigma_star = np.ones(shape), np.ones(shape), np.zeros(shape), np.zeros(shape)
    epsilon[:, :, 3:] = 2.0
    sigma[:, :, 3:] = 0.05
    materials = MaterialGrid(epsilon, mu, sigma, sigma_star)
    coeff = UpdateCoefficients.from_materials(materials, 0.5, 1.0)

    serial, parallel = (step(state, coeff, source, 0.5, b) for b in (Backend.serial(), Backend.parallel(3)))
    expected = state.copy()
    if source is not None:
        # the sheet crosses ez's frozen j = 0 face, so that face takes the sample
        val = source.value_at(state.step + 1, 0.5)
        assert val != 0.0
        expected.ez[source.location[0]] += np.float64(val)
    for name, faces in FROZEN_FACES.items():
        assert getattr(serial, name).tobytes() == getattr(parallel, name).tobytes(), name
        for axis, index in faces:
            got, want = (np.moveaxis(getattr(s, name), axis, 0)[index] for s in (serial, expected))
            assert got.tobytes() == want.tobytes(), (name, axis)


@pytest.fixture
def kernel_kind(monkeypatch):
    """perfbench's own rule for telling H kernels from E kernels, imported as
    ``perfbench/run.py`` imports it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import kernel_kind

    return kernel_kind


@pytest.mark.parametrize("backend", [Backend.serial(), Backend.parallel(2)], ids=str)
@pytest.mark.parametrize("extent", [64, (8, 8, 8)], ids=["1d", "3d"])
def test_kernel_names_tell_h_from_e(extent, backend, kernel_kind, monkeypatch):
    """The tracer counts a kernel as H or E by its ``__qualname__`` alone, and
    anything else as neither; every step must run one H kernel, then one E."""
    location = 32 if isinstance(extent, int) else (4, 4, 4)
    cfg = SimulationConfig(extent=extent, time_tot=2, source=SourceSpec(location=location), courant=0.5)
    kinds = []
    execute_stencil = engine.execute_stencil

    def recorded(kernel, plan, backend, executor):
        kinds.append(kernel_kind(kernel.__qualname__))
        execute_stencil(kernel, plan, backend, executor)

    monkeypatch.setattr(engine, "execute_stencil", recorded)
    run(cfg, backend=backend)
    assert kinds == ["h", "e"] * cfg.time_tot
