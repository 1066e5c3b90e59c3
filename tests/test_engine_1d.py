"""1D engine behavior against hand-worked values and the brute-force oracle."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdtdkit.backends import Backend
from fdtdkit.engine import SnapshotSeries, UpdateCoefficients, run, step
from fdtdkit.model import (
    FieldState1D,
    FieldState3D,
    MaterialGrid,
    Precision,
    SimulationConfig,
    SourceSpec,
    make_vacuum_materials,
)

from energy import discrete_energy
from oracle_1d import reference_run_1d


def vacuum_coefficients(xdim, deltat, delta=1.0, precision=Precision.DOUBLE):
    materials = make_vacuum_materials(xdim, precision, "normalized")
    return UpdateCoefficients.from_materials(materials, deltat, delta)


def test_lossless_coefficients_reduce_to_plain_factors():
    coeff = vacuum_coefficients(4, deltat=0.5)
    assert np.all(coeff.cea == 1.0) and np.all(coeff.cha == 1.0)
    assert np.all(coeff.ceb == 0.5) and np.all(coeff.chb == 0.5)


def test_lossy_coefficients_match_hand_values():
    eps = np.ones(3)
    sigma = np.full(3, 0.2)
    materials = MaterialGrid(epsilon=eps, mu=np.ones(3), sigma=sigma, sigma_star=np.zeros(3))
    coeff = UpdateCoefficients.from_materials(materials, deltat=1.0, delta=1.0)
    # le = 0.2*1/(2*1) = 0.1, both factors divided by 1.1
    assert np.all(coeff.cea == (1.0 - 0.1) / (1.0 + 0.1))
    assert np.all(coeff.ceb == 1.0 / 1.1)
    assert np.all(coeff.cha == 1.0) and np.all(coeff.chb == 1.0)


def test_overdamped_coefficients_rejected():
    materials = MaterialGrid(
        epsilon=np.ones(3), mu=np.ones(3), sigma=np.full(3, 2.0), sigma_star=np.zeros(3)
    )
    with pytest.raises(ValueError):
        UpdateCoefficients.from_materials(materials, deltat=1.0, delta=1.0)


def test_overdamped_magnetic_loss_rejected():
    materials = MaterialGrid(
        epsilon=np.ones(3), mu=np.ones(3), sigma=np.zeros(3), sigma_star=np.array([0.0, 2.0, 0.0])
    )
    with pytest.raises(ValueError, match="loss too strong"):
        UpdateCoefficients.from_materials(materials, deltat=1.0, delta=1.0)


def identity_coefficients(xdim):
    # cea = cha = 1 and ceb = chb = 0 make both half-steps exact identities,
    # so a step changes nothing but the source cell
    ones, zeros = np.ones(xdim), np.zeros(xdim)
    return UpdateCoefficients(cea=ones, ceb=zeros, cha=ones, chb=zeros)


def hand_example_step():
    # single Ez spike, S = 0.5, one full step without a source
    coeff = vacuum_coefficients(3, deltat=0.5)
    state = FieldState1D(ez=np.array([0.0, 1.0, 0.0]), hy=np.zeros(3))
    return state, step(state, coeff, None, 0.5)


@pytest.mark.parametrize(
    "shape, precision",
    [((2**14,), Precision.DOUBLE), ((24, 20, 16), Precision.SINGLE)],
    ids=["1d-double", "3d-single"],
)
def test_coefficients_peak_at_five_grid_arrays_with_the_same_bits(shape, precision):
    dtype = precision.dtype
    rng = np.random.default_rng(8)
    materials = MaterialGrid(
        epsilon=rng.uniform(1.0, 3.0, shape).astype(dtype),
        mu=rng.uniform(1.0, 3.0, shape).astype(dtype),
        sigma=rng.uniform(0.0, 0.1, shape).astype(dtype),
        sigma_star=rng.uniform(0.0, 0.1, shape).astype(dtype),
    )
    deltat, delta = 0.45, 1.0
    tracemalloc.start()
    try:
        coeff = UpdateCoefficients.from_materials(materials, deltat, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # four outputs plus one shared transient, and a little for the objects
    assert peak <= 5 * materials.epsilon.nbytes + 4096
    _assert_per_cell_bits(materials, coeff, deltat, delta)


def _assert_per_cell_bits(materials, coeff, deltat, delta):
    """Each pair's bytes are those of the expressions written out on every
    cell, one temporary per operation."""
    dtype = materials.dtype
    dt, dl, one, two = (dtype.type(v) for v in (deltat, delta, 1.0, 2.0))
    for loss, medium, a, b in (
        (materials.sigma, materials.epsilon, coeff.cea, coeff.ceb),
        (materials.sigma_star, materials.mu, coeff.cha, coeff.chb),
    ):
        ratio = loss * dt / (two * medium)
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == ((one - ratio) / (one + ratio)).tobytes()
        assert b.tobytes() == (dt / (dl * medium) / (one + ratio)).tobytes()


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("signed_zero", [False, True], ids=["lossy-block", "signed-zero-loss"])
def test_a_pair_whose_materials_hold_one_value_is_one_cell_with_the_bits_of_every_cell(signed_zero, precision):
    """Full ``np.ones`` mu and ``np.zeros`` sigma_star, as around a lossy
    block, hold one value each, so their pair is stored as one broadcast
    cell; a loss that mixes ``0.0`` and ``-0.0`` is one value too."""
    dtype = precision.dtype
    shape = (12, 10, 8)
    epsilon, sigma = np.ones(shape, dtype), np.zeros(shape, dtype)
    mu, sigma_star = np.ones(shape, dtype), np.zeros(shape, dtype)
    if signed_zero:
        sigma[::2] = -0.0
        sigma_star[:, 1::3] = -0.0
        assert np.signbit(sigma).any() and not np.signbit(sigma).all()
    else:
        epsilon[3:7, 2:6, 1:5] = 4.0
        sigma[3:7, 2:6, 1:5] = 0.03
    materials = MaterialGrid(epsilon, mu, sigma, sigma_star)
    coeff = UpdateCoefficients.from_materials(materials, 0.45, 1.0)
    assert coeff.cha.strides == coeff.chb.strides == (0, 0, 0)
    assert (coeff.cea.strides == (0, 0, 0)) == signed_zero
    _assert_per_cell_bits(materials, coeff, 0.45, 1.0)


def test_h_update_hand_example():
    # Hy picks up +-0.5 on the two cells next to the spike; the E half-step
    # does not write Hy, and the input state is left alone
    state, after = hand_example_step()
    np.testing.assert_array_equal(after.hy, [0.5, -0.5, 0.0])
    np.testing.assert_array_equal(state.ez, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(state.hy, np.zeros(3))
    assert (state.step, after.step) == (0, 1)


def test_e_update_hand_example():
    # Ez reads the Hy of the same step: 1 + 0.5*(-0.5 - 0.5), 0 + 0.5*(0 + 0.5)
    _, after = hand_example_step()
    np.testing.assert_array_equal(after.ez, [0.0, 0.5, 0.25])


def test_constant_fields_have_zero_curl():
    coeff = vacuum_coefficients(4, deltat=1.0)
    flat = FieldState1D(ez=np.ones(4), hy=np.full(4, 2.5))
    after = step(flat, coeff, None, 1.0)
    np.testing.assert_array_equal(after.hy, flat.hy)
    np.testing.assert_array_equal(after.ez, flat.ez)


def test_zero_amplitude_source_leaves_state_zero():
    cfg = SimulationConfig(
        extent=30, time_tot=25, source=SourceSpec(location=15, amplitude=0.0), courant=1.0
    )
    state = run(cfg).final
    assert not np.any(state.ez) and not np.any(state.hy)


def test_hard_source_overwrites_soft_source_adds():
    state = FieldState1D(ez=np.full(5, 2.0), hy=np.zeros(5))
    coeff = identity_coefficients(5)
    hard = SourceSpec(location=2, n_lambda=4.0, tstart=0)
    val = hard.value_at(1, 1.0)
    assert step(state, coeff, hard, 1.0).ez[2] == val
    soft = SourceSpec(location=2, n_lambda=4.0, tstart=0, soft=True)
    assert step(state, coeff, soft, 1.0).ez[2] == 2.0 + val


def test_frozen_edge_cells_never_change():
    cfg = SimulationConfig(extent=30, time_tot=200, source=SourceSpec(location=15), courant=0.9)
    state = run(cfg).final
    assert state.ez[0] == 0.0
    assert state.hy[-1] == 0.0


def test_magic_step_propagates_source_sequence():
    """At S = 1 the wave moves exactly one cell per step with no dispersion."""
    cfg = SimulationConfig(extent=60, time_tot=14, source=SourceSpec(location=30), courant=1.0)
    ez = run(cfg).final.ez
    for d in range(1, 14):
        expected = math.sin(2.0 * math.pi * (14 - d) / 20.0)
        assert abs(ez[30 + d] - expected) <= 1e-12


def test_engine_matches_oracle_double():
    cfg = SimulationConfig(extent=24, time_tot=18, source=SourceSpec(location=7), courant=0.8)
    state = run(cfg).final
    ez, hy = reference_run_1d(24, 18, 7, courant=0.8)
    np.testing.assert_array_equal(state.ez, ez)
    np.testing.assert_array_equal(state.hy, hy)


def test_engine_matches_oracle_single():
    cfg = SimulationConfig(
        extent=24, time_tot=18, source=SourceSpec(location=7), courant=0.8,
        precision=Precision.SINGLE,
    )
    state = run(cfg).final
    ez, hy = reference_run_1d(24, 18, 7, courant=0.8, dtype=np.float32)
    assert state.ez.dtype == np.float32
    np.testing.assert_array_equal(state.ez, ez)
    np.testing.assert_array_equal(state.hy, hy)


def test_engine_matches_oracle_with_materials():
    rng = np.random.default_rng(11)
    for trial in range(40):
        xdim = int(rng.integers(8, 33))
        steps = int(rng.integers(1, 25))
        src = int(rng.integers(1, xdim - 1))
        courant = float(rng.uniform(0.1, 1.0))
        dtype = np.float32 if trial % 2 else np.float64
        precision = Precision.SINGLE if dtype is np.float32 else Precision.DOUBLE
        eps = rng.uniform(1.0, 3.0, xdim).astype(dtype)
        mu = rng.uniform(1.0, 3.0, xdim).astype(dtype)
        materials = MaterialGrid(
            epsilon=eps, mu=mu,
            sigma=np.zeros(xdim, dtype), sigma_star=np.zeros(xdim, dtype),
        )
        cfg = SimulationConfig(
            extent=xdim, time_tot=steps, source=SourceSpec(location=src),
            courant=courant, precision=precision,
        )
        state = run(cfg, materials=materials).final
        ez, hy = reference_run_1d(
            xdim, steps, src, courant=courant, epsilon=eps, mu=mu, dtype=dtype
        )
        assert np.array_equal(state.ez, ez), f"trial {trial}"
        assert np.array_equal(state.hy, hy), f"trial {trial}"


def test_power_of_two_amplitude_scaling_is_bitwise():
    base = SimulationConfig(extent=80, time_tot=40, source=SourceSpec(location=40), courant=0.5)
    doubled = SimulationConfig(
        extent=80, time_tot=40, source=SourceSpec(location=40, amplitude=2.0), courant=0.5
    )
    a = run(base).final
    b = run(doubled).final
    np.testing.assert_array_equal(b.ez, 2.0 * a.ez)
    np.testing.assert_array_equal(b.hy, 2.0 * a.hy)


def test_general_amplitude_scaling_within_tolerance():
    base = SimulationConfig(extent=80, time_tot=40, source=SourceSpec(location=40), courant=0.5)
    scaled = SimulationConfig(
        extent=80, time_tot=40, source=SourceSpec(location=40, amplitude=3.0), courant=0.5
    )
    a = run(base).final
    b = run(scaled).final
    np.testing.assert_allclose(b.ez, 3.0 * a.ez, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(b.hy, 3.0 * a.hy, rtol=1e-12, atol=1e-300)


def test_shift_invariance_away_from_walls():
    # identical coefficients everywhere, so a shifted source gives a shifted
    # field, bit for bit, until a wavefront touches a wall
    a = run(SimulationConfig(extent=120, time_tot=20, source=SourceSpec(location=40), courant=1.0)).final
    b = run(SimulationConfig(extent=120, time_tot=20, source=SourceSpec(location=45), courant=1.0)).final
    np.testing.assert_array_equal(b.ez[5:], a.ez[:-5])
    np.testing.assert_array_equal(b.hy[5:], a.hy[:-5])


def test_wavefront_overshoot_matches_oracle():
    # at S < 1 the leading edge overshoots the source amplitude; freeze the
    # value the reference stepper gives for the canonical 200-cell run
    cfg = SimulationConfig(extent=200, time_tot=50, source=SourceSpec(location=100), courant=0.5)
    peak = float(np.max(np.abs(run(cfg).final.ez)))
    assert peak == pytest.approx(1.034581762236717, rel=1e-13)
    assert peak < 1.05


def test_sourceless_evolution_stays_bounded():
    """Closed lossless cavity: 10,000 steps never exceed 10x the initial max."""
    rng = np.random.default_rng(5)
    for courant in (1.0, 0.7):
        xdim = 64
        coeff = vacuum_coefficients(xdim, deltat=courant)
        state = FieldState1D(
            ez=rng.uniform(-1.0, 1.0, xdim), hy=rng.uniform(-1.0, 1.0, xdim)
        )
        initial = max(np.max(np.abs(state.ez)), np.max(np.abs(state.hy)))
        for _ in range(10_000):
            state = step(state, coeff, None, courant)
        final = max(np.max(np.abs(state.ez)), np.max(np.abs(state.hy)))
        assert final <= 10.0 * initial


def test_loss_drains_energy_monotonically():
    # drive for one full source period, then let the pulse decay freely
    xdim = 64
    dtype = np.float64
    materials = MaterialGrid(
        epsilon=np.ones(xdim, dtype), mu=np.ones(xdim, dtype),
        sigma=np.full(xdim, 0.1, dtype), sigma_star=np.zeros(xdim, dtype),
    )
    coeff = UpdateCoefficients.from_materials(materials, deltat=0.5, delta=1.0)
    source = SourceSpec(location=32)
    state = FieldState1D.zeros(xdim)
    for _ in range(20):
        state = step(state, coeff, source, 0.5)
    after = step(state, coeff, None, 0.5)
    energy = discrete_energy(state, after, materials)
    assert energy > 0.0
    for _ in range(180):
        state, after = after, step(after, coeff, None, 0.5)
        nxt = discrete_energy(state, after, materials)
        assert nxt <= energy * (1.0 + 1e-12)
        energy = nxt


# The axes along which each component has a frozen face: the high face for H
# and the low face for E, along the axis of every curl term the state keeps.
_FROZEN_AXES = {
    1: {"ez": (0,), "hy": (0,)},
    3: {"hx": (1, 2), "hy": (0, 2), "hz": (0, 1), "ex": (1, 2), "ey": (0, 2), "ez": (0, 1)},
}


@pytest.mark.parametrize(
    "state_class, extent, steps",
    [(FieldState1D, 64, 400), (FieldState3D, (12, 10, 9), 200)],
)
def test_lossless_discrete_energy_is_conserved(state_class, extent, steps):
    rng = np.random.default_rng(2013)
    zeros = np.zeros(extent)
    materials = MaterialGrid(
        epsilon=rng.uniform(1.0, 3.0, extent), mu=rng.uniform(1.0, 2.0, extent),
        sigma=zeros, sigma_star=zeros,
    )
    coeff = UpdateCoefficients.from_materials(materials, deltat=0.5, delta=1.0)
    state = state_class(**{name: rng.standard_normal(extent) for name in state_class.NAMES})
    # A frozen cell never updates, so a nonzero one would act as a static source.
    for name, axes in _FROZEN_AXES[state_class.NDIM].items():
        for axis in axes:
            getattr(state, name)[(slice(None),) * axis + (-1 if name[0] == "h" else 0,)] = 0.0
    after = step(state, coeff, None, 0.5)
    first = discrete_energy(state, after, materials)
    drift = 0.0
    for _ in range(steps):
        state, after = after, step(after, coeff, None, 0.5)
        drift = max(drift, abs(discrete_energy(state, after, materials) - first) / first)
    assert drift <= 1e-13


def test_snapshot_cadence():
    cfg = SimulationConfig(extent=20, time_tot=35, source=SourceSpec(location=10), snapshot_every=10)
    assert run(cfg).steps == (10, 20, 30, 35)
    aligned = SimulationConfig(extent=20, time_tot=30, source=SourceSpec(location=10), snapshot_every=10)
    assert run(aligned).steps == (10, 20, 30)
    final_only = SimulationConfig(extent=20, time_tot=35, source=SourceSpec(location=10))
    assert run(final_only).steps == (35,)


def test_snapshot_series_needs_increasing_steps_and_a_state_for_final():
    state = FieldState1D.zeros(4)
    with pytest.raises(ValueError, match="strictly increasing"):
        SnapshotSeries(states=(replace(state, step=2), replace(state, step=2)))
    with pytest.raises(ValueError, match="empty snapshot series"):
        SnapshotSeries(states=()).final


def test_run_rejects_mismatched_materials():
    cfg = SimulationConfig(extent=20, time_tot=5, source=SourceSpec(location=10))
    wrong_shape = make_vacuum_materials(21, Precision.DOUBLE, "normalized")
    with pytest.raises(ValueError):
        run(cfg, materials=wrong_shape)
    wrong_dtype = make_vacuum_materials(20, Precision.SINGLE, "normalized")
    with pytest.raises(ValueError):
        run(cfg, materials=wrong_dtype)


def test_step_rejects_coefficients_that_do_not_match_the_state():
    state = FieldState1D.zeros(5, Precision.SINGLE)
    too_long = vacuum_coefficients(50, 0.5, precision=Precision.SINGLE)
    too_wide = vacuum_coefficients(5, 0.5, precision=Precision.DOUBLE)
    for coeff in (too_long, too_wide):
        with pytest.raises(ValueError, match="do not match"):
            step(state, coeff, None, 0.5)
    matching = vacuum_coefficients(5, 0.5, precision=Precision.SINGLE)
    assert step(state, matching, None, 0.5).ez.dtype == np.float32


def test_step_rejects_a_source_that_does_not_fit_the_state():
    coeff1 = vacuum_coefficients(8, 0.5)
    coeff3 = UpdateCoefficients.from_materials(make_vacuum_materials((8, 8, 8)), 0.5, 1.0)
    state1, state3 = FieldState1D.zeros(8), FieldState3D.zeros((8, 8, 8))
    cases = [
        (state1, coeff1, SourceSpec(location=4, plane=True)),
        (state1, coeff1, SourceSpec(location=7)),
        (state1, coeff1, SourceSpec(location=(4, 4, 4))),
        # an index into a 3D array would select a whole y-z plane
        (state3, coeff3, SourceSpec(location=4)),
    ]
    for state, coeff, source in cases:
        with pytest.raises(ValueError):
            step(state, coeff, source, 0.5)


def test_backend_choice_does_not_change_bits():
    cfg = SimulationConfig(extent=50_000, time_tot=10, source=SourceSpec(location=25_000), courant=1.0)
    serial = run(cfg).final
    for backend in (Backend.parallel(1), Backend.parallel(4)):
        other = run(cfg, backend=backend).final
        np.testing.assert_array_equal(serial.ez, other.ez)
        np.testing.assert_array_equal(serial.hy, other.hy)


@pytest.mark.parametrize("extent", [40, (9, 7, 6)], ids=["1d", "3d"])
def test_a_uniform_lossy_medium_as_broadcasts_gives_the_bits_of_full_arrays(extent, monkeypatch):
    """Broadcast coefficients with ``ca != 1`` make one general run per row,
    whose ``ca`` and ``cb`` are zero-stride views; full arrays of the same
    values give the same bits."""
    monkeypatch.setattr("fdtdkit.backends.MIN_CHUNK_CELLS", 4)
    location = 20 if isinstance(extent, int) else (4, 3, 2)
    cfg = SimulationConfig(extent=extent, time_tot=12, courant=0.5, source=SourceSpec(location=location, n_lambda=6.0))
    broadcast = MaterialGrid(
        *(np.broadcast_to(np.float64(v), cfg.shape) for v in (2.0, 1.5, 0.05, 0.02))
    )
    full = MaterialGrid(*(arr.copy() for arr in (broadcast.epsilon, broadcast.mu, broadcast.sigma, broadcast.sigma_star)))
    coeff = UpdateCoefficients.from_materials(broadcast, cfg.deltat, cfg.delta)
    assert all(arr.strides == (0,) * len(cfg.shape) for arr in (coeff.cea, coeff.ceb, coeff.cha, coeff.chb))
    assert coeff.cea[(0,) * len(cfg.shape)] != 1.0
    want = run(cfg, full).final
    assert np.any(want.ez != 0.0)
    for backend in (Backend.serial(), Backend.parallel(3)):
        got = run(cfg, broadcast, backend).final
        for name, arr in got.components().items():
            assert arr.tobytes() == getattr(want, name).tobytes(), (str(backend), name)
