"""Configuration, stability, source, and material validation behavior."""

import math

import numpy as np
import pytest

from fdtdkit.engine import run
from fdtdkit.model import (
    C0,
    EPS0,
    MU0,
    FieldState1D,
    MaterialGrid,
    NonFiniteFieldError,
    Precision,
    SimulationConfig,
    SourceSpec,
    UnstableCourantError,
    make_vacuum_materials,
    validate_stability,
)


def test_courant_bounds():
    with pytest.raises(UnstableCourantError) as err:
        validate_stability(1, 2.0)
    assert err.value.bound == 1.0
    with pytest.raises(UnstableCourantError) as err:
        validate_stability(3, 2.0)
    assert err.value.bound == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    with pytest.raises(ValueError):
        validate_stability(2, 0.5)


@pytest.mark.parametrize("dims,courant", [(1, 0.5), (1, 1.0), (3, 0.5), (3, 1.0 / math.sqrt(3.0))])
def test_validate_stability_accepts(dims, courant):
    validate_stability(dims, courant)


@pytest.mark.parametrize("dims,courant", [(1, 1.1), (3, 0.6), (1, 0.0), (1, -0.5), (1, math.inf), (1, math.nan)])
def test_validate_stability_rejects(dims, courant):
    with pytest.raises(UnstableCourantError):
        validate_stability(dims, courant)


def test_unstable_courant_error_names_the_bound():
    with pytest.raises(UnstableCourantError, match="1.0"):
        validate_stability(1, 1.5)


def test_precision_parse_and_dtype():
    assert Precision.parse("single").dtype == np.dtype(np.float32)
    assert Precision.parse("double").dtype == np.dtype(np.float64)
    assert Precision.DOUBLE.eps == np.finfo(np.float64).eps
    with pytest.raises(ValueError):
        Precision.parse("quad")


def test_source_waveform_phase():
    src = SourceSpec(location=5)
    # phase origin sits at tstart, one period spans n_lambda steps
    assert src.value_at(1, 1.0) == 0.0
    assert src.value_at(6, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert src.value_at(11, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_source_location_must_be_interior():
    with pytest.raises(ValueError):
        SimulationConfig(extent=10, time_tot=1, source=SourceSpec(location=0))
    with pytest.raises(ValueError):
        SimulationConfig(extent=10, time_tot=1, source=SourceSpec(location=9))
    SimulationConfig(extent=10, time_tot=1, source=SourceSpec(location=8))


def test_plane_source_rejected_in_1d():
    with pytest.raises(ValueError):
        SimulationConfig(extent=10, time_tot=1, source=SourceSpec(location=5, plane=True))


@pytest.mark.parametrize(
    "extent, location",
    [
        ((8, 8, 8), (4, 4, 4.0)), ((8, 8, 8), (4, 4)), ((8, 8, 8), 4), (10, (1, 2, 3)), (10, 5.0),
        # indexing with a bool drives every cell of its axis: all 16, or the line ez[4, 4, :]
        (16, True), ((8, 8, 8), (True, 4, 4)), (16, np.True_),
    ],
)
def test_source_location_needs_one_integer_index_per_axis(extent, location):
    # rejected by the config, not by an IndexError once the run has started
    with pytest.raises(ValueError, match="one integer index per axis"):
        SimulationConfig(extent=extent, time_tot=2, source=SourceSpec(location=location))


@pytest.mark.parametrize(
    "extent, location",
    [(10, np.int64(5)), ((8, 8, 8), (np.int32(4), np.int64(3), 4))],
)
def test_numpy_integer_source_indices_run_like_python_ints(extent, location):
    cfg = SimulationConfig(extent=extent, time_tot=6, source=SourceSpec(location=location))
    as_int = int(location) if np.ndim(location) == 0 else tuple(int(i) for i in location)
    ref = SimulationConfig(extent=extent, time_tot=6, source=SourceSpec(location=as_int))
    for got, want in zip(run(cfg).final.components().values(), run(ref).final.components().values()):
        assert got.tobytes() == want.tobytes()


def test_config_defaults_and_deltat():
    cfg = SimulationConfig(extent=200, time_tot=50, source=SourceSpec(location=100))
    assert cfg.dims == 1
    assert cfg.courant == 1.0
    assert cfg.deltat == 1.0
    assert cfg.cell_count == 200

    cfg3 = SimulationConfig(extent=(8, 8, 8), time_tot=5, source=SourceSpec(location=(4, 4, 4)))
    assert cfg3.dims == 3
    assert cfg3.courant == 0.5
    assert cfg3.deltat == 0.5
    assert cfg3.cell_count == 512


def test_config_rejects_unstable_courant():
    with pytest.raises(UnstableCourantError):
        SimulationConfig(extent=200, time_tot=1, source=SourceSpec(location=100), courant=1.5)
    with pytest.raises(UnstableCourantError):
        SimulationConfig(extent=(8, 8, 8), time_tot=1, source=SourceSpec(location=(4, 4, 4)), courant=0.6)


@pytest.mark.parametrize(
    "extent,location,courant,steps",
    [(100, 50, 1.0, 300), ((12, 12, 12), (6, 6, 6), 0.5, 200)],
    ids=["1d", "3d"],
)
def test_run_rejects_a_medium_faster_than_the_courant_bound(extent, location, courant, steps):
    # epsilon = 0.25 doubles the wave speed. Unchecked, the 1D run ends with
    # NaN in Ez and the 3D run with |Ez| near 1e192.
    cfg = SimulationConfig(
        extent=extent, time_tot=steps, source=SourceSpec(location=location), courant=courant
    )
    shape = cfg.shape
    fast = MaterialGrid(
        epsilon=np.full(shape, 0.25), mu=np.ones(shape),
        sigma=np.zeros(shape), sigma_star=np.zeros(shape),
    )
    with pytest.raises(UnstableCourantError) as err:
        run(cfg, fast)
    assert err.value.courant == 2.0 * courant


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("units", ["normalized", "physical"])
@pytest.mark.parametrize("extent,location", [(40, 20), ((8, 8, 8), (4, 4, 4))], ids=["1d", "3d"])
def test_vacuum_at_the_courant_bound_still_runs(extent, location, units, precision):
    # eps0*mu0*c0**2 is not 1 in floating point; the fastest-cell rule must
    # still accept vacuum at exactly the bound in either unit system
    dims = 1 if isinstance(extent, int) else 3
    cfg = SimulationConfig(
        extent=extent, time_tot=20, source=SourceSpec(location=location),
        delta=1e-3 if units == "physical" else 1.0, courant=1.0 / math.sqrt(dims),
        precision=precision, units=units,
    )
    final = run(cfg).final
    assert all(np.isfinite(arr).all() for arr in final.components().values())


# Each of these runs overflows to Inf and NaN within the step count; the
# kernels' overflow warnings are the point, not a fault.
_OVERFLOWING_RUNS = {
    "1d-hard": dict(extent=50, time_tot=100, source=SourceSpec(location=25, amplitude=1e308)),
    "1d-soft": dict(
        extent=50, time_tot=100, source=SourceSpec(location=25, amplitude=1e308, soft=True)
    ),
    "3d-single-soft": dict(
        extent=(8, 8, 8), time_tot=40, precision=Precision.SINGLE,
        source=SourceSpec(location=(4, 4, 4), amplitude=1e38, soft=True),
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(_OVERFLOWING_RUNS))
def test_run_stops_on_a_non_finite_final_state(name):
    cfg = SimulationConfig(**_OVERFLOWING_RUNS[name])
    with pytest.raises(NonFiniteFieldError) as err:
        run(cfg)
    assert err.value.step == cfg.time_tot
    assert err.value.component == ("ez" if cfg.dims == 1 else "ex")
    assert isinstance(err.value, ArithmeticError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["1d-hard", "3d-single-soft"])
def test_run_stops_at_the_first_non_finite_snapshot(name):
    cfg = SimulationConfig(**_OVERFLOWING_RUNS[name], snapshot_every=10)
    with pytest.raises(NonFiniteFieldError) as err:
        run(cfg)
    assert err.value.step % 10 == 0 and err.value.step < cfg.time_tot
    assert err.value.component in ("ez", "ex")


def test_config_rejects_tiny_grids():
    with pytest.raises(ValueError):
        SimulationConfig(extent=2, time_tot=1, source=SourceSpec(location=1))


def test_physical_units_constants():
    assert C0 == 299792458.0
    assert EPS0 == 8.8541878128e-12
    assert MU0 == 1.25663706212e-6
    cfg = SimulationConfig(
        extent=50, time_tot=1, source=SourceSpec(location=25), delta=1e-3, units="physical"
    )
    assert cfg.wave_speed == C0
    assert cfg.deltat == pytest.approx(1e-3 / C0, rel=1e-15)


def test_vacuum_materials_by_units():
    norm = make_vacuum_materials(10, Precision.DOUBLE, "normalized")
    assert np.all(norm.epsilon == 1.0) and np.all(norm.mu == 1.0)
    phys = make_vacuum_materials(10, Precision.DOUBLE, "physical")
    assert np.all(phys.epsilon == EPS0) and np.all(phys.mu == MU0)
    assert np.all(phys.sigma == 0.0) and np.all(phys.sigma_star == 0.0)


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
def test_vacuum_materials_are_read_only_broadcasts(precision):
    vacuum = make_vacuum_materials((4, 3, 5), precision, "physical")
    for name, value in (("epsilon", EPS0), ("mu", MU0), ("sigma", 0.0), ("sigma_star", 0.0)):
        arr = getattr(vacuum, name)
        assert arr.shape == (4, 3, 5) and arr.dtype == precision.dtype and arr.strides == (0, 0, 0)
        assert np.array_equal(arr, np.full(arr.shape, value, precision.dtype))
    with pytest.raises(ValueError, match="read-only"):
        vacuum.epsilon[1, 1, 1] = 2.0
    # a copy is a writable array of the same values
    painted = vacuum.epsilon.copy()
    painted[1, 1, 1] = 2.0
    assert painted.flags.writeable and vacuum.epsilon[1, 1, 1] == precision.dtype.type(EPS0)


# one value per rule of MaterialGrid that breaks it, as (array, value, message)
_BROKEN_RULES = {
    "epsilon-nan": ("epsilon", math.nan, "epsilon must be finite everywhere"),
    "mu-inf": ("mu", math.inf, "mu must be finite everywhere"),
    "sigma-nan": ("sigma", math.nan, "sigma must be finite everywhere"),
    "sigma_star-inf": ("sigma_star", -math.inf, "sigma_star must be finite everywhere"),
    "epsilon-zero": ("epsilon", 0.0, "epsilon must be positive everywhere"),
    "mu-negative": ("mu", -1.0, "mu must be positive everywhere"),
    "sigma-negative": ("sigma", -0.5, "sigma and sigma_star must be non-negative"),
    "sigma_star-negative": ("sigma_star", -0.5, "sigma and sigma_star must be non-negative"),
}


@pytest.mark.parametrize("name, value, message", _BROKEN_RULES.values(), ids=_BROKEN_RULES)
def test_a_broadcast_material_breaks_each_rule_as_a_full_array_does(name, value, message):
    """A zero-stride array is checked on its one cell, with the message a
    full array of the same value gets."""
    shape = (4, 3, 5)
    vacuum = make_vacuum_materials(shape)
    errors = []
    for bad in (np.broadcast_to(np.float64(value), shape), np.full(shape, value)):
        arrays = {n: getattr(vacuum, n) for n in ("epsilon", "mu", "sigma", "sigma_star")}
        arrays[name] = bad
        with pytest.raises(ValueError) as err:
            MaterialGrid(**arrays)
        errors.append(str(err.value))
    assert errors == [message, message]


def test_a_broadcast_material_of_integers_is_rejected_as_a_full_one_is():
    shape = (6,)
    errors = []
    for arr in (np.broadcast_to(np.int64(1), shape), np.ones(shape, np.int64)):
        with pytest.raises(ValueError) as err:
            MaterialGrid(arr, arr, arr, arr)
        errors.append(str(err.value))
    assert errors == ["material dtype must be float32 or float64, got int64"] * 2


def test_material_grid_validation():
    ok = np.ones(5)
    with pytest.raises(ValueError):
        MaterialGrid(epsilon=np.zeros(5), mu=ok, sigma=np.zeros(5), sigma_star=np.zeros(5))
    with pytest.raises(ValueError):
        MaterialGrid(epsilon=ok, mu=ok, sigma=-np.ones(5), sigma_star=np.zeros(5))
    with pytest.raises(ValueError):
        MaterialGrid(epsilon=ok, mu=np.ones(6), sigma=np.zeros(5), sigma_star=np.zeros(5))


def _materials_with(name, value):
    arrays = {"epsilon": np.ones(5), "mu": np.ones(5), "sigma": np.zeros(5), "sigma_star": np.zeros(5)}
    arrays[name][2] = value
    return lambda: MaterialGrid(**arrays)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SourceSpec(location=5, n_lambda=math.nan),
        lambda: SourceSpec(location=5, n_lambda=math.inf),
        _materials_with("sigma", math.nan),
        _materials_with("sigma_star", math.inf),
        _materials_with("epsilon", math.inf),
        _materials_with("mu", math.inf),
        lambda: SourceSpec(location=5, amplitude=math.nan),
        lambda: SourceSpec(location=5, amplitude=-math.inf),
        lambda: SimulationConfig(extent=10, time_tot=1, source=SourceSpec(location=5), delta=math.nan),
    ],
    ids=[
        "n_lambda-nan", "n_lambda-inf", "sigma-nan", "sigma_star-inf", "epsilon-inf", "mu-inf",
        "amplitude-nan", "amplitude-inf", "delta-nan",
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def _config(**overrides):
    fields = {"extent": 10, "time_tot": 1, "source": SourceSpec(location=5), **overrides}
    return lambda: SimulationConfig(**fields)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SourceSpec(location=5, tstart=-1), "tstart"),
        (lambda: MaterialGrid(*(np.ones(5, np.int64) for _ in range(4))), "float32 or float64"),
        (_materials_with("mu", 0.0), "mu must be positive"),
        (_materials_with("mu", -1.0), "mu must be positive"),
        (lambda: make_vacuum_materials(10, units="imperial"), "units"),
        (_config(extent=(8, 8), source=SourceSpec(location=(4, 4))), "three axes"),
        (_config(delta=0.0), "delta"),
        (_config(time_tot=0), "time_tot"),
        (_config(snapshot_every=-1), "snapshot_every"),
        (_config(units="imperial"), "units"),
        (lambda: FieldState1D(ez=np.zeros((4, 4)), hy=np.zeros((4, 4))), "ndim 1"),
    ],
    ids=[
        "tstart", "material-dtype", "mu-zero", "mu-negative", "vacuum-units", "extent-2d",
        "delta-zero", "time_tot", "snapshot_every", "config-units", "state-ndim",
    ],
)
def test_invalid_configuration_is_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()
