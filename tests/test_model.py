"""Configuration, stability, source, and material validation behavior."""

import math

import numpy as np
import pytest

from fdtdkit.engine import run
from fdtdkit.model import (
    C0,
    EPS0,
    MU0,
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
    [((8, 8, 8), (4, 4, 4.0)), ((8, 8, 8), (4, 4)), ((8, 8, 8), 4), (10, (1, 2, 3)), (10, 5.0)],
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
    ],
    ids=["n_lambda-nan", "n_lambda-inf", "sigma-nan", "sigma_star-inf", "epsilon-inf", "mu-inf"],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()
