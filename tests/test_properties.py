"""Property-based differential tests of ``run()`` against the scalar oracles.

Hypothesis draws the problems; ``derandomize=True`` makes every session draw
the same ones, so the suite stays deterministic. While a test runs, the chunk
floor is lowered to one cell so that ``parallel:3`` really splits these small
grids; any chunking must give the same bits (see :mod:`fdtdkit.backends`).
A coefficient pair whose materials hold one value each, as in vacuum or
when a drawn block is vacuum or fills the grid, is stored as one cell and
takes the scalar short form of the update; any other pair the general one.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fdtdkit.backends as backends  # noqa: E402
from fdtdkit.backends import Backend, KernelPlan  # noqa: E402
from fdtdkit.engine import UpdateCoefficients, run  # noqa: E402
from fdtdkit.linalg import (  # noqa: E402
    _NB,
    _TILE,
    lu_factor,
    lu_solve,
    relative_residual,
    residual_bound,
)
from fdtdkit.model import (  # noqa: E402
    MaterialGrid,
    Precision,
    SimulationConfig,
    SourceSpec,
    UnstableCourantError,
    all_strides_zero,
    make_vacuum_materials,
)

from oracle_1d import reference_run_1d  # noqa: E402
from oracle_3d import reference_run_3d  # noqa: E402

_BACKENDS = (Backend.serial(), Backend.parallel(3))

# The relative slack that validate_stability documents for values at the bound.
_RTOL = 1e-12


def _runs(cfg, materials, floor=1):
    """Final state of ``cfg`` on each backend, with a chunk floor of ``floor`` cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "MIN_CHUNK_CELLS", floor)
        return [(str(b), run(cfg, materials, b).final) for b in _BACKENDS]


def _chunk_edges(n, floor):
    """Where ``parallel:3`` cuts a leading axis of ``n`` under a ``floor``-cell floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "MIN_CHUNK_CELLS", floor)
        plan = KernelPlan.for_range(0, n, _BACKENDS[1])
    return [lo for lo, _ in plan.chunks]


def _block_materials(shape, block, dtype, eps, mu, sigma, sigma_star):
    """Vacuum with one box ``block`` of constant eps, mu and loss."""
    arrays = {
        "epsilon": np.ones(shape, dtype),
        "mu": np.ones(shape, dtype),
        "sigma": np.zeros(shape, dtype),
        "sigma_star": np.zeros(shape, dtype),
    }
    for name, value in zip(arrays, (eps, mu, sigma, sigma_star)):
        arrays[name][block] = value
    return arrays


def _draw_block(data, shape, floor):
    """A box inside ``shape``; its low edge on the leading axis is often a
    chunk edge inside the grid."""
    edges = _chunk_edges(shape[0], floor)[1:] or [0]
    bounds = []
    for axis, n in enumerate(shape):
        starts = st.sampled_from(edges) | st.integers(0, n - 1) if axis == 0 else st.integers(0, n - 1)
        lo = data.draw(starts, label=f"block_lo{axis}")
        bounds.append(slice(lo, data.draw(st.integers(lo + 1, n), label=f"block_hi{axis}")))
    return tuple(bounds)


def _draw_block_medium(data):
    """eps and mu of at least 1 keep every Courant draw stable; without loss
    the block is a second uniform medium, with ``sigma_star`` its H is general."""
    lossy = data.draw(st.booleans(), label="lossy")
    loss = st.floats(0.0, 0.3) if lossy else st.just(0.0)
    return (
        data.draw(st.floats(1.0, 4.0), label="block_eps"),
        data.draw(st.floats(1.0, 4.0), label="block_mu"),
        data.draw(loss, label="block_sigma"),
        data.draw(loss, label="block_sigma_star"),
    )


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_1d_run_matches_the_oracle_or_rejects_a_fast_medium(data):
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    xdim = data.draw(st.integers(3, 40), label="xdim")
    steps = data.draw(st.integers(1, 30), label="steps")
    cell = data.draw(st.integers(1, xdim - 2), label="cell")
    courant = data.draw(st.floats(0.05, 1.0), label="courant")
    n_lambda = data.draw(st.floats(2.0, 40.0), label="n_lambda")
    tstart = data.draw(st.integers(0, 10), label="tstart")
    amplitude = data.draw(st.floats(-5.0, 5.0), label="amplitude")
    soft = data.draw(st.booleans(), label="soft")
    dtype = precision.dtype
    medium = st.lists(st.floats(0.2, 3.0), min_size=xdim, max_size=xdim)
    eps = np.array(data.draw(medium, label="eps"), dtype=dtype)
    mu = np.array(data.draw(medium, label="mu"), dtype=dtype)
    # sigma*dt/(2*eps) stays below 1 for eps >= 0.2 and dt <= 1, so any
    # draw passes the semi-implicit loss check; zero draws keep cha == 1
    loss = st.lists(st.floats(0.0, 0.3), min_size=xdim, max_size=xdim)
    sigma = np.array(data.draw(loss, label="sigma"), dtype=dtype)
    sigma_star = np.array(data.draw(loss, label="sigma_star"), dtype=dtype)

    cfg = SimulationConfig(
        extent=xdim, time_tot=steps, courant=courant, precision=precision,
        source=SourceSpec(
            location=cell, n_lambda=n_lambda, tstart=tstart, amplitude=amplitude, soft=soft
        ),
    )
    materials = MaterialGrid(epsilon=eps, mu=mu, sigma=sigma, sigma_star=sigma_star)
    # the fastest cell has the smallest eps*mu, against vacuum's 1*1
    fastest = courant * math.sqrt(1.0 / float((eps * mu).min()))
    if fastest > 1.0 + _RTOL:
        for backend in _BACKENDS:
            with pytest.raises(UnstableCourantError):
                run(cfg, materials, backend)
        return
    ez, hy = reference_run_1d(
        xdim, steps, cell, courant=courant, n_lambda=n_lambda, tstart=tstart,
        amplitude=amplitude, epsilon=eps, mu=mu, sigma=sigma, sigma_star=sigma_star,
        soft=soft, dtype=dtype,
    )
    for backend, state in _runs(cfg, materials):
        assert np.array_equal(state.ez, ez), backend
        assert np.array_equal(state.hy, hy), backend


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_3d_run_matches_the_oracle_on_lossy_grids(data):
    shape = tuple(data.draw(st.lists(st.integers(3, 7), min_size=3, max_size=3), label="shape"))
    steps = data.draw(st.integers(1, 6), label="steps")
    location = tuple(data.draw(st.integers(1, n - 2), label="location") for n in shape)
    soft = data.draw(st.booleans(), label="soft")
    plane = data.draw(st.booleans(), label="plane")
    courant = data.draw(st.floats(0.05, 1.0 / math.sqrt(3.0)), label="courant")
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dtype = precision.dtype
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
        shape, steps, location, courant=courant, n_lambda=7.0, soft=soft, plane=plane,
        dtype=dtype, **arrays,
    )
    for backend, state in _runs(cfg, MaterialGrid(**arrays)):
        for name, arr in state.components().items():
            assert np.array_equal(arr, expected[name]), (backend, name)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_1d_vacuum_with_a_block_matches_the_oracle(data):
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    xdim = data.draw(st.integers(3, 60), label="xdim")
    steps = data.draw(st.integers(1, 40), label="steps")
    cell = data.draw(st.integers(1, xdim - 2), label="cell")
    courant = data.draw(st.floats(0.05, 1.0), label="courant")
    soft = data.draw(st.booleans(), label="soft")
    floor = data.draw(st.sampled_from([1, 1, 3, 16]), label="floor")
    block = _draw_block(data, (xdim,), floor)
    arrays = _block_materials((xdim,), block, precision.dtype, *_draw_block_medium(data))

    cfg = SimulationConfig(
        extent=xdim, time_tot=steps, courant=courant, precision=precision,
        source=SourceSpec(location=cell, n_lambda=9.0, soft=soft),
    )
    ez, hy = reference_run_1d(
        xdim, steps, cell, courant=courant, n_lambda=9.0, soft=soft,
        dtype=precision.dtype, **arrays,
    )
    for backend, state in _runs(cfg, MaterialGrid(**arrays), floor):
        assert np.array_equal(state.ez, ez), backend
        assert np.array_equal(state.hy, hy), backend


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_3d_vacuum_with_a_block_matches_the_oracle(data):
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    # elongated grids put a large share of the cells on frozen faces and
    # give the two trailing axes very different flat strides
    cube = st.lists(st.integers(3, 8), min_size=3, max_size=3)
    elongated = st.tuples(st.integers(3, 8), st.integers(3, 16), st.booleans()).map(
        lambda t: [t[0], 3, t[1]] if t[2] else [t[0], t[1], 3]
    )
    shape = tuple(data.draw(cube | elongated, label="shape"))
    steps = data.draw(st.integers(1, 6), label="steps")
    location = tuple(data.draw(st.integers(1, n - 2), label="location") for n in shape)
    soft = data.draw(st.booleans(), label="soft")
    plane = data.draw(st.booleans(), label="plane")
    courant = data.draw(st.floats(0.05, 1.0 / math.sqrt(3.0)), label="courant")
    floor = data.draw(st.sampled_from([1, 1, 20]), label="floor")
    block = _draw_block(data, shape, floor)
    arrays = _block_materials(shape, block, precision.dtype, *_draw_block_medium(data))

    cfg = SimulationConfig(
        extent=shape, time_tot=steps, courant=courant, precision=precision,
        source=SourceSpec(location=location, n_lambda=7.0, soft=soft, plane=plane),
    )
    expected = reference_run_3d(
        shape, steps, location, courant=courant, n_lambda=7.0, soft=soft, plane=plane,
        dtype=precision.dtype, **arrays,
    )
    for backend, state in _runs(cfg, MaterialGrid(**arrays), floor):
        for name, arr in state.components().items():
            assert np.array_equal(arr, expected[name]), (backend, name)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_vacuum_broadcasts_give_the_bits_of_full_arrays(data):
    """``make_vacuum_materials`` stores one value per array; the same values
    as full writable arrays hold one value each too, so both give one-cell
    coefficient pairs, one uniform run per row and the same field bytes."""
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    units = data.draw(st.sampled_from(["normalized", "physical"]), label="units")
    if data.draw(st.booleans(), label="3d"):
        extent = tuple(data.draw(st.lists(st.integers(3, 8), min_size=3, max_size=3), label="shape"))
        location = tuple(data.draw(st.integers(1, n - 2), label="location") for n in extent)
        plane = data.draw(st.booleans(), label="plane")
        courant = data.draw(st.floats(0.05, 1.0 / math.sqrt(3.0)), label="courant")
    else:
        extent = data.draw(st.integers(3, 60), label="xdim")
        location = data.draw(st.integers(1, extent - 2), label="cell")
        plane = False
        courant = data.draw(st.floats(0.05, 1.0), label="courant")
    cfg = SimulationConfig(
        extent=extent, time_tot=data.draw(st.integers(1, 12), label="steps"),
        courant=courant, precision=precision, units=units,
        delta=1e-3 if units == "physical" else 1.0,
        source=SourceSpec(
            location=location, n_lambda=data.draw(st.floats(2.0, 30.0), label="n_lambda"),
            soft=data.draw(st.booleans(), label="soft"), plane=plane,
        ),
    )
    floor = data.draw(st.sampled_from([1, 1, 3, 16]), label="floor")
    vacuum = make_vacuum_materials(cfg.extent, precision, units)
    full = MaterialGrid(*(getattr(vacuum, name).copy() for name in ("epsilon", "mu", "sigma", "sigma_star")))
    assert all_strides_zero(vacuum.epsilon) and full.epsilon.flags.writeable
    for (backend, got), (_, want) in zip(_runs(cfg, vacuum, floor), _runs(cfg, full, floor)):
        for name, arr in got.components().items():
            assert arr.tobytes() == getattr(want, name).tobytes(), (backend, name)


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("shape", [(24,), (7, 6, 5)], ids=["1d", "3d"])
def test_a_slab_one_ulp_off_its_neighbours_keeps_its_own_factor(shape, precision):
    # mu one ulp below 1 on slab 3 puts its chb one ulp above the vacuum
    # value around it: a uniformity check with any tolerance, or a scalar
    # taken from the wrong slab, changes the bits of the fields there
    dtype = precision.dtype
    arrays = _block_materials(shape, 3, dtype, 1.0, np.nextafter(dtype.type(1), dtype.type(0)), 0.0, 0.0)
    source = SourceSpec(location=(2, 3, 2) if len(shape) == 3 else 2, n_lambda=8.0)
    cfg = SimulationConfig(
        extent=shape if len(shape) == 3 else shape[0], time_tot=12 if len(shape) == 3 else 20,
        courant=0.5 if len(shape) == 3 else 0.9, precision=precision, source=source,
    )
    chb = UpdateCoefficients.from_materials(MaterialGrid(**arrays), cfg.deltat, cfg.delta).chb
    assert chb[3].flat[0] == np.nextafter(chb[2].flat[0], dtype.type(2))

    if len(shape) == 3:
        expected = reference_run_3d(
            shape, cfg.time_tot, source.location, courant=0.5, n_lambda=8.0,
            dtype=dtype, **arrays,
        )
    else:
        ez, hy = reference_run_1d(
            shape[0], cfg.time_tot, 2, courant=0.9, n_lambda=8.0, dtype=dtype, **arrays
        )
        expected = {"ez": ez, "hy": hy}
    for backend, state in _runs(cfg, MaterialGrid(**arrays)):
        for name, arr in state.components().items():
            assert np.array_equal(arr, expected[name]), (backend, name)


def _block_edges(limit):
    """Orders on either side of every panel and tile edge up to ``limit``."""
    edges = set()
    for width in (_NB, _TILE):
        for edge in range(width, limit + 1, width):
            edges.update((edge - 1, edge, edge + 1))
    # a trailing matrix that starts on a panel edge and ends past a tile edge
    edges.update(_NB + k * _TILE + d for k in (1, 2) for d in (0, 1))
    return sorted(e for e in edges if 1 <= e <= limit)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_blocked_factor_is_bitwise_serial_and_reconstructs_the_matrix(data):
    n = data.draw(st.sampled_from(_block_edges(300)) | st.integers(1, 300), label="n")
    precision = data.draw(st.sampled_from(list(Precision)), label="precision")
    workers = data.draw(st.integers(1, 4), label="workers")
    floor = data.draw(st.sampled_from([1, 64, 4096]), label="floor")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    dominant = data.draw(st.booleans(), label="dominant")
    dtype = precision.dtype
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n)).astype(dtype)
    if dominant:
        np.fill_diagonal(a, a.diagonal() + dtype.type(n))
    b = rng.uniform(-1.0, 1.0, n).astype(dtype)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "MIN_CHUNK_CELLS", floor)
        serial = lu_factor(a)
        par = lu_factor(a, Backend.parallel(workers))
    assert par.lu.tobytes() == serial.lu.tobytes()
    assert par.perm.tobytes() == serial.perm.tobytes()
    assert sorted(serial.perm) == list(range(n))

    x = lu_solve(serial, b)
    assert relative_residual(a, x, b) <= residual_bound(n, precision.eps)

    # |L U - A[perm]| <= gamma_n |L| |U| elementwise, with gamma_n inside the bound
    lower = np.tril(serial.lu, -1).astype(np.float64)
    np.fill_diagonal(lower, 1.0)
    upper = np.triu(serial.lu).astype(np.float64)
    error = np.abs(lower @ upper - a[serial.perm].astype(np.float64))
    assert (error <= residual_bound(n, precision.eps) * (np.abs(lower) @ np.abs(upper))).all()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    text=st.text()
    | st.from_regex(r"[ +\-0_]?[0-9]{1,3}(_[0-9])?[ ]?", fullmatch=True)
    | st.integers(0, 10**20).map(str)
)
def test_every_accepted_worker_count_round_trips_through_str(text):
    try:
        backend = Backend.parse("parallel:" + text)
    except ValueError:
        return
    assert str(backend) == "parallel:" + text
