"""Property-based differential tests of ``run()`` against the scalar oracles.

Hypothesis draws the problems; ``derandomize=True`` makes every session draw
the same ones, so the suite stays deterministic. While a test runs, the chunk
floor is lowered to one cell so that ``parallel:3`` really splits these small
grids; any chunking must give the same bits (see :mod:`fdtdkit.backends`).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fdtdkit.backends as backends  # noqa: E402
from fdtdkit.backends import Backend  # noqa: E402
from fdtdkit.engine import run  # noqa: E402
from fdtdkit.model import (  # noqa: E402
    MaterialGrid,
    Precision,
    SimulationConfig,
    SourceSpec,
    UnstableCourantError,
)

from oracle_1d import reference_run_1d  # noqa: E402
from oracle_3d import reference_run_3d  # noqa: E402

_BACKENDS = (Backend.serial(), Backend.parallel(3))

# The relative slack that validate_stability documents for values at the bound.
_RTOL = 1e-12


def _runs(cfg, materials):
    """Final state of ``cfg`` on each backend, with a one-cell chunk floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "MIN_CHUNK_CELLS", 1)
        return [(str(b), run(cfg, materials, b).final) for b in _BACKENDS]


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
