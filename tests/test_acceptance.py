"""Acceptance suite: one test per shipping criterion, one verdict line each.

Every test prints ``[acceptance] C<n> <name>: PASS|FAIL`` (visible with -s,
or in the captured output on failure); the pytest -v report carries the same
verdicts one test per line. Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fdtdkit.backends import Backend
from fdtdkit.bench import SolveBenchRecord, compute_bandwidth, compute_speedup, flop_count
from fdtdkit.cli import main
from fdtdkit.engine import UpdateCoefficients, run
from fdtdkit.linalg import (
    SingularMatrixError,
    lu_factor,
    lu_solve,
    relative_residual,
)
from fdtdkit.model import (
    FieldState1D,
    MaterialGrid,
    Precision,
    SimulationConfig,
    SourceSpec,
)

from energy import discrete_energy
from oracle_1d import reference_run_1d
from stepping import step

_BACKENDS = (Backend.serial(), Backend.parallel(1), Backend.parallel(4), Backend.parallel(8))


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number} {name}: FAIL")
        raise
    print(f"[acceptance] C{number} {name}: PASS")


def test_c01_magic_time_step_exactness():
    with criterion(1, "magic time step exactness"):
        t0 = time.perf_counter()
        cfg = SimulationConfig(extent=200, time_tot=50, source=SourceSpec(location=100), courant=1.0)
        ez = run(cfg).final.ez
        worst = 0.0
        for d in range(1, 41):
            expected = math.sin(2.0 * math.pi * (50 - d) * 1.0 / 20.0)
            worst = max(worst, abs(float(ez[100 + d]) - expected))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"max abs error {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_central_difference_order():
    with criterion(2, "second-order convergence of the derivative stencil"):
        # One step with identity E factors and chb = 1/delta leaves the engine's
        # own H stencil in hy: hy[i] = (ez[i+1] - ez[i]) / delta, the derivative
        # of ez = sin(x) at the half cell x[i] + delta/2.
        deltas = np.array([0.1, 0.05, 0.025, 0.0125])
        errors = []
        for d in deltas:
            x = d * np.arange(round(2.0 / d) + 1)
            n = x.shape[0]
            coeff = UpdateCoefficients(
                cea=np.ones(n), ceb=np.zeros(n), cha=np.ones(n), chb=np.full(n, 1.0 / d)
            )
            out = step(FieldState1D(ez=np.sin(x), hy=np.zeros(n)), coeff, None, d)
            errors.append(np.abs(out.hy[:-1] - np.cos(x[:-1] + d / 2)).max())
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert abs(slope - 2.0) <= 0.1, f"slope {slope:.4f}"


def test_c03_backend_bitwise_equivalence():
    with criterion(3, "bitwise-identical snapshots across backends"):
        t0 = time.perf_counter()
        cfg1 = SimulationConfig(
            extent=1_000_000, time_tot=100, source=SourceSpec(location=500_000),
            courant=1.0, snapshot_every=50,
        )
        blobs = []
        for backend in _BACKENDS:
            series = run(cfg1, backend=backend)
            blobs.append(b"".join(s.ez.tobytes() + s.hy.tobytes() for s in series.states))
        assert all(blob == blobs[0] for blob in blobs[1:]), "1D mismatch"

        cfg3 = SimulationConfig(
            extent=(64, 64, 64), time_tot=20, source=SourceSpec(location=(32, 32, 32)),
            courant=0.5, snapshot_every=10,
        )
        blobs3 = []
        for backend in _BACKENDS:
            series = run(cfg3, backend=backend)
            blobs3.append(
                b"".join(
                    arr.tobytes()
                    for state in series.states
                    for arr in state.components().values()
                )
            )
        assert all(blob == blobs3[0] for blob in blobs3[1:]), "3D mismatch"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c04_kernel_oracle_sweep():
    with criterion(4, "1000 random one-or-more-step runs match the brute-force stepper bitwise"):
        rng = np.random.default_rng(20260816)
        for trial in range(1000):
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
            assert np.array_equal(state.ez, ez) and np.array_equal(state.hy, hy), (
                f"trial {trial}: xdim={xdim} steps={steps} src={src} "
                f"S={courant} {np.dtype(dtype).name}"
            )


def test_c05_3d_reduces_to_1d_profile():
    with criterion(5, "y/z-uniform 3D run reproduces the 1D profile"):
        nx, ny, nz = 32, 8, 8
        cfg3 = SimulationConfig(
            extent=(nx, ny, nz), time_tot=10,
            source=SourceSpec(location=(16, 4, 4), plane=True),
            courant=0.5, snapshot_every=1,
        )
        cfg1 = SimulationConfig(
            extent=nx, time_tot=10, source=SourceSpec(location=16),
            courant=0.5, snapshot_every=1,
        )
        states3 = run(cfg3).states
        states1 = run(cfg1).states
        # wall influence needs nine steps to reach the (j=ny-1, k=0) line,
        # so the first eight snapshots must agree there
        amplitude = 0.0
        for s3, s1 in zip(states3[:8], states1[:8]):
            ez_line = s3.ez[:, ny - 1, 0]
            hy_line = s3.hy[:, ny - 1, 0]
            assert np.max(np.abs(ez_line - s1.ez)) <= 1e-10, f"step {s3.step}"
            assert np.max(np.abs(hy_line - s1.hy)) <= 1e-10, f"step {s3.step}"
            amplitude = max(amplitude, float(np.max(np.abs(ez_line))))
        assert amplitude >= 0.5, "comparison never saw the wave"


def test_c06_loss_monotonicity():
    with criterion(6, "discrete energy non-increasing after source off"):
        xdim = 200
        materials = MaterialGrid(
            epsilon=np.ones(xdim), mu=np.ones(xdim),
            sigma=np.full(xdim, 0.01), sigma_star=np.zeros(xdim),
        )
        coeff = UpdateCoefficients.from_materials(materials, 0.5, 1.0)
        source = SourceSpec(location=100)
        state = FieldState1D.zeros(xdim)
        for _ in range(20):
            state = step(state, coeff, source, 0.5)
        after = step(state, coeff, None, 0.5)
        energy = discrete_energy(state, after, materials)
        assert energy > 0.0
        for n in range(21, 201):
            state, after = after, step(after, coeff, None, 0.5)
            nxt = discrete_energy(state, after, materials)
            assert nxt <= energy * (1.0 + 1e-12), f"energy rose at step {n}"
            energy = nxt


def test_c07_solver_residuals_and_singularity():
    with criterion(7, "residual bound over sizes, precisions, backends; singular detected"):
        rng = np.random.default_rng(77)
        for n in (64, 256, 1024):
            for precision in (Precision.SINGLE, Precision.DOUBLE):
                dtype = precision.dtype
                a = rng.uniform(-1.0, 1.0, (n, n))
                np.fill_diagonal(a, a.diagonal() + n)
                a = a.astype(dtype)
                b = rng.uniform(-1.0, 1.0, n).astype(dtype)
                bound = n * 100 * precision.eps
                for backend in (Backend.serial(), Backend.parallel(4)):
                    x = lu_solve(lu_factor(a, backend), b)
                    res = relative_residual(a, x, b)
                    assert res <= bound, (
                        f"n={n} {precision.value} {backend}: {res:.3e} > {bound:.3e}"
                    )
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((8, 8)))


def test_c08_derived_metric_arithmetic():
    with criterion(8, "bandwidth, flop count, and speedup arithmetic"):
        assert compute_bandwidth(33554432, 0.021432, 1) == pytest.approx(1493.1, abs=0.1)
        assert flop_count(1024) == pytest.approx(7.17925e8, abs=1e4)
        serial = SolveBenchRecord(
            n=1024, precision=Precision.DOUBLE, backend=Backend.serial(),
            elapsed_s=1.0, flops=flop_count(1024), gigaflops=10.0, residual=1e-15,
        )
        parallel = SolveBenchRecord(
            n=1024, precision=Precision.DOUBLE, backend=Backend.parallel(4),
            elapsed_s=1.0, flops=flop_count(1024), gigaflops=15.0, residual=1e-15,
        )
        assert compute_speedup(parallel, serial).speedup == 1.5


def test_c09_amplitude_linearity_bitwise():
    with criterion(9, "doubling the source amplitude doubles every sample bitwise"):
        base = SimulationConfig(
            extent=200, time_tot=100, source=SourceSpec(location=100), courant=0.5,
            snapshot_every=25,
        )
        doubled = SimulationConfig(
            extent=200, time_tot=100, source=SourceSpec(location=100, amplitude=2.0),
            courant=0.5, snapshot_every=25,
        )
        for s1, s2 in zip(run(base).states, run(doubled).states):
            assert np.array_equal(s2.ez, 2.0 * s1.ez), f"Ez at step {s1.step}"
            assert np.array_equal(s2.hy, 2.0 * s1.hy), f"Hy at step {s1.step}"


def test_c10_cli_golden_and_exit_codes(tmp_path, capsys):
    with criterion(10, "CLI golden CSV and the 0/1/2 exit-code contract"):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert main(["simulate", "--out", str(paths[0])]) == 0
        assert main(["simulate", "--out", str(paths[1])]) == 0
        assert main(["simulate", "--backend", "parallel:4", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1], "two invocations differ"
        assert blobs[0] == blobs[2], "backends differ"
        assert main(["simulate", "--no-such-flag"]) == 2
        assert main(["simulate", "--courant", "1.5", "--xdim", "8", "--steps", "1"]) == 2
        assert main(["simulate", "--xdim", "8", "--steps", "1",
                     "--out", str(tmp_path / "no-dir" / "x.csv")]) == 1
        capsys.readouterr()


def test_c11_memory_limit_skip(tmp_path):
    with criterion(11, "oversized solve is skipped with a MemoryLimit record"):
        out = tmp_path / "bench.jsonl"
        code = main([
            "bench-linsolve", "--sizes", "16384", "--precision", "double",
            "--memory-cap-bytes", str(2**30), "--out", str(out),
        ])
        assert code == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["skipped"] == "MemoryLimit"
        assert record["elapsed_s"] is None and record["residual"] is None
