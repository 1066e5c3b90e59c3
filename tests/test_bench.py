"""Benchmark arithmetic, record invariants, skip behavior, determinism."""

import tracemalloc

import numpy as np
import pytest

import fdtdkit.bench as bench
import fdtdkit.engine as engine
from fdtdkit.backends import Backend, KernelPlan
from fdtdkit.bench import (
    BandwidthRecord,
    FdtdBenchRecord,
    InsufficientSamplesError,
    MemoryCapError,
    MismatchedPairError,
    NonPositiveInputError,
    SolveBenchRecord,
    compute_bandwidth,
    compute_speedup,
    estimate_solve_bytes,
    fdtd_cell_updates,
    flop_count,
    measure_copy_bandwidth,
    pair_speedups,
    run_fdtd_bench,
    run_linsolve_bench,
)
from fdtdkit.engine import run, run_footprint_bytes
from fdtdkit.linalg import lu_factor, lu_solve, relative_residual
from fdtdkit.model import MaterialGrid, Precision, SimulationConfig, SourceSpec, make_vacuum_materials


def test_bandwidth_from_known_figures():
    assert compute_bandwidth(33554432, 0.021432, 1) == pytest.approx(1493.1, abs=0.1)


def test_bandwidth_rejects_nonpositive():
    with pytest.raises(NonPositiveInputError):
        compute_bandwidth(0, 1.0, 1)
    with pytest.raises(NonPositiveInputError):
        compute_bandwidth(1024, 0.0, 1)
    with pytest.raises(NonPositiveInputError):
        compute_bandwidth(1024, 1.0, 0)


def test_flop_count_values():
    assert flop_count(1024) == pytest.approx(7.17925e8, abs=1e4)
    assert flop_count(1024) == (2.0 * 1024**3) / 3.0 + 2.0 * 1024**2
    assert flop_count(4096) == (2.0 * 4096**3) / 3.0 + 2.0 * 4096**2


def test_flop_count_strictly_increasing():
    values = [flop_count(n) for n in range(1, 200)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(NonPositiveInputError):
        flop_count(0)


@pytest.mark.parametrize("tier", ["fresh-allocation", "warm-buffer"])
def test_copy_bandwidth_record_recomputes(fast_timing, tier):
    rec = measure_copy_bandwidth(1 << 16, repeats=3, tier=tier)
    assert rec.tier == tier
    assert rec.mb_per_s == compute_bandwidth(rec.nbytes, rec.elapsed_s, rec.repeats)
    assert rec.mb_per_s > 0


def test_copy_bandwidth_needs_three_repeats(fast_timing):
    with pytest.raises(InsufficientSamplesError):
        measure_copy_bandwidth(1 << 16, repeats=2)
    with pytest.raises(ValueError):
        measure_copy_bandwidth(1 << 16, repeats=3, tier="device")


def test_solve_bytes_model():
    assert estimate_solve_bytes(100, Precision.DOUBLE) == (2 * 100 * 100 + 4 * 100) * 8
    assert estimate_solve_bytes(100, Precision.SINGLE) == (2 * 100 * 100 + 4 * 100) * 4


def test_linsolve_skip_on_memory_cap(fast_timing):
    records = run_linsolve_bench(
        [64], precisions=[Precision.DOUBLE], backends=[Backend.serial()],
        seed=0, memory_cap_bytes=1000,
    )
    (rec,) = records
    assert rec.skipped == "MemoryLimit"
    assert rec.elapsed_s is None and rec.gigaflops is None and rec.residual is None
    d = rec.to_json_dict()
    assert d["skipped"] == "MemoryLimit" and d["gigaflops"] is None


def test_linsolve_records_recompute_and_bound(fast_timing):
    records = run_linsolve_bench(
        [24], precisions=[Precision.SINGLE, Precision.DOUBLE],
        backends=[Backend.serial()], seed=5,
    )
    for rec in records:
        assert rec.flops == flop_count(rec.n)
        assert rec.gigaflops == rec.flops / rec.elapsed_s / 1e9
        bound = rec.n * 100 * rec.precision.eps
        assert rec.residual <= bound


def test_linsolve_seed_determinism(fast_timing):
    a = run_linsolve_bench([20], precisions=[Precision.DOUBLE], seed=17)
    b = run_linsolve_bench([20], precisions=[Precision.DOUBLE], seed=17)
    assert a[0].residual == b[0].residual
    c = run_linsolve_bench([20], precisions=[Precision.DOUBLE], seed=18)
    assert c[0].residual != a[0].residual


def test_linsolve_problem_independent_of_sweep_order(fast_timing):
    # each size draws from its own seed stream, so dropping sizes from the
    # sweep cannot change the remaining problems
    alone = run_linsolve_bench([20], precisions=[Precision.DOUBLE], seed=4)
    both = run_linsolve_bench([12, 20], precisions=[Precision.DOUBLE], seed=4)
    assert alone[0].residual == both[1].residual


def test_linsolve_residual_identical_across_backends(fast_timing):
    records = run_linsolve_bench(
        [20], precisions=[Precision.DOUBLE],
        backends=[Backend.serial(), Backend.parallel(2)], seed=2,
    )
    assert records[0].residual == records[1].residual


def test_linsolve_bench_rejects_a_backend_that_disagrees(fast_timing, monkeypatch):
    # one ulp in one factor entry, on parallel backends only, is a wrong answer
    exact_lu_factor = bench.lu_factor

    def off_by_one_ulp(a, backend):
        fac = exact_lu_factor(a, backend)
        if backend.is_parallel:
            fac.lu[0, 0] = np.nextafter(fac.lu[0, 0], np.inf)
        return fac

    monkeypatch.setattr(bench, "lu_factor", off_by_one_ulp)
    with pytest.raises(AssertionError, match="parallel:2 disagrees with serial"):
        run_linsolve_bench(
            [20], precisions=[Precision.DOUBLE],
            backends=[Backend.serial(), Backend.parallel(2)], seed=2,
        )


def test_fdtd_bench_rejects_a_backend_that_disagrees(fast_timing, monkeypatch):
    # one ulp in the last component's last cell, on parallel backends only
    exact_run = bench.run

    def off_by_one_ulp(config, backend):
        series = exact_run(config, backend=backend)
        if backend.is_parallel:
            hy = series.final.hy
            hy[-1] = np.nextafter(hy[-1], np.inf)
        return series

    monkeypatch.setattr(bench, "run", off_by_one_ulp)
    cfg = SimulationConfig(extent=64, time_tot=4, source=SourceSpec(location=32))
    with pytest.raises(AssertionError, match=r"parallel:2 disagrees with serial on \(64,\)"):
        run_fdtd_bench([cfg], backends=[Backend.serial(), Backend.parallel(2)])


def _record(n=256, precision=Precision.DOUBLE, backend=None, gigaflops=10.0):
    return SolveBenchRecord(
        n=n, precision=precision,
        backend=backend or Backend.serial(),
        elapsed_s=1.0, flops=flop_count(n), gigaflops=gigaflops, residual=1e-15,
    )


def test_speedup_is_exact_rate_ratio():
    serial = _record(gigaflops=10.0)
    parallel = _record(backend=Backend.parallel(4), gigaflops=15.0)
    rec = compute_speedup(parallel, serial)
    assert rec.speedup == 1.5
    assert rec.key() == "linsolve:256:double:parallel:4"
    assert rec.to_json_dict() == {"serial": 10.0, "parallel": 15.0, "speedup": 1.5}


def test_speedup_rejects_mismatched_pairs():
    serial = _record()
    with pytest.raises(MismatchedPairError):
        compute_speedup(_record(n=512, backend=Backend.parallel(2)), serial)
    with pytest.raises(MismatchedPairError):
        compute_speedup(_record(precision=Precision.SINGLE, backend=Backend.parallel(2)), serial)
    with pytest.raises(MismatchedPairError):
        # wrong order: serial where the parallel record belongs
        compute_speedup(serial, _record(backend=Backend.parallel(2)))
    skip = SolveBenchRecord(
        n=256, precision=Precision.DOUBLE, backend=Backend.parallel(2),
        elapsed_s=None, flops=None, gigaflops=None, residual=None, skipped="MemoryLimit",
    )
    with pytest.raises(MismatchedPairError):
        compute_speedup(skip, serial)


def test_speedup_rejects_records_of_different_benches():
    fdtd = FdtdBenchRecord(
        cells=256, steps=4, precision=Precision.DOUBLE, backend=Backend.parallel(2),
        elapsed_s=1.0, updates_per_s=2048.0,
    )
    with pytest.raises(MismatchedPairError, match="bench kinds differ"):
        compute_speedup(fdtd, _record())


def test_linsolve_bench_rejects_an_order_below_one():
    with pytest.raises(NonPositiveInputError, match="matrix order"):
        run_linsolve_bench([0])


def test_linsolve_bench_rejects_a_memory_cap_below_one_byte(monkeypatch):
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built before the cap was checked")

    monkeypatch.setattr(bench, "_solve_problem", no_problem)
    for cap in (0, -1):
        # a cap that admits nothing is a usage error, not a sweep of skips
        with pytest.raises(NonPositiveInputError, match="memory_cap_bytes"):
            run_linsolve_bench([8], memory_cap_bytes=cap)


def test_default_memory_cap_falls_back_to_4_gib_when_sysconf_raises(monkeypatch):
    for error in (ValueError, OSError):
        def sysconf(name, error=error):
            raise error(name)

        monkeypatch.setattr(bench.os, "sysconf", sysconf)
        assert bench.default_memory_cap() == 4 * 2**30


def test_fdtd_cell_updates_formula():
    cfg = SimulationConfig(extent=1000, time_tot=50, source=SourceSpec(location=500))
    assert fdtd_cell_updates(cfg) == 1000 * 2 * 50


def test_fdtd_bench_records_and_pairing(fast_timing):
    cfg = SimulationConfig(extent=64, time_tot=4, source=SourceSpec(location=32))
    records = run_fdtd_bench([cfg], backends=[Backend.serial(), Backend.parallel(2)], repeats=3)
    assert [str(r.backend) for r in records] == ["serial", "parallel:2"]
    for rec in records:
        assert rec.updates_per_s == fdtd_cell_updates(cfg) / rec.elapsed_s
    (sp,) = pair_speedups(records)
    assert sp.key() == "fdtd:64:double:parallel:2"
    assert sp.speedup == records[1].updates_per_s / records[0].updates_per_s


def test_field_records_pair_only_within_their_problem(fast_timing):
    # the same cells and precision, two step counts: two problems
    configs = [
        SimulationConfig(extent=4096, time_tot=steps, source=SourceSpec(location=2048))
        for steps in (2, 40)
    ]
    records = run_fdtd_bench(configs, backends=[Backend.serial(), Backend.parallel(2)], repeats=3)
    assert [(r.steps, str(r.backend)) for r in records] == [
        (2, "serial"), (2, "parallel:2"), (40, "serial"), (40, "parallel:2"),
    ]
    pairs = pair_speedups(records)
    assert [(sp.rate_parallel, sp.rate_serial) for sp in pairs] == [
        (records[1].updates_per_s, records[0].updates_per_s),
        (records[3].updates_per_s, records[2].updates_per_s),
    ]
    with pytest.raises(MismatchedPairError, match="problems differ"):
        compute_speedup(records[1], records[2])


def test_run_footprint_counts_fields_coefficients_scratch_and_snapshots():
    # 1D: ez and hy, live and in 3 snapshots (steps 3, 6, 9 of 10), and one
    # scratch row per curl term; vacuum stores its materials and
    # coefficients as broadcasts of one value, so they count nothing
    cfg = SimulationConfig(
        extent=1000, time_tot=10, snapshot_every=3, source=SourceSpec(location=500)
    )
    assert run_footprint_bytes(cfg) == (2 * 4 + 1) * 1000 * 8
    # 3D: six components, two curl terms per row, no snapshot copies, and
    # per field two frozen faces at an end of y (4*6 cells each) and two at
    # an end of z (4*5 cells each)
    cfg = SimulationConfig(
        extent=(4, 5, 6), time_tot=10, precision=Precision.SINGLE,
        source=SourceSpec(location=(2, 2, 2)),
    )
    faces = 2 * (2 * 4 * 6 + 2 * 4 * 5)
    assert run_footprint_bytes(cfg) == ((6 + 2) * 120 + faces) * 4


def test_fdtd_bench_checks_the_memory_cap_before_any_run(monkeypatch):
    small = SimulationConfig(extent=64, time_tot=4, source=SourceSpec(location=32))
    large = SimulationConfig(extent=4096, time_tot=4, source=SourceSpec(location=32))
    monkeypatch.setattr(bench, "default_memory_cap", lambda: run_footprint_bytes(large) - 1)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the cap was checked")

    monkeypatch.setattr(bench, "run", no_run)
    with pytest.raises(MemoryCapError, match="memory cap"):
        run_fdtd_bench([small, large])


def test_json_schema_keys():
    bw = BandwidthRecord(
        tier="warm-buffer", nbytes=1024, repeats=3, elapsed_s=0.5, mb_per_s=0.005859375
    )
    assert set(bw.to_json_dict()) == {
        "bench", "tier", "bytes", "repeats", "precision", "backend",
        "elapsed_s", "flops", "mb_per_s", "residual", "skipped",
    }
    # rate recomputes from serialized fields alone: bytes moved per repeat,
    # repeats times, over the whole elapsed window
    d = bw.to_json_dict()
    assert compute_bandwidth(d["bytes"], d["elapsed_s"], d["repeats"]) == d["mb_per_s"]
    ls = _record().to_json_dict()
    assert set(ls) == {
        "bench", "n", "precision", "backend",
        "elapsed_s", "flops", "gigaflops", "residual", "skipped",
    }
    assert ls["precision"] == "double" and ls["backend"] == "serial"
    untimed = _record().to_json_dict(include_timing=False)
    assert untimed["elapsed_s"] is None and untimed["gigaflops"] is None
    assert untimed["flops"] == flop_count(256)


def _traced_peak(op) -> int:
    """Peak bytes that tracemalloc sees while ``op()`` runs."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_LOSSY_3D = SimulationConfig(
    extent=(32, 32, 32), time_tot=4, precision=Precision.SINGLE,
    source=SourceSpec(location=(3, 16, 16)),
)


@pytest.mark.parametrize("backend", [Backend.serial(), Backend.parallel(2)], ids=str)
@pytest.mark.parametrize(
    "config, full_mu",
    [
        (SimulationConfig(extent=2**14, time_tot=4, source=SourceSpec(location=3)), False),
        (_LOSSY_3D, False),
        (_LOSSY_3D, True),
    ],
    ids=["1d-f64-vacuum", "3d-f32-lossy", "3d-f32-lossy-full-mu"],
)
def test_run_peaks_within_its_footprint(config, full_mu, backend):
    # both grids hold 128 KiB per array; the slack covers the Python objects
    # of the rows and the fork-joins, not a transient the size of a row.
    # Vacuum arrays are read-only broadcasts, so the lossy block is painted
    # on writable copies, made before tracing as a caller makes them. Its
    # (sigma, epsilon) pair is stored per cell, so the two coefficient
    # arrays of that pair are added to the vacuum model. Full arrays of
    # ones and zeros for mu and sigma_star, as a caller may pass them, hold
    # one value each, so their pair is one cell as it is for broadcasts.
    materials = make_vacuum_materials(config.extent, config.precision, config.units)
    bound = run_footprint_bytes(config) + 64 * 1024
    if config.dims == 3:
        epsilon, sigma = materials.epsilon.copy(), materials.sigma.copy()
        epsilon[8:24, 4:18, 10:28] = 2.5
        sigma[8:24, 4:18, 10:28] = 0.05
        mu, sigma_star = materials.mu, materials.sigma_star
        if full_mu:
            mu, sigma_star = np.ones(config.shape, epsilon.dtype), np.zeros(config.shape, epsilon.dtype)
        materials = MaterialGrid(epsilon, mu, sigma, sigma_star)
        bound += 2 * epsilon.nbytes

    def job():
        run(config, materials, backend)

    assert _traced_peak(job) <= bound


@pytest.mark.parametrize("backend", [Backend.serial(), Backend.parallel(2)], ids=str)
def test_run_holds_one_block_of_scratch_per_term_and_chunk(backend):
    # a row spans several blocks, so the scratch is one block per chunk
    # (1D has one curl term), not the chunk's cells; the slack covers the
    # Python objects of the runs
    config = SimulationConfig(extent=2**17, time_tot=4, source=SourceSpec(location=3))
    assert config.cell_count * 8 >= 4 * engine._BLOCK_BYTES
    chunks = len(KernelPlan.for_range(0, config.extent, backend).chunks)
    fields = 2 * config.cell_count * 8
    peak = _traced_peak(lambda: run(config, None, backend))
    assert peak <= fields + chunks * engine._BLOCK_BYTES + 64 * 1024


SWEEP_BACKENDS = pytest.mark.parametrize(
    "backends",
    [(Backend.serial(),), (Backend.serial(), Backend.parallel(2))],
    ids=["serial", "serial+parallel2"],
)


@SWEEP_BACKENDS
@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig(extent=2**16, time_tot=10, source=SourceSpec(location=2**15)),
        SimulationConfig(
            extent=(24, 24, 24), time_tot=5, precision=Precision.SINGLE,
            source=SourceSpec(location=(12, 12, 12)),
        ),
    ],
    ids=["1d-f64", "3d-f32"],
)
def test_fdtd_sweep_holds_one_jobs_memory_at_a_time(fast_timing, config, backends):
    # the byte gate keeps a digest, not the fields, so timing a backend
    # stacks nothing on the run it times; the memory cap assumes as much.
    # Each chunk holds its own block of scratch, so the job is the largest
    # of the swept backends' runs, each run alone
    job = max(_traced_peak(lambda b=b: run(config, None, b)) for b in backends)
    sweep = _traced_peak(lambda: run_fdtd_bench([config], backends=backends))
    assert sweep <= 1.15 * job


@SWEEP_BACKENDS
def test_linsolve_sweep_holds_one_jobs_memory_at_a_time(fast_timing, backends):
    n, precision = 512, Precision.DOUBLE

    def job():
        a, b = bench._solve_problem(n, precision, 0)
        x = lu_solve(lu_factor(a), b)
        relative_residual(a, x, b)

    sweep = _traced_peak(
        lambda: run_linsolve_bench([n], precisions=[precision], backends=backends)
    )
    assert sweep <= 1.15 * _traced_peak(job)
