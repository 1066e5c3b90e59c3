"""Command-line surface: flags, exit codes, golden output, format round-trips."""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fdtdkit.bench as bench
from fdtdkit.cli import (
    bandwidth_summary_lines,
    build_parser,
    emit_snapshot_csv,
    main,
)
from fdtdkit.engine import SnapshotSeries, run
from fdtdkit.model import FieldState1D, FieldState3D, Precision, SimulationConfig, SourceSpec


def test_simulate_defaults():
    args = build_parser().parse_args(["simulate"])
    assert args.xdim == 200
    assert args.steps == 350
    assert args.courant == 1.0
    assert args.n_lambda == 20.0
    assert args.tstart == 1
    assert args.source_cell is None  # resolved to xdim // 2 at run time
    assert args.backend == "serial"
    assert args.out == "-"


def test_simulate3d_defaults():
    args = build_parser().parse_args(["simulate3d"])
    assert (args.nx, args.ny, args.nz) == (32, 32, 32)
    assert args.courant == 0.5


def test_unknown_flag_is_exit_2(capsys):
    assert main(["simulate", "--frobnicate"]) == 2
    assert main(["no-such-command"]) == 2


def test_unstable_courant_is_exit_2_and_names_the_bound(capsys):
    code = main(["simulate", "--courant", "1.5", "--xdim", "8", "--steps", "1"])
    assert code == 2
    assert "1.0" in capsys.readouterr().err


def test_bad_worker_count_is_exit_2_and_names_the_text(capsys):
    for text in ("parallel:x", "parallel:1_0", "parallel: 2", "parallel:+2", "parallel:02"):
        assert main(["simulate", "--backend", text, "--xdim", "8", "--steps", "1"]) == 2
        assert text in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench-linsolve", "--sizes", ""], "argument --sizes"),
        (["bench-linsolve", "--backends", ","], "argument --backends"),
        (["bench-fdtd", "--xdim", ""], "argument --xdim"),
        (["bench-bandwidth", "--bytes", ""], "argument --bytes"),
        (["bench-linsolve", "--sizes", "a"], "argument --sizes"),
        (["bench-linsolve", "--sizes", "0"], "matrix order must be >= 1"),
        (["simulate", "--xdim", "8", "--tstart", "-1"], "tstart"),
        (["simulate", "--xdim", "8", "--amplitude", "inf"], "amplitude must be finite"),
        (["simulate", "--xdim", "8", "--delta", "0"], "delta"),
        (["simulate", "--xdim", "8", "--steps", "0"], "time_tot"),
        (["simulate", "--xdim", "8", "--snapshot-every", "-1"], "snapshot_every"),
    ],
    ids=[
        "empty-sizes", "empty-backends", "empty-xdim", "empty-bytes", "sizes-not-int",
        "order-0", "tstart", "amplitude", "delta", "steps", "snapshot-every",
    ],
)
def test_rejected_values_are_exit_2_and_name_the_problem(argv, message, tmp_path, capsys):
    # an empty sweep is a usage error, not an empty output
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--xdim", "16384", "--steps", "2", "--backend", "parallel:2"],
        ["bench-linsolve", "--sizes", "256", "--precision", "double", "--backends", "parallel:2"],
    ],
    ids=["simulate", "bench-linsolve"],
)
def test_a_thread_that_cannot_start_is_exit_1_without_a_traceback(
    argv, refused_thread_starts, tmp_path, capsys
):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fdtdkit: error: parallel:2 could not start a worker thread")
    assert not out.exists()


def test_unwritable_output_is_exit_1(tmp_path):
    code = main([
        "simulate", "--xdim", "8", "--steps", "1",
        "--out", str(tmp_path / "missing-dir" / "out.csv"),
    ])
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--xdim", "50", "--steps", "100", "--amplitude", "1e308"],
        ["simulate", "--xdim", "50", "--steps", "100", "--amplitude", "1e308", "--soft-source"],
        [
            "simulate3d", "--nx", "8", "--ny", "8", "--nz", "8", "--steps", "40",
            "--amplitude", "1e38", "--precision", "single", "--soft-source",
        ],
    ],
    ids=["1d-hard", "1d-soft", "3d-single-soft"],
)
def test_non_finite_fields_are_exit_1_and_write_no_csv(argv, tmp_path, capsys):
    out = tmp_path / "blown.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "NaN or Inf at step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--xdim", "4096"],
        ["simulate3d", "--nx", "16", "--ny", "16", "--nz", "16"],
        ["bench-fdtd", "--xdim", "64,4096"],
    ],
    ids=["simulate", "simulate3d", "bench-fdtd"],
)
def test_over_the_memory_cap_is_exit_2_before_any_allocation(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "default_memory_cap", lambda: 4096 * 8)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the memory cap was checked")

    monkeypatch.setattr(bench, "run", no_allocation)
    monkeypatch.setattr("fdtdkit.cli.run", no_allocation)
    out = tmp_path / "out"
    assert main(argv + ["--steps", "2", "--out", str(out)]) == 2
    assert "memory cap" in capsys.readouterr().err
    assert not out.exists()


def test_default_run_golden_across_invocations_and_backends(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["simulate", "--out", str(paths[0])]) == 0
    assert main(["simulate", "--out", str(paths[1])]) == 0
    assert main(["simulate", "--backend", "parallel:4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_large_grid_golden_exercises_parallel_chunking(tmp_path):
    # big enough that the parallel backend actually splits the range
    base = ["simulate", "--xdim", "20000", "--steps", "20"]
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--backend", "parallel:4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_zero_state_csv_bytes():
    series = SnapshotSeries(states=(FieldState1D.zeros(3),))
    buf = io.StringIO()
    emit_snapshot_csv(series, buf)
    assert buf.getvalue() == "step,index,Ez,Hy\n0,0,0,0\n0,1,0,0\n0,2,0,0\n"


def _bit_pattern_values(count, dtype, seed):
    """``count`` values of ``dtype`` from raw bits, special values first.

    The bits come from a 64-bit LCG, so neither libm nor NumPy's RNG stream
    can change them between machines; every exponent is reachable.
    """
    if dtype == np.float64:
        uint, info = np.uint64, np.finfo(np.float64)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                    2.2250738585072009e-308, float(info.tiny), float(info.max), -float(info.max)]
    else:
        uint, info = np.uint32, np.finfo(np.float32)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0,
                    float(np.float32(1.4e-45)), float(-np.float32(1.4e-45)),
                    float(info.tiny), float(info.max), -float(info.max), float(info.eps)]
    bits, x = [], seed
    for _ in range(count - len(specials)):
        x = (6364136223846793005 * x + 1442695040888963407) % 2**64
        bits.append(x >> (64 - 8 * np.dtype(uint).itemsize))
    drawn = np.array(bits, dtype=uint).view(dtype)
    # NaN and inf are among the specials; a drawn NaN pattern could signal on a cast.
    drawn = np.where(np.isfinite(drawn), drawn, dtype(1.5))
    return np.concatenate([np.array(specials, dtype=dtype), drawn])


def _bit_pattern_series(state_cls, extent, dtype):
    cells = int(np.prod(extent))
    states = []
    for n, step in enumerate((3, 17)):
        arrays = {
            name: _bit_pattern_values(cells, dtype, seed=100 * n + c).reshape(extent)
            for c, name in enumerate(state_cls.NAMES)
        }
        states.append(state_cls(**arrays, step=step))
    return SnapshotSeries(states=tuple(states))


@pytest.mark.parametrize(
    "state_cls, extent, dtype, digest",
    [
        (FieldState1D, 64, np.float64,
         "fb809f01a9122190a356837a9340732c950e004ee97d37a28ec0fb80b4f9d275"),
        (FieldState3D, (3, 4, 5), np.float32,
         "33304074e99d7e74d008e5b6107d39f7a7659db2ef90e0624fffc5d31662fc66"),
        # 2431 rows per state: crosses row-block boundaries mid-state
        (FieldState3D, (11, 13, 17), np.float32,
         "053a768cdd643c0a5763dd4cfdc50019dea7c001b15bfce20c4baa440cbdd52d"),
    ],
    ids=["1d-double", "3d-single", "3d-single-many-rows"],
)
def test_csv_bytes_match_stored_digests(state_cls, extent, dtype, digest):
    # Stored digests pin the bytes themselves; the goldens above only
    # compare two runs of the same code.
    buf = io.StringIO()
    emit_snapshot_csv(_bit_pattern_series(state_cls, extent, dtype), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_csv_round_trips_doubles_exactly(tmp_path):
    out = tmp_path / "run.csv"
    assert main([
        "simulate", "--xdim", "64", "--steps", "40", "--courant", "0.75",
        "--snapshot-every", "15", "--out", str(out),
    ]) == 0
    cfg = SimulationConfig(
        extent=64, time_tot=40, source=SourceSpec(location=32),
        courant=0.75, snapshot_every=15,
    )
    series = run(cfg)
    by_step = {state.step: state for state in series.states}
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert {int(r["step"]) for r in rows} == set(by_step)
    for row in rows:
        state = by_step[int(row["step"])]
        i = int(row["index"])
        assert float(row["Ez"]) == state.ez[i]
        assert float(row["Hy"]) == state.hy[i]


def test_simulate3d_csv_round_trips_every_component_exactly(tmp_path):
    out = tmp_path / "box.csv"
    assert main([
        "simulate3d", "--nx", "7", "--ny", "6", "--nz", "5", "--steps", "9",
        "--snapshot-every", "4", "--precision", "single", "--out", str(out),
    ]) == 0
    cfg = SimulationConfig(
        extent=(7, 6, 5), time_tot=9, source=SourceSpec(location=(3, 3, 2)),
        snapshot_every=4, precision=Precision.SINGLE,
    )
    series = run(cfg)
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    names = list(series.final.components())
    assert header == ["step", "i", "j", "k"] + [name.capitalize() for name in names]
    cells = 7 * 6 * 5
    assert len(rows) == cells * len(series.states)
    for n, state in enumerate(series.states):
        block = rows[n * cells : (n + 1) * cells]
        assert [tuple(map(int, r[:4])) for r in block] == [
            (state.step, *idx) for idx in np.ndindex(7, 6, 5)
        ]
        for col, (name, arr) in enumerate(state.components().items(), start=4):
            # compared as doubles, so a float32 printed inexactly cannot round back
            parsed = np.array([float(r[col]) for r in block])
            assert parsed.tobytes() == arr.astype(np.float64).tobytes(), (state.step, name)
    assert np.any(series.final.ez != 0.0)


def test_csv_delayed_source_row(tmp_path):
    # S = 1 run: 40 cells right of the source, the step-50 row carries the
    # waveform phase from 40 steps earlier
    out = tmp_path / "magic.csv"
    assert main(["simulate", "--steps", "50", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        value = {
            (int(r["step"]), int(r["index"])): float(r["Ez"])
            for r in csv.DictReader(fh)
        }
    expected = math.sin(2.0 * math.pi * (50 - 40) / 20.0)
    assert abs(value[(50, 140)] - expected) <= 1e-12


def test_simulate3d_csv_header_and_shape(tmp_path):
    out = tmp_path / "box.csv"
    assert main([
        "simulate3d", "--nx", "6", "--ny", "5", "--nz", "4", "--steps", "2",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,i,j,k,Ex,Ey,Ez,Hx,Hy,Hz"
    assert len(lines) == 1 + 6 * 5 * 4
    assert lines[1].startswith("2,0,0,0,")


def test_bench_json_lines_schema(fast_timing, tmp_path):
    out = tmp_path / "bench.jsonl"
    assert main([
        "bench-linsolve", "--sizes", "16,24", "--precision", "double",
        "--backends", "serial", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert rec["bench"] == "linsolve"
        assert rec["precision"] == "double"
        assert rec["backend"] == "serial"
        assert rec["skipped"] is None
        assert rec["gigaflops"] == rec["flops"] / rec["elapsed_s"] / 1e9


def test_bench_no_timing_is_golden(fast_timing, tmp_path):
    argv = [
        "bench-linsolve", "--sizes", "12,16", "--precision", "both",
        "--backends", "serial,parallel:2", "--seed", "9", "--no-timing",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    # timing suppressed: no rates, no speedup summary line
    assert all(r["bench"] == "linsolve" for r in records)
    assert all(r["elapsed_s"] is None and r["gigaflops"] is None for r in records)


def test_bench_speedup_summary_line_and_doc(fast_timing, tmp_path):
    out = tmp_path / "bench.jsonl"
    doc = tmp_path / "speedup.json"
    assert main([
        "bench-linsolve", "--sizes", "16", "--precision", "double",
        "--backends", "serial,parallel:2", "--seed", "0",
        "--out", str(out), "--speedup-out", str(doc),
    ]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[-1]["bench"] == "speedup_summary"
    (key,) = lines[-1]["speedups"]
    assert key == "linsolve:16:double:parallel:2"
    summary = json.loads(doc.read_text())
    assert summary[key]["speedup"] == pytest.approx(
        lines[-1]["speedups"][key]["speedup"]
    )


def test_bench_memory_cap_skip_is_exit_0(fast_timing, tmp_path):
    out = tmp_path / "skip.jsonl"
    assert main([
        "bench-linsolve", "--sizes", "16384", "--precision", "double",
        "--memory-cap-bytes", str(2**30), "--out", str(out),
    ]) == 0
    (rec,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert rec["skipped"] == "MemoryLimit"
    assert rec["elapsed_s"] is None and rec["residual"] is None


def test_bench_bandwidth_summary_format(fast_timing, tmp_path, capsys):
    out = tmp_path / "bw.jsonl"
    assert main([
        "bench-bandwidth", "--bytes", "65536", "--repeats", "3", "--out", str(out),
    ]) == 0
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 2
    for line, tier in zip(err_lines, ("fresh-allocation", "warm-buffer")):
        fields = line.split("  ")
        assert fields[0] == tier
        assert fields[1] == "65536"
        float(fields[2])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["tier"] for r in records] == ["fresh-allocation", "warm-buffer"]
    assert all(r["bytes"] == 65536 for r in records)


def test_bench_fdtd_smoke(fast_timing, tmp_path):
    out = tmp_path / "fdtd.jsonl"
    assert main([
        "bench-fdtd", "--xdim", "64", "--steps", "3",
        "--backends", "serial,parallel:2", "--repeats", "3", "--out", str(out),
    ]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["bench"] for r in lines] == ["fdtd", "fdtd", "speedup_summary"]
    assert lines[0]["updates_per_s"] > 0
    assert lines[0]["n"] == 64 and lines[0]["steps"] == 3


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fdtdkit", "simulate", "--xdim", "8", "--steps", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "step,index,Ez,Hy"


def test_bandwidth_summary_lines_helper():
    rec = bench.BandwidthRecord(
        tier="warm-buffer", nbytes=33554432, repeats=1, elapsed_s=0.021432,
        mb_per_s=bench.compute_bandwidth(33554432, 0.021432, 1),
    )
    (line,) = bandwidth_summary_lines([rec])
    assert line == "warm-buffer  33554432  1493.09"
