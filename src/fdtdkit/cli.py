"""Command-line front end: field runs to CSV, benchmark sweeps to JSON lines.

Exit codes are a contract for scripts: 0 on success, 1 on runtime or I/O
failure (including a run whose fields go non-finite), 2 on a usage error
(unknown flag, unparsable value, or a parameter combination the model
rejects, such as a Courant number past the stability bound, or a grid whose
footprint exceeds the memory cap, checked before anything is allocated).
Unknown flags are always hard errors.

Output determinism: with the same flags and seed, CSV output is
byte-identical across invocations and across backends. Benchmark JSON
carries wall-clock fields; golden comparisons pass ``--no-timing`` to null
them out and get stable bytes there too.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

import numpy as np

from .backends import Backend, BackendResourceError
from .bench import (
    BandwidthRecord,
    RateRecord,
    SpeedupRecord,
    pair_speedups,
    require_run_memory,
    run_bandwidth_bench,
    run_fdtd_bench,
    run_linsolve_bench,
    speedup_summary,
)
from .engine import SnapshotSeries, run
from .model import Location, NonFiniteFieldError, Precision, SimulationConfig, SourceSpec

# Rows formatted per write, so the writer's memory does not grow with the grid.
_CSV_BLOCK_ROWS = 1024
_CSV_INDEX_COLUMNS = {1: "index", 3: "i,j,k"}


@contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def emit_snapshot_csv(series: SnapshotSeries, fh: TextIO) -> None:
    """Write a snapshot series as CSV, rows ordered by (step, cell index).

    One path serves every state: the header is ``step``, the index columns
    (``index``, or ``i,j,k`` with i outermost) and the capitalized ``NAMES``.
    Floats are printed with 17 significant digits so parsing the file
    reproduces the arrays bit for bit.
    """
    first = series.states[0]
    names = ",".join(name.capitalize() for name in first.NAMES)
    fh.write(f"step,{_CSV_INDEX_COLUMNS[first.NDIM]},{names}\n")
    for state in series.states:
        arrays = [arr.reshape(-1) for arr in state.components().values()]
        # 17 significant digits: the shortest fixed precision that round-trips
        # every double exactly.
        row = f"{state.step}," + "%d," * state.NDIM + ",".join(["%.17g"] * len(arrays)) + "\n"
        cells = arrays[0].size
        for lo in range(0, cells, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, cells)
            columns = [idx.tolist() for idx in np.unravel_index(np.arange(lo, hi), state.ez.shape)]
            columns += [arr[lo:hi].tolist() for arr in arrays]
            fh.write("".join(map(row.__mod__, zip(*columns))))


def emit_bench_json(
    records: Sequence[BandwidthRecord | RateRecord],
    speedups: Sequence[SpeedupRecord],
    fh: TextIO,
    include_timing: bool = True,
) -> None:
    """Write one compact JSON object per record, then the speedup summary.

    The summary is itself a single self-contained JSON line tagged
    ``speedup_summary``; it is omitted entirely when timing is suppressed,
    because a rate ratio is a timing.
    """
    for record in records:
        fh.write(json.dumps(record.to_json_dict(include_timing), sort_keys=True))
        fh.write("\n")
    if speedups and include_timing:
        doc = {"bench": "speedup_summary", "speedups": speedup_summary(speedups)}
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def bandwidth_summary_lines(records: Sequence[BandwidthRecord]) -> list[str]:
    """Terminal summary, one line per measurement: tier, bytes, MB/s."""
    return [f"{r.tier}  {r.nbytes}  {r.mb_per_s:.2f}" for r in records]


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _backend_list(text: str) -> list[Backend]:
    backends = [Backend.parse(part) for part in text.split(",") if part]
    if not backends:
        raise argparse.ArgumentTypeError(f"expected comma-separated backends, got {text!r}")
    return backends


def _precision_list(text: str) -> list[Precision]:
    if text == "both":
        return [Precision.SINGLE, Precision.DOUBLE]
    return [Precision.parse(text)]


def _add_sim_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--steps", type=int, default=350, help="number of time steps")
    sub.add_argument("--delta", type=float, default=1.0, help="grid spacing")
    sub.add_argument("--n-lambda", type=float, default=20.0, help="source period in time steps")
    sub.add_argument("--tstart", type=int, default=1, help="source phase origin step")
    sub.add_argument("--amplitude", type=float, default=1.0, help="source amplitude")
    sub.add_argument("--soft-source", action="store_true", help="add the source instead of overwriting")
    sub.add_argument("--snapshot-every", type=int, default=0, help="snapshot cadence; 0 keeps only the final state")
    sub.add_argument("--precision", choices=["single", "double"], default="double")
    sub.add_argument("--units", choices=["normalized", "physical"], default="normalized")
    sub.add_argument("--backend", default="serial", help="serial or parallel[:k]")
    sub.add_argument("--out", default="-", help="output CSV path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdtdkit",
        description="FDTD field solver and benchmark harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run a 1D field simulation")
    sim.add_argument("--xdim", type=int, default=200, help="grid cells")
    sim.add_argument("--courant", type=float, default=1.0)
    sim.add_argument("--source-cell", type=int, default=None, help="source location; defaults to the grid midpoint")
    _add_sim_common(sim)
    sim.set_defaults(func=cmd_simulate)

    sim3 = commands.add_parser("simulate3d", help="run a 3D field simulation")
    sim3.add_argument("--nx", type=int, default=32)
    sim3.add_argument("--ny", type=int, default=32)
    sim3.add_argument("--nz", type=int, default=32)
    sim3.add_argument("--courant", type=float, default=0.5)
    sim3.add_argument(
        "--source-cell",
        type=_int_list,
        default=None,
        help="comma triple i,j,k; defaults to the grid center",
    )
    sim3.add_argument("--plane-source", action="store_true", help="drive the whole y-z plane of the source cell")
    _add_sim_common(sim3)
    sim3.set_defaults(func=cmd_simulate3d)

    bw = commands.add_parser("bench-bandwidth", help="copy-bandwidth sweep")
    bw.add_argument("--bytes", type=_int_list, default=[33554432], dest="sizes", help="comma list of transfer sizes")
    bw.add_argument("--repeats", type=int, default=5)
    bw.add_argument("--no-timing", action="store_true", help="null timing fields for golden comparisons")
    bw.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    bw.set_defaults(func=cmd_bench_bandwidth)

    ls = commands.add_parser("bench-linsolve", help="dense-solve throughput sweep")
    ls.add_argument("--sizes", type=_int_list, default=[64, 256, 1024], help="comma list of matrix orders")
    ls.add_argument("--precision", type=_precision_list, default=[Precision.SINGLE, Precision.DOUBLE], help="single, double, or both")
    ls.add_argument("--backends", type=_backend_list, default=[Backend.serial()], help="comma list, e.g. serial,parallel:4")
    ls.add_argument("--seed", type=int, default=0, help="seed for the test matrices; the only randomness")
    ls.add_argument("--repeats", type=int, default=3)
    ls.add_argument("--memory-cap-bytes", type=int, default=None, help="skip problems over this footprint")
    ls.add_argument("--no-timing", action="store_true", help="null timing fields for golden comparisons")
    ls.add_argument("--speedup-out", default=None, help="also write the speedup summary document here")
    ls.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    ls.set_defaults(func=cmd_bench_linsolve)

    fb = commands.add_parser("bench-fdtd", help="field-update throughput sweep")
    fb.add_argument("--xdim", type=_int_list, default=[1000000], dest="sizes", help="comma list of 1D grid sizes")
    fb.add_argument("--steps", type=int, default=100)
    fb.add_argument("--precision", choices=["single", "double"], default="double")
    fb.add_argument("--backends", type=_backend_list, default=[Backend.serial()], help="comma list, e.g. serial,parallel")
    fb.add_argument("--repeats", type=int, default=3)
    fb.add_argument("--no-timing", action="store_true", help="null timing fields for golden comparisons")
    fb.add_argument("--speedup-out", default=None, help="also write the speedup summary document here")
    fb.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    fb.set_defaults(func=cmd_bench_fdtd)

    return parser


def _simulate(
    args: argparse.Namespace, extent: int | tuple[int, int, int], location: Location, plane: bool
) -> int:
    config = SimulationConfig(
        extent=extent,
        time_tot=args.steps,
        source=SourceSpec(
            location=location,
            n_lambda=args.n_lambda,
            tstart=args.tstart,
            amplitude=args.amplitude,
            soft=args.soft_source,
            plane=plane,
        ),
        delta=args.delta,
        courant=args.courant,
        precision=Precision.parse(args.precision),
        snapshot_every=args.snapshot_every,
        units=args.units,
    )
    require_run_memory(config)
    series = run(config, backend=Backend.parse(args.backend))
    with _open_out(args.out) as fh:
        emit_snapshot_csv(series, fh)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    location = args.xdim // 2 if args.source_cell is None else args.source_cell
    return _simulate(args, args.xdim, location, plane=False)


def cmd_simulate3d(args: argparse.Namespace) -> int:
    extent = (args.nx, args.ny, args.nz)
    cell = args.source_cell
    location = tuple(n // 2 for n in extent) if cell is None else tuple(cell)
    return _simulate(args, extent, location, plane=args.plane_source)


def cmd_bench_bandwidth(args: argparse.Namespace) -> int:
    records = run_bandwidth_bench(args.sizes, repeats=args.repeats)
    with _open_out(args.out) as fh:
        emit_bench_json(records, (), fh, include_timing=not args.no_timing)
    for line in bandwidth_summary_lines(records):
        print(line, file=sys.stderr)
    return 0


def _emit_rate_bench(
    args: argparse.Namespace, records: Sequence[RateRecord], speedups: Sequence[SpeedupRecord]
) -> int:
    """JSON lines to ``--out``; with timing on, the speedup summary to ``--speedup-out``."""
    with _open_out(args.out) as fh:
        emit_bench_json(records, speedups, fh, include_timing=not args.no_timing)
    if args.speedup_out is not None and not args.no_timing:
        with _open_out(args.speedup_out) as fh:
            fh.write(json.dumps(speedup_summary(speedups), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bench_linsolve(args: argparse.Namespace) -> int:
    records = run_linsolve_bench(
        args.sizes,
        precisions=args.precision,
        backends=args.backends,
        seed=args.seed,
        repeats=args.repeats,
        memory_cap_bytes=args.memory_cap_bytes,
    )
    return _emit_rate_bench(args, records, pair_speedups(records))


def cmd_bench_fdtd(args: argparse.Namespace) -> int:
    precision = Precision.parse(args.precision)
    configs = [
        SimulationConfig(
            extent=xdim,
            time_tot=args.steps,
            source=SourceSpec(location=xdim // 2),
            precision=precision,
        )
        for xdim in args.sizes
    ]
    records = run_fdtd_bench(configs, backends=args.backends, repeats=args.repeats)
    return _emit_rate_bench(args, records, pair_speedups(records))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep main() a
        # plain int-returning function either way.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        # Parameter combinations the model rejects (stability bound, bad
        # extents, negative sizes) are usage errors.
        print(f"fdtdkit: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError, BackendResourceError, NonFiniteFieldError) as exc:
        print(f"fdtdkit: error: {exc}", file=sys.stderr)
        return 1
