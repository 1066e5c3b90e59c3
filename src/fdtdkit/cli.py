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
import functools
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
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

# The CSV writer lays each block of rows out as a table of NUL-padded ASCII in
# uint32 words and drops the NULs in one ``bytes.translate`` pass. Each field
# value is a cell of 8 words:
#   word 0     sign, then the first 3 bytes of a fixed-notation lead ("0.000")
#   word 1     the lead's last 2 bytes, the leading digit, the decimal point
#   words 2-5  the 16 digits after the leading one, in four-digit groups
#   word 6     the exponent ("e-06", "e-05") or nothing
#   word 7     the separator ("," or newline)
_VALUE_WORDS = 8


def _word(text: str) -> int:
    """Up to four ASCII bytes, NUL-padded, as one uint32 in memory order."""
    return int.from_bytes(text.encode("ascii").ljust(4, b"\0"), sys.byteorder)


def _text_words(text: str) -> np.ndarray:
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), np.uint32)


_GROUP = 10_000
_TRAILING, _LEADING, _INDEX_ZERO = _GROUP, 2 * _GROUP, 3 * _GROUP


@functools.cache
def _group_table() -> np.ndarray:
    """Four-digit groups as words: rows [0, 1e4) print every digit, [1e4, 2e4)
    print trailing zeros as NUL, [2e4, 3e4) print leading zeros as NUL (so 0
    is empty), and row 3e4 is the integer 0.

    Built on the first write, one digit axis at a time, so a process that
    writes no CSV pays nothing and one that does pays the table's 120 kB.
    """
    table = np.zeros((3 * _GROUP + 1, 4), np.uint8)
    full, trailing, leading = (table[k * _GROUP : (k + 1) * _GROUP].reshape(10, 10, 10, 10, 4) for k in range(3))
    for place in range(4):
        full[..., place] = (np.arange(10, dtype=np.uint8) + ord("0")).reshape([10 if p == place else 1 for p in range(4)])
    trailing[...] = full
    leading[...] = full
    for place in range(4):
        # zero in this place and every later one / every earlier one
        trailing[(slice(None),) * place + (0,) * (4 - place) + (place,)] = 0
        leading[(0,) * (place + 1) + (Ellipsis, place)] = 0
    table[_INDEX_ZERO, 3] = ord("0")
    table.flags.writeable = False
    return table.view(np.uint32).reshape(-1)


def _smallest_double_at_least(power: int) -> float:
    exact = Fraction(10) ** power
    nearest = float(exact)
    return nearest if Fraction(nearest) >= exact else math.nextafter(nearest, math.inf)


def _veltkamp_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo exactly, each with at most 26 significant bits."""
    c = x * _VELTKAMP
    hi = c - (c - x)
    return hi, x - hi


# A value's class is where |v| falls among these bounds: 0 is zero; 1 is
# below 1e-6; c in 2..8 has the decimal exponent c - 8, from -6 to 0; 9 is 10
# and above, inf and NaN. Each bound is the smallest double at or above its
# power of ten, so the class is exact: the double nearest 1e-6 lies below
# 10**-6 and is class 1. Classes 1 and 9 are printed one value at a time.
_CLASS_BOUNDS = np.array([math.ulp(0.0)] + [_smallest_double_at_least(k) for k in range(-6, 2)])
_PER_VALUE = np.array([False, True] + [False] * 7 + [True])
# 10**(16 - exponent) for each fast class, exact since 5**22 < 2**53, and its
# Veltkamp split.
_VELTKAMP = 2.0**27 + 1.0
_SCALE = np.array([0.0, 0.0] + [float(10 ** (24 - c)) for c in range(2, 9)] + [0.0])
_SCALE_HI, _SCALE_LO = _veltkamp_split(_SCALE)


def _lead(cls: int) -> str:
    exponent = cls - 8
    return "0." + "0" * (-exponent - 1) if -4 <= exponent <= -1 else ""


# Word 0 by (class, sign); word 1 by (class, leading digit, any digit after
# it); word 6 by class. %g prints exponents below -4 in exponential form and
# drops a decimal point that no digit follows.
_SIGN_LEAD = np.array([_word(sign + _lead(c)[:3]) for c in range(10) for sign in ("", "-")], np.uint32)
_LEAD_POINT = np.array(
    [
        _word(_lead(c)[3:].ljust(2, "\0") + str(d) + ("." if point and not _lead(c) else "\0"))
        for c in range(10)
        for d in range(10)
        for point in (False, True)
    ],
    np.uint32,
)
_EXPONENT = np.array([_word(f"e-0{8 - c}") if c in (2, 3) else 0 for c in range(10)], np.uint32)
# +0.0: class 0, so only the leading digit "0"
_ZERO_WORDS = np.array([_SIGN_LEAD[0], _LEAD_POINT[0], 0, 0, 0, 0, 0], np.uint32)


def _digit_words(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each float64 ``v`` of ``x``: words 0-6 of its cell.

    A value of class 2..8 with decimal exponent e is scaled to
    ``|v| * 10**(16 - e)``, in [1e16, 1e17), and Dekker's two-product
    (Numer. Math. 1971) gives that product exactly as ``hi + lo``. hi is
    then an even integer, so ``hi + rint(lo)`` is the 17-digit integer
    rounded half to even, as CPython's dtoa rounds. Every other value keeps
    ``%``.
    """
    mag = np.abs(x)
    cls = np.searchsorted(_CLASS_BOUNDS, mag, side="right")
    # NaN, inf and the per-value classes never reach the arithmetic below.
    m = np.where(_PER_VALUE.take(cls), 0.0, mag)
    scale, scale_hi, scale_lo = _SCALE.take(cls), _SCALE_HI.take(cls), _SCALE_LO.take(cls)
    hi = m * scale
    m_hi, m_lo = _veltkamp_split(m)
    lo = ((m_hi * scale_hi - hi) + m_hi * scale_lo + m_lo * scale_hi) + m_lo * scale_lo
    # No double of classes 2..8 rounds up to 10**17, which would carry into
    # the exponent: only the largest double below 10**-5, ..., 10**1 could,
    # and each lies at least 4 units below it (a test checks this exactly).
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    groups = np.empty((x.size, 4), np.int64)
    groups[:, 0] = upper // _GROUP
    groups[:, 1] = upper - groups[:, 0] * _GROUP
    groups[:, 2] = lower // _GROUP
    groups[:, 3] = lower - groups[:, 2] * _GROUP
    # a group whose later groups are all zero drops its trailing zeros
    lower_zero = lower == 0
    groups[:, 0] += _TRAILING * (lower_zero & (groups[:, 1] == 0))
    groups[:, 1] += _TRAILING * lower_zero
    groups[:, 2] += _TRAILING * (groups[:, 3] == 0)
    groups[:, 3] += _TRAILING
    words = np.empty((x.size, _VALUE_WORDS - 1), np.uint32)
    words[:, 0] = _SIGN_LEAD.take(2 * cls + np.signbit(x))
    words[:, 1] = _LEAD_POINT.take(2 * (10 * cls + lead) + (rest != 0))
    words[:, 2:6] = _group_table().take(groups)
    words[:, 6] = _EXPONENT.take(cls)
    per_value = np.flatnonzero(_PER_VALUE.take(cls))
    if per_value.size:
        text = b"".join(("%.17g" % v).encode("ascii").ljust(28, b"\0") for v in x[per_value].tolist())
        words[per_value] = np.frombuffer(text, np.uint32).reshape(-1, _VALUE_WORDS - 1)
    return words


def _value_words(x: np.ndarray) -> np.ndarray:
    """:func:`_digit_words` of ``x``, skipping its +0.0 values when they are
    most of it, as in a field the wave has not yet reached."""
    bits = x.view(np.uint64)
    if 2 * np.count_nonzero(bits) >= x.size:
        return _digit_words(x)
    words = np.empty((x.size, _VALUE_WORDS - 1), np.uint32)
    words[:] = _ZERO_WORDS
    nonzero = np.flatnonzero(bits)
    words[nonzero] = _digit_words(x[nonzero])
    return words


def _index_words(index: np.ndarray, groups: int) -> np.ndarray:
    """``"%d," % i`` for each ``i`` of ``index``, in [0, 10**(4 * groups))."""
    digits = _group_table()
    words = np.empty((index.size, groups + 1), np.uint32)
    for g in range(groups):
        place = _GROUP ** (groups - 1 - g)
        words[:, g] = digits.take(index // place % _GROUP + _LEADING * (index < place * _GROUP))
    words[index == 0, groups - 1] = digits[_INDEX_ZERO]
    words[:, groups] = _word(",")
    return words


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
    Every value is printed as ``"%.17g" % v`` prints it: 17 significant
    digits, the shortest fixed precision that round-trips every double, so
    parsing the file reproduces the arrays bit for bit. The text is built in
    NumPy a block of rows at a time. Zeros and values of magnitude in
    [1e-6, 10) get their digits from exact arithmetic (:func:`_digit_words`);
    every other value, NaN and inf among them, goes through ``%`` itself.
    """
    first = series.states[0]
    names = ",".join(name.capitalize() for name in first.NAMES)
    fh.write(f"step,{_CSV_INDEX_COLUMNS[first.NDIM]},{names}\n")
    for state in series.states:
        arrays = [arr.reshape(-1) for arr in state.components().values()]
        shape = state.ez.shape
        step = _text_words(f"{state.step},")
        index_groups = [-(-len(str(n - 1)) // 4) for n in shape]
        edges = np.cumsum([0, step.size, *(g + 1 for g in index_groups), _VALUE_WORDS * len(arrays)])
        table = np.empty((_CSV_BLOCK_ROWS, edges[-1]), np.uint32)
        table[:, : edges[1]] = step
        cells = table[:, edges[-2] :].reshape(_CSV_BLOCK_ROWS, len(arrays), _VALUE_WORDS)
        cells[:, :, -1] = [_word(",")] * (len(arrays) - 1) + [_word("\n")]
        values = np.empty((_CSV_BLOCK_ROWS, len(arrays)))
        for lo in range(0, arrays[0].size, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, arrays[0].size - lo)
            for axis, index in enumerate(np.unravel_index(np.arange(lo, lo + rows), shape)):
                table[:rows, edges[axis + 1] : edges[axis + 2]] = _index_words(index, index_groups[axis])
            # Widening float32 is exact; only a signalling NaN raises the flag.
            with np.errstate(invalid="ignore"):
                for column, arr in enumerate(arrays):
                    values[:rows, column] = arr[lo : lo + rows]
            words = _value_words(values[:rows].reshape(-1))
            cells[:rows, :, :-1] = words.reshape(rows, len(arrays), _VALUE_WORDS - 1)
            fh.write(table[:rows].tobytes().translate(None, b"\0").decode("ascii"))


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
