"""fdtdkit benchmark driver: a closed loop of back-to-back jobs on one workload.

Run from the repository root::

    python3 perfbench/run.py --workload yee1d-long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload lu-dense --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload lu-dense --seed 1 --self-check

One process and one client: each job starts when the previous one ended.
Every job runs once on ``serial`` and then once on ``parallel:2`` with the
same inputs, and the serial twin's bytes are the reference the parallel job
must match. New job pairs start while the last pair's duration still fits in
``--seconds``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced pairs, starting with a traced one, and reports
the per-layer metrics.

The full result (environment, every job, sample counts) goes to
``<out>/<workload>.seed<seed>.trace<t>.json``, and a traced run's spans to
``...spans.jsonl`` beside it. The last line of standard output is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MB = float(2**20)
# Copy bandwidth out of cache: buffers at least this many times the LLC.
DRAM_LLC_FACTOR = 4
# Used when /sys does not report a last-level cache.
FALLBACK_LLC_BYTES = 2**28

END_TO_END_UNITS = {"wall_s": "s", "parallel_wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Per-backend layer metrics; their names get a ".serial" or ".parallel2" suffix.
LAYER_UNITS = {
    "model.setup_s": "s",
    "engine.run_s": "s",
    "engine.h_s": "s",
    "engine.e_s": "s",
    "engine.other_s": "s",
    "engine.updates_per_s": "1/s",
    "engine.self_s": "s",
    "engine.coeff_s": "s",
    "engine.bytes_per_update": "B",
    "engine.roofline_frac": "1",
    "engine.snapshots": "count",
    "engine.snapshot_mib": "MiB",
    "backends.calls": "count",
    "backends.chunks": "count",
    "backends.overhead_s": "s",
    "backends.busy_s": "s",
    "backends.imbalance": "1",
    "backends.pool_start_s": "s",
    "linalg.factor_s": "s",
    "linalg.trailing_s": "s",
    "linalg.panel_s": "s",
    "linalg.solve_s": "s",
    "linalg.gflops": "GFLOP/s",
    "linalg.residual": "1",
    "cli.emit_s": "s",
    "cli.csv_bytes": "B",
    "cli.emit_mb_per_s": "MB/s",
}
RUN_UNITS = {
    "backends.speedup": "1",
    "bench.copy_ws_mb_per_s": "MB/s",
    "bench.copy_dram_mb_per_s": "MB/s",
    "trace.overhead_frac": "1",
}
# Layer metrics fixed by the seed; they come from job 0 and must repeat
# exactly, while timings are medians over the run's traced jobs.
EXACT = {
    "engine.bytes_per_update",
    "engine.snapshots",
    "engine.snapshot_mib",
    "backends.calls",
    "backends.chunks",
    "linalg.residual",
    "cli.csv_bytes",
}
# Layers a workload never calls report 0; the result file says why.
NOT_EXERCISED = {
    "fdtd": ("linalg.",),
    "lu": ("model.", "engine.", "cli."),
}


# --- environment ---------------------------------------------------------


def _blas_threads() -> int | None:
    """Runtime OpenBLAS thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 in bytes, from /sys only; None when absent."""
    sizes: dict[str, int | None] = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        if f"L{level}" in sizes:
            sizes[f"L{level}"] = int(text.rstrip("KMG")) * scale
    return sizes


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FDTDKIT_WORKERS")},
        "cache_bytes": _cache_sizes(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


# --- the job loop --------------------------------------------------------


def run_pair(workload, inputs: dict, pair: int, csv_path: Path, tracer, corrupt_reference: bool) -> list[dict]:
    """Serial job, then its ``parallel:2`` twin gated on the serial bytes."""
    from tracing import instrument
    from workloads import BACKENDS, SUFFIX, no_span

    records = []
    reference = None
    for backend in BACKENDS:
        record = {"job": pair, "backend": str(backend), "traced": tracer is not None}
        try:
            if tracer is None:
                out = workload.run_job(inputs, backend, no_span, str(csv_path))
            else:
                tracer.job = f"{pair}:{SUFFIX[backend]}"
                with instrument(tracer), tracer.span("job"):
                    out = workload.run_job(inputs, backend, tracer.span, str(csv_path))
        except Exception as exc:  # a job that raises is a failed job; the loop goes on
            record.update(ok=False, reason=f"raised {type(exc).__name__}: {exc}")
            records.append(record)
            continue
        reason = None
        if not out.finite:
            reason = "non-finite field"
        elif not out.residual_ok:
            reason = "residual above residual_bound(n, eps)"
        elif backend.is_parallel and reference is None:
            reason = "serial twin gave no reference"
        elif backend.is_parallel and out.digest != reference:
            reason = "bytes differ from the serial twin"
        if not backend.is_parallel:
            reference = out.digest
            if corrupt_reference:
                reference = bytes([reference[0] ^ 1]) + reference[1:]
        record.update(ok=reason is None, reason=reason, wall_s=out.wall_s, setup_s=out.setup_s, **out.facts)
        records.append(record)
    return records


def run_loop(workload, seed: int, seconds: float, trace: bool, workdir: Path, self_check: bool = False):
    """Closed loop of job pairs; returns (job records, tracer or None)."""
    from tracing import Tracer

    csv_path = workdir / f"{workload.name}.job.csv"
    # One short untimed pair first: the first large allocations of a process
    # and of each pool thread's malloc arena fault in fresh pages, which made
    # the first pair up to 40% slower than the ones after it.
    warmup = workload.warmup()
    run_pair(warmup, warmup.make_inputs(seed, 0), -1, csv_path, None, False)

    tracer = Tracer() if trace else None
    min_pairs = 2 if trace else 1
    records: list[dict] = []
    start = time.perf_counter()
    pair = 0
    while True:
        inputs = workload.make_inputs(seed, pair)
        pair_start = time.perf_counter()
        traced = tracer if pair % 2 == 0 else None
        pair_records = run_pair(workload, inputs, pair, csv_path, traced, self_check and pair == 0)
        # High-water mark of resident memory once this pair has ended.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records += [dict(r, peak_rss_kib=peak_kib) for r in pair_records]
        pair += 1
        now = time.perf_counter()
        if self_check or (pair >= min_pairs and now + (now - pair_start) > start + seconds):
            break
    return records, tracer


# --- metrics -------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, records: list[dict]) -> dict:
    done = [r for r in records if "wall_s" in r]
    serial = [r["wall_s"] for r in done if r["backend"] == "serial"]
    parallel = [r["wall_s"] for r in done if r["backend"] != "serial"]
    setup_backends = {str(b) for b in workload.setup_backends}
    setups = [r["setup_s"] for r in done if r["backend"] in setup_backends]
    # Peak RSS after the first measured pair: a fixed amount of work. It
    # grows with later pairs in some runs, so reading it at the end would
    # make it depend on how many pairs fit in the window.
    rss_mib = records[0]["peak_rss_kib"] * 1024 / MB
    return {
        "wall_s": (_median(serial), len(serial)),
        "parallel_wall_s": (_median(parallel), len(parallel)),
        "setup_s": (_median(setups), len(setups)),
        "peak_rss_mib": (rss_mib, 1),
    }


def job_metrics(workload, layers: dict, record: dict, copy_ws_mb_per_s: float) -> dict:
    """Every per-backend layer metric of one traced job."""
    stencil_s = layers["engine.h_s"] + layers["engine.e_s"]
    updates = record.get("cell_updates", 0)
    bytes_per_update = workload.bytes_per_update
    emit_s = layers["cli.emit_s"]
    solve_s = layers["linalg.factor_s"] + layers["linalg.solve_s"]
    metrics = {k: v for k, v in layers.items() if k in LAYER_UNITS}
    metrics.update(
        {
            "engine.updates_per_s": updates / layers["engine.run_s"] if updates else 0.0,
            "engine.bytes_per_update": bytes_per_update,
            "engine.roofline_frac": (
                bytes_per_update * updates / stencil_s / (copy_ws_mb_per_s * MB) if updates else 0.0
            ),
            "engine.snapshots": record.get("snapshots", 0),
            "engine.snapshot_mib": record.get("snapshot_bytes", 0) / MB,
            "linalg.panel_s": layers["linalg.factor_s"] - layers["linalg.trailing_s"],
            "linalg.gflops": record["flops"] / solve_s / 1e9 if "flops" in record else 0.0,
            "linalg.residual": record.get("residual", 0.0),
            "cli.csv_bytes": record.get("csv_bytes", 0),
            "cli.emit_mb_per_s": record["csv_bytes"] / MB / emit_s if "csv_bytes" in record else 0.0,
        }
    )
    return metrics


def per_layer(workload, records: list[dict], tracer, copy: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the self-time sum check."""
    from tracing import SELF_SUM_RTOL, assign_self_times, job_layers
    from workloads import BACKENDS, SUFFIX

    assign_self_times(tracer.spans)
    spans_by_job: dict[str, list] = {}
    for span in tracer.spans:
        spans_by_job.setdefault(span.job, []).append(span)

    metrics: dict[str, float] = {}
    worst = 0.0
    for backend in BACKENDS:
        suffix = SUFFIX[backend]
        rows = []
        for record in records:
            if record["backend"] != str(backend) or not record["traced"] or "wall_s" not in record:
                continue
            layers = job_layers(spans_by_job[f"{record['job']}:{suffix}"])
            worst = max(worst, layers["self_sum_error_s"] / layers["wall_s"])
            rows.append(job_metrics(workload, layers, record, copy["ws"]["mb_per_s"]))
        for name in LAYER_UNITS:
            values = [row[name] for row in rows]
            metrics[f"{name}.{suffix}"] = values[0] if name in EXACT and values else _median(values)

    untraced = [r for r in records if not r["traced"] and "wall_s" in r]
    traced = [r for r in records if r["traced"] and "wall_s" in r]
    serial = [r["wall_s"] for r in untraced if r["backend"] == "serial"]
    parallel = [r["wall_s"] for r in untraced if r["backend"] != "serial"]
    metrics["backends.speedup"] = _ratio(_median(serial), _median(parallel))
    metrics["bench.copy_ws_mb_per_s"] = copy["ws"]["mb_per_s"]
    metrics["bench.copy_dram_mb_per_s"] = copy["dram"]["mb_per_s"]
    metrics["trace.overhead_frac"] = _ratio(_median(_pair_walls(traced)), _median(_pair_walls(untraced))) - 1.0
    check = {"rtol": SELF_SUM_RTOL, "worst_rel_error": worst, "ok": worst <= SELF_SUM_RTOL}
    return metrics, check


def _pair_walls(records: list[dict]) -> list[float]:
    walls: dict[int, float] = {}
    for r in records:
        walls[r["job"]] = walls.get(r["job"], 0.0) + r["wall_s"]
    return list(walls.values())


def measure_copy(workload) -> dict:
    """Copy bandwidth at the workload's working set and far beyond the LLC."""
    from fdtdkit.bench import measure_copy_bandwidth

    llc = _cache_sizes()["L3"] or FALLBACK_LLC_BYTES
    out = {}
    for label, nbytes, repeats in (
        ("ws", workload.working_set_bytes, 5),
        ("dram", DRAM_LLC_FACTOR * llc, 3),
    ):
        rec = measure_copy_bandwidth(nbytes, repeats=repeats)
        out[label] = {"bytes": nbytes, "repeats": repeats, "mb_per_s": rec.mb_per_s}
    return out


# --- entry point ---------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "fdtdkit" / "__init__.py").is_file():
        print(f"perfbench: fdtdkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_work", help="directory for result and span files")
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run one job pair against a corrupted serial reference; exit 0 only if exactly one job fails",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    import fdtdkit

    if Path(fdtdkit.__file__).resolve().parent != SRC / "fdtdkit":
        print(f"perfbench: imported fdtdkit from {fdtdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = Path(args.out)
    workdir.mkdir(parents=True, exist_ok=True)
    records, tracer = run_loop(
        workload, args.seed, args.seconds, bool(args.trace) and not args.self_check, workdir, args.self_check
    )
    failed = sum(not r["ok"] for r in records)

    if args.self_check:
        print(json.dumps({"workload": workload.name, "attempted": len(records), "failed": failed, "jobs": records}))
        return 0 if failed == 1 else 1

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "jobs": records,
    }
    correct = failed == 0
    stem = workdir / f"{workload.name}.seed{args.seed}.trace{args.trace}"
    if tracer is None:
        e2e = end_to_end(workload, records)
        result["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n} for k, (v, n) in e2e.items()}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in e2e.items()}
    else:
        copy = measure_copy(workload)
        layers, check = per_layer(workload, records, tracer, copy)
        correct = correct and check["ok"]
        units = {f"{k}.{s}": u for k, u in LAYER_UNITS.items() for s in ("serial", "parallel2")}
        units.update(RUN_UNITS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        result.update(
            per_layer=metrics,
            not_exercised={
                k: f"{workload.name} never calls this layer"
                for k in metrics
                if k.startswith(NOT_EXERCISED[workload.kind])
            },
            roofline={
                "bytes_per_update": "computed: coefficient pair, own component, neighbour components, one write",
                "copy": copy,
                "roofline_frac": "bytes_per_update * cell updates / (engine.h_s + engine.e_s) / copy_ws",
            },
            self_time_check=check,
        )
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span), sort_keys=True) + "\n")
    result["correct"] = correct
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"perfbench: wrote {stem}.json", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
