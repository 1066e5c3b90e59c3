"""In-memory spans at fdtdkit's layer boundaries, and the per-layer metrics.

A span has a name, start, end, parent span, job id and thread. Spans wrap the
driver's own calls (``model``, ``engine.run``, ``cli.emit``, ``linalg.*``)
and, while :func:`instrument` is active, these public names:

* ``fdtdkit.engine.execute_stencil`` and ``fdtdkit.linalg.execute_stencil``:
  one ``backends.call`` span per call, and one ``backends.chunk`` span per
  ``kernel(lo, hi)`` call, recorded on the thread that ran the chunk;
* ``StencilExecutor`` in ``fdtdkit.engine`` and ``fdtdkit.backends``:
  ``backends.pool_start`` (enter) and ``backends.pool_stop`` (exit);
* ``UpdateCoefficients.from_materials``: ``engine.coeff``.

Self time is a span's duration minus the part of it covered by its children
on the same thread. Every span of a job on the job's own thread is nested in
the ``job`` root span, so their self times sum to the job's wall time; chunk
spans on pool threads overlap one another and are reported as busy time.
"""

from __future__ import annotations

import itertools
import re
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from fdtdkit import backends, engine, linalg

# Largest |sum of self times - job wall| accepted, as a share of the job wall.
SELF_SUM_RTOL = 1e-6


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    end: float
    thread: int
    kernel: str | None = None
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``job`` tags every span recorded while set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, kernel: str | None = None) -> Iterator[int]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(sid, parent, self.job, name, start, end, threading.get_ident(), kernel)
            )

    def chunk_kernel(self, kernel, call_id: int):
        """Wrap a stencil kernel so each chunk records a span on its own thread."""
        job, spans, ids = self.job, self.spans, self._ids

        def traced(lo: int, hi: int) -> None:
            start = time.perf_counter()
            try:
                kernel(lo, hi)
            finally:
                end = time.perf_counter()
                spans.append(
                    Span(next(ids), call_id, job, "backends.chunk", start, end, threading.get_ident())
                )

        return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Temporarily wrap fdtdkit's inner layer boundaries with spans."""
    execute_stencil = backends.execute_stencil
    executor_cls = backends.StencilExecutor
    from_materials = engine.UpdateCoefficients.__dict__["from_materials"]

    def traced_execute_stencil(kernel, plan, backend, executor=None):
        with tracer.span("backends.call", kernel=kernel.__qualname__) as call_id:
            execute_stencil(tracer.chunk_kernel(kernel, call_id), plan, backend, executor)

    class TracedStencilExecutor(executor_cls):
        def __enter__(self):
            with tracer.span("backends.pool_start"):
                return super().__enter__()

        def __exit__(self, *exc_info):
            with tracer.span("backends.pool_stop"):
                return super().__exit__(*exc_info)

    def traced_from_materials(cls, materials, deltat, delta):
        with tracer.span("engine.coeff"):
            return from_materials.__func__(cls, materials, deltat, delta)

    patches = [
        (engine, "execute_stencil", traced_execute_stencil),
        (linalg, "execute_stencil", traced_execute_stencil),
        (engine, "StencilExecutor", TracedStencilExecutor),
        (backends, "StencilExecutor", TracedStencilExecutor),
        (engine.UpdateCoefficients, "from_materials", classmethod(traced_from_materials)),
    ]
    saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, value in patches:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def assign_self_times(spans: list[Span]) -> None:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for s in spans:
        own = [(c.start, c.end) for c in children[s.id] if c.thread == s.thread]
        s.self_s = s.duration - _covered(own, s.start, s.end)


# H and E kernels are told apart by the tokens of ``__qualname__`` alone:
# ``h``/``hx``/``hy``/``hz`` against ``e``/``ex``/``ey``/``ez``. A kernel
# with tokens of both kinds or of neither counts as other; none is guessed.
_H_TOKENS = {"h", "hx", "hy", "hz"}
_E_TOKENS = {"e", "ex", "ey", "ez"}


def kernel_kind(qualname: str) -> str:
    tokens = set(re.split(r"[._<>]+", qualname))
    is_h, is_e = bool(tokens & _H_TOKENS), bool(tokens & _E_TOKENS)
    if is_h != is_e:
        return "h" if is_h else "e"
    return "other"


def job_layers(spans: list[Span]) -> dict:
    """Layer times and counts of one job; ``spans`` hold self times already.

    Returns the raw sums, plus ``self_sum_error_s``: the distance between the
    job's wall time and the sum of the self times on the job's thread.
    """
    root = next(s for s in spans if s.name == "job")
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    chunks_of: dict[int, list[Span]] = defaultdict(list)
    for c in by_name["backends.chunk"]:
        chunks_of[c.parent].append(c)
    calls = by_name["backends.call"]
    engine_runs = by_name["engine.run"]
    run_ids = {s.id for s in engine_runs}
    factor_ids = {s.id for s in by_name["linalg.factor"]}
    kinds = {"h": 0.0, "e": 0.0, "other": 0.0}
    trailing = overhead = 0.0
    ratios = []
    for call in calls:
        if call.parent in run_ids:
            kinds[kernel_kind(call.kernel)] += call.duration
        elif call.parent in factor_ids:
            trailing += call.duration
        durations = [c.duration for c in chunks_of[call.id]]
        overhead += call.duration - max(durations, default=0.0)
        if len(durations) > 1:
            ratios.append(max(durations) / statistics.fmean(durations))

    self_sum = sum(s.self_s for s in spans if s.thread == root.thread)
    return {
        "wall_s": root.duration,
        "self_sum_error_s": abs(self_sum - root.duration),
        "model.setup_s": total("model"),
        "engine.run_s": total("engine.run"),
        "engine.h_s": kinds["h"],
        "engine.e_s": kinds["e"],
        "engine.other_s": kinds["other"],
        "engine.self_s": sum(s.self_s for s in engine_runs),
        "engine.coeff_s": total("engine.coeff"),
        "backends.calls": len(calls),
        "backends.chunks": len(by_name["backends.chunk"]),
        "backends.overhead_s": overhead,
        "backends.busy_s": total("backends.chunk"),
        "backends.imbalance": statistics.median(ratios) if ratios else 1.0,
        "backends.pool_start_s": total("backends.pool_start"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.trailing_s": trailing,
        "linalg.solve_s": total("linalg.solve"),
        "cli.emit_s": total("cli.emit"),
    }
