"""Read benchmark result files: one set's spread, or a parent against a change.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A directory holds the ``*.trace0.json`` files that ``perfbench/run.py --out
DIR`` writes, one per (workload, seed). Bounds and directions come from
``BENCHMARK.json``.

With one directory, each end-to-end metric of each workload prints its
median, quartiles and spread: the distance between the quartiles as a share
of the median, checked against the metric's bound.

With two, runs are paired by workload and seed, and each metric prints both
sides' median and quartiles, the share of pairs each side wins (ties count
for neither) and a verdict:

* ``improved``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: otherwise, when the parent's spread exceeds the bound,
  unless every change run is better than every parent run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(directory: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> end-to-end metric -> value."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        doc = json.loads(path.read_text())
        values = {name: m["value"] for name, m in doc["end_to_end"].items()}
        runs.setdefault(doc["workload"], {})[doc["seed"]] = values
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], lower: bool, bound: float) -> tuple[str, float, float]:
    """Verdict plus the share of pairs the change and the parent win."""
    sign = 1.0 if lower else -1.0
    change_wins = sum(sign * (p - c) > 0 for p, c in pairs) / len(pairs)
    parent_wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p_q1, p_med, p_q3 = summary(parent)
    _, c_med, _ = summary(change)
    gain = sign * (p_med - c_med)
    if change_wins >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", change_wins, parent_wins
    if -gain > bound * p_med:
        return "worse", change_wins, parent_wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) > bound * p_med and not all_better:
        return "unresolved", change_wins, parent_wins
    return "unchanged", change_wins, parent_wins


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR", help="RESULTS_DIR, or PARENT_DIR CHANGE_DIR")
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give one results directory, or a parent and a change directory")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(d) for d in args.dirs]
    if not any(sets[0].values()):
        print(f"no *.trace0.json results in {args.dirs[0]}", file=sys.stderr)
        return 1

    if len(sets) == 1:
        print("workload metric runs median [q1, q3] spread bound within")
        for workload, by_seed in sorted(sets[0].items()):
            for m in metrics:
                q = summary([run[m["name"]] for run in by_seed.values()])
                spread = (q[2] - q[0]) / q[1]
                print(f"{workload} {m['name']} {len(by_seed)} {_fmt(q)} {spread:.4f} {m['bound']} {spread <= m['bound']}")
        return 0

    parent, change = sets
    print("workload metric pairs parent change change_wins parent_wins verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for m in metrics:
            name = m["name"]
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            result, c_wins, p_wins = verdict(p, c, list(zip(p, c)), m["better"] == "lower", m["bound"])
            print(
                f"{workload} {name} {len(seeds)} {_fmt(summary(p))} {_fmt(summary(c))} "
                f"{c_wins:.2f} {p_wins:.2f} {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
