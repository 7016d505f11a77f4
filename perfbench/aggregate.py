"""Summarize benchmark reports: per workload and metric, median and quartiles.

    python3 perfbench/aggregate.py .perfbench_out/*-trace0.json > BENCH_<label>.json

Each input is a report written by ``run.py``. The spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, the figure the benchmark's bounds are set against.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def aggregate(reports: list[dict]) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    runs = defaultdict(list)
    for r in reports:
        key = f"{r['workload']} trace={r['trace']}"
        runs[key].append({"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"]})
        for name, m in r["metrics"].items():
            if m["value"] is not None:
                values[key][name].append(m["value"])
                units[name] = m["unit"]
    out = {}
    for key in sorted(values):
        table = {}
        for name, vs in values[key].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            table[name] = {
                "unit": units[name],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "values": vs,
            }
        out[key] = {"runs": runs[key], "metrics": table}
    return out


def main(paths: list[str]) -> int:
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    json.dump(aggregate(reports), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
