#!/usr/bin/env python3
"""Summarise the benchmark's recorded runs as one JSON document.

    python3 bench/summarize.py > baseline.json

Reads ``.bench/results/*.json`` (one file per workload, seed and trace
mode, written by ``bench/run.py``) and prints, per workload and mode, the
seeds, every metric's median and quartiles over the seeds, and the
environment of the runs. A metric with fewer than two runs has no
quartiles.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".bench", "results")
# Environment fields that change from run to run and flag a noisy one.
PER_RUN_ENV = ("loadavg_before", "loadavg_after", "cpu_probe_ms_before", "cpu_probe_ms_after")


def summarize(paths: list[str]) -> dict:
    groups: dict[str, list[tuple[int, dict]]] = {}
    for path in paths:
        workload, seed, trace = os.path.basename(path)[:-len(".json")].rsplit("-", 2)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        groups.setdefault(f"{workload} {trace}", []).append((int(seed[len("seed"):]), doc))
    out = {}
    for key, runs in sorted(groups.items()):
        runs.sort(key=lambda r: r[0])
        metrics = {}
        for name in runs[0][1]["metrics"]:
            values = [doc["metrics"][name] for _, doc in runs]
            row = {"median": statistics.median(values), "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3)
            metrics[name] = row
        envs = [doc["env"] for _, doc in runs]
        out[key] = {
            "seeds": [seed for seed, _ in runs],
            "correct": all(not doc["problems"] for _, doc in runs),
            "metrics": metrics,
            "env": {k: v for k, v in envs[0].items() if k not in PER_RUN_ENV},
            "env_per_run": {k: [env[k] for env in envs] for k in PER_RUN_ENV},
        }
    return out


def main() -> int:
    paths = sorted(glob.glob(os.path.join(RESULTS, "*.json")))
    if not paths:
        print(f"error: no results under {RESULTS}; run bench/run.py first", file=sys.stderr)
        return 2
    json.dump(summarize(paths), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
