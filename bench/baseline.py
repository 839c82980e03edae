#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH_*.json summary.

    python3 bench/baseline.py --out bench/BENCH_baseline.json [--seeds 10]

Run it from the root of a checkout. For each workload it makes one untraced
run per seed (0..seeds-1), then one traced run on seed 0, one after another.
For every metric it records the values, the median and the quartiles, and
the spread (Q3 - Q1) / median. It also records each run's digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    doc = {
        "machine": {
            "cpu": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": list(range(args.seeds)),
        "workloads": {},
    }
    for w in workloads:
        records, results = zip(*(run_once(w, s, seconds, 0) for s in range(args.seeds)))
        traced_record, traced = run_once(w, 0, seconds, 1)
        doc["workloads"][w] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "checks_attempted": [r["attempted"] for r in results],
            "end_to_end": summarise(list(results)),
            "digests": [
                {k: rec[k] for k in ("seed", "report_sha256", "netlist_sha256") if k in rec}
                for rec in records
            ],
            "traced_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{w}: done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
