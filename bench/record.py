"""Measure the current tree and append one point to bench/trajectory.json.

Run from the repository root, on an otherwise idle machine:

    python3 bench/record.py --label "<commit or change>" [--seeds 0-9] [--seconds 15]

For every workload it runs ``run.py`` once per seed untraced and once traced
at the first seed, and records per end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and every value, plus the
per-layer metrics and the input hashes.  Two points measured with the same
seeds and seconds are comparable metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines:
        for key in ("machine", "inputs", "check-suite sampling outcomes"):
            if line.startswith(key):
                info[key] = line.split(":", 1)[1].strip()
    return json.loads(lines[-1]), info


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    point = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        values, failed, attempted, hashes, notes = {}, 0, 0, [], []
        for seed in seeds:
            result, info = bench_run(workload, seed, seconds, 0)
            point.setdefault("machine", json.loads(info["machine"]))
            failed += result["failed"]
            attempted += result["attempted"]
            hashes.append(info["inputs"])
            if "check-suite sampling outcomes" in info:
                notes.append(info["check-suite sampling outcomes"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        traced, _ = bench_run(workload, seeds[0], seconds, 1)
        point["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_seed": seeds[0],
            "inputs": hashes,
            **({"sampling_outcomes": notes} if notes else {}),
        }
        for name, s in point["workloads"][workload]["end_to_end"].items():
            print(f"{workload:16s} {name:12s} median {s['median']:.6g} "
                  f"iqr/median {s['iqr_over_median']:.4f}", flush=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(point)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended point {args.label!r} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
