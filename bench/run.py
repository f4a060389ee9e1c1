"""linconn benchmark: one command, four workloads, end-to-end or per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: check-suite, curve-transport, flow-transport, pointwise (see
bench/README.md for what each measures and why).  The workload runs in one
child process with one thread and one closed-loop client, against the
linconn sources under ./src.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exits non-zero, printing no result, when
the sources are missing or the run fails.
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
from time import perf_counter

from calibrate import factor as host_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("check-suite", "curve-transport", "flow-transport", "pointwise")
SETUP_REPS = 5
TIME_LIMIT_S = 170.0  # the whole command, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linconn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    if not (ROOT / "src" / "linconn" / "__init__.py").is_file():
        print(f"error: no linconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children: the host runs its CPUs
        # at different speeds at times, and the reference bursts must run on
        # the CPU that runs the operations.
        facts["pinned_cpu"] = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {facts["pinned_cpu"]})
    print("machine: " + json.dumps(facts), flush=True)
    env = child_env()

    def remaining() -> float:
        left = TIME_LIMIT_S - (perf_counter() - start)
        if left <= 0:
            raise subprocess.TimeoutExpired("bench", TIME_LIMIT_S)
        return left

    try:
        setup = []
        if not args.trace:
            before = host_factor()
            for _ in range(SETUP_REPS):
                probe = subprocess.run(
                    [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT)],
                    env=env, capture_output=True, text=True, timeout=remaining(),
                )
                if probe.returncode != 0:
                    sys.stderr.write(probe.stderr)
                    print("error: set-up probe failed", file=sys.stderr)
                    return probe.returncode
                after = host_factor()
                setup.append(float(probe.stdout.strip().splitlines()[-1]) / ((before + after) / 2))
                before = after
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=remaining(),
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: workload process exited with {worker.returncode}", file=sys.stderr)
        return worker.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} operations, failed {result['failed']} "
          f"(failed_ratio {result['failed'] / result['attempted']:.4g}), correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
