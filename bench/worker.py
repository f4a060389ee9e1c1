"""Run one workload in this process: one client, one thread, closed loop.

Started by ``run.py``; not meant to be run by hand.  Rounds of the
workload's operation mix are generated (untimed), issued one at a time with
each operation timed on its own, and then checked by their oracles
(untimed).  Without ``--trace`` the run issues whole rounds, at least the
workload's ``min_rounds``, until the timed operations add up to
``--seconds``; with ``--trace`` it issues the workload's fixed number of
rounds twice, untraced and then traced, so that per-layer counts repeat
exactly at a given seed.  Reported times are divided by the host factor
measured around them (see ``calibrate``).  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import factor as host_factor

ROOT = Path(__file__).resolve().parent.parent
WALL_CAP_S = 120.0  # stop issuing rounds after this much wall time, whatever --seconds says
CAL_EVERY_S = 0.5  # longest stretch of operations between two host-speed measurements


def run_rounds(workload, ctx, seed: int, log, seconds=None, rounds=None, tracer=None):
    """Issue rounds; returns per-operation latencies, the host factor measured
    around each operation (see ``calibrate``) and failure messages."""
    from inputs import round_rng

    start = perf_counter()
    latencies, factors, failures = [], [], []
    index = 0
    while True:
        ops = workload.make_round(ctx, round_rng(workload.name, seed, index), log)
        log.end_round()
        results = []
        pending = []  # operations still waiting for the host factor after them

        def calibrate():
            after = host_factor()
            for i in pending:
                factors[i] = (factors[i] + after) / 2
            pending.clear()
            return after, perf_counter()

        host, last = calibrate()
        if tracer is not None:
            tracer.install()
        try:
            for op in ops:
                if perf_counter() - last >= CAL_EVERY_S:
                    host, last = calibrate()
                t0 = perf_counter()
                try:
                    out = tracer.op(op.call) if tracer is not None else op.call()
                    err = None
                except Exception as exc:  # a raising operation is a failed one
                    out, err = None, f"raised {type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - t0)
                factors.append(host)
                pending.append(len(factors) - 1)
                results.append((op, out, err))
        finally:
            if tracer is not None:
                tracer.remove()
        calibrate()
        for op, out, err in results:
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:  # the oracle could not judge the output
                    err = f"oracle raised {type(exc).__name__}: {exc}"
            if err:
                failures.append(f"{op.label}: {err}")
        index += 1
        if rounds is not None:
            if index >= rounds:
                break
        elif index >= workload.min_rounds and (
                sum(latencies) >= seconds or perf_counter() - start > WALL_CAP_S):
            break
    return latencies, factors, failures, index


def end_to_end(latencies, factors) -> dict:
    """Throughput and latency quantiles of the host-scaled operation times."""
    lat = np.asarray(latencies) / np.asarray(factors)
    return {
        "ops_per_s": (len(lat) / lat.sum(), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import linconn

    src = (ROOT / "src").resolve()
    if src not in Path(linconn.__file__).resolve().parents:
        print(f"error: linconn imported from {linconn.__file__}, not from {src}", file=sys.stderr)
        return 2
    from inputs import InputLog
    from workloads import STATISTICAL_CHECKS, WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    log = InputLog()
    if not args.trace:
        ctx = Context(ROOT)
        latencies, factors, failures, rounds = run_rounds(
            workload, ctx, args.seed, log, seconds=args.seconds)
        metrics = end_to_end(latencies, factors)
        raw = end_to_end(latencies, np.ones(len(latencies)))
        print(f"host factor: median {np.median(factors):.3f} (min {min(factors):.3f}, "
              f"max {max(factors):.3f}); unscaled: "
              + ", ".join(f"{name} {raw[name][0]:.6g}" for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")))
    else:
        from tracing import Tracer, metric_specs

        tracer = Tracer()
        tracer.install()  # the set-up (loading c0..c4) is traced too
        try:
            ctx = tracer.op(lambda: Context(ROOT))
        finally:
            tracer.remove()
        rounds = workload.trace_rounds
        plain, plain_factors, failures, _ = run_rounds(workload, ctx, args.seed, log, rounds=rounds)
        traced_log = InputLog()
        traced, traced_factors, traced_failures, _ = run_rounds(
            workload, ctx, args.seed, traced_log, rounds=rounds, tracer=tracer)
        if traced_log.hexdigest() != log.hexdigest():
            raise RuntimeError("traced and untraced passes generated different inputs")
        failures += traced_failures
        host = float(np.median(traced_factors))
        metrics = {name: (value / host if unit in ("us", "ms", "s") else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        untraced_rate = end_to_end(plain, plain_factors)["ops_per_s"][0]
        traced_rate = end_to_end(traced, traced_factors)["ops_per_s"][0]
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        missing = [name for name, _, _ in metric_specs() if name not in metrics]
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {missing}")
        spans = ROOT / "bench" / "out" / f"spans-{workload.name}.npz"
        tracer.write(str(spans), {"workload": workload.name, "seed": args.seed, "rounds": rounds})
        print(f"spans: {len(tracer.span_id)} written to {spans.relative_to(ROOT)}; "
              f"{tracer.attributed_share():.1%} of traced operation time is inside linconn spans; "
              f"per-layer times divided by the traced pass's median host factor {host:.3f}")
        latencies = plain + traced
    print(f"inputs: {rounds} rounds, sha256 first round {log.first_round}, all rounds {log.hexdigest()}")
    if workload.name == "check-suite":
        print(f"check-suite sampling outcomes (not failures): {ctx.notes['sampling_skips']} "
              f"transport.order skips, {ctx.notes['statistical_fails']} fails of "
              f"{', '.join(STATISTICAL_CHECKS)}")
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
