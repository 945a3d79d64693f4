"""peritl benchmark: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh child
interpreter (bench/worker.py) while this process waits, so the load is one
process.  With --trace 0 the last stdout line carries the end-to-end
metrics, measured untraced; with --trace 1 it carries the per-layer metrics
of a traced run over a fixed request list (its size depends only on
--seconds), whose spans and aggregates go to .bench_trace/.  See
bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # does not import peritl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 9
# Rounds per --seconds in a traced run: about one --seconds of untraced
# serving at the seed commit.
TRACE_ROUNDS_PER_S = {"verify-sweep": 0.1, "shape-queries": 0.5, "algebra-queries": 30}
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0
# Every child must end before this many seconds after start; a child still
# running then is killed and the run fails.
BUDGET_S = 175
START = time.monotonic()


def child(*args) -> dict:
    """Run bench/worker.py in a fresh interpreter; return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, BUDGET_S - (time.monotonic() - START)),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  With too few samples for that percentile to
    reach TAIL_MIN_PERCENTILE, the maximum (reported as p100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct < TAIL_MIN_PERCENTILE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], pct


def untraced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups = [child("setup", workload)["setup_s"] for _ in range(SETUP_SPAWNS)]
    res = child("run", workload, seed, seconds)
    rows = res["requests"]
    raw = [dt for _, _, dt, _, _ in rows]
    latencies = [dt for _, _, _, dt, _ in rows]
    work = sum(w for *_, w in rows)
    tail_s, pct = tail(latencies)
    print(f"{workload} seed {seed}: {len(rows)} requests in {rows[-1][0] + 1} rounds; "
          f"latency_tail_ms is p{pct:.2f}; unscaled ops_per_s {work / sum(raw):.6g}, "
          f"latency_p50_ms {1e3 * statistics.median(raw):.6g}, "
          f"latency_tail_ms {1e3 * tail(raw)[0]:.6g}")
    metrics = {
        "ops_per_s": (work / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, res


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    out = ROOT / ".bench_trace" / f"{workload}-seed{seed}.json"
    res = child("trace", workload, seed, rounds, out)
    plain = child("replay", workload, seed, rounds)
    metrics = {name: tuple(v) for name, v in res["metrics"].items()}
    metrics["trace.overhead_ratio"] = (res["served_s"] / plain["served_s"], "ratio")
    print(f"{workload} seed {seed}: traced {res['attempted']} requests in {rounds} "
          f"rounds; trace sanity {json.dumps(res['sanity'])}; spans in {out.relative_to(ROOT)}")
    for key in ("attempted", "failed", "errors"):
        res[key] += plain[key]
    return metrics, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "peritl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no peritl sources under {ROOT / 'src'}\n")
        return 2
    measure = traced if args.trace else untraced
    metrics, res = measure(args.workload, args.seed, args.seconds)
    for err in res["errors"]:
        sys.stderr.write(f"failed request: {err}\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
