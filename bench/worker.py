"""One measurement of the benchmark, in a fresh interpreter.

    python3 bench/worker.py setup  WORKLOAD
    python3 bench/worker.py run    WORKLOAD SEED SECONDS
    python3 bench/worker.py trace  WORKLOAD SEED ROUNDS TRACE_FILE
    python3 bench/worker.py replay WORKLOAD SEED ROUNDS

`setup` times importing peritl plus one tiny request of each kind.  `run`
serves the workload's rounds, one request at a time, until SECONDS have
passed.  `trace` serves the first ROUNDS rounds under the tracer, then the
scaling probe, and writes spans and aggregates to TRACE_FILE; `replay` serves
the same rounds untraced, to measure the tracing overhead.  Times are
reported both raw and scaled to the reference speed (see speed.py).  The
last line of stdout is one JSON object.
"""
from __future__ import annotations

import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402  (does not import peritl)


def serve(req):
    """Serve and check one request: (start, end, error or None, output)."""
    t0 = perf_counter()
    try:
        out = workloads.call(req)
    except Exception as exc:  # a request that raises is a failed request
        return t0, perf_counter(), f"raised {exc!r}", None
    t1 = perf_counter()
    return t0, t1, workloads.check(req, out), out


def _summary(results) -> dict:
    errors = [f"{req[0]}:{req[1]} {err}" for req, err in results if err]
    return {"attempted": len(results), "failed": len(errors), "errors": errors[:5]}


def setup(workload: str) -> dict:
    factor = speed.REFERENCE_S / sorted(speed.sample() for _ in range(5))[2]
    t0 = perf_counter()
    workloads.bind()
    for req in workloads.WARMUP[workload]:
        workloads.call(req)
    return {"setup_s": (perf_counter() - t0) * factor}


def run(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop: serve whole rounds until `seconds` have passed.  Each
    request row is [round, kind, raw seconds, scaled seconds, work]."""
    workloads.bind()
    spans, results = [], []
    with speed.SpeedProbe() as probe:
        deadline = perf_counter() + seconds
        for index, rnd in enumerate(workloads.WORKLOADS[workload](seed)):
            for req in rnd:
                t0, t1, err, out = serve(req)
                spans.append((index, req[0], t0, t1, 0 if err else workloads.work(req, out)))
                results.append((req, err))
            if perf_counter() >= deadline:
                break
    rows = [[i, kind, t1 - t0, (t1 - t0) * probe.factor(t0, t1), w] for i, kind, t0, t1, w in spans]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"requests": rows, "peak_rss_mb": peak_mb, **_summary(results)}


def _rounds(workload: str, seed: int, rounds: int):
    return itertools.islice(workloads.WORKLOADS[workload](seed), rounds)


def trace(workload: str, seed: int, rounds: int, path: str) -> dict:
    import layers
    from tracer import Tracer

    workloads.bind()
    tracer = Tracer()
    tracer.install({"fock.tensor_rows": workloads.fock.tensor_rows, "cli.main": workloads.cli.main})
    results, spans, verify_checks = [], [], 0
    with speed.SpeedProbe() as probe:
        for rnd in _rounds(workload, seed, rounds):
            for req in rnd:
                with tracer.request(f"{req[0]}:{req[1]}"):
                    t0, t1, err, out = serve(req)
                spans.append((t0, t1))
                if req[0] == "verify" and not err:
                    verify_checks += workloads.work(req, out)
                results.append((req, err))
    served = sum((t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans)
    metrics = layers.layer_metrics(tracer, verify_checks)
    checks = layers.sanity(tracer, metrics)
    for name, value in layers.run_probe(tracer).items():
        metrics[name] = (value, "exponent")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": rounds,
                   "sanity": checks, **tracer.dump()}, fh)
    return {"metrics": metrics, "served_s": served, "sanity": checks, **_summary(results)}


def replay(workload: str, seed: int, rounds: int) -> dict:
    workloads.bind()
    results, spans = [], []
    with speed.SpeedProbe() as probe:
        for rnd in _rounds(workload, seed, rounds):
            for req in rnd:
                t0, t1, err, _ = serve(req)
                spans.append((t0, t1))
                results.append((req, err))
    served = sum((t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans)
    return {"served_s": served, **_summary(results)}


def main(argv) -> int:
    mode, workload, *rest = argv
    if mode == "setup":
        result = setup(workload)
    elif mode == "run":
        result = run(workload, int(rest[0]), float(rest[1]))
    elif mode == "trace":
        result = trace(workload, int(rest[0]), int(rest[1]), rest[2])
    elif mode == "replay":
        result = replay(workload, int(rest[0]), int(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
