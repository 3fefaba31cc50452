#!/usr/bin/env python3
"""Run one njordan benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload span --seed 1 --seconds 40 --trace 0

One client in one process issues each op after the previous one returns
(a closed loop).  Rounds of ops run until the round boundary nearest to
``--seconds`` of op time, and at least MIN_OPS ops; every verdict is then checked
against its answer key.  Times are normalized for the machine's speed
(see ``speed.py``); the wall-clock values are printed beside them.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each op
of a fixed number of rounds twice, untraced and with span wrappers, and
reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the exit code is
nonzero if any op raised, was refused by a guard, or gave a wrong verdict.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 11
# Rounds of the traced run: fixed, so its counters repeat exactly.
TRACE_ROUNDS = {"span": 2, "models": 1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _use_checkout_library() -> None:
    if not (SRC / "njordan" / "__init__.py").is_file():
        raise SystemExit(f"njordan sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(workload: str, probe: speed.Probe) -> tuple[float, float]:
    """Median over fresh interpreters of importing njordan and building the
    models: (normalized, wall) seconds."""
    norm, wall = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(proc.stdout.split()[-1])
        probe.sample()
        wall.append(seconds)
        norm.append(probe.normalize(start, seconds))
    return statistics.median(norm), statistics.median(wall)


def timed(op, built, probe: speed.Probe):
    """Run one op; returns its output (or exception), start time and wall latency.

    The machine's speed is sampled after the op, outside its time.
    """
    start = time.perf_counter()
    try:
        out = workloads.execute(op, built)
    except Exception as exc:  # a raised op, guard refusals included, counts as failed
        out = exc
    latency = time.perf_counter() - start
    probe.maybe_sample()
    return out, start, latency


def run_ops(ops, built, probe: speed.Probe):
    """Execute ops back to back: outputs, start times and wall latencies."""
    outs, starts, lats = [], [], []
    for op in ops:
        out, start, latency = timed(op, built, probe)
        outs.append(out)
        starts.append(start)
        lats.append(latency)
    return outs, starts, lats


def count_failures(ops, outs) -> int:
    failed = 0
    for op, out in zip(ops, outs):
        try:
            ok = not isinstance(out, Exception) and workloads.check(op, out)
        except Exception:
            ok = False
        if not ok:
            failed += 1
            print(f"# FAILED {op.cls} {json.dumps(op.args, sort_keys=True)}: {out!r}"[:400], file=sys.stderr)
    return failed


def repeated_class_share(ops) -> float:
    seen: set[str] = set()
    repeats = 0
    for op in ops:
        repeats += op.cls in seen
        seen.add(op.cls)
    return repeats / len(ops)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(latencies) -> dict[str, float]:
    ms = sorted(x * 1000 for x in latencies)
    return {
        "ops_per_s": len(ms) / sum(latencies),
        "latency_p50_ms": nearest_rank(ms, 0.5),
        "latency_p90_ms": nearest_rank(ms, 0.9),
    }


def family_shares(ops, latencies) -> dict[str, float]:
    """Each op family's share of the op time."""
    shares: dict[str, float] = {}
    for op, lat in zip(ops, latencies):
        family = workloads.FAMILY[op.kind]
        shares[family] = shares.get(family, 0.0) + lat
    return {family: t / sum(latencies) for family, t in sorted(shares.items())}


def end_to_end(workload: str, seed: int, seconds: float):
    probe = speed.Probe()
    setup_s, setup_wall = measure_setup(workload, probe)
    built = workloads.setup(workload)
    ops, outs, starts, lats = [], [], [], []
    rounds = 0
    last = 0.0
    # stop at the round boundary nearest to `seconds` of op time
    while rounds == 0 or sum(lats) + last / 2 < seconds or len(ops) < MIN_OPS:
        batch = workloads.make_round(workload, seed, rounds)
        o, st, lat = run_ops(batch, built, probe)
        ops += batch
        outs += o
        starts += st
        lats += lat
        last = sum(lat)
        rounds += 1
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = count_failures(ops, outs)
    norm = [probe.normalize(start, lat) for start, lat in zip(starts, lats)]
    values = {"setup_s": setup_s, **latency_metrics(norm), "peak_rss_mb": peak_rss_mb}
    info = {"rounds": rounds, "error_rate": failed / len(ops),
            "repeated_class_share": repeated_class_share(ops),
            "family_share": family_shares(ops, norm),
            "speed_factor": statistics.median(probe.seconds) / speed.NOMINAL_S,
            "wall": {"setup_s": setup_wall, **latency_metrics(lats)}}
    return len(ops), failed, {k: (v, END_TO_END[k]) for k, v in values.items()}, info


def traced(workload: str, seed: int):
    """Run each op once untraced and once with span wrappers, alternating
    which goes first so that neither gains from running second."""
    rounds = TRACE_ROUNDS[workload]
    ops = [op for r in range(rounds) for op in workloads.make_round(workload, seed, r)]
    probe = speed.Probe()
    tracer = tracing.Tracer()
    built = workloads.setup(workload)
    with tracer:
        built_traced = workloads.setup(workload)
    outs, plain, with_spans = [], [], []
    for i, op in enumerate(ops):
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            if with_tracer:
                tracer.op = i
                with tracer:
                    out, start, latency = timed(op, built_traced, probe)
                with_spans.append((start, latency))
            else:
                out, start, latency = timed(op, built, probe)
                plain.append((start, latency))
            outs.append(out)
    probe.sample()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")
    failed = count_failures([op for op in ops for _ in range(2)], outs)
    values = tracer.layer_metrics()
    values["workload.repeated_class_share"] = repeated_class_share(ops)
    plain_s = [probe.normalize(start, latency) for start, latency in plain]
    traced_s = [probe.normalize(start, latency) for start, latency in with_spans]
    # the typical op's overhead: robust to the few heavy ops, whose two runs
    # differ by more than the wrappers cost
    values["trace.overhead_ratio"] = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1
    info = {"rounds": rounds, "missing_targets": tracer.missing, "error_rate": failed / (2 * len(ops)),
            "family_share": family_shares(ops, plain_s)}
    return 2 * len(ops), failed, {k: (values[k], u) for k, u in tracing.METRICS.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_library()

    import numpy

    if args.trace:
        attempted, failed, metrics, info = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": numpy.__version__}
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "attempted": attempted, **info, **env}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
